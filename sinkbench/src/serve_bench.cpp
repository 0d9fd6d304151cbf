#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <barrier>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "benches.h"
#include "serve/protocol.h"
#include "serve/socket.h"

namespace sinkbench {

using namespace pnm;

namespace {

constexpr const char* kSocketFile = "serve.sock";
constexpr const char* kPortFile = "ports.txt";
/// Largest TraceData message the client sends (what `pnm loadgen` uses).
constexpr std::size_t kCoalesceBytes = 64 * 1024;
/// Record frames between Ping probes in a traced run.
constexpr std::size_t kPingEvery = 32;
constexpr auto kReadyDeadline = std::chrono::seconds(30);
constexpr auto kDrainDeadline = std::chrono::seconds(20);
constexpr auto kExitDeadline = std::chrono::seconds(10);
/// Any single blocking read longer than this fails the session.
constexpr int kRecvTimeoutS = 30;
constexpr int kAdminScrapes = 5;

double ms(Clock::duration d) { return std::chrono::duration<double, std::milli>(d).count(); }

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void set_recv_timeout(const serve::Socket& s, int seconds) {
  timeval tv{};
  tv.tv_sec = seconds;
  setsockopt(s.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

/// One GET against the daemon's admin plane. Returns the body of a 200
/// response; nullopt (with *error) otherwise, including on timeout.
std::optional<std::string> admin_get(std::uint16_t port, const std::string& path,
                                     int timeout_s, std::string* error) {
  serve::Socket s = serve::Socket::connect_tcp("127.0.0.1", port, error);
  if (!s.valid()) return std::nullopt;
  set_recv_timeout(s, timeout_s);
  std::string req = "GET " + path + " HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
  if (!s.send_all(ByteView(reinterpret_cast<const std::uint8_t*>(req.data()), req.size()))) {
    *error = "admin " + path + ": send failed";
    return std::nullopt;
  }
  std::string resp;
  char buf[16 * 1024];
  while (true) {
    long n = s.recv_some(buf, sizeof(buf));
    if (n == 0) break;
    if (n < 0) {
      *error = "admin " + path + ": no complete response within " +
               std::to_string(timeout_s) + " s";
      return std::nullopt;
    }
    resp.append(buf, static_cast<std::size_t>(n));
  }
  std::size_t body = resp.find("\r\n\r\n");
  if (resp.compare(0, 9, "HTTP/1.0 ") != 0 && resp.compare(0, 9, "HTTP/1.1 ") != 0) {
    *error = "admin " + path + ": malformed response";
    return std::nullopt;
  }
  if (resp.compare(9, 3, "200") != 0 || body == std::string::npos) {
    *error = "admin " + path + ": " + resp.substr(0, resp.find('\r'));
    return std::nullopt;
  }
  return resp.substr(body + 4);
}

/// A `pnm serve` child process. The destructor kills and reaps it, so no
/// daemon outlives the run whatever path the harness leaves by; the child
/// also dies with the harness (PR_SET_PDEATHSIG).
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { kill_and_reap(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool spawn(const std::string& pnm, const Workload& w, int index, std::string* error) {
    ::unlink(kPortFile);
    ::unlink(kSocketFile);
    err_path_ = "daemon-" + std::to_string(index) + ".err";
    std::string out_path = "daemon-" + std::to_string(index) + ".out";
    std::vector<std::string> args = {pnm,         "serve",      "--campaign", kTraceFile,
                                     "--unix",    kSocketFile,  "--port-file", kPortFile,
                                     "--shards",  std::to_string(kShards),
                                     "--threads", std::to_string(kThreadsPerLane)};
    if (w.scoped) args.insert(args.end(), {"--scoped", "1"});
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    auto t0 = Clock::now();
    pid_ = ::fork();
    if (pid_ < 0) {
      *error = "fork failed";
      return false;
    }
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      int out = ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      int err = ::open(err_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (out < 0 || err < 0) ::_exit(126);
      ::dup2(out, 1);
      ::dup2(err, 2);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    // Ready once the port file is completely written (its last line ends).
    while (true) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        *error = "daemon exited before it was ready: " + stderr_text();
        return false;
      }
      struct stat st {};
      if (::stat(kPortFile, &st) == 0 && st.st_size > 0) {
        std::string ports = read_text(kPortFile);
        std::size_t at = ports.find("admin=");
        if (at != std::string::npos && ports.find("unix=") != std::string::npos &&
            ports.back() == '\n') {
          admin_port_ = static_cast<std::uint16_t>(std::atoi(ports.c_str() + at + 6));
          break;
        }
      }
      if (Clock::now() - t0 > kReadyDeadline) {
        *error = "daemon not ready within the deadline: " + stderr_text();
        kill_and_reap();
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    setup_s_ = seconds_between(t0, Clock::now());
    return true;
  }

  /// /drain with a deadline, then wait for a clean exit; a daemon that
  /// misses either deadline is killed. Returns the drain report body.
  std::optional<std::string> drain(std::string* error) {
    auto body = admin_get(admin_port_, "/drain", static_cast<int>(kDrainDeadline.count()),
                          error);
    auto t0 = Clock::now();
    int status = 0;
    while (pid_ > 0 && ::waitpid(pid_, &status, WNOHANG) != pid_) {
      if (Clock::now() - t0 > kExitDeadline) {
        if (body) *error = "daemon did not exit after /drain";
        body.reset();
        kill_and_reap();
        return body;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    if (body && !(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
      *error = "daemon exited uncleanly after /drain: " + stderr_text();
      body.reset();
    }
    return body;
  }

  void kill_and_reap() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  std::string stderr_text() const {
    std::string text = read_text(err_path_);
    if (text.size() > 2000) text = "..." + text.substr(text.size() - 2000);
    return text.empty() ? "(daemon stderr empty)" : "daemon stderr: " + text;
  }

  pid_t pid() const { return pid_; }
  std::uint16_t admin_port() const { return admin_port_; }
  double setup_s() const { return setup_s_; }

 private:
  pid_t pid_ = -1;
  std::string err_path_;
  std::uint16_t admin_port_ = 0;
  double setup_s_ = 0.0;
};

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now().time_since_epoch())
          .count());
}

/// Client side of one connection: socket, message framer, credit balance.
struct Conn {
  serve::Socket sock;
  serve::MsgParser msgs;
  std::uint64_t credits = 0;
  std::optional<serve::HelloAck> ack;
  std::optional<serve::DigestReport> digest;
  std::string abort_reason;
  std::vector<double> rtt_ms;

  void on_msg(const serve::Msg& m) {
    switch (m.type) {
      case serve::MsgType::kHelloAck:
        ack = serve::decode_hello_ack(m.payload);
        break;
      case serve::MsgType::kCredit:
        if (auto n = serve::decode_credit(m.payload)) credits += *n;
        break;
      case serve::MsgType::kPong:
        if (auto token = serve::decode_token(m.payload))
          rtt_ms.push_back(static_cast<double>(now_us() - *token) / 1000.0);
        break;
      case serve::MsgType::kDigest:
        digest = serve::decode_digest(m.payload);
        break;
      case serve::MsgType::kAbort:
        abort_reason = serve::decode_abort(m.payload).value_or("(unparseable abort)");
        break;
      default:
        break;
    }
  }

  /// Read what is available (`block`: wait for at least one byte first).
  /// False once the connection closed, failed or was aborted.
  bool pump(bool block) {
    std::uint8_t buf[16 * 1024];
    while (true) {
      long n = block ? sock.recv_some(buf, sizeof(buf))
                     : sock.recv_nonblocking(buf, sizeof(buf));
      if (n == 0) return false;
      if (n < 0) return !block && n == -1;
      msgs.feed(ByteView(buf, static_cast<std::size_t>(n)));
      while (auto m = msgs.poll()) on_msg(*m);
      if (msgs.dead() || !abort_reason.empty()) return false;
      block = false;
    }
  }

  bool send(serve::MsgType type, ByteView payload) {
    return sock.send_all(serve::encode_msg(type, payload));
  }
};

struct SessionResult {
  std::string error;
  std::uint64_t records = 0;
  double receipt_ms = 0.0;  ///< connect .. Digest receipt
  double connect_ms = 0.0;  ///< connect .. HelloAck
  double credit_wait_us = 0.0;
  std::vector<double> rtt_ms;
};

/// One closed-loop session: stream record frames [first, first+count) of
/// the trace and wait for the Digest receipt, which must equal `expected`.
SessionResult run_session(const FramedTrace& t, const std::string& campaign_id,
                          std::size_t first, std::size_t count, const std::string& expected,
                          bool ping) {
  SessionResult res;
  Conn conn;
  auto fail = [&](const std::string& why) {
    res.error = conn.abort_reason.empty() ? why : why + " (server: " + conn.abort_reason + ")";
    return res;
  };
  auto t0 = Clock::now();
  std::string err;
  conn.sock = serve::Socket::connect_unix(kSocketFile, &err);
  if (!conn.sock.valid()) return fail("connect: " + err);
  set_recv_timeout(conn.sock, kRecvTimeoutS);
  serve::Hello hello;
  hello.campaign_id = campaign_id;
  if (!conn.send(serve::MsgType::kHello, serve::encode_hello(hello))) return fail("send Hello");
  // A message may arrive together with the peer's close: test for it, not
  // for pump()'s verdict on the connection.
  while (!conn.ack && conn.pump(true)) {
  }
  if (!conn.ack) return fail("no HelloAck");
  res.connect_ms = ms(Clock::now() - t0);
  conn.credits = conn.ack->credit_window;
  if (!conn.send(serve::MsgType::kTraceData, ByteView(t.data.data(), t.prologue)))
    return fail("send trace header");

  std::size_t i = first, end = first + count, since_ping = 0;
  while (i < end) {
    if (!conn.pump(false)) return fail("server closed mid-stream");
    if (conn.credits == 0) {
      auto c0 = Clock::now();
      if (!conn.pump(true)) return fail("no credit");
      res.credit_wait_us += std::chrono::duration<double, std::micro>(Clock::now() - c0).count();
      continue;
    }
    // Record frames are contiguous in the file: one send covers a run.
    std::size_t j = i, bytes = 0;
    while (j < end && j - i < conn.credits && bytes + t.record_lengths[j] <= kCoalesceBytes)
      bytes += t.record_lengths[j++];
    if (j == i) bytes = t.record_lengths[j++];
    if (!conn.send(serve::MsgType::kTraceData,
                   ByteView(t.data.data() + t.record_offsets[i], bytes)))
      return fail("send records");
    conn.credits -= j - i;
    since_ping += j - i;
    i = j;
    if (ping && since_ping >= kPingEvery) {
      since_ping = 0;
      if (!conn.send(serve::MsgType::kPing, serve::encode_token(now_us())))
        return fail("send Ping");
    }
  }
  if (!conn.send(serve::MsgType::kEof, serve::encode_eof(serve::Eof{count})))
    return fail("send Eof");
  while (!conn.digest && conn.pump(true)) {
  }
  if (!conn.digest) return fail("no Digest receipt");
  res.receipt_ms = ms(Clock::now() - t0);
  res.records = conn.digest->records;
  res.rtt_ms = std::move(conn.rtt_ms);
  if (conn.digest->records != count)
    return fail("Digest covers " + std::to_string(conn.digest->records) + " of " +
                std::to_string(count) + " records");
  if (conn.digest->digest_hex != expected) return fail("session digest differs from the oracle");
  return res;
}

std::optional<std::uint64_t> json_u64(const std::string& body, const std::string& key) {
  std::size_t at = body.find("\"" + key + "\":");
  if (at == std::string::npos) return std::nullopt;
  return std::strtoull(body.c_str() + at + key.size() + 3, nullptr, 10);
}

/// Everything one daemon lifetime (a round) measured.
struct Round {
  double setup_s = 0.0;
  double elapsed_s = 0.0;
  std::uint64_t records = 0;
  std::vector<SessionResult> sessions;
  double hwm_mb = 0.0, vmsize_mb = 0.0, threads = 0.0, fds = 0.0;
  std::vector<double> scrape_ms;
};

/// Launch a daemon, run `per_conn` back-to-back sessions on each client
/// connection, read what the daemon holds, drain it. Failures go into `r`.
Round serve_round(const Workload& w, const FramedTrace& trace, const Oracle& oracle,
                  const std::string& pnm_binary, std::size_t per_conn, bool traced, int index,
                  Result& r) {
  Round round;
  const std::string campaign_id = serve::campaign_id_from_meta(trace.meta);
  std::string error;
  Daemon daemon;
  if (!daemon.spawn(pnm_binary, w, index, &error)) {
    r.attempted += per_conn * kServeConnections;
    r.failed += per_conn * kServeConnections;
    r.fail("serve: " + error);
    return round;
  }
  round.setup_s = daemon.setup_s();

  // Each connection first runs one untimed warm-up session (checked like
  // the rest), so the daemon's first-connection costs stay out of the
  // figures; timing starts once both connections are warm.
  std::vector<SessionResult> warmups(kServeConnections);
  std::vector<std::vector<SessionResult>> per_slot(kServeConnections);
  std::barrier warm(static_cast<std::ptrdiff_t>(kServeConnections + 1));
  auto session = [&](std::size_t c, std::size_t j) {
    std::size_t slice = (c + kServeConnections * j) % w.slices();
    return run_session(trace, campaign_id, slice * w.slice_records, w.slice_records,
                       oracle.slice_digests[slice], traced);
  };
  Clock::time_point t0;
  {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kServeConnections; ++c) {
      clients.emplace_back([&, c] {
        warmups[c] = session(c, per_conn);
        warm.arrive_and_wait();
        if (!warmups[c].error.empty()) return;
        for (std::size_t j = 0; j < per_conn; ++j) {
          per_slot[c].push_back(session(c, j));
          if (!per_slot[c].back().error.empty()) break;
        }
      });
    }
    warm.arrive_and_wait();
    t0 = Clock::now();
    for (auto& t : clients) t.join();
  }
  round.elapsed_s = seconds_between(t0, Clock::now());

  // What the daemon holds after its sessions, read before drain.
  const pid_t pid = daemon.pid();
  round.hwm_mb = static_cast<double>(proc_status_field(pid, "VmHWM").value_or(0)) / 1024.0;
  round.vmsize_mb = static_cast<double>(proc_status_field(pid, "VmSize").value_or(0)) / 1024.0;
  round.threads = static_cast<double>(proc_status_field(pid, "Threads").value_or(0));
  round.fds = static_cast<double>(proc_fd_count(pid).value_or(0));
  if (traced) {
    for (int k = 0; k < kAdminScrapes; ++k) {
      auto a = Clock::now();
      if (!admin_get(daemon.admin_port(), "/metrics", kRecvTimeoutS, &error)) {
        r.fail("serve: " + error);
        break;
      }
      round.scrape_ms.push_back(ms(Clock::now() - a));
    }
  }

  bool ok = r.correct;
  std::uint64_t warmup_records = 0;
  for (const SessionResult& s : warmups) {
    r.attempted += 1;
    warmup_records += s.records;
    if (!s.error.empty()) {
      r.failed += 1;
      r.fail("warm-up session: " + s.error);
    }
  }
  for (auto& slot : per_slot) {
    for (SessionResult& s : slot) {
      r.attempted += 1;
      if (!s.error.empty()) {
        r.failed += 1;
        r.fail("session: " + s.error);
        continue;
      }
      round.records += s.records;
      round.sessions.push_back(std::move(s));
    }
  }
  std::size_t planned = per_conn * kServeConnections;
  std::size_t ran = 0;
  for (const auto& slot : per_slot) ran += slot.size();
  r.attempted += planned - ran;
  r.failed += planned - ran;

  auto drained = daemon.drain(&error);
  if (!drained) {
    r.fail("serve drain: " + error);
  } else if (json_u64(*drained, "records") != round.records + warmup_records) {
    r.fail("daemon drained " + std::to_string(json_u64(*drained, "records").value_or(0)) +
           " records, sessions acknowledged " +
           std::to_string(round.records + warmup_records));
  }
  if (ok && !r.correct) r.errors.push_back(daemon.stderr_text());
  return round;
}

}  // namespace

Result run_serve(const Workload& w, double seconds, const std::string& pnm_binary,
                 bool traced) {
  Result r;
  auto oracle = Oracle::load(kOracleFile);
  std::string error;
  auto framed = load_framed(kTraceFile, &error);
  if (!oracle || !framed || oracle->slice_digests.size() != w.slices() ||
      framed->record_offsets.size() != oracle->records) {
    r.fail("serve: bad run directory: " + error);
    return r;
  }
  // Every daemon serves the same number of sessions, so what it holds at the
  // end (leaked session threads included) does not depend on speed. A serve
  // workload repeats such rounds for the run; other workloads' traced runs
  // stream every slice once.
  const std::size_t per_conn = w.serve ? w.sessions_per_conn : w.slices() / kServeConnections;

  if (traced) {
    Round round = serve_round(w, *framed, *oracle, pnm_binary, per_conn, true, 0, r);
    std::vector<double> connects, rtts;
    double credit_wait_us = 0.0;
    for (const SessionResult& s : round.sessions) {
      connects.push_back(s.connect_ms);
      credit_wait_us += s.credit_wait_us;
      rtts.insert(rtts.end(), s.rtt_ms.begin(), s.rtt_ms.end());
    }
    double n = round.records ? static_cast<double>(round.records) : 1.0;
    r.add("serve.connect_ms", median(connects), "ms");
    r.add("serve.credit_wait_us", credit_wait_us / n, "us");
    r.add("serve.ping_rtt_p99_ms", percentile(rtts, 0.99), "ms");
    r.add("serve.admin_scrape_ms", median(round.scrape_ms), "ms");
    r.add("serve.threads_end", round.threads, "count");
    r.add("serve.vmsize_mb_end", round.vmsize_mb, "MB");
    r.add("serve.fds_end", round.fds, "count");
    r.note("sessions", std::to_string(round.sessions.size()));
    r.note("ping_samples", std::to_string(rtts.size()));
    return r;
  }

  // Every figure is a median over rounds, so a stretch of machine noise that
  // spoils a minority of rounds does not move it.
  std::vector<double> setups, rates, p50s, p99s, hwms;
  std::size_t samples = 0;
  auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  // At least three rounds, so even a slow run gives a median.
  for (int index = 0; setups.size() < 3 || Clock::now() < deadline; ++index) {
    Round round = serve_round(w, *framed, *oracle, pnm_binary, per_conn, false, index, r);
    if (!r.correct) break;
    std::vector<double> receipts;
    for (const SessionResult& s : round.sessions) receipts.push_back(s.receipt_ms);
    samples += receipts.size();
    setups.push_back(round.setup_s);
    rates.push_back(static_cast<double>(round.records) / round.elapsed_s);
    p50s.push_back(percentile(receipts, 0.50));
    p99s.push_back(percentile(receipts, 0.99));
    hwms.push_back(round.hwm_mb);
  }
  r.add("records_per_s", median(rates), "1/s");
  r.add("receipt_p50_ms", median(p50s), "ms");
  r.add("receipt_p99_ms", median(p99s), "ms");
  r.add("setup_s", median(setups), "s");
  r.add("peak_rss_mb", median(hwms), "MB");
  r.note("rounds", std::to_string(rates.size()));
  r.note("sessions_per_round", std::to_string(per_conn * kServeConnections));
  r.note("receipt_samples", std::to_string(samples));
  r.note("receipt_percentiles", "median over rounds of each round's percentile");
  return r;
}

}  // namespace sinkbench
