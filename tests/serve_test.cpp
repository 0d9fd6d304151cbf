// End-to-end tests for the `pnm serve` daemon: an in-process Server on
// ephemeral ports, driven by the real loadgen client over the real protocol.
// The contracts pinned here are the subsystem's acceptance bar:
//   - per-client digest receipts are byte-identical to `pnm replay` on the
//     client's own trace, for any shard count and session interleaving;
//   - graceful drain lets in-flight work complete and reports a global
//     digest that matches replay when arrival order is a single stream;
//   - live /rekey advances the key epoch without dropping a single record;
//   - sessions for a different campaign are refused at the handshake.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.h"
#include "ingest/replay.h"
#include "obs/span.h"
#include "serve/loadgen.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/socket.h"

namespace pnm {
namespace {

// ---------------------------------------------------------------------------
// Fixture: two recorded traces of the SAME campaign (seed/forwarders/scheme
// drive the campaign id; the attack does not), plus one foreign-campaign
// trace. Recording is the expensive step, so it happens once per process.

struct ServeFixture {
  std::string trace_a;        // removal attack
  std::string trace_b;        // insertion attack, same campaign
  std::string trace_foreign;  // different seed → different campaign id
  ingest::ReplayResult replay_a;
  ingest::ReplayResult replay_b;
};

const ServeFixture& serve_fixture() {
  static const ServeFixture* fixture = [] {
    auto* f = new ServeFixture;
    std::string base = ::testing::TempDir() + "/serve_test." +
                       std::to_string(::getpid());
    auto record = [&](const std::string& tag, std::uint64_t seed,
                      attack::AttackKind attack) {
      std::string path = base + "." + tag + ".pnmtrace";
      core::ChainExperimentConfig cfg;
      cfg.forwarders = 8;
      cfg.packets = 120;
      cfg.seed = seed;
      cfg.attack = attack;
      cfg.record_path = path;
      core::run_chain_experiment(cfg);
      return path;
    };
    f->trace_a = record("a", 21, attack::AttackKind::kRemoval);
    f->trace_b = record("b", 21, attack::AttackKind::kInsertion);
    f->trace_foreign = record("x", 31, attack::AttackKind::kRemoval);
    f->replay_a = ingest::replay_file(f->trace_a);
    f->replay_b = ingest::replay_file(f->trace_b);
    return f;
  }();
  return *fixture;
}

std::unique_ptr<serve::Server> make_server(serve::ServerConfig cfg) {
  const auto& fx = serve_fixture();
  if (cfg.campaign_trace.empty()) cfg.campaign_trace = fx.trace_a;
  std::string error;
  auto server = serve::Server::create(cfg, &error);
  EXPECT_NE(server, nullptr) << error;
  if (server) server->start();
  return server;
}

const serve::SessionResult* result_for(const serve::LoadgenStats& stats,
                                       const std::string& trace,
                                       std::size_t nth = 0) {
  std::size_t seen = 0;
  for (const auto& r : stats.session_results)
    if (r.trace == trace && seen++ == nth) return &r;
  return nullptr;
}

TEST(Serve, ConcurrentSessionsGetReplayIdenticalDigests) {
  const auto& fx = serve_fixture();
  ASSERT_TRUE(fx.replay_a.ok) << fx.replay_a.error;
  ASSERT_TRUE(fx.replay_b.ok) << fx.replay_b.error;

  serve::ServerConfig cfg;
  cfg.shards = 2;
  cfg.threads = 2;
  cfg.batch_size = 16;        // force many small batches across lanes
  cfg.credit_window = 32;     // force real credit round-trips
  auto server = make_server(cfg);
  ASSERT_NE(server, nullptr);

  serve::LoadgenConfig lg;
  lg.port = server->tcp_port();
  lg.traces = {fx.trace_a, fx.trace_b};
  lg.connections = 4;  // two concurrent sessions per trace
  lg.ping_every = 16;
  serve::LoadgenStats stats = serve::run_loadgen(lg);
  ASSERT_TRUE(stats.ok) << stats.error;
  ASSERT_EQ(stats.sessions, 4u);

  // Every session of trace A folds exactly replay(A)'s digest, B likewise —
  // regardless of how the four streams interleaved in the shared pipeline.
  for (std::size_t nth : {std::size_t{0}, std::size_t{1}}) {
    const auto* ra = result_for(stats, fx.trace_a, nth);
    const auto* rb = result_for(stats, fx.trace_b, nth);
    ASSERT_NE(ra, nullptr);
    ASSERT_NE(rb, nullptr);
    EXPECT_EQ(ra->records, fx.replay_a.stats.records);
    EXPECT_EQ(ra->digest_hex, fx.replay_a.verdict_digest) << "session " << nth;
    EXPECT_EQ(rb->records, fx.replay_b.stats.records);
    EXPECT_EQ(rb->digest_hex, fx.replay_b.verdict_digest) << "session " << nth;
  }
  EXPECT_NE(fx.replay_a.verdict_digest, fx.replay_b.verdict_digest);

  serve::DrainReport report = server->drain();
  EXPECT_EQ(report.records,
            2 * (fx.replay_a.stats.records + fx.replay_b.stats.records));
  EXPECT_EQ(report.sessions, 4u);
  EXPECT_TRUE(report.error.empty()) << report.error;
}

TEST(Serve, UnixSocketSessionMatchesTcp) {
  const auto& fx = serve_fixture();
  serve::ServerConfig cfg;
  cfg.unix_socket_path = ::testing::TempDir() + "/serve_test." +
                         std::to_string(::getpid()) + ".sock";
  auto server = make_server(cfg);
  ASSERT_NE(server, nullptr);

  serve::LoadgenConfig lg;
  lg.unix_socket_path = server->unix_socket_path();
  lg.traces = {fx.trace_a};
  serve::LoadgenStats stats = serve::run_loadgen(lg);
  ASSERT_TRUE(stats.ok) << stats.error;
  ASSERT_EQ(stats.sessions, 1u);
  EXPECT_EQ(stats.session_results[0].digest_hex, fx.replay_a.verdict_digest);
  server->drain();
}

TEST(Serve, DrainReportsReplayDigestForASingleStream) {
  // With exactly one session the global arrival order IS the stream order,
  // so the drain report's digest must equal `pnm replay` on that trace —
  // and draining again must return the same final report.
  const auto& fx = serve_fixture();
  auto server = make_server({});
  ASSERT_NE(server, nullptr);

  serve::LoadgenConfig lg;
  lg.port = server->tcp_port();
  lg.traces = {fx.trace_a};
  serve::LoadgenStats stats = serve::run_loadgen(lg);
  ASSERT_TRUE(stats.ok) << stats.error;

  EXPECT_TRUE(server->healthy());
  serve::DrainReport report = server->drain();
  EXPECT_FALSE(server->healthy());
  EXPECT_EQ(report.records, fx.replay_a.stats.records);
  EXPECT_EQ(report.sessions, 1u);
  EXPECT_EQ(report.verdict_digest, fx.replay_a.verdict_digest);

  serve::DrainReport again = server->drain();
  EXPECT_EQ(again.records, report.records);
  EXPECT_EQ(again.verdict_digest, report.verdict_digest);
  // wait() after a completed drain returns immediately with the same report.
  serve::DrainReport waited = server->wait();
  EXPECT_EQ(waited.verdict_digest, report.verdict_digest);
}

TEST(Serve, RekeyMidStreamDropsNoRecords) {
  // Sessions stream continuously while the main thread swaps key epochs
  // under them. The acceptance bar: every session still gets every record
  // acknowledged (the Digest receipt counts exactly the records it sent) and
  // the epoch advances — records crossing the boundary verify under the new
  // keys instead of being dropped.
  const auto& fx = serve_fixture();
  serve::ServerConfig cfg;
  cfg.shards = 2;
  cfg.credit_window = 16;  // small window → streaming spans the rekeys
  auto server = make_server(cfg);
  ASSERT_NE(server, nullptr);
  ASSERT_EQ(server->key_epoch(), 0u);

  std::atomic<bool> streaming_done{false};
  serve::LoadgenStats stats;
  std::thread client([&] {
    serve::LoadgenConfig lg;
    lg.port = server->tcp_port();
    lg.traces = {fx.trace_a, fx.trace_b};
    lg.connections = 2;
    lg.repeat = 3;  // 6 sessions back to back: rekeys land mid-stream
    stats = serve::run_loadgen(lg);
    streaming_done.store(true);
  });

  std::uint64_t epochs = 0;
  bool rekey_timed_out = false;
  while (!streaming_done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    std::optional<std::uint64_t> epoch = server->rekey();
    if (!epoch) {  // join the client before failing the test
      rekey_timed_out = true;
      break;
    }
    epochs = *epoch;
  }
  client.join();
  ASSERT_FALSE(rekey_timed_out) << "rekey failed to quiesce the pipeline";

  ASSERT_TRUE(stats.ok) << stats.error;
  EXPECT_GE(epochs, 1u);
  EXPECT_EQ(server->key_epoch(), epochs);
  ASSERT_EQ(stats.sessions, 6u);
  for (const auto& r : stats.session_results) {
    std::size_t expected = r.trace == fx.trace_a ? fx.replay_a.stats.records
                                                 : fx.replay_b.stats.records;
    EXPECT_EQ(r.records, expected) << r.trace;  // zero drops, full ack
    EXPECT_FALSE(r.digest_hex.empty());
  }
  serve::DrainReport report = server->drain();
  EXPECT_EQ(report.key_epoch, epochs);
  EXPECT_EQ(report.records,
            3 * (fx.replay_a.stats.records + fx.replay_b.stats.records));
}

TEST(Serve, SessionsBeforeAndAfterRekeyBothComplete) {
  // The epoch boundary between whole sessions: a pre-rekey session and a
  // post-rekey session both get full acknowledgement; their digests differ
  // because marks verify under different keys (the digest covers verdicts).
  const auto& fx = serve_fixture();
  auto server = make_server({});
  ASSERT_NE(server, nullptr);

  serve::LoadgenConfig lg;
  lg.port = server->tcp_port();
  lg.traces = {fx.trace_a};
  serve::LoadgenStats before = serve::run_loadgen(lg);
  ASSERT_TRUE(before.ok) << before.error;
  EXPECT_EQ(before.session_results[0].digest_hex, fx.replay_a.verdict_digest);

  ASSERT_EQ(server->rekey().value_or(0), 1u);

  serve::LoadgenStats after = serve::run_loadgen(lg);
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_EQ(after.session_results[0].records, fx.replay_a.stats.records);
  EXPECT_NE(after.session_results[0].digest_hex,
            before.session_results[0].digest_hex);
  server->drain();
}

TEST(Serve, MidStreamDisconnectLeavesDaemonHealthy) {
  // A client that pushes records and then vanishes without Eof tears its
  // session down while those records may still sit in shard queues; the
  // pipeline's shared ownership of the stream sink must keep the digest
  // alive (under ASan this is the use-after-free regression), and the
  // daemon must keep serving later clients.
  const auto& fx = serve_fixture();
  auto server = make_server({});
  ASSERT_NE(server, nullptr);

  std::ifstream in(fx.trace_a, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string raw((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  {
    // Raw protocol client: Hello, the whole trace in one TraceData message,
    // then an abrupt close — no Eof, no reads of acks or credits.
    std::string error;
    serve::Socket sock =
        serve::Socket::connect_tcp("127.0.0.1", server->tcp_port(), &error);
    ASSERT_TRUE(sock.valid()) << error;
    serve::Hello hello;
    hello.campaign_id = server->campaign_id();
    Bytes framed =
        serve::encode_msg(serve::MsgType::kHello, serve::encode_hello(hello));
    ASSERT_TRUE(sock.send_all(ByteView(framed.data(), framed.size())));
    framed = serve::encode_msg(
        serve::MsgType::kTraceData,
        ByteView(reinterpret_cast<const std::uint8_t*>(raw.data()), raw.size()));
    ASSERT_TRUE(sock.send_all(ByteView(framed.data(), framed.size())));
  }  // socket closes here, mid-stream

  // The daemon survives: a well-behaved session still gets its
  // replay-identical digest, and drain completes with no lane error.
  serve::LoadgenConfig lg;
  lg.port = server->tcp_port();
  lg.traces = {fx.trace_a};
  serve::LoadgenStats good = serve::run_loadgen(lg);
  ASSERT_TRUE(good.ok) << good.error;
  EXPECT_EQ(good.session_results[0].digest_hex, fx.replay_a.verdict_digest);
  serve::DrainReport report = server->drain();
  EXPECT_TRUE(report.error.empty()) << report.error;
  EXPECT_GE(report.records, fx.replay_a.stats.records);
}

TEST(Serve, ForeignCampaignIsRefusedAtHandshake) {
  const auto& fx = serve_fixture();
  auto server = make_server({});
  ASSERT_NE(server, nullptr);

  serve::LoadgenConfig lg;
  lg.port = server->tcp_port();
  lg.traces = {fx.trace_foreign};
  serve::LoadgenStats stats = serve::run_loadgen(lg);
  EXPECT_FALSE(stats.ok);
  EXPECT_NE(stats.error.find("campaign"), std::string::npos) << stats.error;

  // The refusal must not poison the daemon for legitimate clients.
  lg.traces = {fx.trace_a};
  serve::LoadgenStats good = serve::run_loadgen(lg);
  ASSERT_TRUE(good.ok) << good.error;
  EXPECT_EQ(good.session_results[0].digest_hex, fx.replay_a.verdict_digest);
  serve::DrainReport report = server->drain();
  EXPECT_EQ(report.records, fx.replay_a.stats.records);
}

TEST(Serve, MetricsExposeServePlane) {
  const auto& fx = serve_fixture();
  auto server = make_server({});
  ASSERT_NE(server, nullptr);

  serve::LoadgenConfig lg;
  lg.port = server->tcp_port();
  lg.traces = {fx.trace_a};
  serve::LoadgenStats stats = serve::run_loadgen(lg);
  ASSERT_TRUE(stats.ok) << stats.error;

  std::string prom = server->metrics_prometheus();
  for (const char* name :
       {"pnm_serve_sessions_total", "pnm_serve_records_total",
        "pnm_serve_bytes_rx_total", "pnm_serve_key_epoch",
        "pnm_ingest_records_total", "pnm_packets_verified_total"}) {
    EXPECT_NE(prom.find(name), std::string::npos) << name << "\n" << prom;
  }
  server->drain();
}

// Minimal HTTP/1.0 GET against the admin plane: send the request line, read
// until the server closes. The admin responder always sets Connection: close,
// so EOF delimits the response.
std::string admin_http_get(std::uint16_t port, const std::string& path) {
  std::string error;
  serve::Socket sock = serve::Socket::connect_tcp("127.0.0.1", port, &error);
  if (!sock.valid()) {
    ADD_FAILURE() << "admin connect failed: " << error;
    return "";
  }
  std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (!sock.send_all(ByteView(reinterpret_cast<const std::uint8_t*>(req.data()),
                              req.size()))) {
    ADD_FAILURE() << "admin send failed";
    return "";
  }
  std::string response;
  char buf[4096];
  long n;
  while ((n = sock.recv_some(buf, sizeof(buf))) > 0)
    response.append(buf, static_cast<std::size_t>(n));
  return response;
}

TEST(Serve, SpansEndpointExposesTraceRing) {
  const auto& fx = serve_fixture();
  auto& spans = obs::SpanCollector::global();
  spans.enable();
  spans.clear();

  auto server = make_server({});
  ASSERT_NE(server, nullptr);

  // With an empty ring the endpoint still answers well-formed JSON.
  std::string empty = admin_http_get(server->admin_port(), "/spans");
  EXPECT_NE(empty.find("200 OK"), std::string::npos) << empty;
  EXPECT_NE(empty.find("application/json"), std::string::npos) << empty;
  EXPECT_NE(empty.find("\"traceEvents\""), std::string::npos) << empty;

  // Real ingest traffic lands instrumented scopes (verify/fold batches) in
  // the ring, and /spans serves them in Chrome trace-event form.
  serve::LoadgenConfig lg;
  lg.port = server->tcp_port();
  lg.traces = {fx.trace_a};
  serve::LoadgenStats stats = serve::run_loadgen(lg);
  ASSERT_TRUE(stats.ok) << stats.error;

  std::string traced = admin_http_get(server->admin_port(), "/spans");
  EXPECT_NE(traced.find("200 OK"), std::string::npos) << traced;
  EXPECT_NE(traced.find("\"ph\":\"X\""), std::string::npos) << traced;
  EXPECT_NE(traced.find("verify_batch"), std::string::npos) << traced;

  server->drain();
  spans.disable();
  spans.clear();
}

// ---------------------------------------------------------------------------
// Resource bounds: requests and sessions leave no threads or stack mappings
// behind, idle or half-open clients neither delay other clients nor hold up
// drain and ~Server, and the connection cap and accept-error handling follow
// the process's descriptor limit.

/// A numeric field of /proc/self/status ("VmSize" in kB, "Threads").
std::uint64_t self_status(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.compare(0, field.size() + 1, field + ":") == 0)
      return std::strtoull(line.c_str() + field.size() + 1, nullptr, 10);
  return 0;
}

std::uint64_t metric(serve::Server& server, const std::string& name) {
  return server.counters()->registry().counter(name).value();
}

std::int64_t open_connections(serve::Server& server) {
  return server.counters()->registry().gauge("serve_connections").value();
}

/// Wait (up to `limit`) for `done`; true if it came true.
template <typename Pred>
bool eventually(Pred done, std::chrono::milliseconds limit = std::chrono::seconds(5)) {
  auto until = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    if (std::chrono::steady_clock::now() > until) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Drain and destroy `server` on a helper thread and report whether that
/// finished within `limit`. If it did not, `unblock` runs (closing the
/// clients that hold the daemon up) so the helper can still be joined and
/// the test fails instead of hanging.
template <typename Unblock>
bool drained_and_destroyed_within(std::unique_ptr<serve::Server> server,
                                  std::chrono::milliseconds limit, Unblock unblock) {
  std::atomic<bool> finished{false};
  std::thread teardown([&] {
    server->drain();
    server.reset();
    finished.store(true);
  });
  bool in_time = eventually([&] { return finished.load(); }, limit);
  if (!in_time) unblock();
  teardown.join();
  return in_time;
}

Bytes framed(serve::MsgType type, ByteView payload) {
  return serve::encode_msg(type, payload);
}

serve::Socket connect_or_fail(std::uint16_t port) {
  std::string error;
  serve::Socket sock = serve::Socket::connect_tcp("127.0.0.1", port, &error);
  EXPECT_TRUE(sock.valid()) << error;
  return sock;
}

/// Bound every blocking read on `sock` to 5 s.
void recv_timeout(serve::Socket& sock) {
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

/// Read one protocol message from a client socket.
std::optional<serve::Msg> read_msg(serve::Socket& sock) {
  recv_timeout(sock);
  serve::MsgParser parser;
  std::uint8_t buf[4096];
  while (true) {
    if (auto msg = parser.poll()) return msg;
    long n = sock.recv_some(buf, sizeof(buf));
    if (n <= 0) return std::nullopt;
    parser.feed(ByteView(buf, static_cast<std::size_t>(n)));
  }
}

TEST(Serve, ThreadsAndVmSizeStayFlatAcrossAdminAndSessionChurn) {
  const auto& fx = serve_fixture();
  serve::ServerConfig cfg;
  cfg.shards = 2;
  auto server = make_server(cfg);
  ASSERT_NE(server, nullptr);
  serve::LoadgenConfig lg;
  lg.port = server->tcp_port();
  lg.traces = {fx.trace_a, fx.trace_b};
  lg.connections = 2;
  // Warm-up: the client threads' malloc arenas and cached stacks are the
  // test process's, not the daemon's; let them exist before the baseline.
  ASSERT_TRUE(serve::run_loadgen(lg).ok);
  admin_http_get(server->admin_port(), "/healthz");
  const std::uint64_t threads0 = self_status("Threads");
  const std::uint64_t vm0_kb = self_status("VmSize");

  for (int i = 0; i < 300; ++i) {
    std::string r = admin_http_get(server->admin_port(), "/healthz");
    ASSERT_NE(r.find("200 OK"), std::string::npos) << r;
  }
  lg.repeat = 50;  // 100 sessions
  serve::LoadgenStats stats = serve::run_loadgen(lg);
  ASSERT_TRUE(stats.ok) << stats.error;
  ASSERT_EQ(stats.sessions, 100u);

  EXPECT_EQ(self_status("Threads"), threads0);
  const double growth_mb =
      (static_cast<double>(self_status("VmSize")) - static_cast<double>(vm0_kb)) / 1024.0;
  EXPECT_LT(growth_mb, 64.0);
  EXPECT_TRUE(eventually([&] { return open_connections(*server) == 0; }));
  EXPECT_EQ(server->drain().sessions, 102u);
}

TEST(Serve, HealthzAnswersPromptlyBesideIdleAdminClients) {
  auto server = make_server({});
  ASSERT_NE(server, nullptr);
  std::vector<serve::Socket> idle;
  for (int i = 0; i < 50; ++i) idle.push_back(connect_or_fail(server->admin_port()));

  auto t0 = std::chrono::steady_clock::now();
  std::string r = admin_http_get(server->admin_port(), "/healthz");
  auto took = std::chrono::steady_clock::now() - t0;
  EXPECT_NE(r.find("200 OK"), std::string::npos) << r;
  EXPECT_LT(took, std::chrono::seconds(1));

  // The idle clients never send a byte; they must not hold the daemon up.
  EXPECT_TRUE(drained_and_destroyed_within(std::move(server), std::chrono::seconds(5),
                                           [&] { idle.clear(); }));
}

TEST(Serve, DrainIsPromptWithIdleAndHalfOpenClientsAttached) {
  auto server = make_server({});
  ASSERT_NE(server, nullptr);
  // An admin client that never sends its request, a session that never
  // sends Hello, and one that stops half way through its Hello frame.
  serve::Socket admin = connect_or_fail(server->admin_port());
  serve::Socket silent = connect_or_fail(server->tcp_port());
  serve::Socket half = connect_or_fail(server->tcp_port());
  serve::Hello hello;
  hello.campaign_id = server->campaign_id();
  Bytes msg = framed(serve::MsgType::kHello, serve::encode_hello(hello));
  ASSERT_TRUE(half.send_all(ByteView(msg.data(), msg.size() / 2)));
  ASSERT_TRUE(eventually([&] { return open_connections(*server) == 3; }));

  EXPECT_TRUE(drained_and_destroyed_within(std::move(server), std::chrono::seconds(5), [&] {
    admin.close();
    silent.close();
    half.close();
  }));
}

/// Lowers this process's own RLIMIT_NOFILE soft limit for one scope.
class ScopedFdLimit {
 public:
  explicit ScopedFdLimit(rlim_t soft) {
    ::getrlimit(RLIMIT_NOFILE, &saved_);
    rlimit lowered = saved_;
    lowered.rlim_cur = soft;
    ok_ = ::setrlimit(RLIMIT_NOFILE, &lowered) == 0;
  }
  ~ScopedFdLimit() { ::setrlimit(RLIMIT_NOFILE, &saved_); }
  bool ok() const { return ok_; }

 private:
  rlimit saved_{};
  bool ok_ = false;
};

TEST(Serve, ConnectionsOverTheFdDerivedCapAreRefused) {
  // The cap is the soft RLIMIT_NOFILE minus a 64-fd reserve: 3 here.
  ScopedFdLimit limit(64 + 3);
  ASSERT_TRUE(limit.ok());
  auto server = make_server({});
  ASSERT_NE(server, nullptr);
  std::vector<serve::Socket> held;
  for (int i = 0; i < 3; ++i) held.push_back(connect_or_fail(server->tcp_port()));
  ASSERT_TRUE(eventually([&] { return open_connections(*server) == 3; }));

  serve::Socket over = connect_or_fail(server->tcp_port());
  std::optional<serve::Msg> refusal = read_msg(over);
  ASSERT_TRUE(refusal.has_value());
  ASSERT_EQ(refusal->type, serve::MsgType::kAbort);
  EXPECT_EQ(serve::decode_abort(refusal->payload).value_or(""), "connection limit");
  serve::Socket admin = connect_or_fail(server->admin_port());
  recv_timeout(admin);
  std::string admin_refusal;
  char buf[512];
  for (long n; (n = admin.recv_some(buf, sizeof(buf))) > 0;)
    admin_refusal.append(buf, static_cast<std::size_t>(n));
  EXPECT_EQ(admin_refusal.rfind("HTTP/1.0 503", 0), 0u) << admin_refusal;

  // A slot frees up: the next session is served in full.
  held.pop_back();
  ASSERT_TRUE(eventually([&] { return open_connections(*server) == 2; }));
  serve::LoadgenConfig lg;
  lg.port = server->tcp_port();
  lg.traces = {serve_fixture().trace_a};
  serve::LoadgenStats stats = serve::run_loadgen(lg);
  ASSERT_TRUE(stats.ok) << stats.error;
  EXPECT_EQ(stats.session_results[0].digest_hex, serve_fixture().replay_a.verdict_digest);
  held.clear();
  server->drain();
}

TEST(Serve, AcceptSurvivesFdExhaustion) {
  ScopedFdLimit limit(64 + 16);
  ASSERT_TRUE(limit.ok());
  auto server = make_server({});
  ASSERT_NE(server, nullptr);

  // Use up every descriptor but one, connect with that one: the daemon's
  // accept() now fails with EMFILE while the connection waits in the
  // backlog.
  std::vector<int> filler;
  for (int fd; (fd = ::open("/dev/null", O_RDONLY)) >= 0;) filler.push_back(fd);
  ASSERT_FALSE(filler.empty());
  ::close(filler.back());
  filler.pop_back();
  serve::Socket client = connect_or_fail(server->tcp_port());
  EXPECT_TRUE(eventually([&] { return metric(*server, "serve_accept_errors") > 0; }));

  // Pressure clears: the waiting client is accepted and handshakes.
  for (int fd : filler) ::close(fd);
  serve::Hello hello;
  hello.campaign_id = server->campaign_id();
  Bytes msg = framed(serve::MsgType::kHello, serve::encode_hello(hello));
  ASSERT_TRUE(client.send_all(ByteView(msg.data(), msg.size())));
  std::optional<serve::Msg> ack = read_msg(client);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->type, serve::MsgType::kHelloAck);

  // And a fresh session still gets its replay-identical receipt.
  serve::LoadgenConfig lg;
  lg.port = server->tcp_port();
  lg.traces = {serve_fixture().trace_a};
  serve::LoadgenStats stats = serve::run_loadgen(lg);
  ASSERT_TRUE(stats.ok) << stats.error;
  EXPECT_EQ(stats.session_results[0].digest_hex, serve_fixture().replay_a.verdict_digest);
  client.close();
  server->drain();
}

}  // namespace
}  // namespace pnm
