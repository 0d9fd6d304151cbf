#include "serve/server.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <optional>
#include <utility>

#include "crypto/sha256.h"
#include "marking/scheme.h"
#include "obs/exposition.h"
#include "serve/admin.h"
#include "serve/session.h"
#include "trace/reader.h"

namespace pnm::serve {

namespace {

constexpr std::size_t kRecvChunk = 64 * 1024;
constexpr auto kDrainGrace = std::chrono::seconds(20);
constexpr auto kRekeyGrace = std::chrono::seconds(30);
/// Longest poll sleep while a rekey waits for the pipeline to go quiet.
constexpr auto kRekeyPoll = std::chrono::milliseconds(1);
/// Accept pause after fd or memory exhaustion, unless a connection closes.
constexpr auto kAcceptBackoff = std::chrono::milliseconds(100);
/// Descriptors kept back from the connection cap for listeners, the wake
/// fd, trace and flight files, and the process's own needs.
constexpr rlim_t kFdReserve = 64;

std::optional<marking::SchemeKind> scheme_kind_by_name(const std::string& name) {
  for (auto kind : marking::all_scheme_kinds())
    if (name == marking::scheme_kind_name(kind)) return kind;
  return std::nullopt;
}

/// Deterministic per-epoch master secret: epoch 0 is the campaign secret
/// itself; epoch e re-derives by hashing (secret || e). Both ends of a
/// future key-rotation protocol can compute the same schedule offline.
Bytes epoch_master_secret(std::uint64_t seed, std::uint64_t epoch) {
  Bytes base = core::campaign_master_secret(seed);
  if (epoch == 0) return base;
  crypto::Sha256 h;
  h.update(base);
  ByteWriter w;
  w.u64(epoch);
  h.update(w.bytes());
  crypto::Sha256Digest d = h.finish();
  return Bytes(d.begin(), d.end());
}

}  // namespace

Server::Server(const ServerConfig& cfg)
    : cfg_(cfg),
      counters_(cfg.counters ? cfg.counters : &local_counters_),
      sessions_total_(&counters_->registry().counter("serve_sessions")),
      sessions_active_(&counters_->registry().gauge("serve_sessions_active")),
      connections_(&counters_->registry().gauge("serve_connections")),
      records_total_(&counters_->registry().counter("serve_records")),
      bytes_rx_total_(&counters_->registry().counter("serve_bytes_rx")),
      aborts_total_(&counters_->registry().counter("serve_aborts")),
      accept_errors_(&counters_->registry().counter("serve_accept_errors")),
      rekeys_total_(&counters_->registry().counter("serve_rekeys")),
      key_epoch_gauge_(&counters_->registry().gauge("serve_key_epoch")) {}

std::unique_ptr<Server> Server::create(const ServerConfig& cfg, std::string* error) {
  auto fail = [&](const std::string& why) -> std::unique_ptr<Server> {
    if (error) *error = why;
    return nullptr;
  };

  trace::TraceReader reader(cfg.campaign_trace);
  if (!reader.valid())
    return fail("campaign trace: " + reader.header_error());
  const trace::TraceMeta& meta = reader.meta();
  auto seed = meta.get_u64(trace::kMetaSeed);
  auto forwarders = meta.get_u64(trace::kMetaForwarders);
  auto scheme_name = meta.get(trace::kMetaScheme);
  if (!seed || !forwarders || !scheme_name)
    return fail("campaign trace header missing seed/forwarders/scheme");
  if (*forwarders < 2 || *forwarders > 60000)
    return fail("implausible forwarder count in campaign trace header");
  auto kind = scheme_kind_by_name(*scheme_name);
  if (!kind) return fail("unknown scheme '" + *scheme_name + "' in campaign trace");

  marking::SchemeConfig scfg;
  if (auto prob = meta.get(trace::kMetaMarkProbability))
    scfg.mark_probability = std::strtod(prob->c_str(), nullptr);
  if (auto mac = meta.get_u64(trace::kMetaMacLen)) scfg.mac_len = *mac;
  if (auto anon = meta.get_u64(trace::kMetaAnonLen)) scfg.anon_len = *anon;

  std::unique_ptr<Server> server(new Server(cfg));
  server->meta_ = meta;
  server->campaign_id_ = campaign_id_from_meta(meta);
  server->seed_ = *seed;
  server->topo_ = std::make_unique<net::Topology>(
      net::Topology::chain(static_cast<std::size_t>(*forwarders)));
  server->keys_ = std::make_shared<const crypto::KeyStore>(
      epoch_master_secret(*seed, 0), server->topo_->node_count());
  server->scheme_ = marking::make_scheme(*kind, scfg);

  sink::BatchVerifierConfig bcfg;
  bcfg.threads = cfg.threads;
  if (cfg.scoped && *kind == marking::SchemeKind::kPnm)
    bcfg.strategy = sink::BatchStrategy::kScoped;
  std::size_t shards = cfg.shards ? cfg.shards : 1;
  server->bank_ = std::make_unique<sink::VerifierBank>(
      *server->scheme_, *server->keys_, shards, bcfg, server->topo_.get(),
      server->counters_);
  server->engine_ = std::make_unique<sink::TracebackEngine>(
      *server->scheme_, *server->keys_, *server->topo_);
  server->engine_->bind_metrics(server->counters_->registry());

  ingest::PipelineConfig pcfg;
  pcfg.batch_size = cfg.batch_size;
  pcfg.queue_capacity = cfg.queue_capacity;
  pcfg.shards = shards;
  server->pipeline_ = std::make_unique<ingest::Pipeline>(
      *server->bank_, server->engine_.get(), pcfg, server->counters_);

  std::string sock_err;
  server->tcp_listener_ = Listener::tcp(cfg.tcp_port, &sock_err);
  if (!server->tcp_listener_.valid()) return fail("tcp listener: " + sock_err);
  if (!cfg.unix_socket_path.empty()) {
    server->unix_listener_ = Listener::unix_path(cfg.unix_socket_path, &sock_err);
    if (!server->unix_listener_.valid()) return fail("unix listener: " + sock_err);
  }
  server->admin_listener_ = Listener::tcp(cfg.admin_port, &sock_err);
  if (!server->admin_listener_.valid()) return fail("admin listener: " + sock_err);
  server->wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (server->wake_fd_ < 0) return fail("eventfd failed");

  rlimit fds{};
  ::getrlimit(RLIMIT_NOFILE, &fds);  // RLIM_INFINITY is huge: no cap to speak of
  server->max_connections_ = fds.rlim_cur > kFdReserve ? fds.rlim_cur - kFdReserve : 1;

  server->key_epoch_gauge_->set(0);
  return server;
}

Server::~Server() {
  drain();  // idempotent; a clean exit already drained
  stop_requested_ = true;
  if (loop_.joinable()) {
    wake();
    loop_.join();
  }
  if (wake_fd_ >= 0) ::close(wake_fd_);
}

void Server::wake() {
  std::uint64_t one = 1;
  if (::write(wake_fd_, &one, sizeof(one)) < 0) return;  // EAGAIN: awake anyway
}

void Server::start() {
  if (started_.exchange(true)) return;
  if (!cfg_.flight_dump_path.empty()) {
    obs::FlightRecorder::global().set_dump_path(cfg_.flight_dump_path);
    obs::FlightRecorder::global().install_signal_handlers();
  }
  consumer_ = std::thread([this] {
    try {
      pipeline_->run();
    } catch (const std::exception& e) {
      consumer_error_ = e.what();
    } catch (...) {
      consumer_error_ = "unknown pipeline failure";
    }
  });
  if (cfg_.watchdog_ms > 0) start_watchdog();  // before the loop, which stops it
  loop_ = std::thread([this] { run_loop(); });
}

void Server::start_watchdog() {
  watchdog_ = std::make_unique<obs::AnomalyWatchdog>(
      std::chrono::milliseconds(cfg_.watchdog_ms));
  // Merge stall: the frontier stopped advancing across several polls while
  // issued sequence numbers are still ahead of it. A rekey pauses ingest
  // for up to 30s, but it waits for quiescence — frontier motion — so a
  // genuinely stuck merge is distinguishable from a busy one.
  watchdog_->add_probe(obs::AnomalyKind::kMergeStall,
                       [this]() -> std::optional<std::string> {
                         std::uint64_t frontier = pipeline_->merge_frontier();
                         std::uint64_t issued = pipeline_->seqs_issued();
                         if (frontier == stall_frontier_ && issued > frontier) {
                           if (++stall_polls_ >= 8)
                             return "merge frontier stuck at " +
                                    std::to_string(frontier) + " with " +
                                    std::to_string(issued - frontier) +
                                    " records in flight";
                         } else {
                           stall_polls_ = 0;
                         }
                         stall_frontier_ = frontier;
                         return std::nullopt;
                       });
  // Queue saturation: some shard queue is pinned at capacity, so the loop
  // is blocked on backpressure.
  watchdog_->add_probe(obs::AnomalyKind::kQueueSaturated,
                       [this]() -> std::optional<std::string> {
                         std::size_t depth = pipeline_->max_queue_depth();
                         std::size_t cap = pipeline_->queue_capacity();
                         if (cap > 0 && depth >= cap)
                           return "shard queue saturated: " + std::to_string(depth) +
                                  "/" + std::to_string(cap);
                         return std::nullopt;
                       });
  watchdog_->start();
}

std::string Server::metrics_prometheus() const {
  return obs::to_prometheus(counters_->registry().scrape());
}

DrainReport Server::drain() {
  drain_requested_ = true;
  if (started_.load(std::memory_order_acquire))
    wake();
  else if (healthy())
    finish_drain();  // never started: no loop, nothing in flight
  return wait();
}

DrainReport Server::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return !healthy(); });
  return report_;
}

std::optional<std::uint64_t> Server::rekey() {
  // Without a loop nothing pushes, so the pipeline is trivially quiescent.
  if (!started_.load(std::memory_order_acquire)) return swap_keys();
  std::uint64_t round = request_rekey();
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return rekey_round_ > round; });
  return rekey_result_;
}

std::uint64_t Server::request_rekey() {
  std::lock_guard<std::mutex> lock(mu_);
  rekey_wanted_ = true;
  wake();
  return rekey_round_;
}

std::uint64_t Server::swap_keys() {
  std::uint64_t epoch = bank_->key_epoch() + 1;
  auto keys = std::make_shared<const crypto::KeyStore>(
      epoch_master_secret(seed_, epoch), topo_->node_count());
  bank_->rekey(std::move(keys), epoch);
  rekeys_total_->add();
  key_epoch_gauge_->set(static_cast<std::int64_t>(epoch));
  return epoch;
}

// ---------------------------------------------------------------------------
// The poll loop. Everything below runs on the loop thread only.

void Server::run_loop() {
  Bytes rx(kRecvChunk);
  std::vector<pollfd> fds;
  while (true) {
    if (stop_requested_) break;
    Clock::time_point now = Clock::now();
    reap(now);  // first, so a drain sees every session that just finished
    step_rekey(now);
    step_drain(now);
    reap(now);  // again, for the answers those two steps just made ready

    // The poll set: wake fd, the three listeners, then every connection.
    // fd -1 is a slot poll() skips.
    bool accepting = now >= accept_paused_until_;
    fds.assign({{wake_fd_, POLLIN, 0},
                {accepting ? tcp_listener_.fd() : -1, POLLIN, 0},
                {accepting ? unix_listener_.fd() : -1, POLLIN, 0},
                {accepting ? admin_listener_.fd() : -1, POLLIN, 0}});
    Clock::time_point wake_at = now + std::chrono::hours(1);
    if (rekey_deadline_) wake_at = now + kRekeyPoll;
    if (drain_deadline_ && healthy()) wake_at = std::min(wake_at, *drain_deadline_);
    if (!accepting) wake_at = std::min(wake_at, accept_paused_until_);
    for (auto* conns : {&sessions_, &admins_})
      for (const auto& c : *conns) {
        short events = c->events();
        fds.push_back({events < 0 ? -1 : c->fd(), std::max<short>(events, 0), 0});
        wake_at = std::min(wake_at, c->deadline());
      }
    auto wait = std::chrono::ceil<std::chrono::milliseconds>(wake_at - now).count();
    if (::poll(fds.data(), fds.size(), static_cast<int>(std::max<long>(0, wait))) < 0)
      continue;  // EINTR
    now = Clock::now();

    std::uint64_t wakes;
    if (fds[0].revents && ::read(wake_fd_, &wakes, sizeof(wakes)) < 0) wakes = 0;  // EAGAIN
    const pollfd* p = &fds[4];
    for (auto* conns : {&sessions_, &admins_})
      for (const auto& c : *conns) {
        short revents = p++->revents;
        if ((revents & POLLOUT) && !c->flush()) c->on_hangup();
        if (!(revents & (POLLIN | POLLHUP | POLLERR))) continue;
        long got = c->events() == POLLIN ? c->read(rx.data(), rx.size()) : 0;
        if (got > 0) {
          c->last_io = now;
          c->on_bytes(ByteView(rx.data(), static_cast<std::size_t>(got)));
        } else if (got != -1) {
          c->on_hangup();
        }
      }
    if (fds[1].revents) accept_from(tcp_listener_, false, now);
    if (fds[2].revents) accept_from(unix_listener_, false, now);
    if (fds[3].revents) accept_from(admin_listener_, true, now);
  }

  // Stopping: close whatever is still open and release any rekey() caller.
  sessions_.clear();
  admins_.clear();
  connections_->set(0);
  std::lock_guard<std::mutex> lock(mu_);
  rekey_result_.reset();
  ++rekey_round_;
  cv_.notify_all();
}

void Server::accept_from(Listener& listener, bool admin, Clock::time_point now) {
  while (listener.valid()) {
    int err = 0;
    Socket sock = listener.accept_conn(&err);
    if (!sock.valid()) {
      if (err == 0) return;  // backlog empty
      accept_errors_->add();
      // A peer that gave up in the backlog costs nothing; fd or memory
      // exhaustion pauses accepting until a connection closes.
      if (err != ECONNABORTED && err != EPROTO) accept_paused_until_ = now + kAcceptBackoff;
      return;
    }
    if (sessions_.size() + admins_.size() >= max_connections_) {
      std::string http = connection_limit_response();
      sock.send_all(admin ? ByteView(reinterpret_cast<const std::uint8_t*>(http.data()), http.size())
                          : ByteView(encode_msg(MsgType::kAbort, encode_abort("connection limit"))));
      continue;  // closes the socket
    }
    if (admin)
      admins_.push_back(std::make_unique<AdminConn>(std::move(sock), *this));
    else
      sessions_.push_back(std::make_unique<Session>(std::move(sock), *this, ++sessions_served_));
    connections_->set(static_cast<std::int64_t>(sessions_.size() + admins_.size()));
  }
}

void Server::note_closed() {
  accept_paused_until_ = {};  // a descriptor came free: retry at once
  connections_->set(static_cast<std::int64_t>(sessions_.size() + admins_.size()));
}

void Server::reap(Clock::time_point now) {
  std::size_t open = sessions_.size() + admins_.size();
  for (auto* conns : {&sessions_, &admins_})
    std::erase_if(*conns, [now](const auto& c) { return c->tick(now); });
  if (sessions_.size() + admins_.size() < open) note_closed();
}

void Server::step_rekey(Clock::time_point now) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!rekey_wanted_) return;
  // The loop is the only producer and reads no session while
  // rekey_deadline_ is set, so once quiescent() turns true it stays true.
  if (!rekey_deadline_) rekey_deadline_ = now + kRekeyGrace;
  bool quiet = pipeline_->quiescent();
  if (!quiet && now < *rekey_deadline_) return;
  if (quiet) {
    rekey_result_ = swap_keys();
  } else {
    // Records are still in queues or lane batches past the grace period:
    // swapping keys now would race the lanes' verify caches and verify
    // in-flight records under the wrong epoch. Keep the old keys and fail.
    obs::FlightRecorder::global().note_anomaly(
        obs::AnomalyKind::kRekeyFailed,
        "rekey abandoned: pipeline failed to quiesce within grace period");
    rekey_result_.reset();
  }
  ++rekey_round_;
  rekey_wanted_ = false;
  rekey_deadline_.reset();
  cv_.notify_all();
}

void Server::step_drain(Clock::time_point now) {
  if (!drain_requested_ || !healthy()) return;
  if (!drain_deadline_) {
    // Stop accepting, then close every connection that owes nothing.
    if (watchdog_) watchdog_->stop();  // a draining pipeline looks stalled
    tcp_listener_.close();
    unix_listener_.close();
    for (auto* conns : {&sessions_, &admins_})
      std::erase_if(*conns, [](const auto& c) { return c->idle(); });
    note_closed();
    drain_deadline_ = now + kDrainGrace;
  }
  if (now >= *drain_deadline_) {  // grace over: close sessions mid-stream
    sessions_.clear();
    note_closed();
  }
  if (sessions_.empty() && !rekey_deadline_) finish_drain();
}

void Server::finish_drain() {
  if (started_.load(std::memory_order_acquire)) {
    pipeline_->close();
    if (consumer_.joinable()) consumer_.join();
  }
  pipeline_->retire_shard_gauges();
  {
    std::lock_guard<std::mutex> lock(mu_);
    report_ = DrainReport{pipeline_->stats().records, sessions_served_, bank_->key_epoch(),
                          pipeline_->verdict_digest(), consumer_error_};
    drained_flag_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
}

}  // namespace pnm::serve
