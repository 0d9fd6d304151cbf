// The long-running sink daemon behind `pnm serve`.
//
// One Server owns the whole verification world of a campaign — topology,
// key store (per epoch), marking scheme, sharded VerifierBank, traceback
// engine and one ingest::Pipeline — plus one poll(2) loop thread that owns
// every listener and connection and does all socket I/O and framing:
//
//   TCP 127.0.0.1:<port> ┐                            ┌ shard lanes ┐
//   unix socket <path>   ┼─ poll loop: Sessions, ─────┼ Pipeline    ┼─ merge
//   admin 127.0.0.1:<p>  ┘  admin requests  ◀─ wake fd └─────────────┘  digest
//
// So the daemon runs a fixed set of threads however many clients come and
// go: the caller's, the pipeline consumer and its lanes, the loop, and the
// anomaly watchdog. Every session pushes into the same pipeline, so the
// global verdict digest covers the interleaved arrival order while each
// session's StreamDigest covers its own stream — both deterministic.
//
// Rekey (/rekey, or rekey() from any thread) is a loop state: the loop — the
// only producer — stops reading sessions, keeps answering admin requests,
// and polls Pipeline::quiescent() every millisecond. Once nothing is in
// flight it swaps the VerifierBank to the next epoch's KeyStore, so no record
// is dropped or verified under the wrong epoch; past a 30 s grace it gives up
// with the keys unchanged (a rekey_failed anomaly). Concurrent requests share
// one swap.
//
// Drain (/drain, or drain() from any thread) is a loop state too: stop
// accepting, close every connection that owes nothing (no Hello, no admin
// request), give sessions mid-stream 20 s, then close the pipeline and
// answer every waiting /drain with the final count and global digest. It is
// idempotent; wait() blocks until it completes. Admin requests are answered
// (/healthz: 503) until the Server is destroyed.
//
// Limits without knobs: 5 s for an admin request, 60 s without I/O for a
// session owed no receipt, and a connection cap of RLIMIT_NOFILE's soft
// limit minus 64 (over it: Abort{"connection limit"} or an HTTP 503). Accept
// errors count into serve_accept_errors; fd exhaustion pauses accepting
// until a connection closes or 100 ms pass.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.h"
#include "ingest/pipeline.h"
#include "obs/flight.h"
#include "serve/socket.h"
#include "sink/batch_verifier.h"
#include "sink/traceback.h"
#include "trace/format.h"
#include "util/counters.h"

namespace pnm::serve {

struct ServerConfig {
  /// Bootstrap trace: its header supplies the campaign (seed, forwarders,
  /// scheme, parameters) this sink verifies; its records are NOT replayed.
  std::string campaign_trace;
  std::uint16_t tcp_port = 0;    ///< 0 = ephemeral (resolved port via tcp_port())
  std::string unix_socket_path;  ///< empty = no unix listener
  std::uint16_t admin_port = 0;  ///< 0 = ephemeral
  std::size_t shards = 1;
  std::size_t threads = 1;  ///< verifier workers per shard lane
  std::size_t batch_size = 64;
  std::size_t queue_capacity = 1024;
  std::uint32_t credit_window = 256;
  bool scoped = false;
  util::Counters* counters = nullptr;  ///< null = a private instance
  /// Where anomaly-/signal-triggered flight dumps land (and the file
  /// GET /flight reports). Empty = on-demand dumps only.
  std::string flight_dump_path;
  /// Anomaly-watchdog poll interval; 0 disables the watchdog thread.
  std::size_t watchdog_ms = 500;
};

struct DrainReport {
  std::uint64_t records = 0;   ///< records verified across all sessions
  std::uint64_t sessions = 0;  ///< sessions served over the daemon's life
  std::uint64_t key_epoch = 0;
  std::string verdict_digest;  ///< global (arrival-order) digest, hex
  std::string error;           ///< non-empty if a lane died
};

class Server {
 public:
  using Clock = std::chrono::steady_clock;

  /// Builds the campaign world from cfg.campaign_trace's header and binds
  /// the listeners. Null + *error on any failure; no threads started yet.
  static std::unique_ptr<Server> create(const ServerConfig& cfg, std::string* error);
  /// Drains (if nothing did yet), then stops the loop, closing whatever
  /// connections are still open.
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Spawn the pipeline consumer, the poll loop and the watchdog.
  void start();

  /// Block until a drain completes (admin /drain or drain() from any
  /// thread); returns the final report.
  DrainReport wait();

  // ---- admin surface (any thread but the loop) ----
  bool healthy() const { return !drained_flag_.load(std::memory_order_acquire); }
  std::string metrics_prometheus() const;
  DrainReport drain();
  /// Quiesce, advance the VerifierBank to the next key epoch, resume.
  /// Returns the new epoch, or nullopt if the pipeline failed to quiesce
  /// within the grace period — in that case the keys are left untouched
  /// (swapping under live lanes would split a batch across epochs) and the caller
  /// may retry. Calls that overlap share one swap.
  std::optional<std::uint64_t> rekey();

  std::uint16_t tcp_port() const { return tcp_listener_.port(); }
  std::uint16_t admin_port() const { return admin_listener_.port(); }
  const std::string& unix_socket_path() const { return cfg_.unix_socket_path; }

  // ---- session surface ----
  const std::string& campaign_id() const { return campaign_id_; }
  std::uint64_t key_epoch() const { return bank_->key_epoch(); }
  std::uint32_t credit_window() const { return cfg_.credit_window; }
  util::Counters* counters() { return counters_; }
  const std::string& flight_dump_path() const { return cfg_.flight_dump_path; }

 private:
  explicit Server(const ServerConfig& cfg);
  /// Wake the loop (any thread, async-signal-safe).
  void wake();
  void start_watchdog();
  /// Ask for a rekey (any thread); returns the round whose end answers it.
  std::uint64_t request_rekey();
  /// Swap to the next key epoch (the pipeline must be quiescent).
  std::uint64_t swap_keys();
  bool ingest_paused() const { return rekey_deadline_.has_value(); }

  // The poll loop and its steps (loop thread only).
  void run_loop();
  void accept_from(Listener& listener, bool admin, Clock::time_point now);
  /// Run every connection's tick(); close the ones that are done.
  void reap(Clock::time_point now);
  /// After closing connections: update the gauge, resume accepting.
  void note_closed();
  void step_rekey(Clock::time_point now);
  void step_drain(Clock::time_point now);
  /// Close the pipeline, join the consumer, publish the report.
  void finish_drain();

  ServerConfig cfg_;
  util::Counters local_counters_;
  util::Counters* counters_;

  // Campaign world (construction order matters: later members reference
  // earlier ones).
  trace::TraceMeta meta_;
  std::string campaign_id_;
  std::uint64_t seed_ = 0;
  std::unique_ptr<net::Topology> topo_;
  std::shared_ptr<const crypto::KeyStore> keys_;  ///< epoch 0
  std::unique_ptr<marking::MarkingScheme> scheme_;
  std::unique_ptr<sink::VerifierBank> bank_;
  std::unique_ptr<sink::TracebackEngine> engine_;
  std::unique_ptr<ingest::Pipeline> pipeline_;

  // ---- loop-thread state (only the loop touches these once started) ----
  Listener tcp_listener_;
  Listener unix_listener_;
  Listener admin_listener_;
  int wake_fd_ = -1;  ///< eventfd
  std::vector<std::unique_ptr<Conn>> sessions_;
  std::vector<std::unique_ptr<Conn>> admins_;
  std::size_t max_connections_ = 1;
  Clock::time_point accept_paused_until_{};
  std::optional<Clock::time_point> rekey_deadline_;  ///< set while rekeying
  std::optional<Clock::time_point> drain_deadline_;  ///< set once draining
  std::uint64_t sessions_served_ = 0;

  /// Anomaly watchdog (merge-stall + queue-saturation probes); probe state
  /// below is touched only from its poll thread.
  std::unique_ptr<obs::AnomalyWatchdog> watchdog_;
  std::uint64_t stall_frontier_ = 0;
  std::size_t stall_polls_ = 0;

  std::thread consumer_;
  std::thread loop_;
  std::atomic<bool> started_{false};
  std::atomic<bool> drained_flag_{false};
  std::string consumer_error_;

  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> stop_requested_{false};

  // ---- cross-thread results: written under mu_ ----
  std::mutex mu_;
  std::condition_variable cv_;
  bool rekey_wanted_ = false;
  std::uint64_t rekey_round_ = 0;  ///< rekey rounds the loop has finished
  std::optional<std::uint64_t> rekey_result_;  ///< the last round's epoch
  DrainReport report_;  ///< final once drained_flag_ is set

  // serve-plane metrics (registered at construction)
  obs::Counter* sessions_total_;
  obs::Gauge* sessions_active_;
  obs::Gauge* connections_;
  obs::Counter* records_total_;
  obs::Counter* bytes_rx_total_;
  obs::Counter* aborts_total_;
  obs::Counter* accept_errors_;
  obs::Counter* rekeys_total_;
  obs::Gauge* key_epoch_gauge_;

  friend class Session;
  friend class AdminConn;
};

}  // namespace pnm::serve
