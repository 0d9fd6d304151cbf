// Admin plane of the serve daemon: a minimal HTTP/1.0 responder on its own
// loopback port, so operational probes never interleave with ingest bytes.
//
//   GET /healthz   → 200 "ok" while accepting, 503 once drained
//   GET /metrics   → Prometheus text exposition of the daemon's registry
//   GET /spans     → span + provenance rings as Chrome trace-event JSON
//   GET /provenance, /flight → provenance JSONL, an on-demand flight dump
//   POST /drain    → stop accepting, flush shards, respond with the final
//                    record count + global verdict digest (idempotent)
//   POST /rekey    → quiesce, swap to the next key epoch, {"epoch": N}
//
// GET works for /drain and /rekey too. Request line + headers in (16 KiB
// cap), Content-Length + Connection: close out.
//
// Admin connections share the poll loop with the sessions: a request has
// 5 s to arrive and its answer 5 s to leave, and /drain and /rekey are
// answered when the loop's drain or rekey completes. Admin is not immune to
// ingest backpressure: a session push may block on a full shard queue, so
// an answer can wait behind the records one pass of the loop read (at most
// a credit window per session, a few ms at full rate) — never behind an
// idle or slow client.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "serve/socket.h"

namespace pnm::serve {

class Server;

/// Incremental reader of one HTTP request head.
class AdminRequest {
 public:
  /// Append bytes as they arrive; true once the head is complete (blank
  /// line after the headers, or the 16 KiB cap reached).
  bool feed(std::string_view bytes);
  bool empty() const { return head_.empty(); }
  /// "GET /drain?x=1 HTTP/1.1" → "/drain". Empty on a garbled request line.
  std::string path() const;

 private:
  std::string head_;
};

/// One admin connection: read the request head, answer, close.
class AdminConn : public Conn {
 public:
  AdminConn(Socket sock, Server& server) : Conn(std::move(sock)), server_(server) {}

  short events() const override;
  void on_bytes(ByteView data) override;
  void on_hangup() override;
  bool tick(Clock::time_point now) override;
  Clock::time_point deadline() const override;
  bool idle() const override { return state_ == State::kReading && request_.empty(); }

 private:
  enum class State { kReading, kAwaitDrain, kAwaitRekey, kWriting };
  void on_request();
  void respond(const std::string& response);

  Server& server_;
  AdminRequest request_;
  State state_ = State::kReading;
  std::uint64_t rekey_round_ = 0;  ///< the rekey round this request waits on
};

/// 503 for a connection over the daemon's connection cap.
std::string connection_limit_response();

}  // namespace pnm::serve
