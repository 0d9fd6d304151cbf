// One client connection of the serve daemon: protocol handshake, credit
// accounting, incremental `.pnmtrace` reassembly, and the per-stream digest
// receipt — a non-blocking state machine the daemon's poll loop drives.
//
// Bytes feed a MsgParser, data messages a trace::TraceStreamParser, and each
// decoded record is pushed into the shared pipeline tagged with this
// session's StreamDigest and stream sequence number, so the client's digest
// folds in *its* stream order however the lanes interleave sessions. On Eof
// the lane that folds the last record wakes the loop, which sends the Digest
// receipt — equal to `pnm replay` over the same trace.
//
// Credits are replenished in record-frame units as outcomes complete; every
// completed outcome counts — pushed, CRC-rejected, malformed — so client and
// server debit/credit the same event stream and cannot drift.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "ingest/stream_digest.h"
#include "serve/protocol.h"
#include "serve/socket.h"
#include "trace/reader.h"

namespace pnm::serve {

class Server;

/// Registered with the pipeline as a producer for its whole life.
class Session : public Conn {
 public:
  Session(Socket sock, Server& server, std::uint64_t id);
  ~Session() override;

  /// Not read while the daemon rekeys (nothing may enter the pipeline),
  /// after Eof, or while the peer has not taken what we sent.
  short events() const override;
  void on_bytes(ByteView data) override;
  /// Records already pushed stay in the global digest, but the stream gets
  /// no receipt.
  void on_hangup() override;
  /// Sends the receipt once every pushed record has folded, and enforces
  /// 60 s for a receipt to settle and 60 s without I/O otherwise. A record
  /// push may block on a full shard queue: the daemon's backpressure.
  bool tick(Clock::time_point now) override;
  Clock::time_point deadline() const override;
  bool idle() const override { return !hello_done_; }

 private:
  bool awaiting_receipt() const { return receipt_deadline_.has_value(); }
  void handle_msg(Msg msg);
  void drain_trace_frames();
  /// Once the trace header is parsed, verify (exactly once) that the stream
  /// belongs to this sink's campaign; aborts and returns false on mismatch.
  bool check_campaign();
  void send_msg(MsgType type, ByteView payload);
  void abort_session(const std::string& reason);
  void flush_credits(bool force);

  Server& server_;
  std::uint64_t id_;
  MsgParser msgs_;
  trace::TraceStreamParser trace_;
  /// Shared with every pipeline item this session pushes: if the session
  /// dies mid-stream (peer disconnect, abort), records still in shard
  /// queues keep the digest alive until the lanes fold them.
  std::shared_ptr<ingest::StreamDigest> digest_ =
      std::make_shared<ingest::StreamDigest>();
  bool hello_done_ = false;
  bool header_checked_ = false;
  bool done_ = false;
  std::optional<Clock::time_point> receipt_deadline_;
  std::uint64_t stream_seq_ = 0;     ///< records pushed (the digest's domain)
  std::uint64_t outcomes_ = 0;       ///< completed record-frame outcomes
  std::uint64_t credits_owed_ = 0;   ///< outcomes not yet replenished
};

}  // namespace pnm::serve
