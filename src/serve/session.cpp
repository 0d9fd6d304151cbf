#include "serve/session.h"

#include <poll.h>

#include <utility>

#include "net/wire.h"
#include "obs/flight.h"
#include "obs/provenance.h"
#include "serve/server.h"

namespace pnm::serve {

namespace {
/// How long an accepted Eof may wait for its records to fold.
constexpr auto kReceiptDeadline = std::chrono::seconds(60);
/// How long a session may move no bytes while it is owed no receipt.
constexpr auto kIdleDeadline = std::chrono::seconds(60);
}  // namespace

Session::Session(Socket sock, Server& server, std::uint64_t id)
    : Conn(std::move(sock)), server_(server), id_(id) {
  trace_.meter_into(server_.counters());
  server_.sessions_total_->add();
  server_.pipeline_->attach_producer();
  server_.sessions_active_->set(static_cast<std::int64_t>(server_.pipeline_->active_producers()));
}

Session::~Session() {
  on_hangup();  // no-op unless the daemon is closing it mid-stream
  server_.pipeline_->detach_producer();
  server_.sessions_active_->set(static_cast<std::int64_t>(server_.pipeline_->active_producers()));
}

short Session::events() const {
  if (!flushed()) return POLLOUT;
  if (done_) return -1;
  if (awaiting_receipt()) return 0;  // still hears POLLHUP/POLLERR
  return server_.ingest_paused() ? -1 : POLLIN;
}

void Session::on_bytes(ByteView data) {
  server_.bytes_rx_total_->add(data.size());
  msgs_.feed(data);
  // Messages after Eof are never read: the stream is over.
  while (!done_ && !awaiting_receipt()) {
    std::optional<Msg> msg = msgs_.poll();
    if (!msg) break;
    handle_msg(std::move(*msg));
  }
  if (!done_ && msgs_.dead()) abort_session("oversized protocol message");
}

void Session::on_hangup() {
  if (done_) return;
  done_ = true;
  server_.aborts_total_->add();
  // A stream that already pushed records and then died is a digest-receipt
  // mismatch: the global digest holds records no client receipt accounts
  // for.
  if (stream_seq_ > 0)
    obs::FlightRecorder::global().note_anomaly(
        obs::AnomalyKind::kDigestMismatch,
        "client disconnected mid-stream after " + std::to_string(stream_seq_) +
            " records, no digest receipt",
        id_);
}

void Session::handle_msg(Msg msg) {
  if (!hello_done_ && msg.type != MsgType::kHello) return abort_session("expected Hello");
  switch (msg.type) {
    case MsgType::kHello: {
      auto hello = decode_hello(msg.payload);
      if (!hello || hello->proto != kProtoVersion)
        return abort_session("unsupported protocol version");
      if (hello->campaign_id != server_.campaign_id())
        return abort_session("campaign mismatch: sink serves " + server_.campaign_id());
      hello_done_ = true;
      HelloAck ack;
      ack.credit_window = server_.credit_window();
      ack.key_epoch = server_.key_epoch();
      ack.campaign_id = server_.campaign_id();
      return send_msg(MsgType::kHelloAck, encode_hello_ack(ack));
    }
    case MsgType::kTraceData:
      trace_.feed(msg.payload);
      return drain_trace_frames();
    case MsgType::kEof: {
      auto eof = decode_eof(msg.payload);
      if (!eof) return abort_session("malformed Eof");
      trace_.finish();
      drain_trace_frames();
      if (done_) return;
      if (outcomes_ != eof->records_sent)
        return abort_session("record-frame accounting mismatch at Eof");
      // EOF barrier: the lane that folds this stream's last record wakes
      // the loop, which then sends the receipt (poll_receipt).
      receipt_deadline_ = Clock::now() + kReceiptDeadline;
      digest_->notify_at(static_cast<std::size_t>(stream_seq_),
                         [&server = server_] { server.wake(); });
      return;
    }
    case MsgType::kPing: {
      auto token = decode_token(msg.payload);
      if (!token) return abort_session("malformed Ping");
      return send_msg(MsgType::kPong, encode_token(*token));
    }
    case MsgType::kAbort:
      server_.aborts_total_->add();
      done_ = true;
      return;
    default:
      return abort_session("unexpected message type");
  }
}

void Session::drain_trace_frames() {
  while (auto outcome = trace_.poll()) {
    // The stream header always parses before the first record frame pops
    // out, so this refuses a foreign-campaign trace before any of its
    // records reaches the pipeline (or the global verdict digest).
    if (!check_campaign()) return;
    switch (outcome->status) {
      case trace::ReadStatus::kRecord: {
        ++outcomes_;
        ++credits_owed_;
        auto packet = net::decode_packet(outcome->record.wire);
        if (!packet) {
          server_.counters()->add(util::Metric::kTraceDecodeErrors);
          break;  // frame consumed, no stream seq — replay skips it too
        }
        packet->delivered_by = outcome->record.delivered_by;
        // Session ingress is the serve-side kDeliver: same content hash as
        // simulator delivery and replay, so sampling picks the same records.
        obs::prov_emit(obs::ProvenanceCollector::global().admit(
                           packet->report, packet->delivered_by),
                       stream_seq_, obs::ProvStage::kDeliver, id_,
                       packet->marks.size());
        // May block on a full lane queue: the daemon's backpressure.
        if (!server_.pipeline_->push(std::move(*packet), outcome->record.time_s(),
                                     digest_, stream_seq_))
          return abort_session("sink is draining");
        server_.records_total_->add();
        ++stream_seq_;
        break;
      }
      case trace::ReadStatus::kBadCrc:
      case trace::ReadStatus::kBadRecord:
        ++outcomes_;  // consumed a record frame, just a rotten one
        ++credits_owed_;
        break;
      case trace::ReadStatus::kTruncated:
      case trace::ReadStatus::kOversized:
        return abort_session("malformed trace stream");
    }
    flush_credits(false);
  }
  if (trace_.header_failed())
    return abort_session("bad trace header: " + trace_.header_error());
  // A chunk can complete the header without yielding a record yet.
  if (check_campaign()) flush_credits(true);
}

bool Session::check_campaign() {
  if (header_checked_ || !trace_.header_ready()) return true;
  header_checked_ = true;
  if (campaign_id_from_meta(trace_.meta()) != server_.campaign_id()) {
    abort_session("trace campaign does not match sink campaign");
    return false;
  }
  return true;
}

void Session::flush_credits(bool force) {
  std::uint32_t window = server_.credit_window();
  if (credits_owed_ == 0) return;
  if (!force && credits_owed_ < window / 2) return;
  std::uint32_t grant = static_cast<std::uint32_t>(credits_owed_);
  credits_owed_ = 0;
  send_msg(MsgType::kCredit, encode_credit(grant));
}

bool Session::tick(Clock::time_point now) {
  if (!done_ && awaiting_receipt()) {
    if (digest_->records() >= stream_seq_) {
      DigestReport report;
      report.records = digest_->records();
      report.marks = digest_->marks();
      report.digest_hex = digest_->digest_hex();
      send_msg(MsgType::kDigest, encode_digest(report));
      done_ = true;
    } else if (now >= *receipt_deadline_) {
      obs::FlightRecorder::global().note_anomaly(
          obs::AnomalyKind::kDigestMismatch,
          "digest receipt timed out: stream records never settled", id_);
      abort_session("timed out waiting for verification to settle");
    }
  }
  if (done_ && flushed()) return true;
  if (now < deadline()) return false;
  if (!done_) abort_session("idle timeout");
  return true;
}

Conn::Clock::time_point Session::deadline() const {
  return !done_ && awaiting_receipt() ? *receipt_deadline_ : last_io + kIdleDeadline;
}

void Session::send_msg(MsgType type, ByteView payload) {
  if (!send(encode_msg(type, payload))) done_ = true;  // peer gone
}

void Session::abort_session(const std::string& reason) {
  server_.aborts_total_->add();
  send_msg(MsgType::kAbort, encode_abort(reason));
  done_ = true;
}

}  // namespace pnm::serve
