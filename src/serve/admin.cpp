#include "serve/admin.h"

#include <poll.h>

#include "obs/flight.h"
#include "obs/provenance.h"
#include "serve/server.h"

namespace pnm::serve {

namespace {

constexpr std::size_t kMaxRequestBytes = 16 * 1024;
/// A request must arrive, and its answer leave, within this.
constexpr auto kAdminDeadline = std::chrono::seconds(5);

std::string http_response(int code, const char* status, const std::string& body,
                          const char* content_type = "text/plain; charset=utf-8") {
  std::string head = "HTTP/1.0 " + std::to_string(code) + " " + status +
                     "\r\nContent-Type: " + content_type +
                     "\r\nContent-Length: " + std::to_string(body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  return head + body;
}

std::string drain_response(const DrainReport& r) {
  std::string out = "{\"records\":" + std::to_string(r.records) +
                    ",\"sessions\":" + std::to_string(r.sessions) +
                    ",\"key_epoch\":" + std::to_string(r.key_epoch) +
                    ",\"digest\":\"" + r.verdict_digest + "\"";
  if (!r.error.empty()) out += ",\"error\":\"" + r.error + "\"";
  return http_response(200, "OK", out + "}\n", "application/json");
}

std::string rekey_response(std::optional<std::uint64_t> epoch) {
  if (!epoch)
    return http_response(503, "Service Unavailable",
                         "rekey aborted: pipeline did not quiesce; keys unchanged\n");
  return http_response(200, "OK", "{\"epoch\":" + std::to_string(*epoch) + "}\n",
                       "application/json");
}

std::string admin_response(Server& server, const std::string& path) {
  if (path == "/healthz")
    return server.healthy() ? http_response(200, "OK", "ok\n")
                            : http_response(503, "Service Unavailable", "drained\n");
  if (path == "/metrics")
    return http_response(200, "OK", server.metrics_prometheus(),
                         "text/plain; version=0.0.4; charset=utf-8");
  if (path == "/spans") {
    // The span ring and the provenance rings merged into one Chrome
    // trace-event stream — loadable straight into Perfetto. Span collection
    // is opt-in (--span-trace / enable()); provenance instants appear
    // whenever sampling is on.
    return http_response(200, "OK", obs::export_chrome_trace(), "application/json");
  }
  if (path == "/provenance") {
    // Full runtime provenance JSONL: every retained event with thread/lane/
    // timing context, timestamp-ordered.
    return http_response(200, "OK", obs::provenance_jsonl_full(), "application/x-ndjson");
  }
  if (path == "/flight") {
    // On-demand flight dump; also persisted to the configured --flight-dump
    // path so the artifact survives the daemon.
    std::string doc = obs::FlightRecorder::global().dump("admin /flight");
    if (!server.flight_dump_path().empty())
      obs::FlightRecorder::global().dump_to_file(server.flight_dump_path(), "admin /flight");
    return http_response(200, "OK", doc, "application/json");
  }
  return http_response(404, "Not Found", "unknown endpoint\n");
}

}  // namespace

bool AdminRequest::feed(std::string_view bytes) {
  std::size_t from = head_.size() < 3 ? 0 : head_.size() - 3;
  head_.append(bytes.substr(0, kMaxRequestBytes - head_.size()));
  return head_.size() >= kMaxRequestBytes ||
         head_.find("\r\n\r\n", from) != std::string::npos;
}

std::string AdminRequest::path() const {
  std::size_t sp1 = head_.find(' ');
  if (sp1 == std::string::npos) return "";
  std::size_t sp2 = head_.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) return "";
  std::string path = head_.substr(sp1 + 1, sp2 - sp1 - 1);
  std::size_t q = path.find('?');
  if (q != std::string::npos) path.resize(q);
  return path;
}

short AdminConn::events() const {
  if (state_ == State::kReading) return POLLIN;
  return flushed() ? 0 : POLLOUT;  // 0: still hears POLLHUP/POLLERR
}

void AdminConn::on_bytes(ByteView data) {
  if (request_.feed(std::string_view(reinterpret_cast<const char*>(data.data()), data.size())))
    on_request();
}

void AdminConn::on_hangup() {
  if (state_ == State::kReading && !request_.empty())
    on_request();  // a request cut short by the peer's half-close
  else
    respond("");  // gone before its answer, or never asked: just close
}

void AdminConn::on_request() {
  std::string path = request_.path();
  if (path == "/drain") {
    server_.drain_requested_ = true;
    state_ = State::kAwaitDrain;
  } else if (path == "/rekey") {
    rekey_round_ = server_.request_rekey();
    state_ = State::kAwaitRekey;
  } else {
    respond(admin_response(server_, path));
  }
}

void AdminConn::respond(const std::string& response) {
  state_ = State::kWriting;
  send(ByteView(reinterpret_cast<const std::uint8_t*>(response.data()), response.size()));
}

bool AdminConn::tick(Clock::time_point now) {
  if (state_ == State::kAwaitDrain && !server_.healthy()) respond(drain_response(server_.report_));
  if (state_ == State::kAwaitRekey && server_.rekey_round_ > rekey_round_)
    respond(rekey_response(server_.rekey_result_));
  return (state_ == State::kWriting && flushed()) || now >= deadline();
}

Conn::Clock::time_point AdminConn::deadline() const {
  // Waiting on a drain or rekey is bounded by those states' own deadlines.
  bool waiting = state_ == State::kAwaitDrain || state_ == State::kAwaitRekey;
  return waiting ? Clock::time_point::max() : last_io + kAdminDeadline;
}

std::string connection_limit_response() {
  return http_response(503, "Service Unavailable", "connection limit\n");
}

}  // namespace pnm::serve
