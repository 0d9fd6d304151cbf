// Seeded fuzz of the serve daemon's two incremental parsers, driven over
// real sockets into a live poll loop: the session protocol (MsgParser and
// TraceStreamParser behind Session) and the admin request head
// (AdminRequest). There is no libFuzzer here, so like
// adversarial_fuzz_test.cpp the inputs come from fixed seeds:
//   - a valid session stream cut at every byte boundary (small trace) and
//     at seeded random boundaries (larger trace) must earn a Digest receipt
//     byte-identical to `pnm replay`; the client waits until the daemon has
//     read each piece, so the daemon's reads really end at the cuts;
//   - seeded byte flips, insertions and truncations of those streams, and of
//     admin request lines and headers, must end in Abort, a response or a
//     close — never a crash, a hang or a connection left open — and a clean
//     client must still be served afterwards.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <iterator>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.h"
#include "ingest/replay.h"
#include "serve/admin.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/socket.h"

namespace pnm {
namespace {

using Clock = std::chrono::steady_clock;

/// One recorded trace and the session stream that carries it: Hello,
/// TraceData messages of at most 512 bytes, Eof.
struct Stream {
  std::string trace;
  ingest::ReplayResult replay;
  Bytes bytes;
};

Stream make_stream(const std::string& tag, std::size_t packets) {
  Stream s;
  s.trace = ::testing::TempDir() + "/serve_fuzz." + std::to_string(::getpid()) + "." + tag +
            ".pnmtrace";
  core::ChainExperimentConfig cfg;
  cfg.forwarders = 8;
  cfg.packets = packets;
  cfg.seed = 41;  // same campaign for both traces
  cfg.attack = attack::AttackKind::kRemoval;
  cfg.record_path = s.trace;
  core::run_chain_experiment(cfg);
  s.replay = ingest::replay_file(s.trace);

  std::ifstream in(s.trace, std::ios::binary);
  Bytes raw((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  trace::TraceReader reader(s.trace);
  serve::Hello hello;
  hello.campaign_id = serve::campaign_id_from_meta(reader.meta());
  auto put = [&s](const Bytes& msg) { s.bytes.insert(s.bytes.end(), msg.begin(), msg.end()); };
  put(serve::encode_msg(serve::MsgType::kHello, serve::encode_hello(hello)));
  for (std::size_t at = 0; at < raw.size(); at += 512)
    put(serve::encode_msg(serve::MsgType::kTraceData,
                          ByteView(raw.data() + at, std::min<std::size_t>(512, raw.size() - at))));
  serve::Eof eof;
  eof.records_sent = s.replay.stats.records + s.replay.stats.decode_failures;
  put(serve::encode_msg(serve::MsgType::kEof, serve::encode_eof(eof)));
  return s;
}

/// One daemon for the whole suite, drained and destroyed at the end.
class ServeFuzz : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    small_ = new Stream(make_stream("small", 3));  // cut at every byte boundary
    large_ = new Stream(make_stream("large", 160));  // cut at seeded boundaries
    serve::ServerConfig cfg;
    cfg.campaign_trace = small_->trace;
    cfg.shards = 2;
    std::string error;
    server_ = serve::Server::create(cfg, &error).release();
    ASSERT_NE(server_, nullptr) << error;
    server_->start();
  }
  static void TearDownTestSuite() {
    delete server_;  // drains, then stops the loop
    delete small_;
    delete large_;
  }

  void SetUp() override { ASSERT_NE(server_, nullptr); }

  static Stream* small_;
  static Stream* large_;
  static serve::Server* server_;
};

Stream* ServeFuzz::small_ = nullptr;
Stream* ServeFuzz::large_ = nullptr;
serve::Server* ServeFuzz::server_ = nullptr;

std::uint64_t bytes_read_by_daemon(serve::Server& server) {
  return server.counters()->registry().counter("serve_bytes_rx").value();
}

bool no_connections_left(serve::Server& server) {
  auto until = Clock::now() + std::chrono::seconds(5);
  while (server.counters()->registry().gauge("serve_connections").value() != 0) {
    if (Clock::now() > until) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Everything a client got back before the daemon closed the connection.
struct Reply {
  Bytes bytes;
  bool hung = false;  ///< nothing for 10 s and no close
};

/// Send `data` cut at `cuts` (ascending offsets inside it). With `sync`,
/// wait after each piece until the daemon has read all of it. Then half-close
/// and read until the daemon closes.
Reply exchange(serve::Server& server, std::uint16_t port, ByteView data,
               const std::vector<std::size_t>& cuts, bool sync) {
  Reply reply;
  std::string error;
  serve::Socket sock = serve::Socket::connect_tcp("127.0.0.1", port, &error);
  EXPECT_TRUE(sock.valid()) << error;
  const std::uint64_t base = bytes_read_by_daemon(server);
  const auto until = Clock::now() + std::chrono::seconds(30);
  std::size_t from = 0;
  for (std::size_t i = 0; i <= cuts.size(); ++i) {
    std::size_t to = i < cuts.size() ? cuts[i] : data.size();
    if (!sock.send_all(data.subspan(from, to - from))) break;  // daemon closed on us
    from = to;
    if (!sync) continue;
    while (bytes_read_by_daemon(server) - base < from && Clock::now() < until)
      std::this_thread::yield();
  }
  ::shutdown(sock.fd(), SHUT_WR);
  std::uint8_t buf[4096];
  while (true) {
    pollfd p{sock.fd(), POLLIN, 0};
    if (::poll(&p, 1, 10000) == 0) {
      reply.hung = true;
      break;
    }
    long n = sock.recv_some(buf, sizeof(buf));
    if (n <= 0) break;
    reply.bytes.insert(reply.bytes.end(), buf, buf + n);
  }
  return reply;
}

/// The session messages in a reply.
std::vector<serve::Msg> messages(const Reply& reply) {
  serve::MsgParser parser;
  parser.feed(reply.bytes);
  std::vector<serve::Msg> out;
  while (auto m = parser.poll()) out.push_back(std::move(*m));
  return out;
}

std::optional<serve::DigestReport> receipt(const Reply& reply) {
  for (const serve::Msg& m : messages(reply))
    if (m.type == serve::MsgType::kDigest) return serve::decode_digest(m.payload);
  return std::nullopt;
}

void expect_replay_receipt(serve::Server& server, const Stream& s,
                           const std::vector<std::size_t>& cuts, const std::string& what) {
  Reply reply = exchange(server, server.tcp_port(), s.bytes, cuts, true);
  ASSERT_FALSE(reply.hung) << what;
  std::optional<serve::DigestReport> digest = receipt(reply);
  ASSERT_TRUE(digest.has_value()) << what;
  EXPECT_EQ(digest->records, s.replay.stats.records) << what;
  EXPECT_EQ(digest->digest_hex, s.replay.verdict_digest) << what;
}

TEST_F(ServeFuzz, SmallStreamCutAtEveryBoundaryGetsReplayReceipt) {
  ASSERT_TRUE(small_->replay.ok) << small_->replay.error;
  const std::size_t n = small_->bytes.size();
  // Every boundary at once: one byte per read.
  std::vector<std::size_t> every;
  for (std::size_t k = 1; k < n; ++k) every.push_back(k);
  expect_replay_receipt(*server_, *small_, every, "one byte per read");
  // Every boundary on its own: two reads, split at k.
  for (std::size_t k = 1; k < n; ++k) {
    expect_replay_receipt(*server_, *small_, {k}, "split at " + std::to_string(k));
    if (HasFatalFailure()) return;
  }
  EXPECT_TRUE(no_connections_left(*server_));
}

TEST_F(ServeFuzz, LargeStreamCutAtSeededBoundariesGetsReplayReceipt) {
  ASSERT_TRUE(large_->replay.ok) << large_->replay.error;
  std::mt19937_64 rng(0x5e55);
  for (int round = 0; round < 12; ++round) {
    std::vector<std::size_t> cuts;
    std::uniform_int_distribution<std::size_t> step(1, round % 2 ? 64 : 4096);
    for (std::size_t at = step(rng); at < large_->bytes.size(); at += step(rng))
      cuts.push_back(at);
    expect_replay_receipt(*server_, *large_, cuts, "round " + std::to_string(round));
    if (HasFatalFailure()) return;
  }
  EXPECT_TRUE(no_connections_left(*server_));
}

/// Seeded damage: flip, insert, or truncate.
Bytes mutate(const Bytes& in, std::mt19937_64& rng) {
  Bytes out = in;
  std::uniform_int_distribution<int> byte(0, 255);
  auto pos = [&rng](std::size_t n) { return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng); };
  switch (rng() % 4) {
    case 0:  // a few flipped bytes
      for (std::uint64_t i = 0, k = 1 + rng() % 4; i < k; ++i)
        out[pos(out.size())] = static_cast<std::uint8_t>(byte(rng));
      break;
    case 1:  // random bytes inserted
      out.insert(out.begin() + static_cast<std::ptrdiff_t>(pos(out.size())),
                 static_cast<std::uint8_t>(byte(rng)));
      break;
    case 2:  // truncated
      out.resize(pos(out.size()));
      break;
    default:  // a flipped length or type byte of the first messages
      out[pos(std::min<std::size_t>(out.size(), 64))] ^= static_cast<std::uint8_t>(1 + rng() % 255);
      break;
  }
  return out;
}

TEST_F(ServeFuzz, MutatedSessionStreamsEndCleanly) {
  std::mt19937_64 rng(0xf022);
  for (int i = 0; i < 160; ++i) {
    const Stream& s = i % 2 ? *large_ : *small_;
    Bytes bad = mutate(s.bytes, rng);
    std::vector<std::size_t> cuts;
    for (std::size_t at = 1 + rng() % 700; at < bad.size(); at += 1 + rng() % 700) cuts.push_back(at);
    Reply reply = exchange(*server_, server_->tcp_port(), bad, cuts, false);
    ASSERT_FALSE(reply.hung) << "case " << i;
    // Whatever came back is well-framed server-to-client protocol.
    for (const serve::Msg& m : messages(reply))
      EXPECT_TRUE(m.type == serve::MsgType::kHelloAck || m.type == serve::MsgType::kCredit ||
                  m.type == serve::MsgType::kPong || m.type == serve::MsgType::kAbort ||
                  m.type == serve::MsgType::kDigest)
          << "case " << i;
    ASSERT_TRUE(no_connections_left(*server_)) << "case " << i;
  }
  expect_replay_receipt(*server_, *large_, {}, "clean client after the fuzz");
}

TEST_F(ServeFuzz, AdminRequestParserIsSplitInvariant) {
  const std::string request = "GET /healthz?verbose=1 HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n";
  for (std::size_t k = 0; k <= request.size(); ++k) {
    serve::AdminRequest r;
    bool done = r.feed(std::string_view(request).substr(0, k));
    EXPECT_EQ(done, k == request.size()) << k;
    if (!done) {
      EXPECT_TRUE(r.feed(std::string_view(request).substr(k))) << k;
    }
    EXPECT_EQ(r.path(), "/healthz") << k;
  }
  serve::AdminRequest bytewise;
  for (std::size_t k = 0; k + 1 < request.size(); ++k)
    EXPECT_FALSE(bytewise.feed(std::string_view(request).substr(k, 1))) << k;
  EXPECT_TRUE(bytewise.feed(std::string_view(request).substr(request.size() - 1)));
  EXPECT_EQ(bytewise.path(), "/healthz");

  // Past the 16 KiB cap the head counts as complete, bounded at the cap.
  serve::AdminRequest huge;
  std::string filler(20000, 'a');
  EXPECT_TRUE(huge.feed(filler));
  EXPECT_EQ(huge.path(), "");
}

TEST_F(ServeFuzz, MutatedAdminRequestsEndCleanly) {
  const std::vector<std::string> requests = {
      "GET /healthz HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n",
      "GET /metrics HTTP/1.1\r\nUser-Agent: fuzz\r\nAccept: */*\r\n\r\n",
      "GET /nope?x=1 HTTP/1.0\r\n\r\n",
  };
  std::mt19937_64 rng(0xad31);
  for (int i = 0; i < 150; ++i) {
    const std::string& clean = requests[static_cast<std::size_t>(i) % requests.size()];
    Bytes bad = mutate(Bytes(clean.begin(), clean.end()), rng);
    serve::AdminRequest parsed;
    parsed.feed(std::string_view(reinterpret_cast<const char*>(bad.data()), bad.size()));
    if (parsed.path() == "/drain" || parsed.path() == "/rekey") continue;  // not fuzz targets
    std::vector<std::size_t> cuts;
    for (std::size_t at = 1 + rng() % 8; at < bad.size(); at += 1 + rng() % 8) cuts.push_back(at);
    Reply reply = exchange(*server_, server_->admin_port(), bad, cuts, false);
    ASSERT_FALSE(reply.hung) << "case " << i;
    std::string text(reply.bytes.begin(), reply.bytes.end());
    EXPECT_TRUE(text.empty() || text.rfind("HTTP/1.0 ", 0) == 0) << "case " << i << ": " << text;
    ASSERT_TRUE(no_connections_left(*server_)) << "case " << i;
  }
  const std::string healthz = "GET /healthz HTTP/1.0\r\n\r\n";
  Reply ok = exchange(*server_, server_->admin_port(),
                      ByteView(reinterpret_cast<const std::uint8_t*>(healthz.data()), healthz.size()),
                      {}, false);
  EXPECT_EQ(std::string(ok.bytes.begin(), ok.bytes.end()).rfind("HTTP/1.0 200 OK", 0), 0u);
}

}  // namespace
}  // namespace pnm
