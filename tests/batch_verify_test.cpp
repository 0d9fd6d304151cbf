// sink::BatchVerifier determinism contract: the parallel engine must be
// bit-identical to serial PnmScheme::verify across seeds, batch sizes and
// thread counts — including on attack traffic (selective dropping, identity
// swapping, altering, removal) — and the scoped strategy must match the
// exhaustive one while actually hitting its anonymous-ID memo.
#include <gtest/gtest.h>

#include <stdexcept>

#include "attack/attacks.h"
#include "crypto/keys.h"
#include "marking/scheme.h"
#include "net/topology.h"
#include "sink/batch_verifier.h"
#include "sink/scoped_verify.h"
#include "util/rng.h"

namespace pnm::sink {
namespace {

Bytes str_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

bool same_result(const marking::VerifyResult& a, const marking::VerifyResult& b) {
  if (a.total_marks != b.total_marks || a.invalid_marks != b.invalid_marks ||
      a.truncated_by_invalid != b.truncated_by_invalid ||
      a.chain.size() != b.chain.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.chain.size(); ++i) {
    if (a.chain[i].node != b.chain[i].node ||
        a.chain[i].mark_index != b.chain[i].mark_index) {
      return false;
    }
  }
  return true;
}

class BatchVerifyFixture : public ::testing::Test {
 protected:
  static constexpr std::size_t kForwarders = 12;

  BatchVerifyFixture()
      : topo_(net::Topology::chain(kForwarders)),
        keys_(str_bytes("batch-master"), topo_.node_count()) {
    cfg_.mark_probability = 0.35;
    scheme_ = marking::make_scheme(marking::SchemeKind::kPnm, cfg_);
  }

  /// Marked traffic along the chain, optionally transited by a forwarding
  /// mole at hop `mole_at` running `mole`. Dropped packets never reach the
  /// sink, exactly as in the simulator.
  std::vector<net::Packet> make_traffic(std::size_t count, std::uint64_t seed,
                                        attack::MoleBehavior* mole = nullptr,
                                        NodeId mole_at = 6,
                                        const attack::KeyRing* ring = nullptr) {
    Rng rng(seed);
    std::vector<net::Packet> out;
    for (std::size_t n = 0; n < count; ++n) {
      net::Packet p;
      p.report =
          net::Report{static_cast<std::uint32_t>(n), 1, 2, 1000 + n}.encode();
      bool dropped = false;
      for (NodeId v = kForwarders; v >= 1; --v) {  // path order: far node first
        if (mole != nullptr && v == mole_at) {
          attack::MoleContext ctx{v, scheme_.get(), ring, &rng};
          if (mole->on_forward(p, ctx) == attack::ForwardAction::kDrop) {
            dropped = true;
            break;
          }
        } else {
          scheme_->mark(p, v, keys_.key_unchecked(v), rng);
        }
      }
      if (dropped) continue;
      p.delivered_by = 1;
      out.push_back(std::move(p));
    }
    return out;
  }

  std::vector<marking::VerifyResult> serial_reference(
      const std::vector<net::Packet>& batch) {
    std::vector<marking::VerifyResult> out;
    out.reserve(batch.size());
    for (const net::Packet& p : batch) out.push_back(scheme_->verify(p, keys_));
    return out;
  }

  void expect_parallel_matches_serial(const std::vector<net::Packet>& batch) {
    auto expected = serial_reference(batch);
    for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                std::size_t{8}}) {
      BatchVerifierConfig bcfg;
      bcfg.threads = threads;
      BatchVerifier engine(*scheme_, keys_, bcfg);
      auto got = engine.verify_batch(batch);
      ASSERT_EQ(got.size(), expected.size()) << "threads=" << threads;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(same_result(got[i], expected[i]))
            << "threads=" << threads << " packet=" << i;
      }
    }
  }

  net::Topology topo_;
  crypto::KeyStore keys_;
  marking::SchemeConfig cfg_;
  std::unique_ptr<marking::MarkingScheme> scheme_;
};

TEST_F(BatchVerifyFixture, EmptyBatch) {
  BatchVerifier engine(*scheme_, keys_);
  EXPECT_TRUE(engine.verify_batch({}).empty());
}

TEST_F(BatchVerifyFixture, SinglePacketMatchesSerial) {
  expect_parallel_matches_serial(make_traffic(1, 11));
}

TEST_F(BatchVerifyFixture, HonestTrafficAcrossSeedsAndSizes) {
  for (std::uint64_t seed : {1ULL, 23ULL, 456ULL}) {
    for (std::size_t size : {std::size_t{7}, std::size_t{64}}) {
      expect_parallel_matches_serial(make_traffic(size, seed));
    }
  }
}

TEST_F(BatchVerifyFixture, SelectiveDropTraffic) {
  // The anonymized mole is reduced to dropping any marked packet; survivors
  // are the ones unmarked before the mole's hop.
  attack::SelectiveDropMole mole(attack::DropPolicy::kAnyMarked);
  auto batch = make_traffic(80, 7, &mole);
  ASSERT_FALSE(batch.empty());
  expect_parallel_matches_serial(batch);
}

TEST_F(BatchVerifyFixture, IdentitySwapTraffic) {
  // Colluding forwarder leaves valid marks claiming its peer: marks verify
  // but name the wrong node — verification must stay bit-identical.
  attack::KeyRing ring(keys_, {6, 9});
  attack::IdentitySwapForwarder mole(/*peer=*/9, /*claim_peer_prob=*/0.6,
                                     /*own_mark_prob=*/0.3);
  auto batch = make_traffic(60, 13, &mole, /*mole_at=*/6, &ring);
  ASSERT_FALSE(batch.empty());
  expect_parallel_matches_serial(batch);
}

TEST_F(BatchVerifyFixture, AlteredAndRemovedMarksTraffic) {
  attack::KeyRing ring(keys_, {6});
  attack::AlterMole alter(attack::AlterPolicy::kFirst);
  auto altered = make_traffic(40, 17, &alter, 6, &ring);
  ASSERT_FALSE(altered.empty());
  expect_parallel_matches_serial(altered);

  attack::RemovalMole removal(attack::RemovalPolicy::kFirstK, 2);
  auto removed = make_traffic(40, 19, &removal, 6, &ring);
  ASSERT_FALSE(removed.empty());
  expect_parallel_matches_serial(removed);
}

TEST_F(BatchVerifyFixture, ScopedMemoStrategyMatchesExhaustive) {
  auto batch = make_traffic(40, 29);
  auto expected = serial_reference(batch);

  // Per-packet mode on all-distinct reports: every memo hit is a repeated
  // probe *within* one packet (the next mark's rings re-cross the node just
  // resolved and its neighbors).
  util::Counters counters;
  BatchVerifierConfig bcfg;
  bcfg.threads = 4;
  bcfg.strategy = BatchStrategy::kScoped;
  bcfg.pack_mode = PackMode::kPacket;
  BatchVerifier engine(*scheme_, keys_, bcfg, &topo_, &counters);
  auto got = engine.verify_batch(batch);

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(same_result(got[i], expected[i])) << "packet " << i;
  }
  EXPECT_GT(counters.get(util::Metric::kCacheHits), 0u);
  EXPECT_GT(counters.get(util::Metric::kPrfEvals), 0u);
  EXPECT_EQ(counters.get(util::Metric::kPacketsVerified), batch.size());

  // Exact accounting: every candidate walked is one memo hit or one miss,
  // and every miss is one PRF evaluation.
  ScopedVerifyStats stats;
  util::Counters serial;
  for (const net::Packet& p : batch) {
    scoped_verify_pnm(p, keys_, topo_, scheme_->config(), &stats, &serial);
  }
  EXPECT_EQ(serial.get(util::Metric::kCacheHits) + serial.get(util::Metric::kCacheMisses),
            stats.prf_evaluations);
  EXPECT_EQ(serial.get(util::Metric::kCacheMisses), serial.get(util::Metric::kPrfEvals));
  EXPECT_EQ(serial.get(util::Metric::kCacheHits), counters.get(util::Metric::kCacheHits));
  EXPECT_EQ(serial.get(util::Metric::kMacChecks), stats.mac_checks);
}

TEST_F(BatchVerifyFixture, ExhaustiveStrategyNeverTouchesMemo) {
  // The exhaustive path builds one table per report and has nothing to
  // memoize: verdicts match the serial reference and no memo hit or miss is
  // ever metered, on the engine's counters or the global ones.
  auto batch = make_traffic(24, 43);
  auto expected = serial_reference(batch);
  util::Counters& global = util::Counters::global();
  const std::uint64_t hits0 = global.get(util::Metric::kCacheHits);
  const std::uint64_t misses0 = global.get(util::Metric::kCacheMisses);
  for (PackMode mode : {PackMode::kPacket, PackMode::kCross}) {
    util::Counters counters;
    BatchVerifierConfig bcfg;
    bcfg.threads = 2;
    bcfg.pack_mode = mode;
    BatchVerifier engine(*scheme_, keys_, bcfg, nullptr, &counters);
    auto got = engine.verify_batch(batch);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(same_result(got[i], expected[i]))
          << pack_mode_name(mode) << " packet " << i;
    }
    EXPECT_EQ(counters.get(util::Metric::kCacheHits), 0u);
    EXPECT_EQ(counters.get(util::Metric::kCacheMisses), 0u);
  }
  EXPECT_EQ(global.get(util::Metric::kCacheHits), hits0);
  EXPECT_EQ(global.get(util::Metric::kCacheMisses), misses0);
}

TEST_F(BatchVerifyFixture, RepeatedBatchesAreDeterministic) {
  auto batch = make_traffic(32, 31);
  BatchVerifierConfig bcfg;
  bcfg.threads = 8;
  BatchVerifier engine(*scheme_, keys_, bcfg);
  auto first = engine.verify_batch(batch);
  auto second = engine.verify_batch(batch);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(same_result(first[i], second[i]));
  }
}

TEST_F(BatchVerifyFixture, BatchMetricsRecorded) {
  util::Counters counters;
  auto batch = make_traffic(16, 37);
  BatchVerifierConfig bcfg;
  bcfg.threads = 2;
  BatchVerifier engine(*scheme_, keys_, bcfg, nullptr, &counters);
  engine.verify_batch(batch);
  engine.verify_batch(batch);
  EXPECT_EQ(counters.get(util::Metric::kBatches), 2u);
  EXPECT_EQ(counters.latency_summary().count, 2u);
}

TEST_F(BatchVerifyFixture, ScopedWithoutTopologyThrows) {
  BatchVerifierConfig bcfg;
  bcfg.strategy = BatchStrategy::kScoped;
  EXPECT_THROW(BatchVerifier(*scheme_, keys_, bcfg), std::invalid_argument);
}

TEST_F(BatchVerifyFixture, ChunkSizeOverrideStillMatches) {
  auto batch = make_traffic(33, 41);
  auto expected = serial_reference(batch);
  for (std::size_t chunk : {std::size_t{1}, std::size_t{5}, std::size_t{100}}) {
    BatchVerifierConfig bcfg;
    bcfg.threads = 4;
    bcfg.chunk_size = chunk;
    BatchVerifier engine(*scheme_, keys_, bcfg);
    auto got = engine.verify_batch(batch);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(same_result(got[i], expected[i])) << "chunk=" << chunk;
    }
  }
}

}  // namespace
}  // namespace pnm::sink
