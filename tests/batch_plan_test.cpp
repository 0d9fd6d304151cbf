// Cross-packet batch planner (sink/batch_plan.h) determinism contract:
// --pack-mode=cross must produce verdicts bit-identical to the per-packet
// path across SHA backends, strategies (exhaustive / scoped), thread counts,
// and ragged batch shapes — on honest traffic, duplicate-heavy flow traffic,
// and corrupted marks that exercise the truncation paths. Also unit-covers
// the planner's building blocks (anon_id_batch_multi, AnonIdTable::
// from_precomputed, PackMode parsing/pinning, the SHA crossover knob).
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "crypto/anon_id.h"
#include "crypto/keys.h"
#include "crypto/sha256_multi.h"
#include "marking/scheme.h"
#include "net/report.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "sink/anon_lookup.h"
#include "sink/batch_plan.h"
#include "sink/batch_verifier.h"
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

class BatchPlanFixture : public ::testing::Test {
 protected:
  static constexpr std::size_t kForwarders = 12;

  BatchPlanFixture()
      : topo_(net::Topology::chain(kForwarders)),
        keys_(str_bytes("plan-master"), topo_.node_count()) {
    cfg_.mark_probability = 0.35;
    scheme_ = marking::make_scheme(marking::SchemeKind::kPnm, cfg_);
  }

  /// Marked chain traffic. flows == 0 gives every packet a distinct report;
  /// flows > 0 cycles `count` packets over `flows` reports (duplicate-heavy,
  /// the shape the planner dedups). corrupt != 0 deterministically damages
  /// every corrupt-th packet — alternately flipping a MAC byte, truncating a
  /// mark's id_field, and dropping all marks — to exercise the
  /// truncated_by_invalid and markless scatter paths.
  std::vector<net::Packet> make_traffic(std::size_t count, std::uint64_t seed,
                                        std::size_t flows = 0,
                                        std::size_t corrupt = 0) {
    Rng rng(seed);
    std::vector<net::Packet> out;
    for (std::size_t n = 0; n < count; ++n) {
      std::size_t flow = flows == 0 ? n : n % flows;
      net::Packet p;
      p.report =
          net::Report{static_cast<std::uint32_t>(flow), 1, 2, 1000 + flow}.encode();
      for (NodeId v = kForwarders; v >= 1; --v) {
        scheme_->mark(p, v, keys_.key_unchecked(v), rng);
      }
      p.delivered_by = 1;
      if (corrupt != 0 && n % corrupt == corrupt - 1 && !p.marks.empty()) {
        switch ((n / corrupt) % 3) {
          case 0: p.marks[p.marks.size() / 2].mac[0] ^= 0x5a; break;
          case 1: p.marks.back().id_field.pop_back(); break;
          default: p.marks.clear(); break;
        }
      }
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

  std::vector<marking::VerifyResult> run(const std::vector<net::Packet>& batch,
                                         PackMode mode, BatchStrategy strategy,
                                         std::size_t threads) {
    BatchVerifierConfig bcfg;
    bcfg.threads = threads;
    bcfg.strategy = strategy;
    bcfg.pack_mode = mode;
    const net::Topology* topo =
        strategy == BatchStrategy::kScoped ? &topo_ : nullptr;
    BatchVerifier engine(*scheme_, keys_, bcfg, topo);
    return engine.verify_batch(batch);
  }

  void expect_cross_matches_packet(const std::vector<net::Packet>& batch,
                                   BatchStrategy strategy, std::size_t threads) {
    auto expected = run(batch, PackMode::kPacket, strategy, threads);
    auto got = run(batch, PackMode::kCross, strategy, threads);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(same_result(got[i], expected[i]))
          << "strategy=" << (strategy == BatchStrategy::kScoped ? "scoped" : "exhaustive")
          << " threads=" << threads << " packet=" << i;
    }
  }

  net::Topology topo_;
  crypto::KeyStore keys_;
  marking::SchemeConfig cfg_;
  std::unique_ptr<marking::MarkingScheme> scheme_;
};

TEST(PackModeTest, Names) {
  EXPECT_STREQ(pack_mode_name(PackMode::kPacket), "packet");
  EXPECT_STREQ(pack_mode_name(PackMode::kCross), "cross");
}

TEST(PackModeTest, Parse) {
  EXPECT_EQ(parse_pack_mode("packet"), PackMode::kPacket);
  EXPECT_EQ(parse_pack_mode("per-packet"), PackMode::kPacket);
  EXPECT_EQ(parse_pack_mode("per_packet"), PackMode::kPacket);
  EXPECT_EQ(parse_pack_mode("cross"), PackMode::kCross);
  EXPECT_EQ(parse_pack_mode("batch"), PackMode::kCross);
  EXPECT_EQ(parse_pack_mode("CROSS"), PackMode::kCross);
  EXPECT_EQ(parse_pack_mode("Packet"), PackMode::kPacket);
  EXPECT_FALSE(parse_pack_mode("").has_value());
  EXPECT_FALSE(parse_pack_mode("simd").has_value());
}

TEST(PackModeTest, ForceOverridesDefault) {
  // Tests do not set PNM_PACK_MODE, so the unforced default is kCross.
  ASSERT_EQ(std::getenv("PNM_PACK_MODE"), nullptr);
  EXPECT_EQ(active_pack_mode(), PackMode::kCross);
  force_pack_mode(PackMode::kPacket);
  EXPECT_EQ(active_pack_mode(), PackMode::kPacket);
  force_pack_mode(std::nullopt);
  EXPECT_EQ(active_pack_mode(), PackMode::kCross);
}

TEST(ShaCrossoverTest, SetAndReset) {
  // The sha-tune satellite's honor path: set_sha_crossover overrides the
  // PNM_SHA_CROSSOVER / default ladder; nullopt restores it.
  const std::size_t before = crypto::sha_crossover();
  crypto::set_sha_crossover(3);
  EXPECT_EQ(crypto::sha_crossover(), 3u);
  crypto::set_sha_crossover(0);  // 0 = never upgrade SHA-NI to AVX2
  EXPECT_EQ(crypto::sha_crossover(), 0u);
  crypto::set_sha_crossover(std::nullopt);
  EXPECT_EQ(crypto::sha_crossover(), before);
}

TEST_F(BatchPlanFixture, AnonIdBatchMultiMatchesSerial) {
  std::vector<Bytes> reports;
  for (std::uint32_t r = 0; r < 5; ++r)
    reports.push_back(net::Report{r, 1, 2, 2000 + r}.encode());
  std::vector<NodeId> all_ids;
  for (NodeId v = 1; v <= kForwarders; ++v) all_ids.push_back(v);
  std::vector<NodeId> sparse_ids{3, 7, 11};

  for (std::size_t anon_len : {std::size_t{1}, std::size_t{2}, std::size_t{8},
                               std::size_t{16}}) {
    // Mixed sweep: full node sets, a sparse set, and an empty job.
    std::vector<Bytes> outs(reports.size() + 1);
    std::vector<crypto::AnonIdSweepJob> jobs;
    for (std::size_t r = 0; r < reports.size(); ++r) {
      outs[r].resize(all_ids.size() * anon_len);
      jobs.push_back({reports[r], all_ids, outs[r].data()});
    }
    outs.back().resize(sparse_ids.size() * anon_len);
    jobs.push_back({reports[0], sparse_ids, outs.back().data()});
    jobs.push_back({reports[1], {}, nullptr});
    crypto::anon_id_batch_multi(keys_, jobs, anon_len);

    for (std::size_t r = 0; r < reports.size(); ++r) {
      for (std::size_t i = 0; i < all_ids.size(); ++i) {
        Bytes expect = crypto::anon_id(keys_.hmac_key(all_ids[i]), reports[r],
                                       all_ids[i], anon_len);
        Bytes got(outs[r].begin() + static_cast<std::ptrdiff_t>(i * anon_len),
                  outs[r].begin() + static_cast<std::ptrdiff_t>((i + 1) * anon_len));
        EXPECT_EQ(got, expect) << "report=" << r << " i=" << i
                               << " anon_len=" << anon_len;
      }
    }
    for (std::size_t i = 0; i < sparse_ids.size(); ++i) {
      Bytes expect = crypto::anon_id(keys_.hmac_key(sparse_ids[i]), reports[0],
                                     sparse_ids[i], anon_len);
      Bytes got(outs.back().begin() + static_cast<std::ptrdiff_t>(i * anon_len),
                outs.back().begin() + static_cast<std::ptrdiff_t>((i + 1) * anon_len));
      EXPECT_EQ(got, expect) << "sparse i=" << i << " anon_len=" << anon_len;
    }
  }
}

TEST_F(BatchPlanFixture, FromPrecomputedMatchesHashingCtor) {
  Bytes report = net::Report{9, 1, 2, 3000}.encode();
  for (std::size_t anon_len : {std::size_t{1}, std::size_t{2}, std::size_t{16}}) {
    AnonIdTable built(keys_, report, anon_len);

    std::vector<NodeId> ids;
    for (NodeId v = 1; v < keys_.size(); ++v) ids.push_back(v);
    Bytes anons(ids.size() * anon_len);
    crypto::anon_id_batch(keys_, report, ids, anon_len, anons.data());
    AnonIdTable pre = AnonIdTable::from_precomputed(ids, anons, anon_len);

    EXPECT_EQ(pre.distinct_ids(), built.distinct_ids()) << "anon_len=" << anon_len;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ByteView anon(anons.data() + i * anon_len, anon_len);
      auto a = built.candidates(anon);
      auto b = pre.candidates(anon);
      ASSERT_EQ(a.size(), b.size()) << "anon_len=" << anon_len << " i=" << i;
      for (std::size_t c = 0; c < a.size(); ++c) EXPECT_EQ(a[c], b[c]);
    }
    Bytes missing(anon_len, 0xee);
    EXPECT_EQ(built.candidates(missing).size(), pre.candidates(missing).size());
  }
  // Degenerate inputs build empty tables rather than crashing.
  AnonIdTable empty = AnonIdTable::from_precomputed({}, {}, 2);
  Bytes probe{0x00, 0x00};
  EXPECT_TRUE(empty.candidates(probe).empty());
  EXPECT_EQ(empty.distinct_ids(), 0u);
}

TEST_F(BatchPlanFixture, ExhaustiveCrossMatchesSerialReference) {
  // The planner IS the default; pin both modes explicitly and also compare
  // against the serial PnmScheme::verify ground truth.
  auto batch = make_traffic(48, 101, /*flows=*/8);
  auto expected = serial_reference(batch);
  for (std::size_t threads : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    auto got = run(batch, PackMode::kCross, BatchStrategy::kExhaustive, threads);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(same_result(got[i], expected[i]))
          << "threads=" << threads << " packet=" << i;
    }
  }
}

TEST_F(BatchPlanFixture, ScopedCrossMatchesPacketMode) {
  auto batch = make_traffic(40, 103, /*flows=*/6);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    expect_cross_matches_packet(batch, BatchStrategy::kScoped, threads);
  }
}

TEST_F(BatchPlanFixture, AllShaBackendsAgree) {
  auto batch = make_traffic(32, 107, /*flows=*/5, /*corrupt=*/7);
  auto expected = serial_reference(batch);
  for (auto backend : {crypto::Sha256Backend::kScalar, crypto::Sha256Backend::kSse2,
                       crypto::Sha256Backend::kAvx2, crypto::Sha256Backend::kShaNi}) {
    if (!crypto::sha_backend_supported(backend)) continue;
    crypto::force_sha_backend(backend);
    for (auto strategy : {BatchStrategy::kExhaustive, BatchStrategy::kScoped}) {
      auto got = run(batch, PackMode::kCross, strategy, 2);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(same_result(got[i], expected[i]))
            << crypto::sha_backend_name(backend) << " packet=" << i;
      }
    }
  }
  crypto::force_sha_backend(std::nullopt);
}

TEST_F(BatchPlanFixture, RaggedBatchStress) {
  // Ragged sizes straddling chunk boundaries and lane widths, duplicate-heavy
  // and all-distinct, with periodic corruption so some lanes truncate early
  // while their neighbors keep walking.
  for (std::size_t size : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                           std::size_t{17}, std::size_t{64}, std::size_t{127},
                           std::size_t{257}}) {
    for (std::size_t flows : {std::size_t{0}, std::size_t{5}}) {
      auto batch = make_traffic(size, 1000 + size, flows, /*corrupt=*/5);
      expect_cross_matches_packet(batch, BatchStrategy::kExhaustive,
                                  /*threads=*/4);
      expect_cross_matches_packet(batch, BatchStrategy::kScoped, /*threads=*/4);
    }
  }
}

TEST_F(BatchPlanFixture, DedupCounterCountsSharedTables) {
  util::Counters counters;
  BatchVerifierConfig bcfg;
  bcfg.threads = 1;
  bcfg.pack_mode = PackMode::kCross;
  BatchVerifier engine(*scheme_, keys_, bcfg, nullptr, &counters);

  // 24 packets over 6 flows: every marked packet whose report was already
  // seen (markless packets never touch a table) rides the earlier packet's
  // table and counts as deduped.
  auto batch = make_traffic(24, 109, /*flows=*/6);
  std::set<Bytes> seen;
  std::uint64_t expect_deduped = 0;
  for (const net::Packet& p : batch) {
    if (p.marks.empty()) continue;
    if (!seen.insert(p.report).second) ++expect_deduped;
  }
  ASSERT_GT(expect_deduped, 0u);
  engine.verify_batch(batch);
  EXPECT_EQ(counters.registry().counter("sink_reports_deduped").value(),
            expect_deduped);

  // All-distinct traffic dedups nothing further.
  auto distinct = make_traffic(10, 113);
  engine.verify_batch(distinct);
  EXPECT_EQ(counters.registry().counter("sink_reports_deduped").value(),
            expect_deduped);
}

// The sinkbench deep-scoped regime: a 300-hop chain, ~3 marks per packet
// about 100 hops apart, and a duplicate-heavy batch (16 reports x 4
// deliveries back to back, each delivery marked afresh) carrying one of each
// damage the §7 search must survive.
class DeepChainPlanTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kForwarders = 300;

  DeepChainPlanTest()
      : topo_(net::Topology::chain(kForwarders)),
        keys_(str_bytes("deep-plan-master"), topo_.node_count()) {
    cfg_.mark_probability = 3.0 / static_cast<double>(kForwarders);
    scheme_ = marking::make_scheme(marking::SchemeKind::kPnm, cfg_);
    Rng rng(4711);
    for (std::size_t n = 0; n < 16 * 4; ++n) {
      auto flow = static_cast<std::uint32_t>(n / 4);
      net::Packet p;
      p.report = net::Report{flow, 2, 3, 5000 + flow}.encode();
      for (auto v = static_cast<NodeId>(kForwarders); v >= 1; --v) {
        scheme_->mark(p, v, keys_.key_unchecked(v), rng);
      }
      p.delivered_by = 1;
      batch_.push_back(std::move(p));
    }
    // Damage five distinct packets that carry at least two marks.
    std::size_t next = 0;
    auto victim = [&]() -> net::Packet& {
      while (batch_[next].marks.size() < 2) ++next;
      return batch_[next++];
    };
    victim().marks.front().mac[0] ^= 0x5a;  // tampered MAC, upstream mark
    net::Mark& alien = victim().marks.back();  // no node owns this anon ID:
    alien.id_field[0] ^= 0xff;                 // full-component search, then
    alien.id_field[1] ^= 0xff;                 // truncation
    victim().marks[1].id_field.pop_back();      // wrong-width id_field
    victim().delivered_by = kInvalidNode;       // unknown anchor: the sink
    victim().delivered_by = 5000;               // out-of-range anchor: the sink
  }

  std::vector<marking::VerifyResult> run(PackMode mode, std::size_t threads) {
    BatchVerifierConfig bcfg;
    bcfg.threads = threads;
    bcfg.strategy = BatchStrategy::kScoped;
    bcfg.pack_mode = mode;
    BatchVerifier engine(*scheme_, keys_, bcfg, &topo_);
    return engine.verify_batch(batch_);
  }

  /// Total SHA-256 jobs one verify_batch ran: the crypto_lanes_filled sum
  /// (exact on lane-packing backends, which meter one sample per sweep).
  std::uint64_t sha_jobs(PackMode mode, std::size_t threads) {
    obs::Histogram& lanes = obs::MetricsRegistry::global().histogram("crypto_lanes_filled");
    const std::uint64_t before = lanes.snapshot().sum;
    run(mode, threads);
    return lanes.snapshot().sum - before;
  }

  net::Topology topo_;
  crypto::KeyStore keys_;
  marking::SchemeConfig cfg_;
  std::unique_ptr<marking::MarkingScheme> scheme_;
  std::vector<net::Packet> batch_;
};

TEST_F(DeepChainPlanTest, PlannerPacketAndExhaustiveAgree) {
  std::vector<marking::VerifyResult> expected;
  for (const net::Packet& p : batch_) expected.push_back(scheme_->verify(p, keys_));
  std::size_t truncated = 0;
  for (const auto& r : expected) truncated += r.truncated_by_invalid ? 1 : 0;
  ASSERT_GE(truncated, 3u);  // the tampered, alien and wrong-width packets

  for (auto backend : {crypto::Sha256Backend::kScalar, crypto::Sha256Backend::kSse2,
                       crypto::Sha256Backend::kAvx2, crypto::Sha256Backend::kShaNi}) {
    if (!crypto::sha_backend_supported(backend)) continue;
    crypto::force_sha_backend(backend);
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      auto cross = run(PackMode::kCross, threads);
      auto packet = run(PackMode::kPacket, threads);
      ASSERT_EQ(cross.size(), expected.size());
      ASSERT_EQ(packet.size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_TRUE(same_result(cross[i], expected[i]))
            << crypto::sha_backend_name(backend) << " threads=" << threads
            << " cross packet=" << i;
        EXPECT_TRUE(same_result(packet[i], expected[i]))
            << crypto::sha_backend_name(backend) << " threads=" << threads
            << " per-packet packet=" << i;
      }
    }
  }
  crypto::force_sha_backend(std::nullopt);
}

TEST_F(DeepChainPlanTest, CrossRunsNoMoreShaJobsThanPacketMode) {
  // Cross mode memoizes each (report, node) PRF once per chunk, so the four
  // deliveries of a report share their ring probes; per-packet mode pays
  // them per delivery. MAC work is the same in both.
  std::size_t checked = 0;
  for (auto backend : {crypto::Sha256Backend::kSse2, crypto::Sha256Backend::kAvx2}) {
    if (!crypto::sha_backend_supported(backend)) continue;
    crypto::force_sha_backend(backend);
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const std::uint64_t cross = sha_jobs(PackMode::kCross, threads);
      const std::uint64_t packet = sha_jobs(PackMode::kPacket, threads);
      EXPECT_GT(cross, 0u);
      EXPECT_LE(cross, packet)
          << crypto::sha_backend_name(backend) << " threads=" << threads;
      ++checked;
    }
  }
  crypto::force_sha_backend(std::nullopt);
  if (checked == 0) GTEST_SKIP() << "no lane-packing SHA-256 backend on this CPU";
}

}  // namespace
}  // namespace pnm::sink
