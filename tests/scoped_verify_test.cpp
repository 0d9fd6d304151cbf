// Topology-scoped verification tests (§7): equivalence with the exhaustive
// verifier, cost advantage, and edge cases (unknown anchor, alien marks).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "crypto/keys.h"
#include "marking/scheme.h"
#include "net/routing.h"
#include "sink/scoped_verify.h"
#include "util/rng.h"

namespace pnm::sink {
namespace {

Bytes str_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

class ScopedVerifyFixture : public ::testing::Test {
 protected:
  ScopedVerifyFixture()
      : topo_(net::Topology::chain(12)),
        keys_(str_bytes("scoped-master"), topo_.node_count()),
        rng_(3141) {
    cfg_.mark_probability = 0.3;
    scheme_ = marking::make_scheme(marking::SchemeKind::kPnm, cfg_);
  }

  net::Packet marked(std::uint32_t event, double p_override = -1.0) {
    marking::SchemeConfig cfg = cfg_;
    if (p_override >= 0) cfg.mark_probability = p_override;
    auto scheme = marking::make_scheme(marking::SchemeKind::kPnm, cfg);
    net::Packet pkt;
    pkt.report = net::Report{event, 1, 1, event}.encode();
    for (NodeId v = 12; v >= 1; --v)  // path order: far node first
      scheme->mark(pkt, v, keys_.key_unchecked(v), rng_);
    pkt.delivered_by = 1;
    return pkt;
  }

  net::Topology topo_;
  crypto::KeyStore keys_;
  Rng rng_;
  marking::SchemeConfig cfg_;
  std::unique_ptr<marking::MarkingScheme> scheme_;
};

TEST_F(ScopedVerifyFixture, MatchesExhaustiveAcrossManyPackets) {
  for (std::uint32_t e = 0; e < 60; ++e) {
    net::Packet p = marked(e);
    auto exhaustive = scheme_->verify(p, keys_);
    auto scoped = scoped_verify_pnm(p, keys_, topo_, cfg_);
    ASSERT_EQ(scoped.chain.size(), exhaustive.chain.size()) << "event " << e;
    for (std::size_t i = 0; i < scoped.chain.size(); ++i) {
      EXPECT_EQ(scoped.chain[i].node, exhaustive.chain[i].node);
      EXPECT_EQ(scoped.chain[i].mark_index, exhaustive.chain[i].mark_index);
    }
    EXPECT_EQ(scoped.truncated_by_invalid, exhaustive.truncated_by_invalid);
    EXPECT_EQ(scoped.invalid_marks, exhaustive.invalid_marks);
  }
}

TEST_F(ScopedVerifyFixture, MatchesExhaustiveOnDeterministicChain) {
  net::Packet p = marked(999, 1.0);
  ASSERT_EQ(p.marks.size(), 12u);
  marking::SchemeConfig cfg = cfg_;
  cfg.mark_probability = 1.0;
  auto scoped = scoped_verify_pnm(p, keys_, topo_, cfg);
  ASSERT_EQ(scoped.chain.size(), 12u);
  EXPECT_EQ(scoped.chain.front().node, 12);
  EXPECT_EQ(scoped.chain.back().node, 1);
}

TEST_F(ScopedVerifyFixture, CheaperThanExhaustiveWithDenseMarks) {
  // Deterministic marking: consecutive marks are radio neighbors, so the
  // scoped search touches ~degree nodes per mark instead of the whole net.
  net::Topology grid = net::Topology::grid(12, 12, 1.5);  // 144 nodes
  crypto::KeyStore keys(str_bytes("scoped-grid"), grid.node_count());
  marking::SchemeConfig cfg;
  cfg.mark_probability = 1.0;
  auto scheme = marking::make_scheme(marking::SchemeKind::kPnm, cfg);

  net::RoutingTable routing(grid, net::RoutingStrategy::kTree);
  NodeId source = static_cast<NodeId>(grid.node_count() - 1);
  auto path = routing.path_to_sink(source);
  ASSERT_GE(path.size(), 4u);

  net::Packet p;
  p.report = net::Report{7, 7, 7, 7}.encode();
  for (std::size_t i = 1; i + 1 < path.size(); ++i)  // forwarders only
    scheme->mark(p, path[i], keys.key_unchecked(path[i]), rng_);
  p.delivered_by = path[path.size() - 2];

  ScopedVerifyStats stats;
  auto scoped = scoped_verify_pnm(p, keys, grid, cfg, &stats);
  ASSERT_EQ(scoped.chain.size(), p.marks.size());
  // Exhaustive would pay (nodes-1) PRFs = 143; scoped pays ~degree per mark.
  EXPECT_LT(stats.prf_evaluations, grid.node_count() * p.marks.size() / 4);
  EXPECT_GT(stats.prf_evaluations, 0u);
}

TEST_F(ScopedVerifyFixture, UnknownAnchorFallsBackToSink) {
  net::Packet p = marked(5);
  p.delivered_by = kInvalidNode;
  auto scoped = scoped_verify_pnm(p, keys_, topo_, cfg_);
  auto exhaustive = scheme_->verify(p, keys_);
  EXPECT_EQ(scoped.chain.size(), exhaustive.chain.size());
}

TEST_F(ScopedVerifyFixture, AlienMarkTruncatesAfterFullSearch) {
  net::Packet p = marked(6, 1.0);
  // Corrupt the most downstream mark: no node in the network matches.
  p.marks.back().id_field[0] ^= 0xff;
  p.marks.back().id_field[1] ^= 0xff;
  ScopedVerifyStats stats;
  auto scoped = scoped_verify_pnm(p, keys_, topo_, cfg_, &stats);
  EXPECT_TRUE(scoped.chain.empty());
  EXPECT_TRUE(scoped.truncated_by_invalid);
  // It had to widen the rings all the way before giving up.
  EXPECT_GT(stats.ring_expansions, 0u);
}

TEST_F(ScopedVerifyFixture, TamperedMiddleSameTruncationAsExhaustive) {
  for (int trial = 0; trial < 10; ++trial) {
    net::Packet p = marked(static_cast<std::uint32_t>(100 + trial), 0.5);
    if (p.marks.size() < 2) continue;
    p.marks[p.marks.size() / 2].mac[0] ^= 1;
    auto scoped = scoped_verify_pnm(p, keys_, topo_, cfg_);
    auto exhaustive = scheme_->verify(p, keys_);
    EXPECT_EQ(scoped.chain.size(), exhaustive.chain.size());
    EXPECT_EQ(scoped.truncated_by_invalid, exhaustive.truncated_by_invalid);
  }
}

TEST_F(ScopedVerifyFixture, EmptyPacketTrivial) {
  net::Packet p;
  p.report = net::Report{1, 1, 1, 1}.encode();
  auto scoped = scoped_verify_pnm(p, keys_, topo_, cfg_);
  EXPECT_TRUE(scoped.chain.empty());
  EXPECT_FALSE(scoped.truncated_by_invalid);
}

TEST(KHopNeighborhood, RingsGrowCorrectly) {
  net::Topology t = net::Topology::chain(6);
  EXPECT_EQ(t.k_hop_neighborhood(3, 0), (std::vector<NodeId>{3}));
  EXPECT_EQ(t.k_hop_neighborhood(3, 1), (std::vector<NodeId>{2, 3, 4}));
  EXPECT_EQ(t.k_hop_neighborhood(3, 2), (std::vector<NodeId>{1, 2, 3, 4, 5}));
  // Saturates at the whole component.
  EXPECT_EQ(t.k_hop_neighborhood(3, 100).size(), t.node_count());
}

TEST(KHopNeighborhood, GridBall) {
  net::Topology t = net::Topology::grid(5, 5, 1.1);
  auto ball1 = t.k_hop_neighborhood(12, 1);  // center of 5x5
  EXPECT_EQ(ball1.size(), 5u);               // center + 4-neighborhood
  auto ball2 = t.k_hop_neighborhood(12, 2);
  EXPECT_EQ(ball2.size(), 13u);  // diamond of radius 2
}

// RingShells against the k_hop_neighborhood oracle: every shell sorted and
// disjoint from the earlier ones, shells 1..k uniting to ball(k), and empty
// shells once the anchor's component is exhausted — on a chain, a grid, a
// random deployment and a two-piece field, from the sink, an end node and an
// interior node, out past the component's eccentricity.
TEST(RingShellsTest, MatchesKHopNeighborhoodOracle) {
  Rng rng(2718);
  std::vector<std::pair<std::string, net::Topology>> topos;
  topos.emplace_back("chain", net::Topology::chain(20));
  topos.emplace_back("grid", net::Topology::grid(7, 6, 1.5));
  topos.emplace_back("random_geometric",
                     net::Topology::random_geometric(80, 10.0, 2.5, rng));
  topos.emplace_back("two_pieces",
                     net::Topology({{0, 0}, {1, 0}, {2, 0}, {1, 1}, {9, 0}, {10, 0}}, 1.25));

  for (const auto& [name, t] : topos) {
    const auto last = static_cast<NodeId>(t.node_count() - 1);
    const auto interior = static_cast<NodeId>(t.node_count() / 2);
    for (NodeId anchor : {kSinkId, last, interior}) {
      SCOPED_TRACE(name + " anchor=" + std::to_string(anchor));
      const std::size_t component = t.k_hop_neighborhood(anchor, t.node_count()).size();
      std::size_t eccentricity = 0;
      while (t.k_hop_neighborhood(anchor, eccentricity).size() < component) ++eccentricity;

      RingShells shells;
      shells.start(t, anchor);
      std::set<NodeId> reached;
      for (std::size_t k = 1; k <= eccentricity + 2; ++k) {
        std::span<const NodeId> shell = shells.next();
        EXPECT_TRUE(std::adjacent_find(shell.begin(), shell.end(),
                                       std::greater_equal<NodeId>()) == shell.end())
            << "shell " << k << " not strictly ascending";
        for (NodeId v : shell) {
          EXPECT_TRUE(reached.insert(v).second) << "node " << v << " repeated in shell " << k;
        }
        EXPECT_EQ(std::vector<NodeId>(reached.begin(), reached.end()),
                  t.k_hop_neighborhood(anchor, k))
            << "shells 1.." << k;
        if (k > std::max<std::size_t>(eccentricity, 1)) {
          EXPECT_TRUE(shell.empty()) << "shell " << k << " past the component";
        } else {
          EXPECT_FALSE(shell.empty()) << "shell " << k << " inside the component";
        }
      }
    }
  }
}

// AnonMemo: pairs are keyed by (report, node), fresh slots are numbered
// consecutively, values survive index growth, and reset() forgets
// everything — also after a call whose footprint exceeded what the memo
// keeps between calls (three reports x 60000 nodes).
TEST(AnonMemoTest, ProbeGrowAndReset) {
  AnonMemo memo;
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    memo.reset(2);
    bool fresh = false;
    std::uint32_t next = 0;
    for (std::uint32_t report = 0; report < 3; ++report) {
      for (std::uint32_t n = 0; n < 60000; ++n) {
        const std::uint32_t slot = memo.probe(report, static_cast<NodeId>(n), &fresh);
        ASSERT_TRUE(fresh);
        ASSERT_EQ(slot, next++);
        memo.value(slot)[0] = static_cast<std::uint8_t>(n);
        memo.value(slot)[1] = static_cast<std::uint8_t>((n >> 8) ^ report);
      }
    }
    for (std::uint32_t report = 0; report < 3; ++report) {
      for (std::uint32_t n = 0; n < 60000; n += 7) {
        const std::uint32_t slot = memo.probe(report, static_cast<NodeId>(n), &fresh);
        ASSERT_FALSE(fresh);
        ASSERT_EQ(memo.value(slot)[0], static_cast<std::uint8_t>(n));
        ASSERT_EQ(memo.value(slot)[1], static_cast<std::uint8_t>((n >> 8) ^ report));
      }
    }
  }
  memo.reset(2);
  bool fresh = false;
  EXPECT_EQ(memo.probe(2, 7, &fresh), 0u);
  EXPECT_TRUE(fresh);
}

}  // namespace
}  // namespace pnm::sink
