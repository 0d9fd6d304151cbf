// Static sensor-field topologies (§2.1: nodes do not move once deployed).
//
// Three generators cover the paper's regimes:
//  * chain(n)            — the evaluation setup: a source, n forwarders, the
//                          sink, in a line (Figs. 5-7 all use chain paths);
//  * grid(w, h, range)   — a regular field, used in examples and tests;
//  * random_geometric(...)— uniformly scattered nodes with a radio range,
//                          retried until connected (realistic deployments).
// Node 0 is always the sink.
#pragma once

#include <cstddef>
#include <vector>

#include "util/ids.h"
#include "util/rng.h"

namespace pnm::net {

struct NodePosition {
  double x = 0.0;
  double y = 0.0;
};

/// Immutable connectivity graph plus node coordinates.
class Topology {
 public:
  /// Builds from explicit positions and a radio range: nodes within `range`
  /// of each other are neighbors.
  Topology(std::vector<NodePosition> positions, double radio_range);

  std::size_t node_count() const { return positions_.size(); }
  const NodePosition& position(NodeId id) const { return positions_.at(id); }
  const std::vector<NodeId>& neighbors(NodeId id) const { return adjacency_.at(id); }
  bool are_neighbors(NodeId a, NodeId b) const;
  std::size_t degree(NodeId id) const { return adjacency_.at(id).size(); }
  double radio_range() const { return radio_range_; }

  /// True if every node can reach the sink (node 0).
  bool connected() const;

  /// One-hop neighborhood of `id` including `id` itself — the paper's
  /// traceback precision unit ("suspected neighborhood").
  std::vector<NodeId> closed_neighborhood(NodeId id) const;

  /// All nodes within `k` hops of `id`, including `id` (k = 0 -> {id}).
  /// A whole-ball BFS per call: the test oracle for sink::RingShells, which
  /// the §7 scoped search uses to grow its rings incrementally.
  std::vector<NodeId> k_hop_neighborhood(NodeId id, std::size_t k) const;

  // ---- generators ----

  /// Sink(0) — V1(1) — ... — Vn(n) — S(n+1): n forwarders between the source
  /// at one end and the sink at the other, unit spacing, range 1.25 so only
  /// adjacent nodes hear each other.
  static Topology chain(std::size_t forwarders);

  /// w x h unit grid; sink at (0,0).
  static Topology grid(std::size_t width, std::size_t height, double radio_range);

  /// `count` nodes uniform in [0,side]^2, sink pinned at the center. Redraws
  /// (up to 200 attempts) until the graph is connected; asserts otherwise.
  static Topology random_geometric(std::size_t count, double side, double radio_range,
                                   Rng& rng);

 private:
  std::vector<NodePosition> positions_;
  std::vector<std::vector<NodeId>> adjacency_;
  double radio_range_;
};

}  // namespace pnm::net
