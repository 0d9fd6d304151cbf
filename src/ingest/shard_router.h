// Flow-affine shard routing: which ingest lane does a record belong to?
//
// The sink identifies a traffic flow by what it can actually see — the
// report's claimed origin location (L of M = E|L|T) and the radio-layer
// previous hop that delivered it. A mole floods from one place through one
// last hop, so every record of one flow hashes to the same shard: its
// duplicate deliveries share one lane's verify batches (and so the planner's
// report dedup), and its verdicts stay in one lane's arrival order. Records whose report bytes fail to decode (bit
// rot that slipped past CRC) fall back to hashing the raw report bytes, so
// routing is total and deterministic either way.
//
// Routing never affects results: the deterministic merge (merger.h)
// recombines lanes by global sequence number, so shard placement is purely a
// locality/parallelism decision. splitmix64 is the mixer — fixed constants,
// identical output on every platform, no libstdc++ hash dependence.
#pragma once

#include <cstdint>

#include "net/report.h"

namespace pnm::ingest {

class ShardRouter {
 public:
  /// `shards` is clamped to at least 1.
  explicit ShardRouter(std::size_t shards) : shards_(shards ? shards : 1) {}

  std::size_t shards() const { return shards_; }

  /// Stable 64-bit flow identity hash: (loc_x, loc_y, delivered_by) when the
  /// report decodes, FNV-1a over the raw report bytes otherwise.
  static std::uint64_t flow_hash(const net::Packet& p);

  /// The lane `p` belongs to: flow_hash(p) % shards.
  std::size_t shard_of(const net::Packet& p) const {
    return static_cast<std::size_t>(flow_hash(p) % shards_);
  }

 private:
  std::size_t shards_;
};

}  // namespace pnm::ingest
