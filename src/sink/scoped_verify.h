// Topology-scoped PNM verification (§7 "Anonymous ID Mapping").
//
// The exhaustive per-report table costs one PRF evaluation per network node.
// When the sink knows the topology (e.g. from post-deployment neighbor
// reports), it can resolve each anonymous ID by searching outward from the
// previously resolved node instead: ring 1 is the closed one-hop
// neighborhood, and when consecutive marks are several hops apart
// (probabilistic marking) the search widens one ring at a time, falling back
// to the whole component only for truly alien IDs. Each ring step hashes
// only the nodes first reached at that ring (RingShells) and each
// (report, node) PRF at most once per call (AnonMemo), so a mark d hops from
// its anchor costs the O(d) candidates between them plus the adjacency
// walked to reach them.
//
// The result is bit-identical to PnmScheme::verify (asserted by tests); only
// the search order — and therefore the hash count — differs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/keys.h"
#include "marking/scheme.h"
#include "net/topology.h"
#include "util/bytes.h"
#include "util/counters.h"

namespace pnm::sink {

struct ScopedVerifyStats {
  std::size_t prf_evaluations = 0;  ///< candidate anonymous-ID probes
  std::size_t mac_checks = 0;       ///< candidate MAC verifications
  std::size_t ring_expansions = 0;  ///< times the search widened past 1 hop
};

/// The §7 search rings around an anchor, one shell at a time. Shell 1 is
/// the anchor plus its neighbors; shell k > 1 is exactly
/// k_hop_neighborhood(anchor, k) minus k_hop_neighborhood(anchor, k - 1).
/// Every shell comes out in ascending id order — the candidate walk order.
///
/// A step costs the adjacency of the previous shell. The "seen" set is just
/// the two previous shells: in an undirected graph every neighbor of ring k
/// lies in ring k - 1, k or k + 1. State is therefore O(ring), so a planner
/// holding one search per in-flight packet allocates no per-node arrays.
class RingShells {
 public:
  void start(const net::Topology& topo, NodeId anchor);
  /// The next shell; empty once the anchor's component is exhausted. The
  /// span is valid until the next call to next() or start().
  std::span<const NodeId> next();

 private:
  const net::Topology* topo_ = nullptr;
  bool first_ = true;
  std::vector<NodeId> prev_, cur_, next_;
};

/// Anonymous IDs computed during one verify call, keyed by (distinct report,
/// node). The scoped paths probe the same pair again whenever a ring search
/// re-crosses it (the next mark's rings around the node just resolved) or a
/// duplicate delivery of the same report walks the same rings; the memo
/// makes each pair cost one PRF per call.
///
/// Memory grows with the probes made, not with reports × nodes: an
/// open-addressed index over a flat value arena. reset() is O(1) (the index
/// is generation-stamped) unless it releases an oversized index, so a
/// thread-local memo is free to reuse.
class AnonMemo {
 public:
  /// Forget every entry and fix the value width for what follows.
  void reset(std::size_t anon_len);

  /// Value slot of (report, node). Sets *fresh when this probe inserted
  /// the pair — the caller must then write value(slot) before it is read.
  /// Fresh slots are numbered consecutively, so one caller's run of misses
  /// is one contiguous stretch of the arena that a PRF sweep writes in place.
  std::uint32_t probe(std::uint32_t report, NodeId node, bool* fresh);

  std::uint8_t* value(std::uint32_t slot) { return values_.data() + slot * anon_len_; }

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::uint32_t gen = 0;  ///< live iff equal to gen_
    std::uint32_t slot = 0;
  };
  void grow();

  /// Index size kept across reset(): 4 MiB of entries, several times what a
  /// 256-packet batch on the 300-hop benchmark chain needs (9k-18k pairs).
  static constexpr std::size_t kRetainedSlots = std::size_t{1} << 18;

  std::vector<Entry> index_;  ///< power-of-two open-addressed table
  Bytes values_;              ///< anon_len_ bytes per slot, in insertion order
  std::size_t anon_len_ = 0;
  std::uint32_t count_ = 0;
  std::uint32_t gen_ = 1;  ///< default entries (gen 0) are never live
};

/// Verify a PNM packet using the topology-scoped search. `cfg` must match
/// the marking configuration in force. The search anchors on the packet's
/// radio-layer previous hop (`delivered_by`); if that is unknown it anchors
/// on the sink. Stats are accumulated into `stats` when non-null.
///
/// This is the cross-packet planner (plan_verify_scoped) over one packet,
/// with a thread-local memo scoped to the call. `counters` receives metric
/// increments (kCacheHits / kCacheMisses count memo hits and misses),
/// defaulting to util::Counters::global() when null; it is safe to share
/// across threads.
marking::VerifyResult scoped_verify_pnm(const net::Packet& p,
                                        const crypto::KeyStore& keys,
                                        const net::Topology& topo,
                                        const marking::SchemeConfig& cfg,
                                        ScopedVerifyStats* stats = nullptr,
                                        util::Counters* counters = nullptr);

}  // namespace pnm::sink
