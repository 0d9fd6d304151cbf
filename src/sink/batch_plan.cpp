#include "sink/batch_plan.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "crypto/anon_id.h"
#include "crypto/hmac.h"
#include "marking/mark.h"
#include "sink/anon_lookup.h"

namespace pnm::sink {

namespace {

std::atomic<int> g_forced_mode{-1};

PackMode default_pack_mode() {
  static const PackMode resolved = [] {
    if (const char* env = std::getenv("PNM_PACK_MODE")) {
      if (auto parsed = parse_pack_mode(env)) return *parsed;
      std::fprintf(stderr, "pnm: unrecognized PNM_PACK_MODE=%s (want packet|cross); using cross\n",
                   env);
    }
    return PackMode::kCross;
  }();
  return resolved;
}

std::string_view report_view(const net::Packet& p) {
  return std::string_view(reinterpret_cast<const char*>(p.report.data()),
                          p.report.size());
}

}  // namespace

const char* pack_mode_name(PackMode mode) {
  return mode == PackMode::kPacket ? "packet" : "cross";
}

std::optional<PackMode> parse_pack_mode(std::string_view name) {
  std::string lowered(name);
  for (char& c : lowered) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (lowered == "packet" || lowered == "per-packet" || lowered == "per_packet")
    return PackMode::kPacket;
  if (lowered == "cross" || lowered == "batch") return PackMode::kCross;
  return std::nullopt;
}

PackMode active_pack_mode() {
  int forced = g_forced_mode.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<PackMode>(forced);
  return default_pack_mode();
}

void force_pack_mode(std::optional<PackMode> mode) {
  g_forced_mode.store(mode ? static_cast<int>(*mode) : -1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Exhaustive planner
// ---------------------------------------------------------------------------

void plan_verify_exhaustive(const marking::SchemeConfig& cfg,
                            const crypto::KeyStore& keys,
                            std::span<const net::Packet> packets,
                            marking::VerifyResult* results, util::Counters& metrics,
                            obs::Counter* reports_deduped) {
  const std::size_t n = packets.size();
  constexpr std::size_t kNoTable = static_cast<std::size_t>(-1);

  // 1. Dedup: one table slot per distinct report among packets that carry
  // marks (markless packets never build a table on the per-packet path).
  std::unordered_map<std::string_view, std::size_t> table_of;
  std::vector<ByteView> table_reports;
  std::vector<std::size_t> packet_table(n, kNoTable);
  std::uint64_t deduped = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const net::Packet& p = packets[i];
    metrics.add(util::Metric::kPacketsVerified);
    results[i] = marking::VerifyResult{};
    results[i].total_marks = p.marks.size();
    if (p.marks.empty()) continue;
    auto [it, inserted] = table_of.try_emplace(report_view(p), table_reports.size());
    if (inserted) {
      table_reports.push_back(ByteView(p.report.data(), p.report.size()));
    } else {
      ++deduped;
    }
    packet_table[i] = it->second;
  }
  if (reports_deduped != nullptr && deduped > 0) reports_deduped->add(deduped);
  if (table_reports.empty()) return;

  // 2a. Global PRF sweep: every distinct table's node sweep (ids 1..N-1, the
  // sink never marks) through ONE anon_id_batch_multi call, then sort each
  // slice into a table. kPrfEvals meters PRFs actually computed — one sweep
  // per *distinct* report, which is the point of the dedup.
  const std::size_t node_cnt = keys.size() > 1 ? keys.size() - 1 : 0;
  std::vector<NodeId> all_ids;
  all_ids.reserve(node_cnt);
  for (std::size_t i = 1; i <= node_cnt; ++i) all_ids.push_back(static_cast<NodeId>(i));

  std::vector<AnonIdTable> tables;
  tables.reserve(table_reports.size());
  Bytes prf_arena;
  if (node_cnt > 0 && cfg.anon_len > 0) {
    const std::size_t stride = node_cnt * cfg.anon_len;
    prf_arena.resize(table_reports.size() * stride);
    std::vector<crypto::AnonIdSweepJob> sweep(table_reports.size());
    for (std::size_t t = 0; t < table_reports.size(); ++t) {
      sweep[t] = {table_reports[t], all_ids, prf_arena.data() + t * stride};
    }
    crypto::anon_id_batch_multi(keys, sweep, cfg.anon_len);
    metrics.add(util::Metric::kPrfEvals, table_reports.size() * node_cnt);
    for (std::size_t t = 0; t < table_reports.size(); ++t) {
      tables.push_back(AnonIdTable::from_precomputed(
          all_ids, ByteView(prf_arena.data() + t * stride, stride), cfg.anon_len));
    }
  } else {
    // Degenerate network (sink only) or zero-width IDs: empty tables, same
    // as the hashing constructor's early-out.
    for (std::size_t t = 0; t < table_reports.size(); ++t) {
      tables.push_back(AnonIdTable::from_precomputed({}, {}, cfg.anon_len));
    }
  }

  // 2b. Global MAC sweep: candidate-set MACs for every mark of every packet
  // in one hmac_batch. Safe to hoist because the nested-MAC input
  // M_{j-1}|i' is a pure function of the packet bytes — it never depends on
  // how earlier (higher-j) marks resolved. Lanes past a packet's break
  // point are speculative and unmetered, exactly like the per-packet
  // batched disambiguation.
  struct MarkPlan {
    std::span<const NodeId> cands;
    std::size_t lane = 0;  ///< first MAC lane for this mark's candidates
  };
  std::vector<std::size_t> mark_off(n + 1, 0);
  std::vector<MarkPlan> plans;
  std::vector<Bytes> inputs;  // stable heap buffers; jobs hold views into them
  std::vector<crypto::HmacBatchJob> jobs;
  for (std::size_t i = 0; i < n; ++i) {
    mark_off[i] = plans.size();
    if (packet_table[i] == kNoTable) continue;
    const net::Packet& p = packets[i];
    const AnonIdTable& table = tables[packet_table[i]];
    for (std::size_t j = 0; j < p.marks.size(); ++j) {
      const net::Mark& m = p.marks[j];
      MarkPlan mp;
      if (m.id_field.size() == cfg.anon_len) {
        mp.cands = table.candidates(m.id_field);
        if (!mp.cands.empty()) {
          inputs.push_back(marking::nested_mac_input(p, j, m.id_field));
          mp.lane = jobs.size();
          for (NodeId cand : mp.cands) {
            jobs.push_back({&keys.hmac_key(cand), ByteView(inputs.back())});
          }
        }
      }
      plans.push_back(mp);
    }
  }
  mark_off[n] = plans.size();
  std::vector<crypto::Sha256Digest> macs(jobs.size());
  if (!jobs.empty()) crypto::hmac_batch(jobs, macs.data());

  // 3. Scatter: the per-packet backward walk, candidates in table order,
  // kMacChecks metered per candidate walked up to the resolving one.
  for (std::size_t i = 0; i < n; ++i) {
    if (packet_table[i] == kNoTable) continue;
    const net::Packet& p = packets[i];
    marking::VerifyResult& out = results[i];
    for (std::size_t j = p.marks.size(); j-- > 0;) {
      const net::Mark& m = p.marks[j];
      const MarkPlan& mp = plans[mark_off[i] + j];
      NodeId resolved = kInvalidNode;
      for (std::size_t c = 0; c < mp.cands.size(); ++c) {
        metrics.add(util::Metric::kMacChecks);
        if (m.mac.size() >= 1 && m.mac.size() <= crypto::kSha256DigestSize &&
            constant_time_equal(ByteView(macs[mp.lane + c].data(), m.mac.size()),
                                m.mac)) {
          resolved = mp.cands[c];
          break;
        }
      }
      if (resolved == kInvalidNode) {
        out.invalid_marks = j + 1;
        out.truncated_by_invalid = true;
        break;
      }
      out.chain.insert(out.chain.begin(), marking::VerifiedMark{resolved, j});
    }
  }
}

// ---------------------------------------------------------------------------
// Scoped planner (lockstep wavefront over the §7 ring search)
// ---------------------------------------------------------------------------

namespace {

/// One packet's ring-search state machine. Each wavefront round advances
/// every in-flight lane by exactly one ring shell, so a lane's sequence of
/// (mark, ring) probes — and therefore its verdict — does not depend on
/// which other packets share the call.
struct ScopedLane {
  const net::Packet* p = nullptr;
  marking::VerifyResult* out = nullptr;
  std::uint32_t report = 0;  ///< memo key: index of the packet's distinct report
  std::size_t j = 0;         ///< mark currently being resolved
  std::size_t ring = 0;      ///< rings probed so far for mark j
  RingShells shells;
  Bytes input;  ///< nested_mac_input for mark j

  // This round's shell: eligible candidates in walk order, their memo slots
  // and whether this lane's probe inserted them (a contiguous slot run from
  // first_miss), plus where the lane's MAC jobs start.
  std::vector<NodeId> cands;
  std::vector<std::uint32_t> slots;
  std::vector<std::uint8_t> fresh;
  std::vector<NodeId> misses;
  std::uint32_t first_miss = 0;
  std::size_t mac_begin = 0;
};

/// Point `lane` at mark j, searching outward from `anchor`. A malformed
/// identity field can never resolve, so it truncates at once — same as the
/// search falling through every ring. Returns whether the lane is in flight.
bool start_mark(ScopedLane& lane, std::size_t j, NodeId anchor, const net::Topology& topo,
                std::size_t anon_len) {
  lane.j = j;
  lane.ring = 0;
  const net::Mark& m = lane.p->marks[j];
  if (m.id_field.size() != anon_len) {
    lane.out->invalid_marks = j + 1;
    lane.out->truncated_by_invalid = true;
    return false;
  }
  lane.shells.start(topo, anchor);
  lane.input = marking::nested_mac_input(*lane.p, j, m.id_field);
  return true;
}

struct ScopedScratch {
  std::vector<ScopedLane> lanes;
  std::vector<std::uint32_t> live;  ///< in-flight lane indices, ascending
  std::unordered_map<std::string_view, std::uint32_t> report_of;
  AnonMemo memo;
  std::vector<crypto::AnonIdSweepJob> sweep;
  std::vector<crypto::HmacBatchJob> mac_jobs;
  std::vector<crypto::Sha256Digest> mac_out;
};

}  // namespace

void plan_verify_scoped(const marking::SchemeConfig& cfg, const crypto::KeyStore& keys,
                        const net::Topology& topo,
                        std::span<const net::Packet> packets,
                        marking::VerifyResult* results, util::Counters& metrics,
                        obs::Counter* reports_deduped, ScopedVerifyStats* stats) {
  // Reused across calls on this thread: buffers keep their capacity and the
  // memo resets in O(1), so a call allocates little beyond its MAC inputs.
  thread_local ScopedScratch s;
  const std::size_t n = packets.size();
  const std::size_t anon_len = cfg.anon_len;
  const std::size_t ring_bound = topo.node_count();  // the diameter bounds honest gaps
  ScopedVerifyStats local;
  if (s.lanes.size() < n) s.lanes.resize(n);
  s.live.clear();
  s.report_of.clear();
  s.memo.reset(anon_len);

  std::uint64_t deduped = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const net::Packet& p = packets[i];
    metrics.add(util::Metric::kPacketsVerified);
    results[i] = marking::VerifyResult{};
    results[i].total_marks = p.marks.size();
    if (p.marks.empty()) continue;
    auto [it, inserted] = s.report_of.try_emplace(
        report_view(p), static_cast<std::uint32_t>(s.report_of.size()));
    if (!inserted) ++deduped;
    ScopedLane& lane = s.lanes[i];
    lane.p = &p;
    lane.out = &results[i];
    lane.report = it->second;
    const NodeId anchor =
        (p.delivered_by != kInvalidNode && p.delivered_by < topo.node_count())
            ? p.delivered_by
            : kSinkId;
    if (start_mark(lane, p.marks.size() - 1, anchor, topo, anon_len))
      s.live.push_back(static_cast<std::uint32_t>(i));
  }
  if (reports_deduped != nullptr && deduped > 0) reports_deduped->add(deduped);

  while (!s.live.empty()) {
    // Phase A: every in-flight lane takes its next shell and probes the memo.
    for (std::uint32_t li : s.live) {
      ScopedLane& lane = s.lanes[li];
      if (++lane.ring > 1) ++local.ring_expansions;
      lane.cands.clear();
      lane.slots.clear();
      lane.fresh.clear();
      lane.misses.clear();
      for (NodeId c : lane.shells.next()) {
        if (c == kSinkId || c >= keys.size()) continue;
        bool fresh = false;
        const std::uint32_t slot = s.memo.probe(lane.report, c, &fresh);
        if (fresh) {
          if (lane.misses.empty()) lane.first_miss = slot;
          lane.misses.push_back(c);
        }
        lane.cands.push_back(c);
        lane.slots.push_back(slot);
        lane.fresh.push_back(fresh);
      }
    }

    // Phase B: ONE PRF sweep over every lane's misses, written straight into
    // the memo (its arena no longer moves: this round's probes are done).
    s.sweep.clear();
    for (std::uint32_t li : s.live) {
      const ScopedLane& lane = s.lanes[li];
      if (lane.misses.empty()) continue;
      s.sweep.push_back({ByteView(lane.p->report.data(), lane.p->report.size()),
                         lane.misses, s.memo.value(lane.first_miss)});
    }
    if (!s.sweep.empty()) crypto::anon_id_batch_multi(keys, s.sweep, anon_len);

    // Phase C: ONE MAC sweep over every lane's anon-matching candidates
    // (speculative past each lane's break point).
    s.mac_jobs.clear();
    for (std::uint32_t li : s.live) {
      ScopedLane& lane = s.lanes[li];
      lane.mac_begin = s.mac_jobs.size();
      const std::uint8_t* id = lane.p->marks[lane.j].id_field.data();
      for (std::size_t i = 0; i < lane.cands.size(); ++i) {
        if (std::memcmp(s.memo.value(lane.slots[i]), id, anon_len) == 0)
          s.mac_jobs.push_back({&keys.hmac_key(lane.cands[i]), ByteView(lane.input)});
      }
    }
    s.mac_out.resize(s.mac_jobs.size());
    if (!s.mac_jobs.empty()) crypto::hmac_batch(s.mac_jobs, s.mac_out.data());

    // Phase D: walk each shell in ascending id order with the serial
    // accounting, then advance the state machine (next ring, next mark, or
    // done). Lanes still in flight stay in `live`, in order.
    std::size_t kept = 0;
    for (std::uint32_t li : s.live) {
      ScopedLane& lane = s.lanes[li];
      const net::Mark& m = lane.p->marks[lane.j];
      NodeId resolved = kInvalidNode;
      std::size_t mac = lane.mac_begin;
      for (std::size_t i = 0; i < lane.cands.size(); ++i) {
        ++local.prf_evaluations;
        if (lane.fresh[i]) {
          metrics.add(util::Metric::kCacheMisses);
          metrics.add(util::Metric::kPrfEvals);
        } else {
          metrics.add(util::Metric::kCacheHits);
        }
        if (std::memcmp(s.memo.value(lane.slots[i]), m.id_field.data(), anon_len) != 0)
          continue;
        ++local.mac_checks;
        metrics.add(util::Metric::kMacChecks);
        const crypto::Sha256Digest& d = s.mac_out[mac++];
        if (m.mac.size() >= 1 && m.mac.size() <= crypto::kSha256DigestSize &&
            constant_time_equal(ByteView(d.data(), m.mac.size()), m.mac)) {
          resolved = lane.cands[i];
          break;
        }
      }

      bool in_flight = false;
      if (resolved != kInvalidNode) {
        lane.out->chain.insert(lane.out->chain.begin(),
                               marking::VerifiedMark{resolved, lane.j});
        // The next (more upstream) mark is near the node just resolved.
        in_flight = lane.j > 0 && start_mark(lane, lane.j - 1, resolved, topo, anon_len);
      } else if (lane.cands.empty() || lane.ring + 1 > ring_bound) {
        // No eligible node in this shell (the component is searched out)
        // or the diameter bound is reached: the mark cannot resolve.
        lane.out->invalid_marks = lane.j + 1;
        lane.out->truncated_by_invalid = true;
      } else {
        in_flight = true;
      }
      if (in_flight) s.live[kept++] = li;
    }
    s.live.resize(kept);
  }

  if (stats != nullptr) {
    stats->prf_evaluations += local.prf_evaluations;
    stats->mac_checks += local.mac_checks;
    stats->ring_expansions += local.ring_expansions;
  }
}

}  // namespace pnm::sink
