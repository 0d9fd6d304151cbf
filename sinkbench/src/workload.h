// Workloads, the seeded trace generator, and the correctness oracle.
//
// Every workload is a synthetic PNM chain campaign: `flows` report sources
// (distinct claimed locations on a fixed grid, so the flow-affine router
// spreads them over the shard lanes the same way for every seed), each emitting `reports_per_flow` distinct reports, each
// report delivered `deliveries` times with independent marking draws. Every
// forwarder V_n..V_1 marks with probability 3/n, so a record carries three
// marks on average whatever the path length. The trace header carries the
// campaign metadata `pnm replay` and `pnm serve` rebuild the sink from, and
// the keys come from core::campaign_master_secret(seed).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crypto/keys.h"
#include "marking/scheme.h"
#include "net/topology.h"
#include "sink/route_reconstruct.h"
#include "trace/format.h"
#include "util/bytes.h"

namespace sinkbench {

struct Workload {
  std::string name;
  std::size_t forwarders = 0;
  std::size_t flows = 0;
  std::size_t reports_per_flow = 0;
  std::size_t deliveries = 1;  ///< times each distinct report reaches the sink
  bool scoped = false;         ///< §7 topology-scoped search instead of exhaustive
  bool serve = false;          ///< end-to-end figures come from `pnm serve`
  /// Serve sessions each stream one fixed slice of this many records.
  std::size_t slice_records = 0;
  /// Sessions each client connection runs against one daemon.
  std::size_t sessions_per_conn = 0;

  std::size_t records() const { return flows * reports_per_flow * deliveries; }
  std::size_t slices() const { return slice_records ? records() / slice_records : 0; }
};

/// Shard lanes and verifier threads per lane, the same for every workload.
inline constexpr std::size_t kShards = 2;
inline constexpr std::size_t kThreadsPerLane = 1;
/// `pnm replay`'s default batch size; the staged traced run uses it too.
inline constexpr std::size_t kReplayBatch = 256;
/// Client connections of a serve run.
inline constexpr std::size_t kServeConnections = 2;

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// The whole .pnmtrace file image for (workload, seed). Pure function of
/// its arguments.
pnm::Bytes generate_trace(const Workload& w, std::uint64_t seed);

/// The generator's own check: the same seed gives byte-identical traces,
/// another seed a different one, and the flow count and per-report delivery
/// count come out exact. Empty on success, else the first violation.
std::string check_generator(const Workload& w, std::uint64_t seed);

/// The sink's verification world, rebuilt from a trace header exactly as
/// `pnm replay` does it.
struct SinkWorld {
  pnm::net::Topology topo;
  pnm::crypto::KeyStore keys;
  std::unique_ptr<pnm::marking::MarkingScheme> scheme;
};
std::unique_ptr<SinkWorld> build_sink_world(const pnm::trace::TraceMeta& meta,
                                            std::string* error);

/// Reference results for one trace, computed by the serial
/// TracebackEngine::ingest path and ingest::fold_fingerprint SHA-256.
struct Oracle {
  std::size_t records = 0;
  std::string digest;                      ///< whole-trace verdict digest
  std::vector<std::string> slice_digests;  ///< one per serve slice
  bool identified = false;
  std::uint32_t stop_node = 0;
  std::vector<std::uint32_t> suspects;

  bool same_accusation(const pnm::sink::RouteAnalysis& a) const;
  bool save(const std::string& path) const;
  static std::optional<Oracle> load(const std::string& path);
};
std::optional<Oracle> compute_oracle(const Workload& w, const std::string& trace_path,
                                     std::string* error);

/// A trace file split into its CRC frames (frame 0 is the header), for
/// clients that stream record frames without decoding them.
struct FramedTrace {
  pnm::Bytes data;
  std::size_t prologue = 0;  ///< magic + version + header frame
  std::vector<std::size_t> record_offsets;
  std::vector<std::size_t> record_lengths;
  pnm::trace::TraceMeta meta;
};
std::optional<FramedTrace> load_framed(const std::string& path, std::string* error);

bool write_file(const std::string& path, const pnm::Bytes& data);

}  // namespace sinkbench
