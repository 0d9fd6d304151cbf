// The measuring subcommands. Each runs in the per-run directory the caller
// prepared with `sinkbench gen` (trace.pnmtrace + oracle.txt) and returns
// the Result whose JSON line the subcommand prints.
#pragma once

#include <string>

#include "report.h"
#include "workload.h"

namespace sinkbench {

inline constexpr const char* kTraceFile = "trace.pnmtrace";
inline constexpr const char* kOracleFile = "oracle.txt";

/// End-to-end replay: repeated passes of the trace through a freshly built
/// sharded ingest::Pipeline for `seconds`; records/s, receipt latency,
/// set-up time and peak RSS.
Result run_replay(const Workload& w, double seconds);

/// Per-layer replay: a staged pipeline of individually timed public calls
/// (read, decode, route, verify, fingerprint, merge, fold), timed pushes
/// through the real Pipeline, and the tracing overhead.
Result run_replay_traced(const Workload& w);

/// `pnm serve` in its own process, loaded by a closed-loop client over the
/// daemon's unix socket. `traced` adds the serve-layer probes (Ping RTT,
/// credit wait, admin scrapes, /proc readings) and reports only those.
Result run_serve(const Workload& w, double seconds, const std::string& pnm_binary,
                 bool traced);

}  // namespace sinkbench
