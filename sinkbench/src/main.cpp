// sinkbench — the sink-path benchmark's measuring program. sinkbench/run.py builds it and
// runs one subcommand per step, each inside a private run directory:
//
//   sinkbench gen    --dir D --workload W --seed S
//       Check the generator, write D/trace.pnmtrace and compute the
//       correctness oracle into D/oracle.txt (neither is timed).
//   sinkbench replay --dir D --workload W --seconds T [--traced 1]
//       End-to-end replay figures, or with --traced the per-layer budget.
//   sinkbench serve  --dir D --workload W --seconds T --pnm PATH [--traced 1]
//       Launch PATH (the `pnm` CLI) as a `pnm serve` daemon and load it.
//
// Each prints one JSON object as its last line of standard output:
// {"correct", "attempted", "failed", "metrics", "context", "errors"}.
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "benches.h"

namespace {

using namespace sinkbench;

int usage() {
  std::fprintf(stderr,
               "usage: sinkbench gen|replay|serve --dir D --workload W "
               "[--seed S] [--seconds T] [--pnm PATH] [--traced 0|1]\n");
  return 2;
}

Result generate(const Workload& w, std::uint64_t seed) {
  Result r;
  if (std::string bad = check_generator(w, seed); !bad.empty()) {
    r.fail("generator: " + bad);
    return r;
  }
  pnm::Bytes trace = generate_trace(w, seed);
  if (!write_file(kTraceFile, trace)) {
    r.fail("cannot write the trace");
    return r;
  }
  std::string error;
  auto oracle = compute_oracle(w, kTraceFile, &error);
  if (!oracle || !oracle->save(kOracleFile)) {
    r.fail(error.empty() ? "cannot write the oracle" : error);
    return r;
  }
  r.attempted = oracle->records;
  r.note("records", std::to_string(oracle->records));
  r.note("trace_bytes", std::to_string(trace.size()));
  r.note("digest", oracle->digest);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string cmd = argv[1];
  std::map<std::string, std::string> kv;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (argv[i][0] != '-' || argv[i][1] != '-') return usage();
    kv[argv[i] + 2] = argv[i + 1];
  }
  const Workload* w = find_workload(kv["workload"]);
  if (!w || kv["dir"].empty()) return usage();
  if (::chdir(kv["dir"].c_str()) != 0) {
    std::fprintf(stderr, "sinkbench: cannot enter %s\n", kv["dir"].c_str());
    return 2;
  }
  // A daemon that dies mid-send must surface as a failed session.
  ::signal(SIGPIPE, SIG_IGN);
  double seconds = kv.count("seconds") ? std::strtod(kv["seconds"].c_str(), nullptr) : 10.0;
  bool traced = kv.count("traced") && kv["traced"] != "0";

  Result result;
  if (cmd == "gen") {
    result = generate(*w, std::strtoull(kv["seed"].c_str(), nullptr, 10));
  } else if (cmd == "replay") {
    result = traced ? run_replay_traced(*w) : run_replay(*w, seconds);
  } else if (cmd == "serve") {
    if (kv["pnm"].empty()) return usage();
    result = run_serve(*w, seconds, kv["pnm"], traced);
  } else {
    return usage();
  }
  std::printf("%s\n", result.to_json().c_str());
  return 0;
}
