// Shared plumbing for the benchmark subcommands: timing helpers, order
// statistics, /proc readers, and the one-line JSON result every subcommand
// prints as its last line of standard output (sinkbench/run.py merges them).
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace sinkbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> v);

/// Nearest-rank percentile, q in [0, 1]; 0 when empty.
double percentile(std::vector<double> v, double q);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One subcommand's outcome. `attempted`/`failed` count records (replay) or
/// sessions (serve); any failed check also clears `correct`.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;
  /// Descriptive facts printed next to the metrics: sample counts, the SHA
  /// backend, pass counts.
  std::vector<std::pair<std::string, std::string>> context;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void note(const std::string& key, const std::string& value) {
    context.emplace_back(key, value);
  }
  void fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }

  std::string to_json() const;
};

/// A numeric field of /proc/<pid>/status ("VmHWM", "VmSize" in kB,
/// "Threads" as a count); nullopt when the process or field is gone.
std::optional<long> proc_status_field(pid_t pid, const std::string& key);

/// Open descriptors of `pid` (entries of /proc/<pid>/fd); nullopt if unreadable.
std::optional<long> proc_fd_count(pid_t pid);

}  // namespace sinkbench
