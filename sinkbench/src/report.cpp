#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

namespace sinkbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  if (rank > v.size()) rank = v.size();
  return v[rank - 1];
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string Result::to_json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  out += "}, \"context\": {";
  for (std::size_t i = 0; i < context.size(); ++i) {
    if (i) out += ", ";
    out += json_string(context[i].first) + ": " + json_string(context[i].second);
  }
  out += "}, \"errors\": [";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (i) out += ", ";
    out += json_string(errors[i]);
  }
  return out + "]}";
}

std::optional<long> proc_status_field(pid_t pid, const std::string& key) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0 && line.size() > key.size() &&
        line[key.size()] == ':')
      return std::strtol(line.c_str() + key.size() + 1, nullptr, 10);
  }
  return std::nullopt;
}

std::optional<long> proc_fd_count(pid_t pid) {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/" + std::to_string(pid) + "/fd", ec);
  if (ec) return std::nullopt;
  long n = 0;
  for (; it != std::filesystem::directory_iterator(); it.increment(ec)) {
    if (ec) return std::nullopt;
    ++n;
  }
  return n;
}

}  // namespace sinkbench
