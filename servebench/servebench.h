#ifndef SERVEBENCH_SERVEBENCH_H_
#define SERVEBENCH_SERVEBENCH_H_

// Helpers shared by the servebench subcommands (servebench.cc, load.cc,
// trace.cc): argument parsing, timing, percentiles and JSON output.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "servebench/workload.h"

namespace servebench {

/// `--key=value` arguments. Every subcommand takes the keys it knows;
/// Leftover() names the first one nobody took, so typos fail loudly.
class Args {
 public:
  Args(int argc, char** argv, int first);

  std::string Str(const std::string& key, const std::string& fallback = "");
  std::uint64_t U64(const std::string& key, std::uint64_t fallback);
  double F64(const std::string& key, double fallback);
  /// Empty when every argument was consumed; else the first stray one.
  [[nodiscard]] std::string Leftover() const;
  /// Set when a value failed to parse or an argument was not --key=value.
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  std::map<std::string, std::string> values_;
  std::map<std::string, bool> used_;
  std::string error_;
};

/// Resolves --workload and the optional --mix override
/// (e.g. "window:50,disk:20,knn:30,update:20"; update is a percentage of
/// all statements, the read weights are relative). Null on a bad value,
/// with the reason on stderr.
const Workload* WorkloadArg(Args& args, Mix* mix);

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated percentile (p in [0, 1]); sorts `v` in place.
inline double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  const double rank = p * static_cast<double>(v->size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v->size() - 1);
  return (*v)[lo] + ((*v)[hi] - (*v)[lo]) * (rank - static_cast<double>(lo));
}

inline double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

/// A JSON string literal (quotes included).
std::string JsonString(const std::string& s);

/// A JSON number with all its digits ("null" for non-finite values).
std::string JsonNumber(double v);

int RunLoad(Args& args);
int RunTrace(Args& args);

}  // namespace servebench

#endif  // SERVEBENCH_SERVEBENCH_H_
