#ifndef TLP_BENCH_BENCH_JSON_H_
#define TLP_BENCH_BENCH_JSON_H_

// Benchmark trajectory emission (docs/BENCHMARKING.md, "Benchmark
// trajectory"): when TLP_BENCH_JSON names a file, bench mains append one
// labeled run — {label, backend, per-benchmark timings} — to a JSON
// document of the shape
//
//   {
//     "bench_id": "fig9_synthetic",
//     "runs": [
//       {"label": "simd-avx2", "backend": "avx2",
//        "benchmarks": [{"name": ..., "real_time_us": ...,
//                        "items_per_second": ...}, ...]},
//       ...
//     ]
//   }
//
// so a before/after pair (e.g. builds of two commits) can be diffed with
// tools/bench_compare.py. Runs recorded before the counters became
// unconditional also carry a "stats_instrumented" field; readers ignore
// it. The run label comes from TLP_BENCH_LABEL. Without TLP_BENCH_JSON
// everything here is a no-op and the bench binaries behave exactly as
// before.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "benchmark/benchmark.h"

#include "common/simd.h"

namespace tlp {
namespace bench {

struct BenchRecord {
  std::string name;
  double real_time = 0;         // per-iteration, in the benchmark's unit
  double items_per_second = 0;  // 0 when the benchmark reports no items
};

/// Console reporter that additionally records every per-iteration run (the
/// measurements, not the mean/median/stddev aggregates) for trajectory
/// emission. Passing it to RunSpecifiedBenchmarks keeps the usual console
/// table untouched.
class TrajectoryReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      BenchRecord rec;
      rec.name = run.benchmark_name();
      rec.real_time = run.GetAdjustedRealTime();
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) {
        rec.items_per_second = static_cast<double>(it->second);
      }
      records_.push_back(std::move(rec));
    }
    benchmark::ConsoleReporter::ReportRuns(report);
  }

  const std::vector<BenchRecord>& records() const { return records_; }

 private:
  std::vector<BenchRecord> records_;
};

namespace json_internal {

inline std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

inline std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.8g", v);
  return buf;
}

inline std::string RunJson(const std::vector<BenchRecord>& records) {
  // Benchmarks read their knobs on the single-threaded main; no setenv.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* label = std::getenv("TLP_BENCH_LABEL");
  std::ostringstream os;
  os << "    {\n      \"label\": \""
     << Escape(label != nullptr ? label : "unlabeled") << "\",\n"
     << "      \"backend\": \"" << simd::kBackendName << "\",\n"
     << "      \"benchmarks\": [";
  for (std::size_t k = 0; k < records.size(); ++k) {
    os << (k == 0 ? "\n" : ",\n") << "        {\"name\": \""
       << Escape(records[k].name) << "\", \"real_time_us\": "
       << Number(records[k].real_time) << ", \"items_per_second\": "
       << Number(records[k].items_per_second) << "}";
  }
  os << "\n      ]\n    }";
  return os.str();
}

}  // namespace json_internal

/// Appends this process's run to the $TLP_BENCH_JSON trajectory file,
/// creating the document on first use. No-op unless the variable is set.
inline void AppendBenchTrajectory(const std::string& bench_id,
                                  const std::vector<BenchRecord>& records) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe) single-threaded main, no setenv
  const char* path = std::getenv("TLP_BENCH_JSON");
  if (path == nullptr || *path == '\0') return;

  std::string existing;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      existing = buf.str();
    }
  }

  const std::string run = json_internal::RunJson(records);
  std::string doc;
  const std::size_t close = existing.rfind(']');
  if (close == std::string::npos) {
    // Fresh (or unrecognizable) file: start a new document.
    doc = "{\n  \"bench_id\": \"" + json_internal::Escape(bench_id) +
          "\",\n  \"runs\": [\n" + run + "\n  ]\n}\n";
  } else {
    // Splice the new run in front of the runs array's closing bracket. The
    // document's only arrays are `runs` and each run's `benchmarks`, and
    // the LAST `]` always closes `runs`.
    const bool empty_runs =
        existing.find('}', existing.find("\"runs\"")) > close;
    doc = existing.substr(0, close);
    while (!doc.empty() && (doc.back() == '\n' || doc.back() == ' ')) {
      doc.pop_back();
    }
    doc += (empty_runs ? "\n" : ",\n") + run + "\n  " +
           existing.substr(close);
  }

  std::ofstream out(path, std::ios::trunc);
  out << doc;
  if (!out) {
    std::fprintf(stderr, "[tlp] WARNING: could not write %s\n", path);
  }
}

}  // namespace bench
}  // namespace tlp

#endif  // TLP_BENCH_BENCH_JSON_H_
