#ifndef TLP_BENCH_BENCH_UTIL_H_
#define TLP_BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/query_stats.h"
#include "datagen/query_gen.h"
#include "datagen/tiger_like.h"
#include "grid/grid_layout.h"

namespace tlp {
namespace bench {

inline const Box kUnitDomain{0, 0, 1, 1};

/// Laptop-scale default cardinalities per dataset (the paper's Table III
/// divided by 20; DESIGN.md §3). TLP_SCALE multiplies all of them; per-
/// dataset overrides: TLP_CARD_ROADS / TLP_CARD_EDGES / TLP_CARD_TIGER.
inline std::size_t DatasetCardinality(TigerFlavor flavor) {
  const char* var = flavor == TigerFlavor::kRoads   ? "TLP_CARD_ROADS"
                    : flavor == TigerFlavor::kEdges ? "TLP_CARD_EDGES"
                                                    : "TLP_CARD_TIGER";
  const auto base = static_cast<std::size_t>(
      EnvInt64(var, static_cast<std::int64_t>(
                        TigerDefaultCardinality(flavor))));
  return static_cast<std::size_t>(static_cast<double>(base) * DatasetScale());
}

/// Cached MBR-only dataset for a flavor (one generation per process).
inline const std::vector<BoxEntry>& Dataset(TigerFlavor flavor) {
  static std::map<int, std::vector<BoxEntry>>& cache =
      *new std::map<int, std::vector<BoxEntry>>;
  auto [it, inserted] = cache.try_emplace(static_cast<int>(flavor));
  if (inserted) {
    TigerConfig config;
    config.flavor = flavor;
    config.cardinality = DatasetCardinality(flavor);
    it->second = GenerateTigerLikeEntries(config);
  }
  return it->second;
}

/// Grid granularity near the measured optimum for the TIGER-like datasets
/// (cf. Fig. 7 / bench_fig7_tuning): about sqrt(cardinality)/4 partitions
/// per dimension. The optimum is flat (paper §VII-B), so ±2x barely moves
/// throughput.
inline std::uint32_t DefaultGridDim(std::size_t cardinality) {
  const auto dim = static_cast<std::uint32_t>(
      std::sqrt(static_cast<double>(cardinality)) / 4);
  return std::min<std::uint32_t>(4096, std::max<std::uint32_t>(64, dim));
}

inline GridLayout DefaultLayout(const std::vector<BoxEntry>& entries) {
  const std::uint32_t dim = DefaultGridDim(entries.size());
  return GridLayout(kUnitDomain, dim, dim);
}

/// Number of queries in a workload (paper: 10K); override with TLP_QUERIES.
inline std::size_t QueryCount() {
  return static_cast<std::size_t>(EnvInt64("TLP_QUERIES", 10000));
}

/// Cached per-(flavor, relative-area) window workloads.
inline const std::vector<Box>& Windows(TigerFlavor flavor,
                                       double relative_area) {
  static std::map<std::pair<int, double>, std::vector<Box>>& cache =
      *new std::map<std::pair<int, double>, std::vector<Box>>;
  const auto key = std::make_pair(static_cast<int>(flavor), relative_area);
  auto [it, inserted] = cache.try_emplace(key);
  if (inserted) {
    it->second =
        GenerateWindowQueries(Dataset(flavor), QueryCount(), relative_area);
  }
  return it->second;
}

inline const std::vector<DiskQuerySpec>& Disks(TigerFlavor flavor,
                                               double relative_area) {
  static std::map<std::pair<int, double>, std::vector<DiskQuerySpec>>& cache =
      *new std::map<std::pair<int, double>, std::vector<DiskQuerySpec>>;
  const auto key = std::make_pair(static_cast<int>(flavor), relative_area);
  auto [it, inserted] = cache.try_emplace(key);
  if (inserted) {
    it->second =
        GenerateDiskQueries(Dataset(flavor), QueryCount(), relative_area);
  }
  return it->second;
}

/// The paper's query relative areas, in percent of the map (default 0.1%).
inline constexpr double kQueryAreasPercent[] = {0.01, 0.05, 0.1, 0.5, 1.0};
inline constexpr double kDefaultQueryAreaPercent = 0.1;

inline double PercentToFraction(double percent) { return percent / 100.0; }

/// Dumps the calling thread's accumulated query statistics as one prefixed
/// JSON line (schema: docs/BENCHMARKING.md). Bench mains call this after
/// RunSpecifiedBenchmarks() so every experiment run ends with a machine-
/// readable operation-count block.
inline void PrintQueryStatsJson(const std::string& label) {
  std::printf("TLP_QUERY_STATS %s\n", GetQueryStats().ToJson(label).c_str());
  std::fflush(stdout);
}

}  // namespace bench
}  // namespace tlp

#endif  // TLP_BENCH_BENCH_UTIL_H_
