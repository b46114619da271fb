#ifndef TLP_BENCH_BENCH_COMMON_H_
#define TLP_BENCH_BENCH_COMMON_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "benchmark/benchmark.h"

#include "api/spatial_index.h"
#include "bench/bench_util.h"
#include "block/block_index.h"
#include "core/two_layer_grid.h"
#include "core/two_layer_plus_grid.h"
#include "grid/one_layer_grid.h"
#include "quadtree/mxcif_quad_tree.h"
#include "quadtree/quad_tree.h"
#include "rtree/rtree.h"

namespace tlp {
namespace bench {

using IndexFactory =
    std::function<std::unique_ptr<SpatialIndex>(const std::vector<BoxEntry>&)>;

/// Lazily-built index shared by several registered benchmarks (e.g. one
/// index instance queried at five different query areas).
using IndexHolder = std::shared_ptr<std::unique_ptr<SpatialIndex>>;

inline IndexHolder MakeHolder() {
  return std::make_shared<std::unique_ptr<SpatialIndex>>();
}

/// Factories for every method of the paper's Table V, keyed by the paper's
/// method names.
struct Method {
  std::string name;
  IndexFactory make;
};

inline std::vector<Method> PaperMethods() {
  auto grid_factory = [](auto make_grid) {
    return [make_grid](const std::vector<BoxEntry>& e) {
      return make_grid(DefaultLayout(e), e);
    };
  };
  return {
      {"2-layer", grid_factory([](const GridLayout& g,
                                  const std::vector<BoxEntry>& e)
                                   -> std::unique_ptr<SpatialIndex> {
         auto idx = std::make_unique<TwoLayerGrid>(g);
         idx->Build(e);
         return idx;
       })},
      {"2-layer+", grid_factory([](const GridLayout& g,
                                   const std::vector<BoxEntry>& e)
                                    -> std::unique_ptr<SpatialIndex> {
         auto idx = std::make_unique<TwoLayerPlusGrid>(g);
         idx->Build(e);
         return idx;
       })},
      {"1-layer", grid_factory([](const GridLayout& g,
                                  const std::vector<BoxEntry>& e)
                                   -> std::unique_ptr<SpatialIndex> {
         auto idx =
             std::make_unique<OneLayerGrid>(g, DedupPolicy::kReferencePoint);
         idx->Build(e);
         return idx;
       })},
      {"1-layer-hash", grid_factory([](const GridLayout& g,
                                       const std::vector<BoxEntry>& e)
                                        -> std::unique_ptr<SpatialIndex> {
         auto idx = std::make_unique<OneLayerGrid>(g, DedupPolicy::kHash);
         idx->Build(e);
         return idx;
       })},
      {"quad-tree",
       [](const std::vector<BoxEntry>& e) -> std::unique_ptr<SpatialIndex> {
         auto idx = std::make_unique<QuadTree>(
             kUnitDomain, QuadTreeMode::kReferencePoint);
         idx->Build(e);
         return idx;
       }},
      {"quad-tree-2layer",
       [](const std::vector<BoxEntry>& e) -> std::unique_ptr<SpatialIndex> {
         auto idx =
             std::make_unique<QuadTree>(kUnitDomain, QuadTreeMode::kTwoLayer);
         idx->Build(e);
         return idx;
       }},
      {"R-tree",
       [](const std::vector<BoxEntry>& e) -> std::unique_ptr<SpatialIndex> {
         auto idx = std::make_unique<RTree>(RTreeVariant::kStr);
         idx->Build(e);
         return idx;
       }},
      {"R-star-tree",
       [](const std::vector<BoxEntry>& e) -> std::unique_ptr<SpatialIndex> {
         auto idx = std::make_unique<RTree>(RTreeVariant::kRStar);
         idx->Build(e);
         return idx;
       }},
      {"BLOCK",
       [](const std::vector<BoxEntry>& e) -> std::unique_ptr<SpatialIndex> {
         auto idx = std::make_unique<BlockIndex>(kUnitDomain, 10);
         idx->Build(e);
         return idx;
       }},
      {"MXCIF-quad-tree",
       [](const std::vector<BoxEntry>& e) -> std::unique_ptr<SpatialIndex> {
         auto idx = std::make_unique<MxcifQuadTree>(kUnitDomain, 12);
         idx->Build(e);
         return idx;
       }},
  };
}

/// Subset the paper carries into Fig. 8/9 after Table V prunes the rest.
inline std::vector<Method> CoreMethods() {
  std::vector<Method> all = PaperMethods();
  std::vector<Method> core;
  for (auto& m : all) {
    if (m.name == "2-layer" || m.name == "2-layer+" || m.name == "1-layer" ||
        m.name == "quad-tree" || m.name == "R-tree") {
      core.push_back(std::move(m));
    }
  }
  return core;
}

/// Attaches per-query operation counters (delta between `before` and the
/// thread's current accumulator, divided by iteration count) to a finished
/// benchmark state. These land in the google-benchmark JSON/console output
/// next to timings, giving the paper's Table II lens — comparisons and
/// partitions touched per query — per registered method.
inline void AttachQueryStatsCounters(benchmark::State& state,
                                     const QueryStats& before) {
  const QueryStats now = GetQueryStats();
  const auto n = static_cast<double>(state.iterations());
  auto per_query = [n](std::uint64_t now_v, std::uint64_t before_v) {
    return static_cast<double>(now_v - before_v) / n;
  };
  state.counters["tiles_pq"] =
      per_query(now.tiles_visited, before.tiles_visited);
  state.counters["scanned_pq"] =
      per_query(now.scanned_total(), before.scanned_total());
  state.counters["cmp_pq"] = per_query(now.comparisons, before.comparisons);
  state.counters["probes_pq"] =
      per_query(now.binary_search_probes, before.binary_search_probes);
  state.counters["dup_avoided_pq"] =
      per_query(now.duplicates_avoided, before.duplicates_avoided);
  state.counters["posthoc_dedup_pq"] =
      per_query(now.posthoc_dedup, before.posthoc_dedup);
}

/// Registers a window-query throughput benchmark over a cached index. The
/// index is built lazily on the benchmark's first run and reused across
/// google-benchmark's repeated invocations.
inline void RegisterWindowThroughput(const std::string& bench_name,
                                     TigerFlavor flavor, double area_percent,
                                     IndexFactory factory,
                                     double min_time_s = 0.5,
                                     IndexHolder holder = nullptr) {
  if (holder == nullptr) holder = MakeHolder();
  benchmark::RegisterBenchmark(
      bench_name.c_str(),
      [holder, factory, flavor, area_percent](benchmark::State& state) {
        const auto& data = Dataset(flavor);
        if (*holder == nullptr) *holder = factory(data);
        const auto& queries =
            Windows(flavor, PercentToFraction(area_percent));
        std::vector<ObjectId> out;
        std::size_t qi = 0;
        std::uint64_t results = 0;
        const QueryStats stats_before = GetQueryStats();
        for (auto _ : state) {
          out.clear();
          (*holder)->WindowQuery(queries[qi], &out);
          benchmark::DoNotOptimize(out.data());
          results += out.size();
          if (++qi == queries.size()) qi = 0;
        }
        state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
        state.counters["avg_results"] =
            static_cast<double>(results) /
            static_cast<double>(state.iterations());
        AttachQueryStatsCounters(state, stats_before);
      })
      ->MinTime(min_time_s)
      ->Unit(benchmark::kMicrosecond);
}

/// Registers a disk-query throughput benchmark (same caching scheme).
inline void RegisterDiskThroughput(const std::string& bench_name,
                                   TigerFlavor flavor, double area_percent,
                                   IndexFactory factory,
                                   double min_time_s = 0.5,
                                   IndexHolder holder = nullptr) {
  if (holder == nullptr) holder = MakeHolder();
  benchmark::RegisterBenchmark(
      bench_name.c_str(),
      [holder, factory, flavor, area_percent](benchmark::State& state) {
        const auto& data = Dataset(flavor);
        if (*holder == nullptr) *holder = factory(data);
        const auto& queries = Disks(flavor, PercentToFraction(area_percent));
        std::vector<ObjectId> out;
        std::size_t qi = 0;
        std::uint64_t results = 0;
        const QueryStats stats_before = GetQueryStats();
        for (auto _ : state) {
          out.clear();
          const DiskQuerySpec& d = queries[qi];
          (*holder)->DiskQuery(d.center, d.radius, &out);
          benchmark::DoNotOptimize(out.data());
          results += out.size();
          if (++qi == queries.size()) qi = 0;
        }
        state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
        state.counters["avg_results"] =
            static_cast<double>(results) /
            static_cast<double>(state.iterations());
        AttachQueryStatsCounters(state, stats_before);
      })
      ->MinTime(min_time_s)
      ->Unit(benchmark::kMicrosecond);
}

}  // namespace bench
}  // namespace tlp

#endif  // TLP_BENCH_BENCH_COMMON_H_
