// Reproduces Fig. 12: window-query throughput of the in-memory 2-layer grid
// vs a (simulated) GeoSpark-style distributed spatial engine in client mode,
// as a function of the number of threads. 100 end-to-end queries of 0.1%
// relative area on ROADS, 2-layer at 1000x1000 granularity as in the paper.
// The distributed engine's latencies come from the DESIGN.md §3 cluster cost
// model (virtual clock); the 2-layer numbers are real measurements.
// Expected shape (paper): 2-layer is >= 3 orders of magnitude faster at
// every thread count; both improve mildly with threads.

#include "batch/batch_executor.h"
#include "bench/bench_common.h"
#include "common/timer.h"
#include "distsim/distributed_sim.h"

namespace {

using namespace tlp;
using namespace tlp::bench;

constexpr std::size_t kFig12Queries = 100;

const std::vector<Box>& Fig12Queries() {
  static std::vector<Box>& queries = *new std::vector<Box>(
      GenerateWindowQueries(Dataset(TigerFlavor::kRoads), kFig12Queries,
                            PercentToFraction(kDefaultQueryAreaPercent)));
  return queries;
}

void RegisterTwoLayer(std::size_t threads) {
  const std::string name =
      "Fig12/2-layer/threads:" + std::to_string(threads);
  benchmark::RegisterBenchmark(
      name.c_str(),
      [threads](benchmark::State& state) {
        // The paper's Fig. 12 uses a 1000x1000 grid and evaluates queries
        // independently (not in batch) for a fair multi-thread comparison.
        static TwoLayerGrid* grid = [] {
          auto* g = new TwoLayerGrid(GridLayout(kUnitDomain, 1000, 1000));
          g->Build(Dataset(TigerFlavor::kRoads));
          return g;
        }();
        const auto& queries = Fig12Queries();
        for (auto _ : state) {
          Stopwatch watch;
          const auto counts =
              BatchExecutor::RunQueriesBased(*grid, queries, threads);
          state.SetIterationTime(watch.ElapsedSeconds());
          benchmark::DoNotOptimize(counts.data());
        }
        state.SetItemsProcessed(
            static_cast<std::int64_t>(state.iterations()) *
            static_cast<std::int64_t>(kFig12Queries));
      })
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}

void RegisterGeoSparkSim(std::size_t threads) {
  const std::string name =
      "Fig12/GeoSpark-sim/threads:" + std::to_string(threads);
  benchmark::RegisterBenchmark(
      name.c_str(),
      [threads](benchmark::State& state) {
        static DistributedSpatialEngine* engine = [] {
          // GeoSpark-style equal-grid partitioning; a few hundred
          // partitions, each with a local STR R-tree.
          return new DistributedSpatialEngine(Dataset(TigerFlavor::kRoads),
                                              /*partitions_per_dim=*/16);
        }();
        const auto& queries = Fig12Queries();
        for (auto _ : state) {
          double total_latency = 0;
          std::vector<ObjectId> out;
          for (const Box& w : queries) {
            out.clear();
            total_latency += engine->WindowQuerySimulated(w, threads, &out);
            benchmark::DoNotOptimize(out.data());
          }
          // The simulated end-to-end latency is the figure of merit.
          state.SetIterationTime(total_latency);
        }
        state.SetItemsProcessed(
            static_cast<std::int64_t>(state.iterations()) *
            static_cast<std::int64_t>(kFig12Queries));
      })
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}

void RegisterAll() {
  for (const std::size_t threads : {1u, 2u, 4u, 6u, 8u, 12u}) {
    RegisterGeoSparkSim(threads);
    RegisterTwoLayer(threads);
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  tlp::bench::PrintQueryStatsJson("fig12");
  benchmark::Shutdown();
  return 0;
}
