// Reproduces Fig. 11: speedup of parallel batch window-query processing as
// a function of the number of threads, for the queries-based and the
// tiles-based strategy (§VI) on ROADS and EDGES (10K queries, 1% relative
// area). The `speedup` counter is relative to the same strategy at one
// thread. Expected shape (paper, 40-hardware-thread machine): tiles-based
// scales near-linearly to ~25 threads; queries-based scales poorly due to
// cache misses. NOTE: this container exposes a single CPU core, so measured
// speedups saturate at ~1x here; the code paths are real std::thread
// parallelism and scale on multi-core hosts (EXPERIMENTS.md).

#include <thread>

#include "batch/batch_executor.h"
#include "bench/bench_common.h"
#include "common/timer.h"

namespace {

using namespace tlp;
using namespace tlp::bench;

constexpr double kBatchAreaPercent = 1.0;  // the paper's Fig. 11 setting

std::shared_ptr<TwoLayerGrid> Grid(TigerFlavor flavor) {
  static std::map<int, std::shared_ptr<TwoLayerGrid>>& cache =
      *new std::map<int, std::shared_ptr<TwoLayerGrid>>;
  auto [it, inserted] = cache.try_emplace(static_cast<int>(flavor));
  if (inserted) {
    const auto& data = Dataset(flavor);
    it->second = std::make_shared<TwoLayerGrid>(DefaultLayout(data));
    it->second->Build(data);
  }
  return it->second;
}

double& BaselineSeconds(TigerFlavor flavor, bool tiles_based) {
  static std::map<std::pair<int, bool>, double>& cache =
      *new std::map<std::pair<int, bool>, double>;
  return cache[{static_cast<int>(flavor), tiles_based}];
}

void RegisterParallel(TigerFlavor flavor, bool tiles_based,
                      std::size_t threads) {
  const std::string name = "Fig11/" + TigerFlavorName(flavor) + "/" +
                           (tiles_based ? "tiles-based" : "queries-based") +
                           "/threads:" + std::to_string(threads);
  benchmark::RegisterBenchmark(
      name.c_str(),
      [flavor, tiles_based, threads](benchmark::State& state) {
        auto grid = Grid(flavor);
        const auto& queries =
            Windows(flavor, PercentToFraction(kBatchAreaPercent));
        double seconds = 0;
        for (auto _ : state) {
          Stopwatch watch;
          const auto counts =
              tiles_based
                  ? BatchExecutor::RunTilesBased(*grid, queries, threads)
                  : BatchExecutor::RunQueriesBased(*grid, queries, threads);
          seconds = watch.ElapsedSeconds();
          state.SetIterationTime(seconds);
          benchmark::DoNotOptimize(counts.data());
        }
        if (threads == 1) BaselineSeconds(flavor, tiles_based) = seconds;
        const double base = BaselineSeconds(flavor, tiles_based);
        state.counters["speedup"] = base > 0 ? base / seconds : 0;
        state.counters["hw_threads"] =
            static_cast<double>(std::thread::hardware_concurrency());
        state.SetItemsProcessed(
            static_cast<std::int64_t>(state.iterations()) *
            static_cast<std::int64_t>(queries.size()));
      })
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}

void RegisterAll() {
  for (const TigerFlavor flavor : {TigerFlavor::kRoads, TigerFlavor::kEdges}) {
    for (const bool tiles_based : {false, true}) {
      for (const std::size_t threads : {1u, 2u, 4u, 8u, 16u}) {
        RegisterParallel(flavor, tiles_based, threads);
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  tlp::bench::PrintQueryStatsJson("fig11");
  benchmark::Shutdown();
  return 0;
}
