// Reproduces Fig. 10: single-threaded batch window-query processing on a
// 2-layer grid — total batch time of the queries-based vs the tiles-based
// strategy (§VI) for 10K-query batches of varying relative extent on ROADS
// and EDGES. Expected shape (paper): tiles-based wins on large/dense
// workloads (many subtasks per tile amortize cache misses); queries-based
// wins when queries are small and per-tile subtask accumulation does not
// pay off.

#include "batch/batch_executor.h"
#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "common/timer.h"

namespace {

using namespace tlp;
using namespace tlp::bench;

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

void RegisterBatch(TigerFlavor flavor, bool tiles_based,
                   double area_percent) {
  const std::string name = "Fig10/" + TigerFlavorName(flavor) + "/" +
                           (tiles_based ? "tiles-based" : "queries-based") +
                           "/area_pct:" + std::to_string(area_percent);
  benchmark::RegisterBenchmark(
      name.c_str(),
      [flavor, tiles_based, area_percent](benchmark::State& state) {
        auto grid = Grid(flavor);
        const auto& queries =
            Windows(flavor, PercentToFraction(area_percent));
        for (auto _ : state) {
          Stopwatch watch;
          const auto counts =
              tiles_based
                  ? BatchExecutor::RunTilesBased(*grid, queries, 1)
                  : BatchExecutor::RunQueriesBased(*grid, queries, 1);
          state.SetIterationTime(watch.ElapsedSeconds());
          benchmark::DoNotOptimize(counts.data());
        }
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
    for (const double area : kQueryAreasPercent) {
      RegisterBatch(flavor, /*tiles_based=*/false, area);
      RegisterBatch(flavor, /*tiles_based=*/true, area);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  tlp::bench::TrajectoryReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  tlp::bench::PrintQueryStatsJson("fig10");
  tlp::bench::AppendBenchTrajectory("fig10_batch", reporter.records());
  benchmark::Shutdown();
  return 0;
}
