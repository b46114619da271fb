// Reproduces Fig. 7: building and tuning the grid indices. For 1-layer,
// 2-layer, and 2-layer+ on ROADS and EDGES, sweeps the grid granularity
// (partitions per dimension) and reports (a) index build time, (b) index
// size (counter size_mb), and (c) window-query throughput. Expected shape
// (paper): 1-layer and 2-layer have identical sizes and near-identical build
// cost; 2-layer+ costs ~2x in space and build; throughput is flat across a
// wide granularity range and 2-layer(+) beats 1-layer 2-3x everywhere.

#include "bench/bench_common.h"
#include "common/timer.h"

namespace {

using namespace tlp;
using namespace tlp::bench;

enum class GridKind { kOneLayer, kTwoLayer, kTwoLayerPlus };

const char* KindName(GridKind kind) {
  switch (kind) {
    case GridKind::kOneLayer:
      return "1-layer";
    case GridKind::kTwoLayer:
      return "2-layer";
    case GridKind::kTwoLayerPlus:
      return "2-layer+";
  }
  return "?";
}

std::unique_ptr<SpatialIndex> MakeGrid(GridKind kind, const GridLayout& g,
                                       const std::vector<BoxEntry>& e) {
  switch (kind) {
    case GridKind::kOneLayer: {
      auto idx = std::make_unique<OneLayerGrid>(g);
      idx->Build(e);
      return idx;
    }
    case GridKind::kTwoLayer: {
      auto idx = std::make_unique<TwoLayerGrid>(g);
      idx->Build(e);
      return idx;
    }
    case GridKind::kTwoLayerPlus: {
      auto idx = std::make_unique<TwoLayerPlusGrid>(g);
      idx->Build(e);
      return idx;
    }
  }
  return nullptr;
}

/// Granularities swept (partitions per dimension). The paper sweeps
/// 1000..20000 for 20M-98M objects; scaled to our cardinalities the dome
/// peaks around sqrt(n)/4.
constexpr std::uint32_t kDims[] = {64, 128, 256, 512, 1024};

void RegisterBuildBench(TigerFlavor flavor, GridKind kind,
                        std::uint32_t dim) {
  const std::string name = "Fig7/build/" + TigerFlavorName(flavor) + "/" +
                           KindName(kind) + "/dim:" + std::to_string(dim);
  benchmark::RegisterBenchmark(
      name.c_str(),
      [flavor, kind, dim](benchmark::State& state) {
        const auto& data = Dataset(flavor);
        const GridLayout layout(kUnitDomain, dim, dim);
        for (auto _ : state) {
          Stopwatch watch;
          auto index = MakeGrid(kind, layout, data);
          state.SetIterationTime(watch.ElapsedSeconds());
          state.counters["size_mb"] =
              static_cast<double>(index->SizeBytes()) / (1024.0 * 1024.0);
          benchmark::DoNotOptimize(index.get());
        }
      })
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}

void RegisterThroughputBench(TigerFlavor flavor, GridKind kind,
                             std::uint32_t dim) {
  const std::string name = "Fig7/throughput/" + TigerFlavorName(flavor) +
                           "/" + KindName(kind) + "/dim:" +
                           std::to_string(dim);
  RegisterWindowThroughput(
      name, flavor, kDefaultQueryAreaPercent,
      [kind, dim](const std::vector<BoxEntry>& e) {
        return MakeGrid(kind, GridLayout(kUnitDomain, dim, dim), e);
      },
      /*min_time_s=*/0.3);
}

void RegisterAll() {
  for (const TigerFlavor flavor : {TigerFlavor::kRoads, TigerFlavor::kEdges}) {
    for (const GridKind kind :
         {GridKind::kOneLayer, GridKind::kTwoLayer, GridKind::kTwoLayerPlus}) {
      for (const std::uint32_t dim : kDims) {
        RegisterBuildBench(flavor, kind, dim);
      }
    }
  }
  for (const TigerFlavor flavor : {TigerFlavor::kRoads, TigerFlavor::kEdges}) {
    for (const GridKind kind :
         {GridKind::kOneLayer, GridKind::kTwoLayer, GridKind::kTwoLayerPlus}) {
      for (const std::uint32_t dim : kDims) {
        RegisterThroughputBench(flavor, kind, dim);
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  tlp::bench::PrintQueryStatsJson("fig7");
  benchmark::Shutdown();
  return 0;
}
