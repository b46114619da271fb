// Reproduces Table VI: total update cost. Each index is bulk-loaded with 90%
// of the dataset; the benchmark measures the wall-clock time of inserting
// the remaining 10% one by one (manual time, one iteration). Expected shape
// (paper): grids are ~2 orders of magnitude cheaper than the R-tree;
// 2-layer costs only slightly more than 1-layer; quad-tree sits between.

#include "bench/bench_common.h"
#include "common/timer.h"

namespace {

using namespace tlp;
using namespace tlp::bench;

void RegisterUpdateBench(const std::string& name, TigerFlavor flavor,
                         IndexFactory factory) {
  benchmark::RegisterBenchmark(
      name.c_str(),
      [factory, flavor](benchmark::State& state) {
        const auto& data = Dataset(flavor);
        const std::size_t cut = data.size() * 9 / 10;
        const std::vector<BoxEntry> initial(
            data.begin(), data.begin() + static_cast<std::ptrdiff_t>(cut));
        for (auto _ : state) {
          auto index = factory(initial);
          Stopwatch watch;
          for (std::size_t k = cut; k < data.size(); ++k) {
            index->Insert(data[k]);
          }
          state.SetIterationTime(watch.ElapsedSeconds());
          benchmark::DoNotOptimize(index.get());
        }
        state.SetItemsProcessed(
            static_cast<std::int64_t>(state.iterations()) *
            static_cast<std::int64_t>(data.size() - cut));
      })
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}

void RegisterAll() {
  for (const TigerFlavor flavor :
       {TigerFlavor::kRoads, TigerFlavor::kEdges, TigerFlavor::kTiger}) {
    for (const Method& m : PaperMethods()) {
      // Table VI compares R-tree, quad-tree, 1-layer, and 2-layer; we add
      // 2-layer+ as an ablation of the decomposed layout's update penalty.
      if (m.name != "R-tree" && m.name != "quad-tree" && m.name != "1-layer" &&
          m.name != "2-layer" && m.name != "2-layer+") {
        continue;
      }
      RegisterUpdateBench(
          "Table6/" + TigerFlavorName(flavor) + "/" + m.name, flavor, m.make);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  tlp::bench::PrintQueryStatsJson("table6");
  benchmark::Shutdown();
  return 0;
}
