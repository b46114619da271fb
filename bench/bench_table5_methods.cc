// Reproduces Table V: window-query throughput (queries/sec) of every
// compared method on the ROADS and EDGES datasets, 10K window queries of
// 0.1% relative area. Read `items_per_second` as the table's throughput
// column. Expected shape (paper): 2-layer+ > 2-layer > quad-tree-2layer >
// 1-layer ~ quad-tree > R-tree > R*-tree >> MXCIF >> BLOCK.

#include "bench/bench_common.h"

namespace {

void RegisterAll() {
  using namespace tlp;
  using namespace tlp::bench;
  for (const TigerFlavor flavor : {TigerFlavor::kRoads, TigerFlavor::kEdges}) {
    for (const Method& m : PaperMethods()) {
      RegisterWindowThroughput(
          "Table5/" + TigerFlavorName(flavor) + "/" + m.name, flavor,
          kDefaultQueryAreaPercent, m.make);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  tlp::bench::PrintQueryStatsJson("table5");
  benchmark::Shutdown();
  return 0;
}
