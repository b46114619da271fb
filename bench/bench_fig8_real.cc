// Reproduces Fig. 8: query throughput on the real-data stand-ins (ROADS,
// EDGES, TIGER) for the five core methods, varying the query relative area
// over {0.01, 0.05, 0.1, 0.5, 1}%. Both window and disk queries; the
// `avg_results` counter gives the selectivity axis of the paper's second
// column (group benchmarks by it to recreate the selectivity plots).
// Expected shape (paper): 2-layer(+) consistently fastest across datasets
// and areas with a stable gap over 1-layer; R-tree slowest of the five;
// throughput decays with query area. 2-layer+ is excluded from disks
// (storage decomposition cannot improve distance computations).

#include "bench/bench_common.h"

namespace {

using namespace tlp;
using namespace tlp::bench;

void RegisterAll() {
  const auto methods = CoreMethods();
  for (const TigerFlavor flavor :
       {TigerFlavor::kRoads, TigerFlavor::kEdges, TigerFlavor::kTiger}) {
    for (const Method& m : methods) {
      // One shared index instance per (dataset, method), queried at every
      // area and by both query types.
      auto holder = MakeHolder();
      for (const double area : kQueryAreasPercent) {
        RegisterWindowThroughput("Fig8/" + TigerFlavorName(flavor) +
                                     "/window/" + m.name +
                                     "/area_pct:" + std::to_string(area),
                                 flavor, area, m.make, /*min_time_s=*/0.25,
                                 holder);
      }
      if (m.name == "2-layer+") continue;
      for (const double area : kQueryAreasPercent) {
        RegisterDiskThroughput(
            "Fig8/" + TigerFlavorName(flavor) + "/disk/" + m.name +
                "/area_pct:" + std::to_string(area),
            flavor, area, m.make, /*min_time_s=*/0.25, holder);
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  tlp::bench::PrintQueryStatsJson("fig8");
  benchmark::Shutdown();
  return 0;
}
