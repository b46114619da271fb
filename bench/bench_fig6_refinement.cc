// Reproduces Fig. 6: execution-time breakdown (filtering / secondary
// filtering / refinement) of exact window and disk queries on a 2-layer
// index under the three strategies Simple, RefAvoid, and RefAvoid+ (windows
// only for the +). Counters report per-query phase times in microseconds.
// Expected shape (paper): RefAvoid(+) cut refined candidates by >90%; with
// secondary filtering the window bottleneck moves to the filtering step;
// disk secondary filtering is relatively more expensive (distance
// computations).

#include "benchmark/benchmark.h"

#include "bench/bench_util.h"
#include "common/env.h"
#include "core/refinement.h"

namespace {

using namespace tlp;
using namespace tlp::bench;

struct Fixture {
  GeometryStore store;
  std::unique_ptr<TwoLayerGrid> grid;
  std::vector<BoxEntry> entries;
};

/// Exact geometries are memory-heavy; Fig 6 uses a reduced default
/// cardinality (override with TLP_CARD_FIG6).
Fixture& GetFixture(TigerFlavor flavor) {
  static std::map<int, Fixture>& cache = *new std::map<int, Fixture>;
  auto [it, inserted] = cache.try_emplace(static_cast<int>(flavor));
  if (inserted) {
    TigerConfig config;
    config.flavor = flavor;
    config.cardinality = static_cast<std::size_t>(
        static_cast<double>(EnvInt64("TLP_CARD_FIG6", 500000)) *
        DatasetScale());
    Fixture& f = it->second;
    f.store = GenerateTigerLike(config);
    f.entries = f.store.AllEntries();
    f.grid = std::make_unique<TwoLayerGrid>(DefaultLayout(f.entries));
    f.grid->Build(f.entries);
  }
  return it->second;
}

const char* ModeName(RefinementMode mode) {
  switch (mode) {
    case RefinementMode::kSimple:
      return "Simple";
    case RefinementMode::kRefAvoid:
      return "RefAvoid";
    case RefinementMode::kRefAvoidPlus:
      return "RefAvoid+";
  }
  return "?";
}

void ReportBreakdown(benchmark::State& state, const RefinementBreakdown& bd) {
  const auto n = static_cast<double>(state.iterations());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["filter_us"] = bd.filter_seconds * 1e6 / n;
  state.counters["secondary_us"] = bd.secondary_seconds * 1e6 / n;
  state.counters["refine_us"] = bd.refine_seconds * 1e6 / n;
  state.counters["candidates"] = static_cast<double>(bd.candidates) / n;
  state.counters["guaranteed"] = static_cast<double>(bd.guaranteed) / n;
  state.counters["refined"] = static_cast<double>(bd.refined) / n;
}

void RegisterWindowMode(TigerFlavor flavor, RefinementMode mode) {
  const std::string name = "Fig6/" + TigerFlavorName(flavor) + "/window/" +
                           ModeName(mode);
  benchmark::RegisterBenchmark(
      name.c_str(),
      [flavor, mode](benchmark::State& state) {
        Fixture& f = GetFixture(flavor);
        RefinementEngine engine(*f.grid, f.store);
        const auto queries = GenerateWindowQueries(
            f.entries, 2000, PercentToFraction(kDefaultQueryAreaPercent));
        RefinementBreakdown bd;
        std::vector<ObjectId> out;
        std::size_t qi = 0;
        for (auto _ : state) {
          out.clear();
          engine.WindowQueryExact(queries[qi], mode, &out, &bd);
          benchmark::DoNotOptimize(out.data());
          if (++qi == queries.size()) qi = 0;
        }
        ReportBreakdown(state, bd);
      })
      ->MinTime(0.5)
      ->Unit(benchmark::kMicrosecond);
}

void RegisterDiskMode(TigerFlavor flavor, RefinementMode mode) {
  const std::string name =
      "Fig6/" + TigerFlavorName(flavor) + "/disk/" + ModeName(mode);
  benchmark::RegisterBenchmark(
      name.c_str(),
      [flavor, mode](benchmark::State& state) {
        Fixture& f = GetFixture(flavor);
        RefinementEngine engine(*f.grid, f.store);
        const auto queries = GenerateDiskQueries(
            f.entries, 2000, PercentToFraction(kDefaultQueryAreaPercent));
        RefinementBreakdown bd;
        std::vector<ObjectId> out;
        std::size_t qi = 0;
        for (auto _ : state) {
          out.clear();
          engine.DiskQueryExact(queries[qi].center, queries[qi].radius, mode,
                                &out, &bd);
          benchmark::DoNotOptimize(out.data());
          if (++qi == queries.size()) qi = 0;
        }
        ReportBreakdown(state, bd);
      })
      ->MinTime(0.5)
      ->Unit(benchmark::kMicrosecond);
}

void RegisterAll() {
  for (const TigerFlavor flavor : {TigerFlavor::kRoads, TigerFlavor::kEdges}) {
    for (const RefinementMode mode :
         {RefinementMode::kSimple, RefinementMode::kRefAvoid,
          RefinementMode::kRefAvoidPlus}) {
      RegisterWindowMode(flavor, mode);
    }
    // RefAvoid+ is not applicable to disk queries (paper Fig. 6).
    RegisterDiskMode(flavor, RefinementMode::kSimple);
    RegisterDiskMode(flavor, RefinementMode::kRefAvoid);
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  tlp::bench::PrintQueryStatsJson("fig6");
  benchmark::Shutdown();
  return 0;
}
