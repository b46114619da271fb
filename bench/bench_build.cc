// Build-throughput benchmark for the multi-threaded bulk loads: reports
// entries/second for Build() on the grid family (1-layer, 2-layer,
// 2-layer+) at 1M and 10M uniform entries as the thread count sweeps
// 1, 2, 4, 8 (plus the hardware count when larger). The `speedup` counter
// is relative to the same index and cardinality at one thread — the
// acceptance bar for the parallel build is >= 3x at 8 threads on 10M
// entries on an 8-core host. NOTE: this container exposes a single CPU
// core, so speedups measured here saturate at ~1x; the build phases are
// real std::thread parallelism and scale on multi-core hosts.
//
//   TLP_BUILD_SMALL   smaller cardinality  (default 1,000,000)
//   TLP_BUILD_LARGE   larger cardinality   (default 10,000,000; 0 disables)
//
// Run: ./bench_build [--benchmark_filter=TwoLayerPlus]

#include <cstddef>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "common/timer.h"
#include "datagen/synthetic.h"

namespace {

using namespace tlp;
using namespace tlp::bench;

std::int64_t SmallN() { return EnvInt64("TLP_BUILD_SMALL", 1'000'000); }
std::int64_t LargeN() { return EnvInt64("TLP_BUILD_LARGE", 10'000'000); }

const std::vector<BoxEntry>& Data(std::size_t n) {
  static std::map<std::size_t, std::vector<BoxEntry>>& cache =
      *new std::map<std::size_t, std::vector<BoxEntry>>;
  auto [it, inserted] = cache.try_emplace(n);
  if (inserted) {
    SyntheticConfig config;
    config.cardinality = n;
    config.area = 1e-6;  // entries straddle tiles: replication is exercised
    config.distribution = SpatialDistribution::kUniform;
    config.seed = 11;
    it->second = GenerateSyntheticRects(config);
  }
  return it->second;
}

/// Mean seconds per one-thread build, keyed by (index name, cardinality);
/// filled by the threads=1 run, read by the speedup counter.
double& BaselineSeconds(const std::string& index, std::size_t n) {
  static std::map<std::pair<std::string, std::size_t>, double>& cache =
      *new std::map<std::pair<std::string, std::size_t>, double>;
  return cache[{index, n}];
}

template <typename Index>
void BM_Build(benchmark::State& state, const std::string& name) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t threads = static_cast<std::size_t>(state.range(1));
  const auto& data = Data(n);
  const std::uint32_t dim = DefaultGridDim(n);
  const GridLayout layout(kUnitDomain, dim, dim);

  double seconds = 0;
  for (auto _ : state) {
    Index index(layout);
    const Stopwatch watch;
    index.Build(data, threads);
    seconds += watch.ElapsedSeconds();
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<benchmark::IterationCount>(n));
  state.counters["threads"] = static_cast<double>(threads);
  const double per_build = seconds / static_cast<double>(state.iterations());
  if (threads == 1) BaselineSeconds(name, n) = per_build;
  const double baseline = BaselineSeconds(name, n);
  if (baseline > 0) state.counters["speedup"] = baseline / per_build;
}

/// 1, 2, 4, 8 threads (plus hardware_concurrency when beyond 8), at the
/// small and — unless disabled — the large cardinality. threads=1 runs
/// first per cardinality so every later run has its speedup baseline.
void BuildArgs(benchmark::internal::Benchmark* b) {
  std::vector<std::int64_t> threads = {1, 2, 4, 8};
  const auto hw =
      static_cast<std::int64_t>(std::thread::hardware_concurrency());
  if (hw > 8) threads.push_back(hw);
  std::vector<std::int64_t> sizes = {SmallN()};
  if (LargeN() > 0) sizes.push_back(LargeN());
  for (const std::int64_t n : sizes) {
    for (const std::int64_t t : threads) b->Args({n, t});
  }
}

template <typename Index>
void Register(const std::string& name) {
  benchmark::RegisterBenchmark(
      ("Build/" + name).c_str(),
      [name](benchmark::State& state) { BM_Build<Index>(state, name); })
      ->Apply(BuildArgs)
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
}

void RegisterAll() {
  Register<OneLayerGrid>("1-layer");
  Register<TwoLayerGrid>("2-layer");
  Register<TwoLayerPlusGrid>("2-layer+");
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
