// Reproduces Fig. 9: window-query throughput on synthetic datasets (uniform
// and zipfian, Table IV), varying (a) the query relative area, (b) the data
// cardinality, and (c) the rectangle area — including the paper's 10^-inf
// point-like case (area 0). Expected shape (paper): the trends of Fig. 8
// carry over; cardinality does not change the relative order; 2-layer(+)
// are more robust to growing object area (no duplicate generation/
// elimination) and keep a stable advantage even for point-like data.

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "datagen/synthetic.h"

namespace {

using namespace tlp;
using namespace tlp::bench;

constexpr double kDefaultDataArea = 1e-10;

std::size_t DefaultCardinality() {
  return static_cast<std::size_t>(
      static_cast<double>(EnvInt64("TLP_CARD_SYNTH", 1000000)) *
      DatasetScale());
}

/// Cached synthetic datasets keyed by (distribution, cardinality, area).
const std::vector<BoxEntry>& SyntheticDataset(SpatialDistribution dist,
                                              std::size_t cardinality,
                                              double area) {
  using Key = std::tuple<int, std::size_t, double>;
  static std::map<Key, std::vector<BoxEntry>>& cache =
      *new std::map<Key, std::vector<BoxEntry>>;
  const Key key{static_cast<int>(dist), cardinality, area};
  auto [it, inserted] = cache.try_emplace(key);
  if (inserted) {
    SyntheticConfig config;
    config.cardinality = cardinality;
    config.area = area;
    config.distribution = dist;
    it->second = GenerateSyntheticRects(config);
  }
  return it->second;
}

const char* DistName(SpatialDistribution d) {
  return d == SpatialDistribution::kUniform ? "uniform" : "zipf";
}

void RegisterSyntheticThroughput(const std::string& name,
                                 SpatialDistribution dist,
                                 std::size_t cardinality, double data_area,
                                 double query_area_percent,
                                 IndexFactory factory,
                                 IndexHolder holder = nullptr) {
  if (holder == nullptr) holder = MakeHolder();
  benchmark::RegisterBenchmark(
      name.c_str(),
      [holder, factory, dist, cardinality, data_area,
       query_area_percent](benchmark::State& state) {
        const auto& data = SyntheticDataset(dist, cardinality, data_area);
        if (*holder == nullptr) *holder = factory(data);
        static std::map<std::string, std::vector<Box>>& qcache =
            *new std::map<std::string, std::vector<Box>>;
        const std::string qkey = std::string(DistName(dist)) + "/" +
                                 std::to_string(cardinality) + "/" +
                                 std::to_string(data_area) + "/" +
                                 std::to_string(query_area_percent);
        auto [qit, qinserted] = qcache.try_emplace(qkey);
        if (qinserted) {
          qit->second = GenerateWindowQueries(
              data, 2000, PercentToFraction(query_area_percent));
        }
        const auto& queries = qit->second;
        std::vector<ObjectId> out;
        std::size_t qi = 0;
        for (auto _ : state) {
          out.clear();
          (*holder)->WindowQuery(queries[qi], &out);
          benchmark::DoNotOptimize(out.data());
          if (++qi == queries.size()) qi = 0;
        }
        state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
      })
      ->MinTime(0.25)
      ->Unit(benchmark::kMicrosecond);
}

void RegisterAll() {
  const auto methods = CoreMethods();
  for (const SpatialDistribution dist :
       {SpatialDistribution::kUniform, SpatialDistribution::kZipfian}) {
    // (a) Query relative area sweep at default cardinality and data area;
    // one index instance per (distribution, method) shared across areas.
    for (const Method& m : methods) {
      auto holder = MakeHolder();
      for (const double area : kQueryAreasPercent) {
        RegisterSyntheticThroughput(
            "Fig9/" + std::string(DistName(dist)) + "/query_area/" + m.name +
                "/area_pct:" + std::to_string(area),
            dist, DefaultCardinality(), kDefaultDataArea, area, m.make,
            holder);
      }
    }
    // (b) Cardinality sweep (paper: 1M..100M, scaled /20 -> 50K..5M; we use
    // a laptop-friendly subset) for the three headline methods.
    for (const Method& m : methods) {
      if (m.name != "1-layer" && m.name != "2-layer" && m.name != "R-tree") {
        continue;
      }
      for (const std::size_t card :
           {DefaultCardinality() / 4, DefaultCardinality() / 2,
            DefaultCardinality(), DefaultCardinality() * 2}) {
        RegisterSyntheticThroughput(
            "Fig9/" + std::string(DistName(dist)) + "/cardinality/" + m.name +
                "/card:" + std::to_string(card),
            dist, card, kDefaultDataArea, kDefaultQueryAreaPercent, m.make);
      }
    }
    // (c) Data rectangle area sweep (10^-inf == 0 models point data).
    for (const Method& m : methods) {
      for (const double data_area : {0.0, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6}) {
        RegisterSyntheticThroughput(
            "Fig9/" + std::string(DistName(dist)) + "/data_area/" + m.name +
                "/rect_area:" + std::to_string(data_area),
            dist, DefaultCardinality(), data_area, kDefaultQueryAreaPercent,
            m.make);
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  tlp::bench::TrajectoryReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  tlp::bench::PrintQueryStatsJson("fig9");
  tlp::bench::AppendBenchTrajectory("fig9_synthetic", reporter.records());
  benchmark::Shutdown();
  return 0;
}
