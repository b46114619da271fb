// The query-statistics layer turns the paper's counting claims into checked
// invariants: the 2-layer indices never generate a duplicate result (Lemmas
// 1-4 => posthoc_dedup == 0 and duplicates_avoided > 0 on multi-tile
// objects), while the 1-layer baselines generate duplicates and eliminate
// them after the fact (posthoc_dedup > 0). Also covers comparison counting
// (Table II), per-thread merging through BatchExecutor, refinement hit/miss
// accounting, exact candidate counts on the bulk interior-tile append and
// the 2-layer+ residual kernel, and the candidates a kNN search fetches.

#include "common/query_stats.h"

#include "gtest/gtest.h"

#include "batch/batch_executor.h"
#include "core/knn.h"
#include "core/refinement.h"
#include "core/two_layer_grid.h"
#include "core/two_layer_plus_grid.h"
#include "datagen/tiger_like.h"
#include "grid/one_layer_grid.h"
#include "tests/test_util.h"

namespace tlp {
namespace {

const Box kUnit{0, 0, 1, 1};

/// Entries with large extents so most objects span several tiles of an 8x8
/// grid — the regime where replication (and thus duplicate handling) matters.
std::vector<BoxEntry> MultiTileEntries() {
  return testing::RandomEntries(600, 0.3, 91, /*point_fraction=*/0.0);
}

std::vector<Box> MultiTileWindows() { return testing::RandomWindows(80, 92); }

/// Starts every test from a zeroed accumulator on the test thread.
class EnabledQueryStatsTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetQueryStats(); }
};

TEST_F(EnabledQueryStatsTest, TwoLayerAvoidsDuplicatesByConstruction) {
  const auto entries = MultiTileEntries();
  TwoLayerGrid grid(GridLayout(kUnit, 8, 8));
  grid.Build(entries);
  const auto windows = MultiTileWindows();
  for (const Box& w : windows) {
    testing::CheckWindowAgainstBruteForce(grid, entries, w);
  }
  const QueryStats s = GetQueryStats();
  // Lemmas 1-4 as invariants: replicas are skipped up front, never
  // generated-then-eliminated.
  EXPECT_EQ(s.posthoc_dedup, 0u);
  EXPECT_GT(s.duplicates_avoided, 0u);
  EXPECT_EQ(s.queries, windows.size());
  EXPECT_GT(s.tiles_visited, 0u);
  EXPECT_GT(s.comparisons, 0u);
  EXPECT_GT(s.candidates, 0u);
  EXPECT_GT(s.query_seconds, 0.0);
  // Two-layer scans are classed; the flat counter belongs to 1-layer tiles.
  EXPECT_GT(s.scanned_class[0], 0u);  // class A always scanned
  EXPECT_EQ(s.scanned_flat, 0u);
}

TEST_F(EnabledQueryStatsTest, OneLayerHashReportsPosthocDedup) {
  const auto entries = MultiTileEntries();
  OneLayerGrid grid(GridLayout(kUnit, 8, 8), DedupPolicy::kHash);
  grid.Build(entries);
  for (const Box& w : MultiTileWindows()) {
    testing::CheckWindowAgainstBruteForce(grid, entries, w);
  }
  const QueryStats s = GetQueryStats();
  // The hash baseline generates duplicate results and pays to remove them.
  EXPECT_GT(s.posthoc_dedup, 0u);
  // A flat grid has no classes to skip, so it can never avoid a replica.
  EXPECT_EQ(s.duplicates_avoided, 0u);
  EXPECT_GT(s.scanned_flat, 0u);
  EXPECT_EQ(s.scanned_class[0] + s.scanned_class[1] + s.scanned_class[2] +
                s.scanned_class[3],
            0u);
}

TEST_F(EnabledQueryStatsTest, OneLayerReferencePointReportsPosthocDedup) {
  const auto entries = MultiTileEntries();
  OneLayerGrid grid(GridLayout(kUnit, 8, 8), DedupPolicy::kReferencePoint);
  grid.Build(entries);
  for (const Box& w : MultiTileWindows()) {
    testing::CheckWindowAgainstBruteForce(grid, entries, w);
  }
  // Reference-point dedup also finds every duplicate copy first and then
  // discards all but one — post-hoc elimination, merely cheaper per copy.
  EXPECT_GT(GetQueryStats().posthoc_dedup, 0u);
}

TEST_F(EnabledQueryStatsTest, TwoLayerExecutesNoMoreComparisonsThanOneLayer) {
  // Table II, measured: on an identical layout and workload the 2-layer
  // evaluation executes at most as many endpoint comparisons as the 1-layer
  // baseline, because it scans fewer replicas under weaker masks.
  const auto entries = MultiTileEntries();
  const GridLayout layout(kUnit, 8, 8);
  TwoLayerGrid two(layout);
  two.Build(entries);
  OneLayerGrid one(layout, DedupPolicy::kReferencePoint);
  one.Build(entries);
  const auto windows = MultiTileWindows();

  std::vector<ObjectId> out;
  for (const Box& w : windows) two.WindowQuery(w, &out);
  const std::uint64_t two_cmp = GetQueryStats().comparisons;
  const std::uint64_t two_scanned = GetQueryStats().scanned_total();

  ResetQueryStats();
  out.clear();
  for (const Box& w : windows) one.WindowQuery(w, &out);
  const std::uint64_t one_cmp = GetQueryStats().comparisons;
  const std::uint64_t one_scanned = GetQueryStats().scanned_total();

  EXPECT_LE(two_cmp, one_cmp);
  EXPECT_LE(two_scanned, one_scanned);
}

TEST_F(EnabledQueryStatsTest, TwoLayerPlusCountsBinarySearchProbes) {
  const auto entries = MultiTileEntries();
  TwoLayerPlusGrid grid(GridLayout(kUnit, 8, 8));
  grid.Build(entries);
  for (const Box& w : MultiTileWindows()) {
    testing::CheckWindowAgainstBruteForce(grid, entries, w);
  }
  const QueryStats s = GetQueryStats();
  EXPECT_GT(s.binary_search_probes, 0u);
  EXPECT_GT(s.duplicates_avoided, 0u);
  EXPECT_EQ(s.posthoc_dedup, 0u);
}

/// Windows whose tile ranges hold interior tiles (3+ columns and rows on an
/// 8x8 grid): the bulk class-A append of TwoLayerGrid and the mask-0 table
/// copy of 2-layer+.
std::vector<Box> InteriorTileWindows() {
  Rng rng(98);
  std::vector<Box> windows;
  for (int k = 0; k < 40; ++k) {
    const double x = rng.Uniform(0.0, 0.5);
    const double y = rng.Uniform(0.0, 0.5);
    windows.push_back(Box{x, y, x + rng.Uniform(0.4, 0.5),
                          y + rng.Uniform(0.4, 0.5)});
  }
  return windows;
}

/// Windows strictly inside one tile of `g`: every 2-layer+ class is
/// evaluated under the full mask, leaving classes A, B and C two or three
/// residual comparisons for the 4-box kernel.
std::vector<Box> SingleTileWindows(const GridLayout& g) {
  Rng rng(99);
  std::vector<Box> windows;
  for (int k = 0; k < 40; ++k) {
    const Box t = g.TileBox(static_cast<std::uint32_t>(rng.NextBelow(g.nx())),
                            static_cast<std::uint32_t>(rng.NextBelow(g.ny())));
    const double x = rng.Uniform(t.xl + 0.1 * t.width(),
                                 t.xl + 0.5 * t.width());
    const double y = rng.Uniform(t.yl + 0.1 * t.height(),
                                 t.yl + 0.5 * t.height());
    windows.push_back(Box{x, y, x + 0.4 * t.width(), y + 0.4 * t.height()});
  }
  return windows;
}

TEST_F(EnabledQueryStatsTest, CandidatesEqualResultsOnEveryScanPath) {
  const auto entries = MultiTileEntries();
  const GridLayout layout(kUnit, 8, 8);
  TwoLayerGrid two(layout);
  two.Build(entries);
  TwoLayerPlusGrid plus(layout);
  plus.Build(entries);
  std::vector<Box> windows = InteriorTileWindows();
  for (const Box& w : SingleTileWindows(layout)) windows.push_back(w);
  for (const Box& w : MultiTileWindows()) windows.push_back(w);

  const auto check = [&](const SpatialIndex& index) {
    for (const Box& w : windows) {
      ResetQueryStats();
      std::vector<ObjectId> out;
      index.WindowQuery(w, &out);
      const QueryStats s = GetQueryStats();
      EXPECT_EQ(s.queries, 1u);
      EXPECT_EQ(s.candidates, out.size());
      EXPECT_GE(s.scanned_total(), s.candidates);
      EXPECT_EQ(s.posthoc_dedup, 0u);
    }
  };
  check(two);
  check(plus);
}

TEST_F(EnabledQueryStatsTest, InteriorTileAppendAccountsLikeTheScan) {
  // WindowCandidates scans interior tiles through ScanTile with mask 0;
  // WindowQuery appends their class-A ids in bulk. Every counter must agree.
  const auto entries = MultiTileEntries();
  TwoLayerGrid grid(GridLayout(kUnit, 8, 8));
  grid.Build(entries);
  for (const Box& w : InteriorTileWindows()) {
    ResetQueryStats();
    std::vector<ObjectId> ids;
    grid.WindowQuery(w, &ids);
    const QueryStats bulk = GetQueryStats();
    ResetQueryStats();
    std::vector<Candidate> candidates;
    grid.WindowCandidates(w, &candidates);
    const QueryStats scanned = GetQueryStats();
    ASSERT_EQ(ids.size(), candidates.size());
    EXPECT_EQ(bulk.tiles_visited, scanned.tiles_visited);
    for (int c = 0; c < 4; ++c) {
      EXPECT_EQ(bulk.scanned_class[c], scanned.scanned_class[c]) << c;
    }
    EXPECT_EQ(bulk.comparisons, scanned.comparisons);
    EXPECT_EQ(bulk.duplicates_avoided, scanned.duplicates_avoided);
    EXPECT_EQ(bulk.candidates, scanned.candidates);
  }
}

TEST_F(EnabledQueryStatsTest, TwoLayerPlusCountsEveryResidualComparison) {
  // Inside one tile the masks are A: 15, B: 7, C: 13, D: 5; the sorted-table
  // search settles one comparison and the rest are residual, decided for
  // every entry of the searched range.
  const auto entries = MultiTileEntries();
  const GridLayout layout(kUnit, 8, 8);
  TwoLayerPlusGrid grid(layout);
  grid.Build(entries);
  for (const Box& w : SingleTileWindows(layout)) {
    const TileRange range = layout.TilesFor(w);
    ASSERT_EQ(range.i0, range.i1);
    ASSERT_EQ(range.j0, range.j1);
    ResetQueryStats();
    testing::CheckWindowAgainstBruteForce(grid, entries, w);
    const QueryStats s = GetQueryStats();
    EXPECT_EQ(s.comparisons,
              3 * s.scanned_class[0] + 2 * s.scanned_class[1] +
                  2 * s.scanned_class[2] + s.scanned_class[3]);
  }
}

TEST_F(EnabledQueryStatsTest, DiskQueriesFollowTheSameDuplicateContract) {
  const auto entries = MultiTileEntries();
  const GridLayout layout(kUnit, 8, 8);
  TwoLayerGrid two(layout);
  two.Build(entries);
  OneLayerGrid one_hash(layout, DedupPolicy::kHash);
  one_hash.Build(entries);

  Rng rng(93);
  std::vector<ObjectId> out;
  for (int k = 0; k < 40; ++k) {
    testing::CheckDiskAgainstBruteForce(
        two, entries, Point{rng.NextDouble(), rng.NextDouble()},
        0.1 + rng.NextDouble() * 0.3);
  }
  const QueryStats two_stats = GetQueryStats();
  EXPECT_EQ(two_stats.posthoc_dedup, 0u);
  EXPECT_GT(two_stats.duplicates_avoided, 0u);

  ResetQueryStats();
  Rng rng2(93);
  for (int k = 0; k < 40; ++k) {
    out.clear();
    one_hash.DiskQuery(Point{rng2.NextDouble(), rng2.NextDouble()},
                       0.1 + rng2.NextDouble() * 0.3, &out);
  }
  EXPECT_GT(GetQueryStats().posthoc_dedup, 0u);
}

/// kNN fetches O(k) candidates, not O(tiles): on servebench's data shape
/// (16 objects per tile, object side a quarter tile) the density-derived
/// seed radius expects ~2*k objects in its first disk, and the search
/// fetches ~3*k here (30 per query). The old seed, 2 * tile * sqrt(k),
/// fetched ~180*k (1,784 per query). The count is deterministic, so a seed
/// regression fails this test instead of only a benchmark.
TEST_F(EnabledQueryStatsTest, KnnFetchesFewCandidatesOnUniformData) {
  constexpr std::uint32_t kDim = 32;
  constexpr std::size_t kObjects = 16 * kDim * kDim;
  constexpr double kSide = 1.0 / (4 * kDim);
  Rng rng(95);
  std::vector<BoxEntry> entries;
  for (std::size_t n = 0; n < kObjects; ++n) {
    const double x = rng.NextDouble() * (1 - kSide);
    const double y = rng.NextDouble() * (1 - kSide);
    entries.push_back(
        BoxEntry{Box{x, y, x + kSide, y + kSide}, static_cast<ObjectId>(n)});
  }
  TwoLayerGrid grid(GridLayout(kUnit, kDim, kDim));
  grid.Build(entries);

  constexpr std::size_t kK = 10;
  constexpr std::size_t kQueries = 100;
  ResetQueryStats();
  for (std::size_t t = 0; t < kQueries; ++t) {
    const Point q{rng.NextDouble(), rng.NextDouble()};
    ASSERT_EQ(KnnQuery(grid, q, kK).size(), kK);
  }
  const double mean_candidates =
      static_cast<double>(GetQueryStats().candidates) / kQueries;
  EXPECT_GE(mean_candidates, static_cast<double>(kK));
  EXPECT_LT(mean_candidates, 10.0 * kK);
}

TEST_F(EnabledQueryStatsTest, BatchExecutorMergesWorkerStatsOnWait) {
  const auto entries = MultiTileEntries();
  TwoLayerGrid grid(GridLayout(kUnit, 8, 8));
  grid.Build(entries);
  const auto windows = MultiTileWindows();

  BatchExecutor::RunQueriesBased(grid, windows, /*num_threads=*/1);
  const QueryStats sequential = GetQueryStats();
  ASSERT_GT(sequential.tiles_visited, 0u);

  // Same workload on 4 workers: every counter the workers accumulate must be
  // merged back into the caller, giving identical batch-wide totals.
  ResetQueryStats();
  BatchExecutor::RunQueriesBased(grid, windows, /*num_threads=*/4);
  const QueryStats threaded = GetQueryStats();
  EXPECT_EQ(threaded.tiles_visited, sequential.tiles_visited);
  EXPECT_EQ(threaded.candidates, sequential.candidates);
  EXPECT_EQ(threaded.comparisons, sequential.comparisons);
  EXPECT_EQ(threaded.duplicates_avoided, sequential.duplicates_avoided);

  // Tiles-based regrouping evaluates the same (tile, query) subtasks.
  ResetQueryStats();
  BatchExecutor::RunTilesBased(grid, windows, /*num_threads=*/4);
  const QueryStats tiles_based = GetQueryStats();
  EXPECT_EQ(tiles_based.tiles_visited, sequential.tiles_visited);
  EXPECT_EQ(tiles_based.candidates, sequential.candidates);
}

TEST_F(EnabledQueryStatsTest, RefinementCountsHitsAndMisses) {
  TigerConfig config;
  config.flavor = TigerFlavor::kTiger;
  config.cardinality = 3000;
  config.seed = 94;
  const GeometryStore store = GenerateTigerLike(config);
  TwoLayerGrid grid(GridLayout(kUnit, 16, 16));
  grid.Build(store.AllEntries());
  RefinementEngine engine(grid, store);

  ResetQueryStats();
  std::vector<ObjectId> out;
  for (const Box& w : testing::RandomWindows(30, 95)) {
    out.clear();
    engine.WindowQueryExact(w, RefinementMode::kRefAvoid, &out);
  }
  // Lemma 5 secondary filtering accepts candidates without the exact test.
  // (Window misses need an object straddling a window *corner* — too rare
  // with TIGER-like tiny objects to assert on; disks cover misses below.)
  EXPECT_GT(GetQueryStats().refine_hits, 0u);

  // Disk queries: objects straddling the circular boundary fail the
  // two-corner guarantee, so both hits and misses occur.
  ResetQueryStats();
  Rng rng(97);
  for (int k = 0; k < 30; ++k) {
    out.clear();
    engine.DiskQueryExact(Point{rng.NextDouble(), rng.NextDouble()},
                          0.05 + rng.NextDouble() * 0.2,
                          RefinementMode::kRefAvoid, &out);
  }
  const QueryStats s = GetQueryStats();
  EXPECT_GT(s.refine_hits, 0u);
  EXPECT_GT(s.refine_misses, 0u);

  // Simple mode refines everything: no hits by definition.
  ResetQueryStats();
  for (const Box& w : testing::RandomWindows(10, 96)) {
    out.clear();
    engine.WindowQueryExact(w, RefinementMode::kSimple, &out);
  }
  EXPECT_EQ(GetQueryStats().refine_hits, 0u);
  EXPECT_GT(GetQueryStats().refine_misses, 0u);
}

TEST_F(EnabledQueryStatsTest, JsonSnapshotCarriesTheSchema) {
  TwoLayerGrid grid(GridLayout(kUnit, 4, 4));
  grid.Insert(BoxEntry{Box{0.3, 0.3, 0.7, 0.7}, 1});
  std::vector<ObjectId> out;
  grid.WindowQuery(kUnit, &out);
  const std::string json = GetQueryStats().ToJson("unit");
  EXPECT_NE(json.find("\"label\": \"unit\""), std::string::npos);
  EXPECT_EQ(json.find("\"enabled\""), std::string::npos);
  EXPECT_NE(json.find("\"tiles_visited\""), std::string::npos);
  EXPECT_NE(json.find("\"duplicates_avoided\""), std::string::npos);
  EXPECT_NE(json.find("\"posthoc_dedup\""), std::string::npos);
}

}  // namespace
}  // namespace tlp
