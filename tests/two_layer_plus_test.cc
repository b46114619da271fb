#include "core/two_layer_plus_grid.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "gtest/gtest.h"

#include "common/query_stats.h"
#include "tests/test_util.h"

namespace tlp {
namespace {

const Box kUnit{0, 0, 1, 1};

TEST(TwoLayerPlusGridTest, WindowsMatchBruteForce) {
  const auto entries = testing::RandomEntries(700, 0.2, 51);
  TwoLayerPlusGrid grid(GridLayout(kUnit, 12, 12));
  grid.Build(entries);
  for (const Box& w : testing::RandomWindows(100, 52)) {
    testing::CheckWindowAgainstBruteForce(grid, entries, w);
  }
}

TEST(TwoLayerPlusGridTest, MatchesRecordBasedTwoLayer) {
  const auto entries = testing::RandomEntries(500, 0.15, 53);
  TwoLayerPlusGrid plus(GridLayout(kUnit, 16, 16));
  plus.Build(entries);
  TwoLayerGrid plain(GridLayout(kUnit, 16, 16));
  plain.Build(entries);
  for (const Box& w : testing::RandomWindows(60, 54)) {
    std::vector<ObjectId> a, b;
    plus.WindowQuery(w, &a);
    plain.WindowQuery(w, &b);
    testing::ExpectSameIdSet(b, a);
  }
}

TEST(TwoLayerPlusGridTest, DisksMatchBruteForce) {
  const auto entries = testing::RandomEntries(500, 0.2, 55);
  TwoLayerPlusGrid grid(GridLayout(kUnit, 10, 10));
  grid.Build(entries);
  Rng rng(56);
  for (int k = 0; k < 40; ++k) {
    const Point q{rng.NextDouble(), rng.NextDouble()};
    testing::CheckDiskAgainstBruteForce(grid, entries, q,
                                        rng.NextDouble() * 0.3);
  }
}

TEST(TwoLayerPlusGridTest, InsertKeepsTablesSorted) {
  TwoLayerPlusGrid grid(GridLayout(kUnit, 8, 8));
  const auto entries = testing::RandomEntries(300, 0.2, 57);
  for (const BoxEntry& e : entries) grid.Insert(e);
  for (const Box& w : testing::RandomWindows(60, 58)) {
    testing::CheckWindowAgainstBruteForce(grid, entries, w, "insert-only");
  }
}

TEST(TwoLayerPlusGridTest, MixedBuildAndInsert) {
  auto entries = testing::RandomEntries(400, 0.2, 59);
  const std::vector<BoxEntry> first(entries.begin(), entries.begin() + 300);
  TwoLayerPlusGrid grid(GridLayout(kUnit, 8, 8));
  grid.Build(first);
  for (std::size_t k = 300; k < entries.size(); ++k) grid.Insert(entries[k]);
  for (const Box& w : testing::RandomWindows(60, 60)) {
    testing::CheckWindowAgainstBruteForce(grid, entries, w, "mixed");
  }
}

TEST(TwoLayerPlusGridTest, StoresMoreThanRecordLayout) {
  const auto entries = testing::RandomEntries(1000, 0.1, 61);
  TwoLayerPlusGrid plus(GridLayout(kUnit, 8, 8));
  plus.Build(entries);
  TwoLayerGrid plain(GridLayout(kUnit, 8, 8));
  plain.Build(entries);
  // The decomposed copy makes 2-layer+ strictly larger (paper §VII-B).
  EXPECT_GT(plus.SizeBytes(), plain.SizeBytes());
}

TEST(TwoLayerPlusGridTest, FullDomainAndTinyWindows) {
  const auto entries = testing::RandomEntries(300, 0.3, 63);
  TwoLayerPlusGrid grid(GridLayout(kUnit, 6, 6));
  grid.Build(entries);
  testing::CheckWindowAgainstBruteForce(grid, entries, kUnit, "full");
  testing::CheckWindowAgainstBruteForce(
      grid, entries, Box{0.5, 0.5, 0.5, 0.5}, "point");
  testing::CheckWindowAgainstBruteForce(
      grid, entries, Box{0.999, 0.999, 1.0, 1.0}, "corner");
}

// Regression (plan chooser, §IV-C): a NaN kept-fraction estimate — here from
// a window with a NaN lower y edge — used to WIN the plan selection, because
// NaN comparisons are false and std::max(0.0, NaN) clamped it to 0.0. The
// chosen "search" then ran with a NaN bound, degenerating to a full-table
// scan. NaN must lose deterministically and the selective finite plan (the
// x lower-end comparison below, keeping ~5% of the tile) must be picked.
TEST(TwoLayerPlusGridTest, PlanChooserMakesNaNEstimatesLose) {
  constexpr Coord kNaN = std::numeric_limits<Coord>::quiet_NaN();
  TwoLayerPlusGrid grid(GridLayout(kUnit, 1, 1));
  std::vector<BoxEntry> entries;
  for (std::size_t k = 0; k < 100; ++k) {
    const Coord x = 0.005 + static_cast<Coord>(k) * 0.008;  // xu <= ~0.81
    entries.push_back(
        BoxEntry{Box{x, 0.4, x + 0.01, 0.5}, static_cast<ObjectId>(k)});
  }
  // The only three entries reaching past 0.95: exactly what a binary search
  // on xu >= w.xl keeps.
  entries.push_back(BoxEntry{Box{0.96, 0.10, 0.97, 0.20}, 100});
  entries.push_back(BoxEntry{Box{0.20, 0.60, 0.98, 0.70}, 101});
  entries.push_back(BoxEntry{Box{0.50, 0.80, 0.99, 0.90}, 102});
  grid.Build(entries);

  // yl = NaN poisons the y lower-end estimate; the x lower-end estimate is a
  // selective (1 - 0.95) / 1 = 0.05. Scalar comparison semantics keep every
  // entry against a NaN window edge, so the result set is well defined no
  // matter which plan runs — only the scan volume distinguishes them.
  const Box w{0.95, kNaN, 2.0, 2.0};
  ResetQueryStats();
  std::vector<ObjectId> out;
  grid.WindowQuery(w, &out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<ObjectId>{100, 101, 102}));
  // Pin the plan via the scan volume: the xu-search touches exactly the
  // three far-right entries; the NaN plan scanned all 103.
  EXPECT_EQ(GetQueryStats().scanned_total(), 3u);
}

// All four estimates NaN at once: the fixed consideration order (xu, xl, yu,
// yl) must make the choice deterministic, the NaN-bound searches must not
// crash or cut entries, and the result must match the record-layout grid's
// scalar semantics on the same window.
TEST(TwoLayerPlusGridTest, AllNaNWindowIsDeterministicAndSafe) {
  constexpr Coord kNaN = std::numeric_limits<Coord>::quiet_NaN();
  const auto entries = testing::RandomEntries(200, 0.1, 67);
  TwoLayerPlusGrid plus(GridLayout(kUnit, 8, 8));
  plus.Build(entries);
  TwoLayerGrid plain(GridLayout(kUnit, 8, 8));
  plain.Build(entries);
  const Box w{kNaN, kNaN, kNaN, kNaN};
  std::vector<ObjectId> a, b;
  plus.WindowQuery(w, &a);
  plain.WindowQuery(w, &b);
  testing::ExpectSameIdSet(b, a, "all-NaN window");
}

// Degenerate but finite windows (zero area, inverted) must keep finite
// clamped estimates and exact results.
TEST(TwoLayerPlusGridTest, DegenerateWindowsMatchBruteForce) {
  const auto entries = testing::RandomEntries(400, 0.15, 68);
  TwoLayerPlusGrid grid(GridLayout(kUnit, 9, 9));
  grid.Build(entries);
  testing::CheckWindowAgainstBruteForce(grid, entries,
                                        Box{0.42, 0.17, 0.42, 0.17}, "point");
  testing::CheckWindowAgainstBruteForce(grid, entries,
                                        Box{0.1, 0.6, 0.9, 0.6}, "segment");
}

}  // namespace
}  // namespace tlp
