#include "core/two_layer_grid.h"

#include <limits>
#include <stdexcept>
#include <tuple>

#include "gtest/gtest.h"

#include "tests/test_util.h"

namespace tlp {
namespace {

const Box kUnit{0, 0, 1, 1};

TEST(TwoLayerGridTest, EmptyGridReturnsNothing) {
  TwoLayerGrid grid(GridLayout(kUnit, 8, 8));
  std::vector<ObjectId> out;
  grid.WindowQuery(Box{0.1, 0.1, 0.9, 0.9}, &out);
  EXPECT_TRUE(out.empty());
  grid.DiskQuery(Point{0.5, 0.5}, 0.3, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(grid.entry_count(), 0u);
}

TEST(TwoLayerGridTest, SingleObjectAllWindowPositions) {
  TwoLayerGrid grid(GridLayout(kUnit, 4, 4));
  const Box r{0.3, 0.3, 0.7, 0.7};  // spans tiles (1,1)-(2,2)
  grid.Build({BoxEntry{r, 7}});
  EXPECT_EQ(grid.entry_count(), 4u);
  EXPECT_EQ(grid.ClassCount(1, 1, ObjectClass::kA), 1u);
  EXPECT_EQ(grid.ClassCount(2, 1, ObjectClass::kC), 1u);
  EXPECT_EQ(grid.ClassCount(1, 2, ObjectClass::kB), 1u);
  EXPECT_EQ(grid.ClassCount(2, 2, ObjectClass::kD), 1u);

  // Sweep many windows; the object must be reported exactly once whenever
  // the window intersects it, never otherwise.
  for (int xi = 0; xi < 10; ++xi) {
    for (int yi = 0; yi < 10; ++yi) {
      const Box w{xi * 0.1, yi * 0.1, xi * 0.1 + 0.15, yi * 0.1 + 0.15};
      std::vector<ObjectId> out;
      grid.WindowQuery(w, &out);
      if (r.Intersects(w)) {
        ASSERT_EQ(out.size(), 1u) << "window " << xi << "," << yi;
        EXPECT_EQ(out[0], 7u);
      } else {
        EXPECT_TRUE(out.empty()) << "window " << xi << "," << yi;
      }
    }
  }
}

TEST(TwoLayerGridTest, ClassAExtentBoundsTheClassAEntries) {
  TwoLayerGrid grid(GridLayout(kUnit, 4, 4));
  const Box r{0.3, 0.3, 0.7, 0.7};  // class A in (1,1) only
  grid.Build({BoxEntry{r, 7}});
  EXPECT_EQ(grid.ClassAExtent(1, 1), r);
  EXPECT_TRUE(grid.ClassAExtent(2, 1).IsEmpty());  // holds r as class C
  EXPECT_TRUE(grid.ClassAExtent(0, 0).IsEmpty());

  // Insert grows the extent of the class-A tile only.
  const Box s{0.26, 0.4, 0.3, 0.45};
  grid.Insert(BoxEntry{s, 8});
  EXPECT_EQ(grid.ClassAExtent(1, 1), (Box{0.26, 0.3, 0.7, 0.7}));
  EXPECT_TRUE(grid.CheckInvariants());

  // Delete keeps the (now loose) superset; a rebuild makes it exact again.
  ASSERT_TRUE(grid.Delete(7, r));
  EXPECT_EQ(grid.ClassAExtent(1, 1), (Box{0.26, 0.3, 0.7, 0.7}));
  EXPECT_TRUE(grid.CheckInvariants());
  grid.Build({BoxEntry{s, 8}});
  EXPECT_EQ(grid.ClassAExtent(1, 1), s);

  // A NaN coordinate or an inverted box (stored in no tile, so lost) is
  // rejected on both paths, before anything changes, so no extent ever
  // has to bound one.
  constexpr Coord nan = std::numeric_limits<Coord>::quiet_NaN();
  for (const BoxEntry& odd : {BoxEntry{Box{0.3, nan, 0.4, nan}, 9},
                              BoxEntry{Box{0.6, 0.2, 0.4, 0.3}, 9},
                              BoxEntry{Box{0.3, 0.4, 0.4, 0.2}, 9}}) {
    EXPECT_THROW(grid.Insert(odd), std::invalid_argument);
    EXPECT_THROW(grid.Build({BoxEntry{s, 8}, odd}), std::invalid_argument);
  }
  EXPECT_TRUE(grid.ClassAExtent(1, 0).IsEmpty());
  EXPECT_EQ(grid.ClassAExtent(1, 1), s);
  EXPECT_EQ(grid.object_count(), 1u);
  EXPECT_TRUE(grid.CheckInvariants());
  std::vector<ObjectId> ids;
  grid.WindowQuery(kUnit, &ids);
  EXPECT_EQ(ids, std::vector<ObjectId>{8});
}

TEST(TwoLayerGridTest, BuildMatchesIncrementalInsert) {
  const auto entries = testing::RandomEntries(400, 0.2, 17);
  TwoLayerGrid bulk(GridLayout(kUnit, 8, 8));
  bulk.Build(entries);
  TwoLayerGrid incremental(GridLayout(kUnit, 8, 8));
  for (const BoxEntry& e : entries) incremental.Insert(e);
  EXPECT_EQ(bulk.entry_count(), incremental.entry_count());
  for (const Box& w : testing::RandomWindows(50, 18)) {
    std::vector<ObjectId> a, b;
    bulk.WindowQuery(w, &a);
    incremental.WindowQuery(w, &b);
    testing::ExpectSameIdSet(a, b);
  }
}

TEST(TwoLayerGridTest, CandidatesMatchWindowQueryAndFlagsAreSound) {
  const auto entries = testing::RandomEntries(500, 0.15, 23);
  TwoLayerGrid grid(GridLayout(kUnit, 16, 16));
  grid.Build(entries);
  for (const Box& w : testing::RandomWindows(60, 24)) {
    std::vector<ObjectId> ids;
    grid.WindowQuery(w, &ids);
    std::vector<Candidate> cands;
    grid.WindowCandidates(w, &cands);
    std::vector<ObjectId> cand_ids;
    for (const Candidate& c : cands) {
      cand_ids.push_back(c.id);
      // Soundness of the §V implied flags.
      if (c.x_start_implied) {
        EXPECT_LT(w.xl, c.box.xl + 1e-15);
      }
      if (c.y_start_implied) {
        EXPECT_LT(w.yl, c.box.yl + 1e-15);
      }
      EXPECT_EQ(c.box, entries[c.id].box);
    }
    testing::ExpectSameIdSet(ids, cand_ids);
  }
}

TEST(TwoLayerGridTest, WindowOnTileBoundaries) {
  TwoLayerGrid grid(GridLayout(kUnit, 4, 4));
  const auto entries = testing::RandomEntries(300, 0.3, 29);
  grid.Build(entries);
  // Windows aligned exactly on tile boundaries exercise the closed/half-open
  // corner cases of the lemmas.
  const Box boundary_windows[] = {
      Box{0.25, 0.25, 0.5, 0.5},  Box{0.0, 0.0, 0.25, 0.25},
      Box{0.75, 0.75, 1.0, 1.0},  Box{0.25, 0.0, 0.25, 1.0},
      Box{0.0, 0.5, 1.0, 0.5},    Box{0.5, 0.5, 0.75, 0.75},
  };
  for (const Box& w : boundary_windows) {
    testing::CheckWindowAgainstBruteForce(grid, entries, w, "boundary");
  }
}

TEST(TwoLayerGridTest, ObjectsOnTileBoundaries) {
  TwoLayerGrid grid(GridLayout(kUnit, 4, 4));
  // Objects whose edges lie exactly on tile boundaries.
  const std::vector<BoxEntry> entries = {
      {Box{0.25, 0.25, 0.5, 0.5}, 0},   // aligned to tile (1,1)
      {Box{0.0, 0.0, 0.25, 0.25}, 1},   // touches (1,1) at a corner
      {Box{0.5, 0.0, 0.5, 1.0}, 2},     // degenerate vertical line on border
      {Box{0.0, 0.75, 1.0, 0.75}, 3},   // degenerate horizontal line
      {Box{0.0, 0.0, 1.0, 1.0}, 4},     // whole domain
      {Box{1.0, 1.0, 1.0, 1.0}, 5},     // point on the far corner
      {Box{0.0, 0.0, 0.0, 0.0}, 6},     // point on the origin
  };
  grid.Build(entries);
  for (const Box& w : testing::RandomWindows(80, 31)) {
    testing::CheckWindowAgainstBruteForce(grid, entries, w, "aligned objs");
  }
}

struct GridCase {
  std::uint32_t nx, ny;
  double max_extent;
  std::uint64_t seed;
};

class TwoLayerGridOracleTest : public ::testing::TestWithParam<GridCase> {};

TEST_P(TwoLayerGridOracleTest, WindowsMatchBruteForce) {
  const GridCase& p = GetParam();
  const auto entries = testing::RandomEntries(600, p.max_extent, p.seed);
  TwoLayerGrid grid(GridLayout(kUnit, p.nx, p.ny));
  grid.Build(entries);
  for (const Box& w : testing::RandomWindows(60, p.seed + 1)) {
    testing::CheckWindowAgainstBruteForce(grid, entries, w);
  }
}

TEST_P(TwoLayerGridOracleTest, DisksMatchBruteForce) {
  const GridCase& p = GetParam();
  const auto entries = testing::RandomEntries(600, p.max_extent, p.seed);
  TwoLayerGrid grid(GridLayout(kUnit, p.nx, p.ny));
  grid.Build(entries);
  Rng rng(p.seed + 2);
  for (int k = 0; k < 60; ++k) {
    const Point q{rng.NextDouble(), rng.NextDouble()};
    const Coord radius = rng.NextDouble() * rng.NextDouble() * 0.4;
    testing::CheckDiskAgainstBruteForce(grid, entries, q, radius);
  }
  // Degenerate radii.
  testing::CheckDiskAgainstBruteForce(grid, entries, Point{0.5, 0.5}, 0);
  testing::CheckDiskAgainstBruteForce(grid, entries, Point{0.5, 0.5}, 2.0);
  // Center outside the domain.
  testing::CheckDiskAgainstBruteForce(grid, entries, Point{-0.2, 0.5}, 0.3);
  testing::CheckDiskAgainstBruteForce(grid, entries, Point{1.4, 1.4}, 0.6);
}

INSTANTIATE_TEST_SUITE_P(
    Granularities, TwoLayerGridOracleTest,
    ::testing::Values(GridCase{1, 1, 0.2, 100}, GridCase{2, 3, 0.2, 101},
                      GridCase{8, 8, 0.2, 102}, GridCase{16, 16, 0.05, 103},
                      GridCase{64, 64, 0.02, 104}, GridCase{5, 31, 0.1, 105},
                      GridCase{128, 128, 0.5, 106},
                      GridCase{16, 16, 0.0, 107}),
    [](const ::testing::TestParamInfo<GridCase>& param_info) {
      std::string name = "g";
      name += std::to_string(param_info.param.nx);
      name += "x";
      name += std::to_string(param_info.param.ny);
      name += "_s";
      name += std::to_string(param_info.param.seed);
      return name;
    });

}  // namespace
}  // namespace tlp
