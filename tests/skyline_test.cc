// Differential tests for the skyline query (core/skyline.h): the
// index-accelerated class-A sweep with tile lower-bound pruning must
// reproduce the O(n^2) brute-force skyline bit for bit — same entries,
// same (dx, dy) attributes, id order — under regions, predicates,
// attribute ties, and entries clamped from outside the domain.

#include "core/skyline.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "gtest/gtest.h"

#include "common/query_stats.h"
#include "tests/test_util.h"

namespace tlp {
namespace {

const Box kUnit{0, 0, 1, 1};

// Same per-axis distance expression as the implementation so the comparison
// is bit-identical, not approximate.
Coord AxisDistance(Coord lo, Coord hi, Coord v) {
  return std::max({lo - v, Coord{0}, v - hi});
}

bool Dominates(const SkylineEntry& a, const SkylineEntry& b) {
  return a.dx <= b.dx && a.dy <= b.dy && (a.dx < b.dx || a.dy < b.dy);
}

std::vector<SkylineEntry> BruteForceSkyline(
    const std::vector<BoxEntry>& data, const Point& q,
    const Box* region = nullptr, const EntryPredicate& keep = {}) {
  std::vector<SkylineEntry> in;
  for (const BoxEntry& e : data) {
    if (region != nullptr && !e.box.Intersects(*region)) continue;
    if (keep && !keep(e)) continue;
    in.push_back(SkylineEntry{e, AxisDistance(e.box.xl, e.box.xu, q.x),
                              AxisDistance(e.box.yl, e.box.yu, q.y)});
  }
  std::vector<SkylineEntry> sky;
  for (const SkylineEntry& c : in) {
    const bool dominated = std::any_of(
        in.begin(), in.end(),
        [&](const SkylineEntry& o) { return Dominates(o, c); });
    if (!dominated) sky.push_back(c);
  }
  std::sort(sky.begin(), sky.end(),
            [](const SkylineEntry& a, const SkylineEntry& b) {
              return a.entry.id < b.entry.id;
            });
  return sky;
}

void ExpectNoDuplicateIds(const std::vector<SkylineEntry>& sky) {
  std::vector<ObjectId> ids;
  for (const SkylineEntry& s : sky) ids.push_back(s.entry.id);
  std::sort(ids.begin(), ids.end());
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end())
      << "duplicate ids in skyline";
}

TEST(SkylineTest, MatchesBruteForceOnRandomData) {
  const auto data = testing::RandomEntries(900, 0.05, 411);
  TwoLayerGrid grid(GridLayout(kUnit, 16, 16));
  grid.Build(data);
  Rng rng(412);
  for (int t = 0; t < 40; ++t) {
    // Queries inside and well outside the domain.
    const Point q{rng.NextDouble() * 2.4 - 0.7, rng.NextDouble() * 2.4 - 0.7};
    const auto got = SkylineQuery(grid, q);
    EXPECT_EQ(got, BruteForceSkyline(data, q))
        << "q=(" << q.x << "," << q.y << ")";
    ExpectNoDuplicateIds(got);
  }
}

TEST(SkylineTest, RegionRestrictedMatchesBruteForce) {
  const auto data = testing::RandomEntries(700, 0.08, 413);
  TwoLayerGrid grid(GridLayout(kUnit, 16, 16));
  grid.Build(data);
  Rng rng(414);
  const auto windows = testing::RandomWindows(25, 415);
  for (const Box& w : windows) {
    const Point q{rng.NextDouble(), rng.NextDouble()};
    EXPECT_EQ(SkylineQuery(grid, q, &w), BruteForceSkyline(data, q, &w))
        << "region=(" << w.xl << "," << w.yl << "," << w.xu << "," << w.yu
        << ")";
  }
}

TEST(SkylineTest, PredicateRestrictsTheInputSet) {
  const auto data = testing::RandomEntries(600, 0.06, 416);
  TwoLayerGrid grid(GridLayout(kUnit, 8, 8));
  grid.Build(data);
  const EntryPredicate keep = [](const BoxEntry& e) {
    return e.id % 3 == 0;
  };
  Rng rng(417);
  for (int t = 0; t < 15; ++t) {
    const Point q{rng.NextDouble(), rng.NextDouble()};
    const auto got = SkylineQuery(grid, q, nullptr, keep);
    EXPECT_EQ(got, BruteForceSkyline(data, q, nullptr, keep));
    for (const SkylineEntry& s : got) EXPECT_EQ(s.entry.id % 3, 0u);
    // The filtered skyline can contain objects the unrestricted skyline
    // dominates away — predicates restrict the input, not the output.
  }
}

TEST(SkylineTest, RegionAndPredicateCompose) {
  const auto data = testing::RandomEntries(500, 0.1, 418);
  TwoLayerGrid grid(GridLayout(kUnit, 8, 8));
  grid.Build(data);
  const Box region{0.2, 0.2, 0.8, 0.7};
  const EntryPredicate keep = [](const BoxEntry& e) {
    return e.box.area() > 0.001;
  };
  const Point q{0.5, 0.9};
  EXPECT_EQ(SkylineQuery(grid, q, &region, keep),
            BruteForceSkyline(data, q, &region, keep));
}

TEST(SkylineTest, AttributeTiesAreAllReported) {
  // Four identical boxes plus one incomparable neighbor: equal (dx, dy)
  // points do not dominate each other, so all of them belong to the
  // skyline together.
  std::vector<BoxEntry> data;
  for (ObjectId id = 0; id < 4; ++id) {
    data.push_back(BoxEntry{Box{0.4, 0.4, 0.45, 0.45}, id});
  }
  // Straddles y = 0.5: (dx, dy) = (0.1, 0) — incomparable with the
  // quadruplet's (0.05, 0.05), so it coexists with them.
  data.push_back(BoxEntry{Box{0.6, 0.45, 0.65, 0.55}, 4});
  data.push_back(BoxEntry{Box{0.1, 0.1, 0.2, 0.2}, 5});  // dominated
  TwoLayerGrid grid(GridLayout(kUnit, 8, 8));
  grid.Build(data);
  const Point q{0.5, 0.5};
  const auto got = SkylineQuery(grid, q);
  EXPECT_EQ(got, BruteForceSkyline(data, q));
  ASSERT_EQ(got.size(), 5u);  // everything but the dominated far box
}

TEST(SkylineTest, ContainingObjectsDominateEverythingElse) {
  const auto data = testing::RandomEntries(200, 0.05, 419);
  std::vector<BoxEntry> all = data;
  all.push_back(BoxEntry{Box{0.3, 0.3, 0.7, 0.7}, 500});  // contains q
  TwoLayerGrid grid(GridLayout(kUnit, 8, 8));
  grid.Build(all);
  const Point q{0.5, 0.5};
  const auto got = SkylineQuery(grid, q);
  EXPECT_EQ(got, BruteForceSkyline(all, q));
  // A (0, 0) point dominates every non-(0, 0) point, so every reported
  // entry must contain q on both axes.
  for (const SkylineEntry& s : got) {
    EXPECT_EQ(s.dx, 0.0);
    EXPECT_EQ(s.dy, 0.0);
  }
}

TEST(SkylineTest, OutOfDomainEntriesAreStillConsidered) {
  auto data = testing::RandomEntries(150, 0.05, 420);
  // Clamped into border tiles they do not overlap; the class-A extents
  // of those tiles include the clamped boxes themselves.
  const Box outliers[] = {Box{-30, 0.2, -29, 0.4}, Box{0.3, 77, 0.4, 78},
                          Box{12, -9, 13, -8}, Box{-5, -5, -4.5, -4.5}};
  ObjectId next = 150;
  for (const Box& b : outliers) data.push_back(BoxEntry{b, next++});
  TwoLayerGrid grid(GridLayout(kUnit, 16, 16));
  grid.Build(data);
  const Point queries[] = {Point{0.5, 0.5}, Point{-10, 0.3}, Point{40, 40}};
  for (const Point& q : queries) {
    EXPECT_EQ(SkylineQuery(grid, q), BruteForceSkyline(data, q))
        << "q=(" << q.x << "," << q.y << ")";
  }
}

TEST(SkylineTest, EmptyInputsYieldEmptySkylines) {
  TwoLayerGrid empty(GridLayout(kUnit, 4, 4));
  EXPECT_TRUE(SkylineQuery(empty, Point{0.5, 0.5}).empty());

  const auto data = testing::RandomEntries(50, 0.1, 421);
  TwoLayerGrid grid(GridLayout(kUnit, 4, 4));
  grid.Build(data);
  const Box empty_region = Box::Empty();
  EXPECT_TRUE(SkylineQuery(grid, Point{0.5, 0.5}, &empty_region).empty());
  const EntryPredicate none = [](const BoxEntry&) { return false; };
  EXPECT_TRUE(SkylineQuery(grid, Point{0.5, 0.5}, nullptr, none).empty());
}

TEST(SkylineTest, NeverDeduplicatesPostHoc) {
  const auto data = testing::RandomEntries(400, 0.2, 422,
                                           /*point_fraction=*/0.0);
  TwoLayerGrid grid(GridLayout(kUnit, 8, 8));
  grid.Build(data);
  ResetQueryStats();
  Rng rng(423);
  for (int t = 0; t < 10; ++t) {
    const Point q{rng.NextDouble(), rng.NextDouble()};
    (void)SkylineQuery(grid, q);
    const Box w{0.1, 0.1, 0.9, 0.9};
    (void)SkylineQuery(grid, q, &w);
  }
  const QueryStats s = GetQueryStats();
  EXPECT_EQ(s.posthoc_dedup, 0u) << "skyline deduplicated after the fact";
  EXPECT_GT(s.tiles_visited, 0u);
}

TEST(SkylineTest, TilePruningSkipsTiles) {
  // Dense small objects everywhere and the query at the domain's lower
  // corner: the per-tile bound (the distance from q to the tile's class-A
  // extent) is positive for almost every tile, so an early nearby skyline
  // point should dominate most tiles' bounds and the sweep must visit far
  // fewer tiles than exist while staying exact.
  const auto data = testing::RandomEntries(3000, 0.002, 424,
                                           /*point_fraction=*/0.5);
  TwoLayerGrid grid(GridLayout(kUnit, 32, 32));
  grid.Build(data);
  const Point q{0.01, 0.01};
  ResetQueryStats();
  const auto got = SkylineQuery(grid, q);
  const QueryStats s = GetQueryStats();
  EXPECT_EQ(got, BruteForceSkyline(data, q));
  EXPECT_LT(s.tiles_visited, 32u * 32u / 2)
      << "lower-bound pruning never fired";
}

TEST(SkylineTest, TilePruningSkipsTilesAroundACentredQuery) {
  // Class A constrains where an MBR starts, not how far it reaches, so a
  // bound taken from the tile's position alone is (0, 0) for every tile
  // left of or below a centred query. The class-A extent bounds where the
  // tile's entries actually reach: only tiles whose entries come close to
  // q on one axis survive the nearby skyline points.
  const auto data = testing::RandomEntries(3000, 0.002, 424,
                                           /*point_fraction=*/0.5);
  TwoLayerGrid grid(GridLayout(kUnit, 32, 32));
  grid.Build(data);
  const Point q{0.5, 0.5};
  ResetQueryStats();
  const auto got = SkylineQuery(grid, q);
  const QueryStats s = GetQueryStats();
  EXPECT_EQ(got, BruteForceSkyline(data, q));
  EXPECT_LT(s.tiles_visited, 32u * 32u / 10)
      << "the extent bound pruned too little around a centred query";
}

// NaN attributes compare false both ways, so SkylineEntry::operator== and
// EXPECT_EQ cannot match them; equal here means equal or both NaN.
bool SameCoord(Coord a, Coord b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

void ExpectSameSkyline(const std::vector<SkylineEntry>& got,
                       const std::vector<SkylineEntry>& want,
                       const Point& q) {
  ASSERT_EQ(got.size(), want.size()) << "q=(" << q.x << "," << q.y << ")";
  for (std::size_t k = 0; k < got.size(); ++k) {
    const SkylineEntry& a = got[k];
    const SkylineEntry& b = want[k];
    EXPECT_EQ(a.entry.id, b.entry.id) << "q=(" << q.x << "," << q.y << ")";
    EXPECT_TRUE(SameCoord(a.entry.box.xl, b.entry.box.xl) &&
                SameCoord(a.entry.box.yl, b.entry.box.yl) &&
                SameCoord(a.entry.box.xu, b.entry.box.xu) &&
                SameCoord(a.entry.box.yu, b.entry.box.yu) &&
                SameCoord(a.dx, b.dx) && SameCoord(a.dy, b.dy))
        << "id " << a.entry.id << " q=(" << q.x << "," << q.y << ")";
  }
}

TEST(SkylineTest, EntriesWithNaNCoordinatesAreAlwaysReported) {
  // The library accepts NaN coordinates (only the wire parser rejects
  // them). A NaN attribute is never dominated, so such an entry belongs
  // to every skyline; no tile bound may prune the tile holding it.
  constexpr Coord nan = std::numeric_limits<Coord>::quiet_NaN();
  auto data = testing::RandomEntries(2000, 0.05, 425);
  ObjectId next = 2000;
  data.push_back(BoxEntry{Box{0.2, nan, 0.3, nan}, next++});    // NaN y
  data.push_back(BoxEntry{Box{0.71, nan, 0.74, nan}, next++});  // NaN y
  data.push_back(BoxEntry{Box{nan, 0.6, nan, 0.62}, next++});   // NaN x
  data.push_back(BoxEntry{Box{nan, 0.05, nan, 0.1}, next++});   // NaN x
  TwoLayerGrid grid(GridLayout(kUnit, 16, 16));
  grid.Build(data);
  ASSERT_TRUE(grid.CheckInvariants());
  const Point queries[] = {Point{0.05, 0.95}, Point{0.5, 0.5},
                           Point{0.95, 0.05}, Point{0.01, 0.01},
                           Point{0.99, 0.99}, Point{-3, 0.4}};
  for (const Point& q : queries) {
    const auto got = SkylineQuery(grid, q);
    ExpectSameSkyline(got, BruteForceSkyline(data, q), q);
    for (ObjectId id = 2000; id < next; ++id) {
      EXPECT_TRUE(std::any_of(got.begin(), got.end(),
                              [&](const SkylineEntry& s) {
                                return s.entry.id == id;
                              }))
          << "NaN entry " << id << " lost at q=(" << q.x << "," << q.y
          << ")";
    }
  }
}

TEST(SkylineTest, WideInsertsReachingTheQueryFromFarTilesAreFound) {
  // Objects whose class-A tile (their lower corner) lies far left of or
  // below q while their far edge comes close to q: only the Insert-grown
  // extents make their tiles' bounds small enough to be scanned. After
  // the deletes the extents stay loose supersets, which must stay exact.
  auto data = testing::RandomEntries(1500, 0.02, 426);
  TwoLayerGrid grid(GridLayout(kUnit, 16, 16));
  grid.Build(data);
  const BoxEntry wide[] = {
      BoxEntry{Box{0.01, 0.74, 0.795, 0.76}, 5000},  // from column 0
      BoxEntry{Box{0.74, 0.02, 0.76, 0.799}, 5001},  // from row 0
      BoxEntry{Box{0.03, 0.05, 0.79, 0.79}, 5002},   // from tile (0, 0)
      BoxEntry{Box{0.1, 0.78, 0.85, 0.81}, 5003},    // straddles q.y
  };
  const Point queries[] = {Point{0.8, 0.8}, Point{0.81, 0.79},
                           Point{0.5, 0.9}};
  const auto check = [&](const char* stage) {
    ASSERT_TRUE(grid.CheckInvariants()) << stage;
    for (const Point& q : queries) {
      EXPECT_EQ(SkylineQuery(grid, q), BruteForceSkyline(data, q))
          << stage << " q=(" << q.x << "," << q.y << ")";
    }
  };
  for (const BoxEntry& e : wide) {
    grid.Insert(e);
    data.push_back(e);
  }
  check("after inserts");
  for (const BoxEntry& e : wide) {
    ASSERT_TRUE(grid.Delete(e.id, e.box));
    std::erase_if(data, [&](const BoxEntry& d) { return d.id == e.id; });
  }
  check("after deletes");
}

}  // namespace
}  // namespace tlp
