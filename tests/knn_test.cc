#include "core/knn.h"

#include <algorithm>

#include "gtest/gtest.h"

#include "tests/test_util.h"

namespace tlp {
namespace {

const Box kUnit{0, 0, 1, 1};

std::vector<KnnResult> BruteForceKnn(const std::vector<BoxEntry>& data,
                                     const Point& q, std::size_t k) {
  std::vector<KnnResult> all;
  for (const BoxEntry& e : data) {
    all.push_back(KnnResult{e.box.MinDistanceTo(q), e.id});
  }
  std::sort(all.begin(), all.end(), [](const KnnResult& a, const KnnResult& b) {
    return a.distance != b.distance ? a.distance < b.distance : a.id < b.id;
  });
  if (all.size() > k) all.resize(k);
  return all;
}

TEST(KnnTest, MatchesBruteForceOnRandomData) {
  const auto data = testing::RandomEntries(800, 0.05, 171);
  TwoLayerGrid grid(GridLayout(kUnit, 16, 16));
  grid.Build(data);
  Rng rng(172);
  for (int t = 0; t < 30; ++t) {
    const Point q{rng.NextDouble(), rng.NextDouble()};
    const std::size_t k = 1 + rng.NextBelow(50);
    EXPECT_EQ(KnnQuery(grid, q, k), BruteForceKnn(data, q, k))
        << "q=(" << q.x << "," << q.y << ") k=" << k;
  }
}

TEST(KnnTest, KLargerThanDatasetReturnsEverything) {
  const auto data = testing::RandomEntries(20, 0.1, 173);
  TwoLayerGrid grid(GridLayout(kUnit, 8, 8));
  grid.Build(data);
  const auto res = KnnQuery(grid, Point{0.5, 0.5}, 100);
  EXPECT_EQ(res.size(), data.size());
  EXPECT_EQ(res, BruteForceKnn(data, Point{0.5, 0.5}, 100));
}

TEST(KnnTest, ZeroKAndEmptyGrid) {
  TwoLayerGrid empty(GridLayout(kUnit, 4, 4));
  EXPECT_TRUE(KnnQuery(empty, Point{0.5, 0.5}, 3).empty());
  const auto data = testing::RandomEntries(10, 0.1, 174);
  TwoLayerGrid grid(GridLayout(kUnit, 4, 4));
  grid.Build(data);
  EXPECT_TRUE(KnnQuery(grid, Point{0.5, 0.5}, 0).empty());
}

TEST(KnnTest, QueryOutsideDomain) {
  const auto data = testing::RandomEntries(300, 0.05, 175);
  TwoLayerGrid grid(GridLayout(kUnit, 16, 16));
  grid.Build(data);
  const Point q{-0.5, 1.5};
  EXPECT_EQ(KnnQuery(grid, q, 10), BruteForceKnn(data, q, 10));
}

TEST(KnnTest, NearestContainingObjectHasDistanceZero) {
  TwoLayerGrid grid(GridLayout(kUnit, 8, 8));
  grid.Build({BoxEntry{Box{0.2, 0.2, 0.8, 0.8}, 0},
              BoxEntry{Box{0.9, 0.9, 0.95, 0.95}, 1}});
  const auto res = KnnQuery(grid, Point{0.5, 0.5}, 1);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].id, 0u);
  EXPECT_EQ(res[0].distance, 0.0);
}

/// Forces several radius doublings: all data sits in a far corner cluster
/// while the query is at the opposite corner, so the seed radius (a few
/// tiles wide) finds nothing and the annulus probing has to walk out to the
/// cluster. The incremental candidate accumulation across doublings must
/// still match the brute-force oracle exactly.
TEST(KnnTest, ManyRadiusDoublingsMatchOracle) {
  Rng rng(177);
  std::vector<BoxEntry> data;
  for (std::size_t k = 0; k < 400; ++k) {
    const double x = 0.9 + rng.NextDouble() * 0.1;
    const double y = 0.9 + rng.NextDouble() * 0.1;
    data.push_back(BoxEntry{Box{x, y, std::min(1.0, x + 0.005),
                                std::min(1.0, y + 0.005)},
                            static_cast<ObjectId>(k)});
  }
  // A fine grid keeps the seed radius tiny relative to the query-cluster
  // gap, guaranteeing multiple misses before candidates appear.
  TwoLayerGrid grid(GridLayout(kUnit, 64, 64));
  grid.Build(data);
  const Point q{0.01, 0.01};
  for (std::size_t k : {1u, 7u, 50u, 400u}) {
    EXPECT_EQ(KnnQuery(grid, q, k), BruteForceKnn(data, q, k)) << "k=" << k;
  }
}

/// The annulus form of DiskQueryEntries must report exactly the objects
/// with min_radius < MinDistanceTo(q) <= radius, and appending successive
/// annuli must reproduce the full disk (KnnQuery's accumulation pattern).
TEST(KnnTest, DiskQueryEntriesAnnulusMatchesOracle) {
  const auto data = testing::RandomEntries(1200, 0.04, 178);
  TwoLayerGrid grid(GridLayout(kUnit, 16, 16));
  grid.Build(data);
  Rng rng(179);
  for (int t = 0; t < 20; ++t) {
    const Point q{rng.NextDouble() * 1.4 - 0.2, rng.NextDouble() * 1.4 - 0.2};
    const Coord inner = rng.NextDouble() * 0.3;
    const Coord outer = inner + rng.NextDouble() * 0.4;

    std::vector<ObjectId> expected;
    for (const BoxEntry& e : data) {
      const Coord d = e.box.MinDistanceTo(q);
      if (d > inner && d <= outer) expected.push_back(e.id);
    }
    std::vector<BoxEntry> got;
    grid.DiskQueryEntries(q, outer, &got, inner);
    std::vector<ObjectId> ids;
    for (const BoxEntry& e : got) ids.push_back(e.id);
    testing::ExpectSameIdSet(expected, ids, "annulus");

    // Accumulating inner disk + annulus == one full-disk query.
    std::vector<BoxEntry> accumulated;
    grid.DiskQueryEntries(q, inner, &accumulated);
    grid.DiskQueryEntries(q, outer, &accumulated, inner);
    std::vector<BoxEntry> full;
    grid.DiskQueryEntries(q, outer, &full);
    std::vector<ObjectId> acc_ids, full_ids;
    for (const BoxEntry& e : accumulated) acc_ids.push_back(e.id);
    for (const BoxEntry& e : full) full_ids.push_back(e.id);
    testing::ExpectSameIdSet(full_ids, acc_ids, "inner disk + annulus");
  }
}

/// Regression: the grid clamps entries lying outside the declared domain
/// into border tiles, but the doubling loop's stop radius is derived from
/// the DOMAIN corners — it used to terminate there with fewer than k
/// candidates and silently return a short (or empty) answer. A final
/// infinite-radius annulus probe must pick up the far-out entries.
TEST(KnnTest, EntriesOutsideDomainAreStillFound) {
  std::vector<BoxEntry> data;
  for (std::size_t k = 0; k < 10; ++k) {
    const double x = 50.0 + static_cast<double>(k);
    data.push_back(
        BoxEntry{Box{x, 40.0, x + 0.5, 40.5}, static_cast<ObjectId>(k)});
  }
  TwoLayerGrid grid(GridLayout(kUnit, 8, 8));
  grid.Build(data);
  const Point q{0.5, 0.5};  // max_radius from the unit domain is ~1; data ~65
  for (const std::size_t k : {1u, 5u, 10u}) {
    EXPECT_EQ(KnnQuery(grid, q, k), BruteForceKnn(data, q, k)) << "k=" << k;
  }
}

TEST(KnnTest, MixedInAndOutOfDomainEntriesMatchOracle) {
  auto data = testing::RandomEntries(100, 0.05, 180);
  const Box outliers[] = {Box{-30, 0.2, -29, 0.4}, Box{0.3, 77, 0.4, 78},
                          Box{12, -9, 13, -8}, Box{-5, -5, -4.5, -4.5}};
  ObjectId next = 100;
  for (const Box& b : outliers) data.push_back(BoxEntry{b, next++});
  TwoLayerGrid grid(GridLayout(kUnit, 16, 16));
  grid.Build(data);
  const Point queries[] = {Point{0.5, 0.5}, Point{-2, -2}, Point{40, 40}};
  for (const Point& q : queries) {
    // k > in-domain count forces the probe past the domain bound; k equal
    // to the full dataset must return every entry.
    for (const std::size_t k : {5u, 101u, 104u}) {
      EXPECT_EQ(KnnQuery(grid, q, k), BruteForceKnn(data, q, k))
          << "q=(" << q.x << "," << q.y << ") k=" << k;
    }
  }
}

/// The seed radius comes from the object density, sqrt(2k * area /
/// (pi * objects)). On a 1e-300 x 1e-30 domain the area underflows to 0, so
/// that radius is 0 and doubling would never grow it: the search must fall
/// back to the tile-based seed and still reach the far-corner object.
TEST(KnnTest, SeedNeverStallsWhenTheDomainAreaUnderflows) {
  const Box domain{0, 0, 1e-300, 1e-30};
  ASSERT_EQ(domain.xu * domain.yu, 0.0);  // the area underflows
  const std::vector<BoxEntry> data = {
      BoxEntry{Box{0, 0, 1e-303, 1e-33}, 7}};
  TwoLayerGrid grid(GridLayout(domain, 4, 4));
  grid.Build(data);
  const Point q{1e-300, 1e-30};
  const auto res = KnnQuery(grid, q, 1);
  EXPECT_EQ(res, BruteForceKnn(data, q, 1));
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].id, 7u);
  const auto entries = KnnEntries(grid, q, 3);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].entry.id, 7u);
  EXPECT_EQ(entries[0].distance, res[0].distance);
}

/// The maintained object count feeds both the emptiness test and the seed:
/// it must follow Insert/Delete (replicated objects included) and return to
/// 0 once every object is gone, at which point KNN answers empty.
TEST(KnnTest, ObjectCountFollowsUpdatesAndEmptiesKnn) {
  const auto data = testing::RandomEntries(300, 0.2, 181);
  TwoLayerGrid grid(GridLayout(kUnit, 8, 8));
  grid.Build(data);
  EXPECT_EQ(grid.object_count(), data.size());
  const Point q{0.4, 0.6};
  EXPECT_EQ(KnnQuery(grid, q, 5), BruteForceKnn(data, q, 5));
  for (std::size_t n = 0; n < data.size(); ++n) {
    ASSERT_TRUE(grid.Delete(data[n].id, data[n].box));
    ASSERT_EQ(grid.object_count(), data.size() - n - 1);
  }
  EXPECT_FALSE(grid.Delete(data[0].id, data[0].box));
  EXPECT_EQ(grid.object_count(), 0u);
  EXPECT_TRUE(grid.CheckInvariants());
  EXPECT_TRUE(KnnQuery(grid, q, 5).empty());
  EXPECT_TRUE(KnnEntries(grid, q, 5).empty());
  grid.Insert(data[1]);
  EXPECT_EQ(grid.object_count(), 1u);
  EXPECT_EQ(KnnQuery(grid, q, 5), BruteForceKnn({data[1]}, q, 5));
}

TEST(KnnTest, ResultsAreSortedByDistance) {
  const auto data = testing::RandomEntries(500, 0.02, 176);
  TwoLayerGrid grid(GridLayout(kUnit, 16, 16));
  grid.Build(data);
  const auto res = KnnQuery(grid, Point{0.3, 0.7}, 40);
  ASSERT_EQ(res.size(), 40u);
  for (std::size_t k = 1; k < res.size(); ++k) {
    EXPECT_LE(res[k - 1].distance, res[k].distance);
  }
}

}  // namespace
}  // namespace tlp
