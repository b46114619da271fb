// Differential proof of the query hot-path kernels (ISSUE: SIMD + bit-tile
// layer): the vector comparison kernel, the branchless binary searches and
// the occupancy bitset must reproduce their scalar references bit for bit —
// same survivors, same emit order, same indices — on randomized AND
// boundary-heavy inputs (window-edge coordinates, +-infinity, NaN).

#include "common/simd.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/branchless_search.h"
#include "common/rng.h"
#include "grid/occupancy_bitset.h"
#include "grid/scan.h"

#include "gtest/gtest.h"

namespace tlp {
namespace {

constexpr Coord kInf = std::numeric_limits<Coord>::infinity();
constexpr Coord kNaN = std::numeric_limits<Coord>::quiet_NaN();

const Box kW{0.3, 0.3, 0.7, 0.7};

/// The scalar reference dispatch: always the 16 ScanPartition template
/// instantiations, regardless of how the build routes the production
/// ScanPartitionDispatch.
std::vector<ObjectId> ScanScalar(unsigned mask,
                                 const std::vector<BoxEntry>& data,
                                 const Box& w) {
  std::vector<ObjectId> out;
  auto emit = [&](const BoxEntry& e) { out.push_back(e.id); };
  switch (mask & 15u) {
#define TLP_TEST_SCAN_CASE(M) \
  case M:                     \
    ScanPartition<M>(data.data(), data.size(), w, emit); \
    break;
    TLP_TEST_SCAN_CASE(0u)
    TLP_TEST_SCAN_CASE(1u)
    TLP_TEST_SCAN_CASE(2u)
    TLP_TEST_SCAN_CASE(3u)
    TLP_TEST_SCAN_CASE(4u)
    TLP_TEST_SCAN_CASE(5u)
    TLP_TEST_SCAN_CASE(6u)
    TLP_TEST_SCAN_CASE(7u)
    TLP_TEST_SCAN_CASE(8u)
    TLP_TEST_SCAN_CASE(9u)
    TLP_TEST_SCAN_CASE(10u)
    TLP_TEST_SCAN_CASE(11u)
    TLP_TEST_SCAN_CASE(12u)
    TLP_TEST_SCAN_CASE(13u)
    TLP_TEST_SCAN_CASE(14u)
    TLP_TEST_SCAN_CASE(15u)
#undef TLP_TEST_SCAN_CASE
  }
  return out;
}

std::vector<ObjectId> ScanSimd(unsigned mask,
                               const std::vector<BoxEntry>& data,
                               const Box& w) {
  std::vector<ObjectId> out;
  ScanPartitionSimd(mask, data.data(), data.size(), w,
                    [&](const BoxEntry& e) { out.push_back(e.id); });
  return out;
}

/// Random boxes salted with boundary-heavy cases: coordinates exactly on the
/// window edges, infinities, and NaNs. Sizes around the group-of-4 kernel's
/// tail boundaries are exercised by the caller.
std::vector<BoxEntry> MixedEntries(Rng* rng, std::size_t n) {
  const Coord specials[] = {kW.xl, kW.xu, kW.yl, kW.yu, 0.0,  1.0,
                            -kInf, kInf,  kNaN,  0.5,   0.29, 0.71};
  std::vector<BoxEntry> data;
  data.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    Coord c[4];
    for (auto& v : c) {
      if (rng->Next() % 3 == 0) {
        v = specials[rng->Next() % (sizeof(specials) / sizeof(specials[0]))];
      } else {
        v = rng->NextDouble();
      }
    }
    // Unnormalized on purpose: the kernels must agree even on inverted or
    // NaN boxes, not just well-formed MBRs.
    data.push_back(BoxEntry{Box{c[0], c[1], c[2], c[3]},
                            static_cast<ObjectId>(k)});
  }
  return data;
}

TEST(SimdScanTest, AllMasksMatchScalarOnRandomizedBoundaryInputs) {
  Rng rng(1031);
  // Sizes straddle the group-of-4 main loop and its scalar tail.
  for (const std::size_t n : {0u, 1u, 3u, 4u, 5u, 7u, 8u, 64u, 257u}) {
    const std::vector<BoxEntry> data = MixedEntries(&rng, n);
    for (unsigned mask = 0; mask < 16; ++mask) {
      EXPECT_EQ(ScanSimd(mask, data, kW), ScanScalar(mask, data, kW))
          << "mask=" << mask << " n=" << n;
    }
  }
}

TEST(SimdScanTest, AllMasksMatchScalarOnDegenerateWindows) {
  Rng rng(1033);
  const std::vector<BoxEntry> data = MixedEntries(&rng, 100);
  const Box windows[] = {
      Box{0.5, 0.5, 0.5, 0.5},      // point window
      Box{0.7, 0.3, 0.3, 0.7},      // inverted
      Box{-kInf, -kInf, kInf, kInf},
      Box{kNaN, 0.3, 0.7, kNaN},    // NaN edges
  };
  for (const Box& w : windows) {
    for (unsigned mask = 0; mask < 16; ++mask) {
      EXPECT_EQ(ScanSimd(mask, data, w), ScanScalar(mask, data, w))
          << "mask=" << mask;
    }
  }
}

TEST(SimdScanTest, MatchesAgreesWithPassesComparisonMask) {
  Rng rng(1037);
  const std::vector<BoxEntry> data = MixedEntries(&rng, 400);
  for (unsigned mask = 0; mask < 16; ++mask) {
    const simd::LaneBounds lb = LaneBoundsForMask(kW, mask);
    for (const BoxEntry& e : data) {
      EXPECT_EQ(simd::Matches(&e.box.xl, lb),
                PassesComparisonMask(e.box, kW, mask))
          << "mask=" << mask;
    }
  }
}

TEST(SimdScanTest, VectorBackendAgreesWithScalarKernel) {
  // On scalar builds Matches IS MatchesScalar and this is trivially green;
  // on AVX2/NEON builds it proves the intrinsics lane by lane, NaN
  // included.
  Rng rng(1039);
  const std::vector<BoxEntry> data = MixedEntries(&rng, 400);
  for (unsigned mask = 0; mask < 16; ++mask) {
    const simd::LaneBounds lb = LaneBoundsForMask(kW, mask);
    for (const BoxEntry& e : data) {
      EXPECT_EQ(simd::Matches(&e.box.xl, lb),
                simd::MatchesScalar(&e.box.xl, lb));
    }
  }
}

TEST(SimdScanTest, MatchesMask4AgreesWithPerBoxMatches) {
  // The AVX2 backend evaluates groups of four boxes transposed
  // (coordinate-major); every hit bit must equal the per-box kernel's
  // verdict for every mask, NaN and infinity lanes included.
  Rng rng(1049);
  const std::vector<BoxEntry> data = MixedEntries(&rng, 400);
  for (unsigned mask = 0; mask < 16; ++mask) {
    const simd::LaneBounds lb = LaneBoundsForMask(kW, mask);
    for (std::size_t k = 0; k + 4 <= data.size(); k += 4) {
      const Coord* lanes[4] = {&data[k].box.xl, &data[k + 1].box.xl,
                               &data[k + 2].box.xl, &data[k + 3].box.xl};
      unsigned expected = 0;
      for (unsigned s = 0; s < 4; ++s) {
        expected |= static_cast<unsigned>(simd::Matches(lanes[s], lb)) << s;
      }
      EXPECT_EQ(simd::MatchesMask4(lanes, lb), expected)
          << "mask=" << mask << " k=" << k;
    }
  }
}

TEST(SimdScanTest, NaNCoordinatesAreKeptLikeScalar) {
  // The scalar loops DROP on `coord < bound`, which is false for NaN — a
  // NaN entry therefore survives every mask. A keep-form vectorization
  // would invert this; the drop-form kernel must not.
  const std::vector<BoxEntry> data = {{Box{kNaN, kNaN, kNaN, kNaN}, 7}};
  for (unsigned mask = 0; mask < 16; ++mask) {
    EXPECT_EQ(ScanSimd(mask, data, kW).size(), 1u) << "mask=" << mask;
    EXPECT_EQ(ScanScalar(mask, data, kW).size(), 1u) << "mask=" << mask;
  }
}

TEST(BranchlessSearchTest, MatchesStdBoundsOnRandomTables) {
  Rng rng(2003);
  for (const std::size_t n : {0u, 1u, 2u, 3u, 7u, 64u, 1000u}) {
    std::vector<Coord> values;
    values.reserve(n);
    for (std::size_t k = 0; k < n; ++k) {
      // Coarse grid of values => plenty of duplicate runs.
      values.push_back(std::floor(rng.NextDouble() * 16) / 16);
    }
    std::sort(values.begin(), values.end());
    std::vector<Coord> keys = values;  // every stored value as a key
    keys.push_back(-1.0);
    keys.push_back(2.0);
    for (int k = 0; k < 50; ++k) keys.push_back(rng.NextDouble());
    for (const Coord key : keys) {
      const auto lo = static_cast<std::size_t>(
          std::lower_bound(values.begin(), values.end(), key) -
          values.begin());
      const auto hi = static_cast<std::size_t>(
          std::upper_bound(values.begin(), values.end(), key) -
          values.begin());
      EXPECT_EQ(BranchlessLowerBound(values.data(), n, key), lo) << key;
      EXPECT_EQ(BranchlessUpperBound(values.data(), n, key), hi) << key;
    }
  }
}

TEST(OccupancyBitsetTest, SetClearTestRoundTrip) {
  OccupancyBitset occ;
  occ.Reset(1000);
  EXPECT_EQ(occ.bit_count(), 1000u);
  for (std::size_t b = 0; b < 1000; ++b) EXPECT_FALSE(occ.Test(b));
  occ.Set(0);
  occ.Set(63);
  occ.Set(64);
  occ.Set(511);
  occ.Set(512);  // first bit of the second 64-byte block
  occ.Set(999);
  for (const std::size_t b : {0u, 63u, 64u, 511u, 512u, 999u}) {
    EXPECT_TRUE(occ.Test(b)) << b;
  }
  EXPECT_FALSE(occ.Test(1));
  occ.Clear(64);
  EXPECT_FALSE(occ.Test(64));
  EXPECT_TRUE(occ.Test(63));
  // Whole cache lines per 512 bits.
  EXPECT_EQ(occ.SizeBytes() % 64, 0u);
}

TEST(OccupancyBitsetTest, ForEachSetInRangeMatchesReference) {
  Rng rng(3001);
  const std::size_t bits = 700;  // crosses word and block boundaries
  OccupancyBitset occ;
  occ.Reset(bits);
  std::vector<bool> ref(bits, false);
  for (std::size_t b = 0; b < bits; ++b) {
    if (rng.Next() % 4 == 0) {
      occ.Set(b);
      ref[b] = true;
    }
  }
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t a = rng.Next() % (bits + 1);
    const std::size_t z = rng.Next() % (bits + 1);
    const std::size_t begin = std::min(a, z);
    const std::size_t end = std::max(a, z);
    std::vector<std::size_t> got;
    occ.ForEachSetInRange(begin, end,
                          [&](std::size_t b) { got.push_back(b); });
    std::vector<std::size_t> expected;
    for (std::size_t b = begin; b < end; ++b) {
      if (ref[b]) expected.push_back(b);
    }
    EXPECT_EQ(got, expected) << "[" << begin << ", " << end << ")";
  }
}

TEST(OccupancyBitsetTest, ForEachOccupiedColumnVisitsOccupiedRangeInOrder) {
  const GridLayout g(Box{0, 0, 1, 1}, 100, 3);
  OccupancyBitset occ;
  occ.Reset(g.tile_count());
  // Row 1, columns 5, 6 and 70 occupied; row 0 fully occupied (must not
  // leak into row 1's iteration).
  for (std::uint32_t i = 0; i < 100; ++i) occ.Set(g.TileId(i, 0));
  occ.Set(g.TileId(5, 1));
  occ.Set(g.TileId(6, 1));
  occ.Set(g.TileId(70, 1));
  std::vector<std::uint32_t> got;
  ForEachOccupiedColumn(occ, g, 1, 0, 99,
                        [&](std::uint32_t i) { got.push_back(i); });
  EXPECT_EQ(got, (std::vector<std::uint32_t>{5, 6, 70}));
  got.clear();
  ForEachOccupiedColumn(occ, g, 1, 6, 50,
                        [&](std::uint32_t i) { got.push_back(i); });
  EXPECT_EQ(got, (std::vector<std::uint32_t>{6}));
}

}  // namespace
}  // namespace tlp
