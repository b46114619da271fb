#include "core/knn.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

namespace tlp {

namespace {

/// First probe radius (see KnnEntries in knn.h): the disk expected to hold
/// ~2k of `objects` spread evenly over the domain, or the tile-based radius
/// when that is not > 0. An infinite domain yields an infinite radius,
/// which is a correct single probe.
Coord SeedRadius(const GridLayout& g, std::size_t k, std::size_t objects) {
  const Box& d = g.domain();
  const double area = (d.xu - d.xl) * (d.yu - d.yl);
  const Coord r0 = std::sqrt(2.0 * static_cast<double>(k) * area /
                             (std::numbers::pi * static_cast<double>(objects)));
  if (r0 > 0) return r0;  // false for 0 and NaN
  return 2 * std::max(g.tile_width(), g.tile_height()) *
         std::sqrt(static_cast<double>(k));
}

}  // namespace

std::vector<RankedEntry> KnnEntries(const TwoLayerGrid& grid, const Point& q,
                                    std::size_t k,
                                    const EntryPredicate& keep) {
  std::vector<RankedEntry> results;
  if (k == 0 || grid.object_count() == 0) return results;

  const GridLayout& g = grid.layout();
  const Box& domain = g.domain();
  // Any point of the DOMAIN is within this radius of any query point. The
  // grid clamps out-of-domain entries into border tiles, though, so objects
  // farther than this can still be stored — the radius is where doubling
  // stops paying, not a proven data bound.
  const Coord max_radius =
      std::max(std::abs(q.x - domain.xl), std::abs(domain.xu - q.x)) +
      std::max(std::abs(q.y - domain.yl), std::abs(domain.yu - q.y));

  // Each probe appends the annulus beyond the previous radius to
  // `candidates`; the predicate and the distance run once per object (the
  // scan cursor never revisits a candidate). The accumulated set after the
  // last probe equals a single full-disk query at the final radius.
  Coord radius = SeedRadius(g, k, grid.object_count());
  Coord prev_radius = -1;  // < 0: first probe scans the whole disk
  bool final_probe = false;
  std::vector<BoxEntry> candidates;
  std::size_t scanned = 0;
  for (;;) {
    grid.DiskQueryEntries(q, radius, &candidates, prev_radius);
    for (; scanned < candidates.size(); ++scanned) {
      const BoxEntry& e = candidates[scanned];
      if (keep && !keep(e)) continue;
      results.push_back(RankedEntry{e, e.box.MinDistanceTo(q)});
    }
    if (results.size() >= k || final_probe) break;
    prev_radius = radius;
    if (radius >= max_radius) {
      // Beyond max_radius the whole domain is covered, but entries CLAMPED
      // into border tiles can sit arbitrarily far outside it. One last
      // annulus probe at infinite radius picks those up (an infinite disk's
      // tile range is every tile, and sqrt/distance arithmetic is
      // inf-clean), so k results are returned whenever k objects match
      // instead of silently fewer.
      radius = std::numeric_limits<Coord>::infinity();
      final_probe = true;
    } else {
      radius = std::min(max_radius, radius * 2);
    }
  }

  // All matching candidates within the final radius are present and the
  // k-th smallest matching distance is <= that radius, so the k smallest
  // are the exact answer; ties beyond position k are cut by id.
  auto by_rank = [](const RankedEntry& a, const RankedEntry& b) {
    return a.distance != b.distance ? a.distance < b.distance
                                    : a.entry.id < b.entry.id;
  };
  if (results.size() > k) {
    std::nth_element(results.begin(),
                     results.begin() + static_cast<std::ptrdiff_t>(k),
                     results.end(), by_rank);
    results.resize(k);
  }
  std::sort(results.begin(), results.end(), by_rank);
  return results;
}

std::vector<KnnResult> KnnQuery(const TwoLayerGrid& grid, const Point& q,
                                std::size_t k) {
  const std::vector<RankedEntry> ranked = KnnEntries(grid, q, k);
  std::vector<KnnResult> results;
  results.reserve(ranked.size());
  for (const RankedEntry& r : ranked) {
    results.push_back(KnnResult{r.distance, r.entry.id});
  }
  return results;
}

}  // namespace tlp
