#include "core/skyline.h"

#include <algorithm>

#include "common/query_stats.h"

namespace tlp {

std::vector<SkylineEntry> SkylineQuery(const TwoLayerGrid& grid,
                                       const Point& q, const Box* region,
                                       const EntryPredicate& keep) {
  TLP_STATS_QUERY_TIMER();
  std::vector<SkylineEntry> sky;
  if (region != nullptr && region->IsEmpty()) return sky;

  const GridLayout& g = grid.layout();

  // Candidate tiles: the class-A partitions hold every object exactly
  // once. A region prunes the tile rectangle from above: an object
  // intersecting the region starts at or before its upper corner, and
  // ColumnOf/RowOf are monotone, so its class-A tile cannot lie beyond
  // the region's upper tile in either dimension.
  std::uint32_t imax = g.nx() - 1;
  std::uint32_t jmax = g.ny() - 1;
  if (region != nullptr) {
    imax = g.ColumnOf(region->xu);
    jmax = g.RowOf(region->yu);
  }

  // Scans tile (i, j)'s class-A entries unless its extent rules them out.
  // Every class-A entry lies inside the extent, so the extent's (dx, dy)
  // is <= every entry's: a kept point dominating it dominates the whole
  // tile, and an extent missing the region holds no entry meeting it.
  const auto visit = [&](std::uint32_t i, std::uint32_t j) {
    const Box& ext = grid.ClassAExtent(i, j);
    if (region != nullptr && !ext.Intersects(*region)) return;
    const Coord lbx = SkylineAxisDistance(ext.xl, ext.xu, q.x);
    const Coord lby = SkylineAxisDistance(ext.yl, ext.yu, q.y);
    for (const SkylineEntry& s : sky) {
      if (SkylineDominates(s.dx, s.dy, lbx, lby)) return;
    }
    const auto span = grid.ClassSpan(i, j, ObjectClass::kA);
    if (span.second == 0) return;
    TLP_STATS_ADD(tiles_visited, 1);
    TLP_STATS_CLASS_SCANNED(ObjectClass::kA, span.second);
    TLP_STATS_ADD(comparisons, span.second);  // one test per entry
    for (std::size_t n = 0; n < span.second; ++n) {
      const BoxEntry& e = span.first[n];
      if (region != nullptr && !e.box.Intersects(*region)) continue;
      if (keep && !keep(e)) continue;
      SkylineAdmit(e, q, &sky);
    }
  };

  // Seed the skyline from q's tile and its 8 neighbours, which hold the
  // nearest entries of a dense index, then sweep the rest row-major.
  const std::uint32_t qi = g.ColumnOf(q.x);
  const std::uint32_t qj = g.RowOf(q.y);
  const std::uint32_t si0 = qi == 0 ? 0 : qi - 1;
  const std::uint32_t sj0 = qj == 0 ? 0 : qj - 1;
  const std::uint32_t si1 = std::min(qi + 1, imax);
  const std::uint32_t sj1 = std::min(qj + 1, jmax);
  const auto seeded = [&](std::uint32_t i, std::uint32_t j) {
    return si0 <= i && i <= si1 && sj0 <= j && j <= sj1;
  };
  for (std::uint32_t j = sj0; j <= sj1; ++j) {
    for (std::uint32_t i = si0; i <= si1; ++i) visit(i, j);
  }
  for (std::uint32_t j = 0; j <= jmax; ++j) {
    for (std::uint32_t i = 0; i <= imax; ++i) {
      if (!seeded(i, j)) visit(i, j);
    }
  }

  std::sort(sky.begin(), sky.end(),
            [](const SkylineEntry& a, const SkylineEntry& b) {
              return a.entry.id < b.entry.id;
            });
  TLP_STATS_ADD(candidates, sky.size());
  return sky;
}

}  // namespace tlp
