#ifndef TLP_CORE_SKYLINE_H_
#define TLP_CORE_SKYLINE_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/entry_predicate.h"
#include "core/two_layer_grid.h"

namespace tlp {

/// Minimum distance from coordinate v to the closed interval [lo, hi];
/// 0 when inside. One axis of Box::MinDistanceTo, without the hypot.
/// Monotone in the interval: widening [lo, hi] never increases it, which
/// makes it an exact lower bound when applied to a tile's class-A extent.
inline Coord SkylineAxisDistance(Coord lo, Coord hi, Coord v) {
  return std::max({lo - v, Coord{0}, v - hi});
}

/// True iff attribute point (adx, ady) dominates (bdx, bdy): <= in both
/// axes, < in at least one. Equal points do not dominate each other.
inline bool SkylineDominates(Coord adx, Coord ady, Coord bdx, Coord bdy) {
  return adx <= bdx && ady <= bdy && (adx < bdx || ady < bdy);
}

/// One skyline result: the stored entry plus its dominance attributes —
/// the per-axis minimum distances from the query point to the MBR
/// (dx = dist(q.x, [xl, xu]), dy = dist(q.y, [yl, yu]); 0 when the query
/// coordinate falls inside the interval).
struct SkylineEntry {
  BoxEntry entry;
  Coord dx = 0;
  Coord dy = 0;

  friend bool operator==(const SkylineEntry& a, const SkylineEntry& b) {
    return a.entry.id == b.entry.id && a.entry.box == b.entry.box &&
           a.dx == b.dx && a.dy == b.dy;
  }
};

/// One incremental skyline step for candidate `e` against query point `q`:
/// if a point kept in `sky` dominates e's attributes, `sky` is left as is;
/// otherwise every kept point e dominates is evicted and e is appended.
/// The skyline of a set is unique, so feeding a set through this in any
/// order leaves exactly its skyline (unsorted) in `sky` — and feeding
/// skyline(S) plus a set D leaves skyline(S ∪ D).
inline void SkylineAdmit(const BoxEntry& e, const Point& q,
                         std::vector<SkylineEntry>* sky) {
  const Coord dx = SkylineAxisDistance(e.box.xl, e.box.xu, q.x);
  const Coord dy = SkylineAxisDistance(e.box.yl, e.box.yu, q.y);
  for (const SkylineEntry& s : *sky) {
    if (SkylineDominates(s.dx, s.dy, dx, dy)) return;
  }
  std::erase_if(*sky, [&](const SkylineEntry& s) {
    return SkylineDominates(dx, dy, s.dx, s.dy);
  });
  sky->push_back(SkylineEntry{e, dx, dy});
}

/// Skyline query over a two-layer grid: the objects not dominated in the
/// (dx, dy) attribute space. Object a dominates b iff a.dx <= b.dx and
/// a.dy <= b.dy with at least one strict; objects with identical (dx, dy)
/// do not dominate each other, so attribute ties are all reported. The
/// skyline of a set is unique, so the result does not depend on scan
/// order; it is returned sorted by id.
///
/// Duplicate-free by construction: without a region the candidates are the
/// class-A secondary partitions (every object belongs to class A of
/// exactly one tile — the one holding its MBR's lower corner); with a
/// `region` they come from WindowCandidates, duplicate-free by Lemmas 1-4.
/// No post-hoc deduplication ever runs (asserted via the query-stats
/// counters in tests).
///
/// Index acceleration: each tile keeps the bounding box of its class-A
/// entries (TwoLayerGrid::ClassAExtent), so the extent's own (dx, dy)
/// lower-bounds every entry's (dx, dy) in the tile — exactly, with the
/// same expression, wherever the tile lies relative to q and for entries
/// clamped in from outside the domain. q's tile and its 8 neighbours are
/// scanned first to seed the skyline, then one row-major pass skips every
/// tile whose bound a found skyline point dominates without touching its
/// entries. The visit order only changes how much is pruned. The grid
/// holds no NaN coordinates (Build/Insert reject them), so every extent
/// bounds its entries. q must be finite.
///
/// `region`, when non-null, restricts the input to objects whose MBR
/// intersects it (closed intervals, like WindowQuery). `keep`, when
/// non-empty, further restricts the input set.
std::vector<SkylineEntry> SkylineQuery(const TwoLayerGrid& grid,
                                       const Point& q,
                                       const Box* region = nullptr,
                                       const EntryPredicate& keep = {});

}  // namespace tlp

#endif  // TLP_CORE_SKYLINE_H_
