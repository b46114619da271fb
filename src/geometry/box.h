#ifndef TLP_GEOMETRY_BOX_H_
#define TLP_GEOMETRY_BOX_H_

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/types.h"
#include "geometry/point.h"

namespace tlp {

/// An axis-aligned rectangle (MBR). Intervals are closed: two boxes touching
/// on a border intersect, matching the paper's intersection predicate
/// (r and W do not intersect iff r.xu < W.xl or r.xl > W.xu or ...).
struct Box {
  Coord xl = 0;
  Coord yl = 0;
  Coord xu = 0;
  Coord yu = 0;

  static Box Empty() {
    constexpr Coord inf = std::numeric_limits<Coord>::infinity();
    return Box{inf, inf, -inf, -inf};
  }

  bool IsEmpty() const { return xl > xu || yl > yu; }
  /// True iff lower <= upper on both axes: false for an inverted box and
  /// for any NaN coordinate alike. A degenerate box (xl == xu) is well
  /// formed. The 2-layer grid stores only well-formed boxes.
  bool IsWellFormed() const { return xl <= xu && yl <= yu; }

  Coord width() const { return xu - xl; }
  Coord height() const { return yu - yl; }
  Coord area() const { return IsEmpty() ? 0 : width() * height(); }
  Coord margin() const { return IsEmpty() ? 0 : width() + height(); }
  Point center() const { return Point{(xl + xu) / 2, (yl + yu) / 2}; }

  bool Intersects(const Box& o) const {
    return xl <= o.xu && xu >= o.xl && yl <= o.yu && yu >= o.yl;
  }

  bool Contains(const Point& p) const {
    return xl <= p.x && p.x <= xu && yl <= p.y && p.y <= yu;
  }

  bool Contains(const Box& o) const {
    return xl <= o.xl && o.xu <= xu && yl <= o.yl && o.yu <= yu;
  }

  /// Grows this box to cover `o`.
  void ExpandToInclude(const Box& o) {
    xl = std::min(xl, o.xl);
    yl = std::min(yl, o.yl);
    xu = std::max(xu, o.xu);
    yu = std::max(yu, o.yu);
  }

  void ExpandToInclude(const Point& p) {
    xl = std::min(xl, p.x);
    yl = std::min(yl, p.y);
    xu = std::max(xu, p.x);
    yu = std::max(yu, p.y);
  }

  /// Intersection box; empty (xl > xu) when the boxes are disjoint.
  Box IntersectionWith(const Box& o) const {
    return Box{std::max(xl, o.xl), std::max(yl, o.yl), std::min(xu, o.xu),
               std::min(yu, o.yu)};
  }

  /// Area added to this box if it were expanded to cover `o` (R-tree metric).
  Coord EnlargementFor(const Box& o) const {
    const Coord w = std::max(xu, o.xu) - std::min(xl, o.xl);
    const Coord h = std::max(yu, o.yu) - std::min(yl, o.yl);
    return w * h - area();
  }

  /// Overlap area with `o` (R*-tree split metric); 0 when disjoint.
  Coord OverlapArea(const Box& o) const {
    const Coord w = std::min(xu, o.xu) - std::max(xl, o.xl);
    const Coord h = std::min(yu, o.yu) - std::max(yl, o.yl);
    return (w <= 0 || h <= 0) ? 0 : w * h;
  }

  /// Minimum Euclidean distance from `p` to this box (0 when inside).
  Coord MinDistanceTo(const Point& p) const {
    const Coord dx = std::max({xl - p.x, Coord{0}, p.x - xu});
    const Coord dy = std::max({yl - p.y, Coord{0}, p.y - yu});
    return std::sqrt(dx * dx + dy * dy);
  }

  /// Maximum Euclidean distance from `p` to any point of this box.
  Coord MaxDistanceTo(const Point& p) const {
    const Coord dx = std::max(std::abs(p.x - xl), std::abs(p.x - xu));
    const Coord dy = std::max(std::abs(p.y - yl), std::abs(p.y - yu));
    return std::sqrt(dx * dx + dy * dy);
  }

  friend bool operator==(const Box& a, const Box& b) {
    return a.xl == b.xl && a.yl == b.yl && a.xu == b.xu && a.yu == b.yu;
  }
};

/// The reference point of [Dittrich & Seeger, ICDE'00] used by the 1-layer
/// baselines: the corner of r ∩ W with the smallest coordinates. A result is
/// reported only in the partition containing this point, so each result is
/// reported exactly once.
inline Point ReferencePoint(const Box& r, const Box& w) {
  return Point{std::max(r.xl, w.xl), std::max(r.yl, w.yl)};
}

/// An (MBR, id) pair: the unit of storage in every partition of every index
/// in this library (paper §III keeps per-tile lists of such pairs).
struct BoxEntry {
  Box box;
  ObjectId id = kInvalidObjectId;
};

}  // namespace tlp

#endif  // TLP_GEOMETRY_BOX_H_
