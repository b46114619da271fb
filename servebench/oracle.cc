#include "servebench/oracle.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <unordered_set>

#include "core/skyline.h"
#include "net/query_lang.h"

namespace servebench {

namespace {

using tlp::Box;
using tlp::BoxEntry;
using tlp::ObjectId;
using tlp::net::FormatNumber;

struct Row {
  ObjectId id = 0;
  std::string rest;  // the row after "<id> "
};

/// A (distance, id) pair in the order KNN replies use.
struct Ranked {
  double distance = 0;
  ObjectId id = 0;
  friend bool operator<(const Ranked& a, const Ranked& b) {
    return a.distance < b.distance ||
           (a.distance == b.distance && a.id < b.id);
  }
};

bool ParseRows(const std::vector<std::string>& rows, std::vector<Row>* out) {
  for (const std::string& r : rows) {
    Row row;
    const char* end = r.data() + r.size();
    const auto [p, ec] = std::from_chars(r.data(), end, row.id);
    if (ec != std::errc{}) return false;
    if (p != end) {
      if (*p != ' ') return false;
      row.rest.assign(p + 1, end);
    }
    out->push_back(std::move(row));
  }
  return true;
}

std::string Id(ObjectId id) { return "id " + std::to_string(id); }

/// One Check call: the statement, who sent it, and the reference data.
struct Checker {
  const std::vector<BoxEntry>& base;
  std::uint64_t seed;
  const Statement& s;
  std::size_t conn;
  const std::optional<BoxEntry>& own;
  bool live;

  bool IsBase(ObjectId id) const { return id < base.size(); }

  /// Box of a base or private id; nullopt for an id no statement of this
  /// seed can have created.
  std::optional<Box> BoxOf(ObjectId id) const {
    if (IsBase(id)) return base[id].box;
    std::size_t c = 0;
    std::size_t pair = 0;
    if (!DecodePrivate(id, &c, &pair)) return std::nullopt;
    return PrivateEntry(seed, c, pair).box;
  }

  /// Empty when `id` may appear in a reply at all.
  std::string Admissible(ObjectId id) const {
    if (!BoxOf(id)) return "unknown " + Id(id);
    if (IsBase(id)) return "";
    if (!live) return "private " + Id(id) + " on a read-only server";
    std::size_t c = 0;
    std::size_t pair = 0;
    (void)DecodePrivate(id, &c, &pair);
    if (c == conn && !(own && own->id == id)) {
      return "own private " + Id(id) + " is not inserted";
    }
    return "";
  }

  double Distance(ObjectId id) const {
    return BoxOf(id)->MinDistanceTo(s.point);
  }

  /// The `count` smallest base entries by (MinDistanceTo(point), id), in
  /// that order (a bounded max-heap over one scan).
  std::vector<Ranked> Nearest(std::size_t count) const {
    std::vector<Ranked> heap;
    if (count == 0) return heap;
    heap.reserve(count);
    for (std::size_t i = 0; i < base.size(); ++i) {
      const Ranked r{base[i].box.MinDistanceTo(s.point),
                     static_cast<ObjectId>(i)};
      if (heap.size() < count) {
        heap.push_back(r);
        std::push_heap(heap.begin(), heap.end());
      } else if (r < heap.front()) {
        std::pop_heap(heap.begin(), heap.end());
        heap.back() = r;
        std::push_heap(heap.begin(), heap.end());
      }
    }
    std::sort_heap(heap.begin(), heap.end());
    return heap;
  }

  /// WINDOW and DISK: ascending ids of every object satisfying the query.
  std::string IdSet(const std::vector<Row>& rows) const {
    const auto satisfies = [this](const Box& b) {
      return s.kind == Kind::kWindow ? b.Intersects(s.box)
                                     : b.MinDistanceTo(s.point) <= s.radius;
    };
    std::vector<ObjectId> got_base;
    bool own_seen = false;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const ObjectId id = rows[i].id;
      if (!rows[i].rest.empty()) return Id(id) + ": unexpected row fields";
      if (i > 0 && id <= rows[i - 1].id) return "not ascending at " + Id(id);
      if (std::string e = Admissible(id); !e.empty()) return e;
      if (!satisfies(*BoxOf(id))) return Id(id) + " does not satisfy the query";
      if (IsBase(id)) got_base.push_back(id);
      own_seen = own_seen || (own && own->id == id);
    }
    std::size_t j = 0;
    for (std::size_t i = 0; i < base.size(); ++i) {
      if (!satisfies(base[i].box)) continue;
      if (j >= got_base.size() || got_base[j] != i) {
        return "base " + Id(static_cast<ObjectId>(i)) + " missing";
      }
      ++j;
    }
    if (own && satisfies(own->box) && !own_seen) {
      return "own private " + Id(own->id) + " missing";
    }
    return "";
  }

  /// Per-row checks of a ranked reply ("<id> <distance>"): known ids,
  /// exact distances, no duplicates. Fills `ranked` in reply order.
  std::string RankedRows(const std::vector<Row>& rows,
                         std::vector<Ranked>* ranked) const {
    std::unordered_set<ObjectId> seen;
    for (const Row& row : rows) {
      if (std::string e = Admissible(row.id); !e.empty()) return e;
      if (!seen.insert(row.id).second) return "duplicate " + Id(row.id);
      const double d = Distance(row.id);
      if (row.rest != FormatNumber(d)) {
        return Id(row.id) + ": distance '" + row.rest + "', expected " +
               FormatNumber(d);
      }
      ranked->push_back(Ranked{d, row.id});
    }
    const std::size_t want = std::min(s.k, base.size());
    if (rows.size() < want || rows.size() > s.k ||
        (!live && rows.size() != want)) {
      return std::to_string(rows.size()) + " rows, expected " +
             std::to_string(want);
    }
    return "";
  }

  /// KNN: the k nearest by (distance, id), in that order.
  std::string Knn(const std::vector<Row>& rows) const {
    std::vector<Ranked> got;
    if (std::string e = RankedRows(rows, &got); !e.empty()) return e;
    for (std::size_t i = 1; i < got.size(); ++i) {
      if (!(got[i - 1] < got[i])) return "out of order at " + Id(got[i].id);
    }
    const std::vector<Ranked> want = Nearest(s.k + 1);
    std::size_t m = 0;  // base rows: must be the base order's prefix
    bool own_seen = false;
    for (const Ranked& r : got) {
      own_seen = own_seen || (own && own->id == r.id);
      if (!IsBase(r.id)) continue;
      if (m >= want.size() || want[m].id != r.id) {
        return "base " + Id(r.id) + " at base rank " + std::to_string(m) +
               ", expected " + Id(m < want.size() ? want[m].id : 0);
      }
      ++m;
    }
    // Nothing left out: the next base object and the own private object
    // (when inserted) rank after the last row of a full reply.
    const bool full = got.size() == s.k;
    if (m < want.size() && (!full || want[m] < got.back())) {
      return "base " + Id(want[m].id) + " missing";
    }
    if (own && !own_seen) {
      const Ranked mine{own->box.MinDistanceTo(s.point), own->id};
      if (!full || mine < got.back()) {
        return "own private " + Id(own->id) + " missing";
      }
    }
    return "";
  }

  /// SKYLINE: ascending ids of the objects no other object dominates in
  /// (dx, dy), each with its attributes.
  std::string Skyline(const std::vector<Row>& rows) const {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const ObjectId id = rows[i].id;
      if (i > 0 && id <= rows[i - 1].id) return "not ascending at " + Id(id);
      if (std::string e = Admissible(id); !e.empty()) return e;
      const Box b = *BoxOf(id);
      const std::string attrs =
          FormatNumber(tlp::SkylineAxisDistance(b.xl, b.xu, s.point.x)) + " " +
          FormatNumber(tlp::SkylineAxisDistance(b.yl, b.yu, s.point.y));
      if (rows[i].rest != attrs) {
        return Id(id) + ": attributes '" + rows[i].rest + "', expected " +
               attrs;
      }
    }
    if (live) return "";
    struct Attr {
      double dx, dy;
      ObjectId id;
    };
    std::vector<Attr> all(base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      const Box& b = base[i].box;
      all[i] = Attr{tlp::SkylineAxisDistance(b.xl, b.xu, s.point.x),
                    tlp::SkylineAxisDistance(b.yl, b.yu, s.point.y),
                    static_cast<ObjectId>(i)};
    }
    std::sort(all.begin(), all.end(), [](const Attr& a, const Attr& b) {
      return a.dx < b.dx || (a.dx == b.dx && a.dy < b.dy);
    });
    // Within a run of equal dx only the smallest dy can survive; it (and
    // its ties) survives iff every object with a smaller dx has a larger dy.
    std::vector<ObjectId> want;
    double min_dy_before = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < all.size();) {
      const double dx = all[i].dx;
      const double run_min = all[i].dy;
      for (; i < all.size() && all[i].dx == dx; ++i) {
        if (all[i].dy == run_min && run_min < min_dy_before) {
          want.push_back(all[i].id);
        }
      }
      min_dy_before = std::min(min_dy_before, run_min);
    }
    std::sort(want.begin(), want.end());
    if (want.size() != rows.size()) {
      return std::to_string(rows.size()) + " skyline rows, expected " +
             std::to_string(want.size());
    }
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (rows[i].id != want[i]) return Id(want[i]) + " missing";
    }
    return "";
  }

  /// DIVKNN: k distinct objects, the nearest first, all drawn from the
  /// 4k-nearest pool a DIVKNN without FETCH re-ranks.
  std::string DivKnn(const std::vector<Row>& rows) const {
    std::vector<Ranked> got;
    if (std::string e = RankedRows(rows, &got); !e.empty()) return e;
    if (live || got.empty()) return "";
    const std::vector<Ranked> pool = Nearest(4 * s.k);
    if (got.front().id != pool.front().id) {
      return "first row " + Id(got.front().id) + ", expected nearest " +
             Id(pool.front().id);
    }
    std::unordered_set<ObjectId> in_pool;
    for (const Ranked& r : pool) in_pool.insert(r.id);
    for (const Ranked& r : got) {
      if (in_pool.count(r.id) == 0) return Id(r.id) + " outside the FETCH pool";
    }
    return "";
  }
};

}  // namespace

std::string Oracle::Check(const Statement& s, std::size_t conn,
                          const std::optional<BoxEntry>& own, bool live,
                          const std::vector<std::string>& rows) const {
  std::vector<Row> parsed;
  if (!ParseRows(rows, &parsed)) return "malformed row";
  const Checker c{base_, seed_, s, conn, own, live};
  switch (s.kind) {
    case Kind::kWindow:
    case Kind::kDisk: return c.IdSet(parsed);
    case Kind::kKnn: return c.Knn(parsed);
    case Kind::kSkyline: return c.Skyline(parsed);
    case Kind::kDivKnn: return c.DivKnn(parsed);
    case Kind::kInsert:
    case Kind::kDelete: break;
  }
  return "not a read statement";
}

}  // namespace servebench
