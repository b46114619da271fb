#ifndef SERVEBENCH_WORKLOAD_H_
#define SERVEBENCH_WORKLOAD_H_

// The serving benchmark's workloads and their statement generator, shared
// by the load client (which sends the statements to a tlp_serve) and the
// trace (which replays the same statements in-process). Everything here is
// a pure function of (workload, seed, connection), so both see the same
// stream and the oracle can reconstruct every object a statement touches.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/rng.h"
#include "geometry/box.h"
#include "net/query_lang.h"

namespace servebench {

/// Statement kinds. The first five are reads; INSERT/DELETE are reported
/// together as "update".
enum class Kind : std::uint8_t {
  kWindow,
  kDisk,
  kKnn,
  kSkyline,
  kDivKnn,
  kInsert,
  kDelete,
};
inline constexpr std::size_t kReadKinds = 5;

/// Reporting classes: the five read kinds plus "update".
inline constexpr std::size_t kReportKinds = 6;
inline constexpr std::array<const char*, kReportKinds> kReportNames = {
    "window", "disk", "knn", "skyline", "divknn", "update"};

inline std::size_t ReportIndex(Kind k) {
  return std::min(static_cast<std::size_t>(k), kReportKinds - 1);
}
inline bool IsRead(Kind k) {
  return static_cast<std::size_t>(k) < kReadKinds;
}

/// Statement shares: relative weights of the five read kinds, and the
/// fraction of statements that are updates (paired INSERT/DELETE).
struct Mix {
  std::array<double, kReadKinds> read_weight{};
  double update_fraction = 0;
};

struct Workload {
  const char* name;
  std::size_t objects;   // base dataset cardinality
  Mix mix;
  double where_fraction;  // reads that carry "WHERE ID >= 0"
  bool live;              // served with --live
  bool durable;           // and with --wal-dir
};

/// Why each workload exists is recorded in BENCHMARK.json and README.md.
inline constexpr std::array<Workload, 4> kWorkloads = {{
    {"read-1m", 1'000'000, {{40, 20, 25, 5, 10}, 0.0}, 1.0 / 3, false,
     false},
    {"read-64k", 65'536, {{50, 20, 30, 0, 0}, 0.0}, 0.0, false, false},
    {"live-1m-u20", 1'000'000, {{50, 20, 30, 0, 0}, 0.2}, 0.0, true, false},
    {"durable-1m-u20", 1'000'000, {{50, 20, 30, 0, 0}, 0.2}, 0.0, true,
     true},
}};

inline const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Grid dimension tlp_snapshot picks for n objects (sqrt(n)/4 per axis,
/// clamped to [16, 4096]).
inline std::uint32_t GridDimFor(std::size_t n) {
  const auto dim =
      static_cast<std::uint32_t>(std::sqrt(static_cast<double>(n)) / 4);
  return std::min<std::uint32_t>(4096, std::max<std::uint32_t>(16, dim));
}

/// Object area for an n-object dataset: a side of about a quarter tile,
/// which makes ~48% of objects replicate into classes B/C/D at every size.
/// 1M objects -> 1e-6; 65,536 -> 1.5e-5.
inline double AreaFor(std::size_t n) {
  const double side = 1.0 / (4.0 * GridDimFor(n));
  return side * side;
}

/// Update objects live in an id range no base dataset reaches:
/// kPrivateBase + conn * kPrivateStride + pair.
inline constexpr tlp::ObjectId kPrivateBase = 10'000'000;
inline constexpr tlp::ObjectId kPrivateStride = 1'000'000;

/// Connections per run: with the server's reactor and two workers and the
/// client's one thread, four closed-loop connections fill a 4-core machine.
inline constexpr std::size_t kConnections = 4;

inline std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t a,
                             std::uint64_t b) {
  tlp::SplitMix64 sm(seed ^ (a * 0x9e3779b97f4a7c15ULL) ^
                     (b * 0xc2b2ae3d27d4eb4fULL));
  return sm.Next();
}

/// The object a connection inserts (and then deletes) as its pair-th
/// update: a function of (seed, conn, pair) alone, so the oracle can
/// recompute the box of any private id it meets in a reply.
inline tlp::BoxEntry PrivateEntry(std::uint64_t seed, std::size_t conn,
                                  std::size_t pair) {
  tlp::Rng rng(MixSeed(seed, conn + 1, pair + 0x5eed));
  const double ratio = rng.Uniform(0.25, 4.0);
  const double w = std::sqrt(1e-6 * ratio);
  const double h = std::sqrt(1e-6 / ratio);
  const double cx = rng.Uniform(0.0, 1.0 - w);
  const double cy = rng.Uniform(0.0, 1.0 - h);
  return tlp::BoxEntry{
      tlp::Box{cx, cy, cx + w, cy + h},
      static_cast<tlp::ObjectId>(kPrivateBase + conn * kPrivateStride +
                                 pair)};
}

/// Inverse of PrivateEntry's id assignment; false for any id no
/// connection's updates can produce.
inline bool DecodePrivate(tlp::ObjectId id, std::size_t* conn,
                          std::size_t* pair) {
  if (id < kPrivateBase) return false;
  *conn = (id - kPrivateBase) / kPrivateStride;
  *pair = (id - kPrivateBase) % kPrivateStride;
  return *conn < kConnections;
}

struct Statement {
  Kind kind = Kind::kWindow;
  std::string text;
  tlp::Box box;           // WINDOW box; INSERT/DELETE box
  tlp::Point point;       // DISK/KNN/SKYLINE/DIVKNN anchor
  double radius = 0;      // DISK
  std::size_t k = 0;      // KNN/DIVKNN
  tlp::ObjectId id = 0;   // INSERT/DELETE
};

/// One connection's statement stream. Updates come in pairs: the u-th
/// update of a connection inserts private object u/2 when u is even and
/// deletes it when u is odd, so every update is predicted to reply "1" and
/// a connection holds at most one private object at a time.
class StatementStream {
 public:
  StatementStream(const Mix& mix, double where_fraction, std::uint64_t seed,
                  std::size_t conn)
      : mix_(mix),
        where_fraction_(where_fraction),
        seed_(seed),
        conn_(conn),
        rng_(MixSeed(seed, conn + 1, 0)) {
    for (const double w : mix_.read_weight) read_total_ += w;
  }

  /// This connection's private object that is inserted at this point of
  /// the stream (every earlier statement completed), if any.
  [[nodiscard]] const std::optional<tlp::BoxEntry>& own_private() const {
    return own_;
  }

  Statement Next() {
    Statement s;
    if (mix_.update_fraction > 0 && rng_.NextDouble() < mix_.update_fraction) {
      const std::size_t pair = updates_ / 2;
      const tlp::BoxEntry e = PrivateEntry(seed_, conn_, pair);
      s.kind = updates_ % 2 == 0 ? Kind::kInsert : Kind::kDelete;
      s.box = e.box;
      s.id = e.id;
      s.text = (s.kind == Kind::kInsert ? "INSERT " : "DELETE ") +
               std::to_string(e.id) + " " + BoxText(e.box);
      ++updates_;
      if (s.kind == Kind::kInsert) {
        own_ = e;
      } else {
        own_.reset();
      }
      return s;
    }
    s.kind = PickRead();
    double fx = rng_.NextDouble();
    double fy = rng_.NextDouble();
    // Read your writes: while the connection's private object is inserted,
    // a quarter of its reads are anchored on it, so the oracle's check of
    // that object's presence is exercised, not left to chance.
    if (own_ && rng_.NextDouble() < 0.25) {
      fx = own_->box.center().x;
      fy = own_->box.center().y;
    }
    s.point = tlp::Point{fx, fy};
    using tlp::net::FormatNumber;
    const std::string anchor = FormatNumber(fx) + " " + FormatNumber(fy);
    switch (s.kind) {
      case Kind::kWindow: {
        // Side 0.01-0.05: ~1,100 rows on 1M objects, ~80 on 65,536.
        const double side = rng_.Uniform(0.01, 0.05);
        const double xl = std::clamp(fx - side / 2, 0.0, 1.0 - side);
        const double yl = std::clamp(fy - side / 2, 0.0, 1.0 - side);
        s.box = tlp::Box{xl, yl, xl + side, yl + side};
        s.point = s.box.center();
        s.text = "SELECT WINDOW " + BoxText(s.box);
        break;
      }
      case Kind::kDisk:
        s.radius = 0.02;
        s.text = "SELECT DISK " + anchor + " 0.02";
        break;
      case Kind::kKnn:
        s.k = 4 + rng_.NextBelow(13);
        s.text = "SELECT KNN " + anchor + " " + std::to_string(s.k);
        break;
      case Kind::kSkyline:
        s.text = "SELECT SKYLINE " + anchor;
        break;
      default:
        s.k = 4 + rng_.NextBelow(9);
        s.text = "SELECT DIVKNN " + anchor + " " + std::to_string(s.k) +
                 " LAMBDA 0.5";
        break;
    }
    if (where_fraction_ > 0 && rng_.NextDouble() < where_fraction_) {
      s.text += " WHERE ID >= 0";  // keeps every row; exercises the filter
    }
    return s;
  }

 private:
  static std::string BoxText(const tlp::Box& b) {
    using tlp::net::FormatNumber;
    return FormatNumber(b.xl) + " " + FormatNumber(b.yl) + " " +
           FormatNumber(b.xu) + " " + FormatNumber(b.yu);
  }

  Kind PickRead() {
    double u = rng_.NextDouble() * read_total_;
    std::size_t last = 0;  // rounding fallback: the last weighted kind
    for (std::size_t i = 0; i < kReadKinds; ++i) {
      if (mix_.read_weight[i] <= 0) continue;
      if (u < mix_.read_weight[i]) return static_cast<Kind>(i);
      u -= mix_.read_weight[i];
      last = i;
    }
    return static_cast<Kind>(last);
  }

  Mix mix_;
  double where_fraction_;
  std::uint64_t seed_;
  std::size_t conn_;
  tlp::Rng rng_;
  double read_total_ = 0;
  std::size_t updates_ = 0;
  std::optional<tlp::BoxEntry> own_;
};

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOAD_H_
