#ifndef TLP_GRID_SCAN_H_
#define TLP_GRID_SCAN_H_

#include <cstddef>
#include <cstdint>
#include <limits>

#include "common/query_stats.h"
#include "common/simd.h"
#include "geometry/box.h"

namespace tlp {

/// Bit flags naming the four possible per-rectangle comparisons of §IV-B.
/// A window evaluation plan selects, per tile, the subset that is not implied
/// by the tile/window geometry (Lemmas 3 and 4 plus coverage): interior tiles
/// need none, border tiles need at most one per dimension (Corollary 1).
inline constexpr unsigned kCmpXuGeWxl = 1u;  // keep r iff r.xu >= W.xl
inline constexpr unsigned kCmpXlLeWxu = 2u;  // keep r iff r.xl <= W.xu
inline constexpr unsigned kCmpYuGeWyl = 4u;  // keep r iff r.yu >= W.yl
inline constexpr unsigned kCmpYlLeWyu = 8u;  // keep r iff r.yl <= W.yu

/// Scans a partition applying exactly the comparisons in `Mask`, invoking
/// `emit(entry)` for every surviving entry. The mask is a template parameter
/// so each tile case compiles to a branch-minimal loop. The comparisons the
/// short-circuit plan reaches are counted in a register and added to the
/// query-stats accumulator once per call.
template <unsigned Mask, typename Emit>
inline void ScanPartition(const BoxEntry* data, std::size_t n, const Box& w,
                          Emit&& emit) {
  std::uint64_t tested = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const BoxEntry& e = data[k];
    if constexpr ((Mask & kCmpXuGeWxl) != 0) {
      ++tested;
      if (e.box.xu < w.xl) continue;
    }
    if constexpr ((Mask & kCmpXlLeWxu) != 0) {
      ++tested;
      if (e.box.xl > w.xu) continue;
    }
    if constexpr ((Mask & kCmpYuGeWyl) != 0) {
      ++tested;
      if (e.box.yu < w.yl) continue;
    }
    if constexpr ((Mask & kCmpYlLeWyu) != 0) {
      ++tested;
      if (e.box.yl > w.yu) continue;
    }
    emit(e);
  }
  if constexpr (Mask != 0) TLP_STATS_ADD(comparisons, tested);
}

// The SIMD kernel loads a BoxEntry's four coordinates as one lane vector
// from &box.xl; pin the layout it relies on.
static_assert(offsetof(Box, xl) == 0 && offsetof(Box, yl) == sizeof(Coord) &&
                  offsetof(Box, xu) == 2 * sizeof(Coord) &&
                  offsetof(Box, yu) == 3 * sizeof(Coord),
              "SIMD scan kernels assume Box lanes [xl, yl, xu, yu]");
static_assert(offsetof(BoxEntry, box) == 0,
              "SIMD scan kernels load lanes from &entry.box.xl");

/// Per-lane bounds realizing comparison mask `mask` against window `w` for
/// the lane order [xl, yl, xu, yu]. Comparisons the mask leaves out get
/// +-infinity bounds, which no coordinate (finite, infinite, or NaN) can
/// violate — so one kernel serves all 16 masks.
inline simd::LaneBounds LaneBoundsForMask(const Box& w, unsigned mask) {
  constexpr Coord kInf = std::numeric_limits<Coord>::infinity();
  simd::LaneBounds b;
  b.le[0] = (mask & kCmpXlLeWxu) != 0 ? w.xu : kInf;   // keep iff xl <= W.xu
  b.le[1] = (mask & kCmpYlLeWyu) != 0 ? w.yu : kInf;   // keep iff yl <= W.yu
  b.le[2] = kInf;
  b.le[3] = kInf;
  b.ge[0] = -kInf;
  b.ge[1] = -kInf;
  b.ge[2] = (mask & kCmpXuGeWxl) != 0 ? w.xl : -kInf;  // keep iff xu >= W.xl
  b.ge[3] = (mask & kCmpYuGeWyl) != 0 ? w.yl : -kInf;  // keep iff yu >= W.yl
  return b;
}

/// Vectorized runtime-mask scan: one transposed 4-box kernel per group of
/// four entries instead of 16 specialized loops; runs of all-miss and
/// all-hit skip the per-entry bit walk. Emit order is identical to the
/// scalar ScanPartition — ascending k, one emit per surviving entry
/// (tests/simd_test.cc proves it differentially for all 16 masks).
///
/// Measured on the Fig. 9 workloads, the dispatcher below does NOT route
/// through this kernel: border-tile scans are drop-heavy and spatially
/// coherent, so the specialized scalar loops retire about one
/// well-predicted comparison per entry and the transpose + movemask per
/// group costs more than the comparisons it saves (the zipf 1-layer rows
/// regressed up to 45% when corner tiles took this path). It stays as the
/// tested building block for evaluation paths with different shapes — the
/// 2-layer+ residual verification uses the same kernels per entry, where
/// mixed pass/fail outcomes defeat the branch predictor.
template <typename Emit>
inline void ScanPartitionSimd(unsigned mask, const BoxEntry* data,
                              std::size_t n, const Box& w, Emit&& emit) {
  mask &= 15u;
  if (mask == 0) {
    for (std::size_t k = 0; k < n; ++k) emit(data[k]);
    return;
  }
  if (n == 0) return;
  const simd::LaneBounds lb = LaneBoundsForMask(w, mask);
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const Coord* lanes[4] = {&data[k].box.xl, &data[k + 1].box.xl,
                             &data[k + 2].box.xl, &data[k + 3].box.xl};
    const unsigned hits = simd::MatchesMask4(lanes, lb);
    if (hits == 0) continue;
    if (hits == 15u) {
      emit(data[k]);
      emit(data[k + 1]);
      emit(data[k + 2]);
      emit(data[k + 3]);
      continue;
    }
    for (unsigned s = 0; s < 4; ++s) {
      if ((hits >> s) & 1u) emit(data[k + s]);
    }
  }
  for (; k < n; ++k) {
    if (simd::Matches(&data[k].box.xl, lb)) emit(data[k]);
  }
}

/// Runtime-mask dispatcher over the 16 ScanPartition instantiations. Every
/// mask keeps its specialized short-circuit scalar loop — see the
/// ScanPartitionSimd note for the measurement behind that choice.
template <typename Emit>
inline void ScanPartitionDispatch(unsigned mask, const BoxEntry* data,
                                  std::size_t n, const Box& w, Emit&& emit) {
  switch (mask & 15u) {
#define TLP_SCAN_CASE(M) \
  case M:                \
    ScanPartition<M>(data, n, w, emit); \
    break;
    TLP_SCAN_CASE(0u)
    TLP_SCAN_CASE(1u)
    TLP_SCAN_CASE(2u)
    TLP_SCAN_CASE(3u)
    TLP_SCAN_CASE(4u)
    TLP_SCAN_CASE(5u)
    TLP_SCAN_CASE(6u)
    TLP_SCAN_CASE(7u)
    TLP_SCAN_CASE(8u)
    TLP_SCAN_CASE(9u)
    TLP_SCAN_CASE(10u)
    TLP_SCAN_CASE(11u)
    TLP_SCAN_CASE(12u)
    TLP_SCAN_CASE(13u)
    TLP_SCAN_CASE(14u)
    TLP_SCAN_CASE(15u)
#undef TLP_SCAN_CASE
  }
}

/// True iff `b` passes every comparison in `mask` against window `w`.
/// Callers account the comparisons they run (it counts nothing itself).
inline bool PassesComparisonMask(const Box& b, const Box& w, unsigned mask) {
  if ((mask & kCmpXuGeWxl) != 0 && b.xu < w.xl) return false;
  if ((mask & kCmpXlLeWxu) != 0 && b.xl > w.xu) return false;
  if ((mask & kCmpYuGeWyl) != 0 && b.yu < w.yl) return false;
  if ((mask & kCmpYlLeWyu) != 0 && b.yl > w.yu) return false;
  return true;
}

/// Comparison mask a tile needs in one dimension, from its position within
/// the window's tile range in that dimension.
///
/// `first` / `last`: is the tile in the window's first / last column (row)?
/// Interior tiles are covered by W in the dimension, so no comparison is
/// needed; a first-and-not-last tile needs only the Lemma 4 lower-end check;
/// a last-and-not-first tile needs only the Lemma 3 upper-end check; a
/// first-and-last tile needs both.
inline unsigned DimComparisonMask(bool first, bool last, unsigned ge_flag,
                                  unsigned le_flag) {
  unsigned mask = 0;
  if (first) mask |= ge_flag;
  if (last) mask |= le_flag;
  return mask;
}

/// Full §IV-B mask for a tile at position (first/last column, first/last row)
/// of the window's tile range.
inline unsigned TileComparisonMask(bool first_col, bool last_col,
                                   bool first_row, bool last_row) {
  return DimComparisonMask(first_col, last_col, kCmpXuGeWxl, kCmpXlLeWxu) |
         DimComparisonMask(first_row, last_row, kCmpYuGeWyl, kCmpYlLeWyu);
}

}  // namespace tlp

#endif  // TLP_GRID_SCAN_H_
