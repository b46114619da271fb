#include "core/two_layer_grid.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "grid/parallel_build.h"
#include "grid/scan.h"

namespace tlp {

namespace {

/// A NaN or inverted box would be stored in no tile, where no query finds
/// it: reject it up front.
void RejectIllFormed(const Box& b) {
  if (!b.IsWellFormed()) {
    throw std::invalid_argument(
        "2-layer grid: box is inverted or has a NaN coordinate");
  }
}

}  // namespace

TwoLayerGrid::TwoLayerGrid(const GridLayout& layout)
    : layout_(layout),
      tiles_(layout.tile_count()),
      class_a_extent_(layout.tile_count(), Box::Empty()) {
  occupancy_.Reset(tiles_.size());
}

void TwoLayerGrid::RebuildOccupancy() {
  occupancy_.Reset(tiles_.size());
  class_a_extent_.assign(tiles_.size(), Box::Empty());
  object_count_ = 0;
  has_out_of_domain_ = false;
  const std::size_t a = SegmentOf(ObjectClass::kA);
  for (std::size_t t = 0; t < tiles_.size(); ++t) {
    const Tile& tile = tiles_[t];
    if (tile.empty()) continue;
    occupancy_.Set(t);
    // Every stored object is class A of exactly one tile, so the class-A
    // segments alone see each object once for the count and the
    // out-of-domain flag.
    object_count_ += tile.begin[a + 1] - tile.begin[a];
    for (std::uint32_t k = tile.begin[a]; k < tile.begin[a + 1]; ++k) {
      const Box& b = tile.entries[k].box;
      class_a_extent_[t].ExpandToInclude(b);
      if (!InDomain(b)) has_out_of_domain_ = true;
    }
  }
}

bool TwoLayerGrid::InDomain(const Box& b) const {
  const Box& d = layout_.domain();
  return b.xl >= d.xl && b.xu <= d.xu && b.yl >= d.yl && b.yu <= d.yu;
}

void TwoLayerGrid::RequireMutable(const char* op) const {
  if (frozen_) {
    throw std::logic_error(
        std::string(op) +
        " on a frozen (mmap-backed) 2-layer index; call Thaw() first");
  }
}

void TwoLayerGrid::Build(const std::vector<BoxEntry>& entries,
                         std::size_t num_threads) {
  RequireMutable("Build");
  for (const BoxEntry& e : entries) RejectIllFormed(e.box);
  const std::size_t threads =
      build_internal::EffectiveBuildThreads(num_threads, entries.size());
  if (threads <= 1) {
    BuildSequential(entries);
    return;
  }
  ThreadPool pool(threads);
  BuildOnPool(entries, pool);
}

void TwoLayerGrid::Build(const std::vector<BoxEntry>& entries,
                         ThreadPool& pool) {
  RequireMutable("Build");
  for (const BoxEntry& e : entries) RejectIllFormed(e.box);
  if (pool.num_threads() <= 1) {
    BuildSequential(entries);
    return;
  }
  BuildOnPool(entries, pool);
}

void TwoLayerGrid::BuildSequential(const std::vector<BoxEntry>& entries) {
  // Pass 1: count entries per (tile, class) so each tile allocates exactly
  // once and classes end up contiguous.
  std::vector<std::array<std::uint32_t, kNumClasses>> counts(tiles_.size(),
                                                             {0, 0, 0, 0});
  for (const BoxEntry& e : entries) {
    const TileRange range = layout_.TilesFor(e.box);
    for (std::uint32_t j = range.j0; j <= range.j1; ++j) {
      for (std::uint32_t i = range.i0; i <= range.i1; ++i) {
        const ObjectClass c = ClassifyEntryInTile(layout_, i, j, e.box);
        ++counts[layout_.TileId(i, j)][SegmentOf(c)];
      }
    }
  }
  for (std::size_t t = 0; t < tiles_.size(); ++t) {
    Tile& tile = tiles_[t];
    std::uint32_t total = 0;
    for (std::size_t c = 0; c < kNumClasses; ++c) {
      tile.begin[c] = total;
      total += counts[t][c];
    }
    tile.begin[kNumClasses] = total;
    tile.entries.vec().resize(total);
  }
  // Pass 2: place entries at per-(tile, class) cursors.
  std::vector<std::array<std::uint32_t, kNumClasses>> cursors(
      tiles_.size(), {0, 0, 0, 0});
  for (const BoxEntry& e : entries) {
    const TileRange range = layout_.TilesFor(e.box);
    for (std::uint32_t j = range.j0; j <= range.j1; ++j) {
      for (std::uint32_t i = range.i0; i <= range.i1; ++i) {
        const std::size_t t = layout_.TileId(i, j);
        const std::size_t seg =
            SegmentOf(ClassifyEntryInTile(layout_, i, j, e.box));
        Tile& tile = tiles_[t];
        tile.entries.vec()[tile.begin[seg] + cursors[t][seg]++] = e;
      }
    }
  }
  RebuildOccupancy();
}

void TwoLayerGrid::BuildOnPool(const std::vector<BoxEntry>& entries,
                               ThreadPool& pool) {
  const std::size_t n_tiles = tiles_.size();
  const std::size_t chunks = pool.num_threads();
  const std::vector<TileRange> ranges =
      build_internal::ComputeTileRanges(pool, layout_, entries);

  // Count pass: per-chunk (tile, class) histograms over disjoint entry
  // ranges, merged per tile below.
  std::vector<std::vector<std::array<std::uint32_t, kNumClasses>>>
      chunk_counts(chunks);
  ParallelForChunks(
      pool, entries.size(), chunks,
      [&](std::size_t c, std::size_t begin, std::size_t end) {
        auto& counts = chunk_counts[c];
        counts.assign(n_tiles, {0, 0, 0, 0});
        for (std::size_t k = begin; k < end; ++k) {
          const TileRange& r = ranges[k];
          for (std::uint32_t j = r.j0; j <= r.j1; ++j) {
            for (std::uint32_t i = r.i0; i <= r.i1; ++i) {
              const std::size_t seg =
                  SegmentOf(ClassifyEntryInTile(layout_, i, j, entries[k].box));
              ++counts[layout_.TileId(i, j)][seg];
            }
          }
        }
      });

  // Merge into per-tile class prefix sums and allocate each tile exactly
  // once (chunk order fixes the sums, so they equal the sequential pass').
  std::vector<std::uint64_t> tile_work(n_tiles);
  ParallelFor(pool, n_tiles, [&](std::size_t begin, std::size_t end) {
    for (std::size_t t = begin; t < end; ++t) {
      std::array<std::uint32_t, kNumClasses> total = {0, 0, 0, 0};
      for (const auto& counts : chunk_counts) {
        for (std::size_t s = 0; s < kNumClasses; ++s) {
          total[s] += counts[t][s];
        }
      }
      Tile& tile = tiles_[t];
      std::uint32_t acc = 0;
      for (std::size_t s = 0; s < kNumClasses; ++s) {
        tile.begin[s] = acc;
        acc += total[s];
      }
      tile.begin[kNumClasses] = acc;
      tile.entries.vec().resize(acc);
      tile_work[t] = acc;
    }
  });

  // Place pass: each worker owns a contiguous tile range (balanced by entry
  // count) and scans the full entry vector in input order, writing only into
  // its own tiles' segments. One writer per tile keeps the cursors and
  // entry slots race-free, and the input-order scan reproduces the
  // sequential build bit for bit.
  const std::vector<std::size_t> cuts =
      build_internal::BalanceTiles(tile_work, chunks);
  std::vector<std::array<std::uint32_t, kNumClasses>> cursors(
      n_tiles, {0, 0, 0, 0});
  for (std::size_t p = 0; p < chunks; ++p) {
    pool.Submit([this, p, &cuts, &ranges, &entries, &cursors] {
      const std::size_t lo = cuts[p];
      const std::size_t hi = cuts[p + 1];
      if (lo == hi) return;
      for (std::size_t k = 0; k < entries.size(); ++k) {
        const TileRange& r = ranges[k];
        if (layout_.TileId(r.i1, r.j1) < lo ||
            layout_.TileId(r.i0, r.j0) >= hi) {
          continue;
        }
        for (std::uint32_t j = r.j0; j <= r.j1; ++j) {
          for (std::uint32_t i = r.i0; i <= r.i1; ++i) {
            const std::size_t t = layout_.TileId(i, j);
            if (t < lo || t >= hi) continue;
            const std::size_t seg =
                SegmentOf(ClassifyEntryInTile(layout_, i, j, entries[k].box));
            Tile& tile = tiles_[t];
            tile.entries.vec()[tile.begin[seg] + cursors[t][seg]++] =
                entries[k];
          }
        }
      }
    });
  }
  pool.Wait();
  // Sequentially: an occupancy word covers 64 tiles and so can straddle the
  // workers' tile-ownership cuts — setting bits from the workers would race.
  RebuildOccupancy();
}

void TwoLayerGrid::Insert(const BoxEntry& entry) {
  RequireMutable("Insert");
  RejectIllFormed(entry.box);
  if (!InDomain(entry.box)) has_out_of_domain_ = true;
  const TileRange range = layout_.TilesFor(entry.box);
  for (std::uint32_t j = range.j0; j <= range.j1; ++j) {
    for (std::uint32_t i = range.i0; i <= range.i1; ++i) {
      const std::size_t tile_id = layout_.TileId(i, j);
      Tile& tile = tiles_[tile_id];
      occupancy_.Set(tile_id);
      const std::size_t seg =
          SegmentOf(ClassifyEntryInTile(layout_, i, j, entry.box));
      // O(1) insertion into the segmented vector: grow by one slot, then
      // relocate only the first element of each later segment to its
      // segment's new end (order within a segment does not matter). With
      // the D|C|B|A layout, the dominant class-A case is a plain append,
      // keeping grid updates as cheap as the 1-layer baseline's (Table VI).
      auto& v = tile.entries.vec();
      v.push_back(entry);
      for (std::size_t k = kNumClasses; k > seg + 1; --k) {
        v[tile.begin[k]] = v[tile.begin[k - 1]];
      }
      v[tile.begin[seg + 1]] = entry;
      for (std::size_t k = seg + 1; k <= kNumClasses; ++k) ++tile.begin[k];
      if (seg == SegmentOf(ObjectClass::kA)) {
        class_a_extent_[tile_id].ExpandToInclude(entry.box);
        ++object_count_;
      }
    }
  }
}

bool TwoLayerGrid::Contains(const BoxEntry& entry) const {
  const TileRange range = layout_.TilesFor(entry.box);
  const auto [p, n] = ClassSpan(range.i0, range.j0, ObjectClass::kA);
  return std::any_of(p, p + n, [&](const BoxEntry& e) {
    return e.id == entry.id && e.box == entry.box;
  });
}

bool TwoLayerGrid::Delete(ObjectId id, const Box& box) {
  RequireMutable("Delete");
  const TileRange range = layout_.TilesFor(box);
  bool found = false;
  for (std::uint32_t j = range.j0; j <= range.j1; ++j) {
    for (std::uint32_t i = range.i0; i <= range.i1; ++i) {
      const std::size_t tile_id = layout_.TileId(i, j);
      Tile& tile = tiles_[tile_id];
      const std::size_t seg =
          SegmentOf(ClassifyEntryInTile(layout_, i, j, box));
      auto& v = tile.entries.vec();
      for (std::uint32_t k = tile.begin[seg]; k < tile.begin[seg + 1]; ++k) {
        if (v[k].id != id) continue;
        // Swap-remove within the segment, then close the one-slot gap by
        // rotating each later segment's last element into its front
        // (inverse of the Insert relocation).
        v[k] = v[tile.begin[seg + 1] - 1];
        for (std::size_t t = seg + 1; t < kNumClasses; ++t) {
          v[tile.begin[t] - 1] = v[tile.begin[t + 1] - 1];
        }
        v.pop_back();
        for (std::size_t t = seg + 1; t <= kNumClasses; ++t) --tile.begin[t];
        if (v.empty()) occupancy_.Clear(tile_id);
        if (seg == SegmentOf(ObjectClass::kA)) --object_count_;
        found = true;
        break;
      }
    }
  }
  return found;
}

template <typename Emit>
void TwoLayerGrid::ScanTile(const Tile& tile, const Box& w, unsigned base_mask,
                            bool first_col, bool first_row,
                            Emit&& emit) const {
  const BoxEntry* data = tile.entries.data();
  auto class_span = [&](ObjectClass c, const BoxEntry*& p, std::size_t& n) {
    const std::size_t k = SegmentOf(c);
    p = data + tile.begin[k];
    n = tile.begin[k + 1] - tile.begin[k];
  };
  const BoxEntry* p = nullptr;
  std::size_t n = 0;

  // Class A is always relevant (Lemmas 1-2 never exclude it).
  class_span(ObjectClass::kA, p, n);
  TLP_STATS_CLASS_SCANNED(ObjectClass::kA, n);
  ScanPartitionDispatch(base_mask, p, n, w, emit);

  // Class B (starts before the tile in y) is relevant only in the window's
  // first row (Lemma 2). Its r.yl < T.yl <= W.yl makes the upper-end y
  // comparison redundant (cf. Table II). A skipped class segment is replicas
  // a 1-layer grid would scan and dedup post hoc — account them as avoided.
  if (first_row) {
    class_span(ObjectClass::kB, p, n);
    TLP_STATS_CLASS_SCANNED(ObjectClass::kB, n);
    ScanPartitionDispatch(base_mask & ~kCmpYlLeWyu, p, n, w, emit);
  } else {
    TLP_STATS_ADD(duplicates_avoided,
                  tile.begin[SegmentOf(ObjectClass::kB) + 1] -
                      tile.begin[SegmentOf(ObjectClass::kB)]);
  }
  // Class C: only in the first column (Lemma 1); x upper-end comparison is
  // redundant.
  if (first_col) {
    class_span(ObjectClass::kC, p, n);
    TLP_STATS_CLASS_SCANNED(ObjectClass::kC, n);
    ScanPartitionDispatch(base_mask & ~kCmpXlLeWxu, p, n, w, emit);
  } else {
    TLP_STATS_ADD(duplicates_avoided,
                  tile.begin[SegmentOf(ObjectClass::kC) + 1] -
                      tile.begin[SegmentOf(ObjectClass::kC)]);
  }
  // Class D: only in the single tile containing the window's start corner.
  if (first_col && first_row) {
    class_span(ObjectClass::kD, p, n);
    TLP_STATS_CLASS_SCANNED(ObjectClass::kD, n);
    ScanPartitionDispatch(base_mask & ~(kCmpXlLeWxu | kCmpYlLeWyu), p, n, w,
                          emit);
  } else {
    TLP_STATS_ADD(duplicates_avoided,
                  tile.begin[SegmentOf(ObjectClass::kD) + 1] -
                      tile.begin[SegmentOf(ObjectClass::kD)]);
  }
}

void TwoLayerGrid::WindowQueryTile(std::uint32_t i, std::uint32_t j,
                                   const Box& w, const TileRange& range,
                                   std::vector<ObjectId>* out) const {
  const Tile& tile = tiles_[layout_.TileId(i, j)];
  if (tile.empty()) return;
  TLP_STATS_ADD(tiles_visited, 1);
  const bool first_col = i == range.i0;
  const bool first_row = j == range.j0;
  const unsigned mask =
      TileComparisonMask(first_col, i == range.i1, first_row, j == range.j1);
  if (mask == 0) {
    // Interior tile (mask 0: neither the first nor the last column or row):
    // only class A is scanned and every entry qualifies without a
    // comparison, so append the segment's id column in one growth step
    // instead of a capacity-checked push per entry. Interior tiles are the
    // bulk of any multi-tile window, and this emit loop is its hot spot.
    // Accounts exactly what ScanTile would with mask 0.
    const std::size_t seg = SegmentOf(ObjectClass::kA);
    const BoxEntry* p = tile.entries.data() + tile.begin[seg];
    const std::size_t n = tile.begin[seg + 1] - tile.begin[seg];
    TLP_STATS_CLASS_SCANNED(ObjectClass::kA, n);
    TLP_STATS_ADD(candidates, n);
    TLP_STATS_ADD(duplicates_avoided, tile.entries.size() - n);
    const std::size_t base = out->size();
    out->resize(base + n);
    ObjectId* dst = out->data() + base;
    for (std::size_t k = 0; k < n; ++k) dst[k] = p[k].id;
    return;
  }
  const std::size_t before = out->size();
  ScanTile(tile, w, mask, first_col, first_row,
           [&](const BoxEntry& e) { out->push_back(e.id); });
  TLP_STATS_ADD(candidates, out->size() - before);
}

void TwoLayerGrid::WindowQuery(const Box& w, std::vector<ObjectId>* out) const {
  TLP_STATS_QUERY_TIMER();
  const TileRange range = layout_.TilesFor(w);
  for (std::uint32_t j = range.j0; j <= range.j1; ++j) {
    ForEachOccupiedColumn(
        occupancy_, layout_, j, range.i0, range.i1,
        [&](std::uint32_t i) { WindowQueryTile(i, j, w, range, out); });
  }
}

void TwoLayerGrid::WindowCandidates(const Box& w,
                                    std::vector<Candidate>* out) const {
  TLP_STATS_QUERY_TIMER();
  const TileRange range = layout_.TilesFor(w);
  for (std::uint32_t j = range.j0; j <= range.j1; ++j) {
    ForEachOccupiedColumn(
        occupancy_, layout_, j, range.i0, range.i1, [&](std::uint32_t i) {
          const Tile& tile = tiles_[layout_.TileId(i, j)];
          if (tile.empty()) return;
          TLP_STATS_ADD(tiles_visited, 1);
          const bool first_col = i == range.i0;
          const bool first_row = j == range.j0;
          const unsigned mask = TileComparisonMask(first_col, i == range.i1,
                                                   first_row, j == range.j1);
          // In a non-first column only classes starting inside the tile in x
          // are accessed, so W.xl < r.xl is implied for every candidate;
          // likewise for rows (paper §V).
          const bool x_implied = !first_col;
          const bool y_implied = !first_row;
          const std::size_t before = out->size();
          ScanTile(tile, w, mask, first_col, first_row,
                   [&](const BoxEntry& e) {
                     out->push_back(Candidate{e.id, e.box, x_implied,
                                              y_implied});
                   });
          TLP_STATS_ADD(candidates, out->size() - before);
        });
  }
}

template <typename Emit>
void TwoLayerGrid::ForEachDiskResult(const Point& q, Coord radius,
                                     Coord min_radius, Emit&& emit) const {
  // Annulus mode (min_radius >= 0): everything within min_radius was
  // already reported by a previous probe, so (a) whole tiles inside the
  // inner disk are skipped — any object overlapping such a tile has
  // distance <= min_radius — and (b) surviving entries are distance-
  // filtered against the inner radius. The exactly-once row bookkeeping
  // below is unaffected: it depends only on the tile set of the OUTER
  // radius, and an entry suppressed at its row-minimal tile is an entry
  // the annulus filter would reject at any other tile too.
  const bool annulus = min_radius >= 0;
  const Box mbr{q.x - radius, q.y - radius, q.x + radius, q.y + radius};
  const TileRange range = layout_.TilesFor(mbr);

  // Per-row contiguous column ranges of tiles touching the disk (the tile
  // set S of §IV-E). Row j's nearest y-distance to q decides how far the
  // disk extends in x within that row.
  const std::uint32_t num_rows = range.j1 - range.j0 + 1;
  std::vector<RowRange> rows(num_rows);
  const Coord r2 = radius * radius;
  for (std::uint32_t j = range.j0; j <= range.j1; ++j) {
    Coord row_yl = layout_.domain().yl + j * layout_.tile_height();
    Coord row_yu = row_yl + layout_.tile_height();
    // Border rows own every entry CLAMPED into them from beyond the domain,
    // so once such entries exist their effective y-extent is half-infinite:
    // dy underestimates instead of cutting a row (and hence a clamped
    // entry within `radius`) that the tile box alone would rule out.
    if (has_out_of_domain_) {
      if (j == 0) row_yl = -std::numeric_limits<Coord>::infinity();
      if (j + 1 == layout_.ny()) {
        row_yu = std::numeric_limits<Coord>::infinity();
      }
    }
    const Coord dy = std::max({row_yl - q.y, Coord{0}, q.y - row_yu});
    if (dy > radius) continue;  // Row misses the disk: range stays empty.
    const Coord half_width = std::sqrt(std::max(Coord{0}, r2 - dy * dy));
    RowRange& row = rows[j - range.j0];
    row.lo = layout_.ColumnOf(q.x - half_width);
    row.hi = layout_.ColumnOf(q.x + half_width);
  }
  std::uint32_t first_row = range.j0;
  while (first_row <= range.j1 && rows[first_row - range.j0].empty()) {
    ++first_row;
  }

  // Examined in an earlier row of S? Classes that start before the tile in y
  // (B, D) use this to report each object exactly once: the object is
  // handled in the row-major-minimal tile of S it overlaps.
  auto seen_in_earlier_row = [&](const Box& b, std::uint32_t j) {
    const std::uint32_t cj0 = std::max(layout_.RowOf(b.yl), first_row);
    const std::uint32_t ci0 = layout_.ColumnOf(b.xl);
    const std::uint32_t ci1 = layout_.ColumnOf(b.xu);
    for (std::uint32_t jj = cj0; jj < j; ++jj) {
      const RowRange& rr = rows[jj - range.j0];
      if (!rr.empty() && rr.lo <= ci1 && rr.hi >= ci0) return true;
    }
    return false;
  };

  for (std::uint32_t j = first_row; j <= range.j1; ++j) {
    const RowRange& row = rows[j - range.j0];
    if (row.empty()) break;  // Nonempty rows are contiguous.
    const RowRange* prev_row =
        j > first_row ? &rows[j - 1 - range.j0] : nullptr;
    // The first/previous-row flags below depend only on the column index i,
    // never on which earlier columns were visited, so skipping empty tiles
    // through the occupancy bitset cannot change the exactly-once reporting.
    ForEachOccupiedColumn(occupancy_, layout_, j, row.lo, row.hi, [&](
                                                      std::uint32_t i) {
      const Tile& tile = tiles_[layout_.TileId(i, j)];
      if (tile.empty()) return;
      const Box tile_box = layout_.TileBox(i, j);
      // A border tile's box does not bound its clamped out-of-domain
      // entries, so the tile-box distance shortcuts below are only valid
      // for interior tiles once such entries exist. (Entries overlapping
      // the domain always geometrically overlap the tiles they register
      // in; only wholly-outside coordinates are clamped.)
      const bool tile_bounds_entries =
          !has_out_of_domain_ ||
          (i != 0 && i + 1 != layout_.nx() && j != 0 &&
           j + 1 != layout_.ny());
      if (annulus && tile_bounds_entries &&
          tile_box.MaxDistanceTo(q) <= min_radius) {
        return;
      }
      TLP_STATS_ADD(tiles_visited, 1);
      // Tiles totally covered by the disk skip all distance verification
      // (§IV-E) — unless the annulus filter needs the distance anyway.
      const bool covered = !annulus && tile_bounds_entries &&
                           tile_box.MaxDistanceTo(q) <= radius;
      const bool west_missing = i == row.lo;
      const bool north_missing =
          prev_row == nullptr || i < prev_row->lo || i > prev_row->hi;

      const BoxEntry* data = tile.entries.data();
      auto scan = [&](ObjectClass c, bool dedup_rows) {
        const std::size_t k = SegmentOf(c);
        const BoxEntry* p = data + tile.begin[k];
        const std::size_t n = tile.begin[k + 1] - tile.begin[k];
        TLP_STATS_CLASS_SCANNED(c, n);
        // One distance test per entry unless the disk covers the tile.
        if (!covered) TLP_STATS_ADD(comparisons, n);
        for (std::size_t s = 0; s < n; ++s) {
          const BoxEntry& e = p[s];
          if (!covered) {
            const Coord d = e.box.MinDistanceTo(q);
            if (d > radius || (annulus && d <= min_radius)) continue;
          }
          if (dedup_rows && seen_in_earlier_row(e.box, j)) {
            TLP_STATS_ADD(duplicates_avoided, 1);
            continue;
          }
          emit(e);
        }
      };

      scan(ObjectClass::kA, /*dedup_rows=*/false);
      if (north_missing) {
        scan(ObjectClass::kB, /*dedup_rows=*/true);
      } else {
        TLP_STATS_ADD(duplicates_avoided,
                      tile.begin[SegmentOf(ObjectClass::kB) + 1] -
                          tile.begin[SegmentOf(ObjectClass::kB)]);
      }
      if (west_missing) {
        scan(ObjectClass::kC, /*dedup_rows=*/false);
      } else {
        TLP_STATS_ADD(duplicates_avoided,
                      tile.begin[SegmentOf(ObjectClass::kC) + 1] -
                          tile.begin[SegmentOf(ObjectClass::kC)]);
      }
      if (west_missing && north_missing) {
        scan(ObjectClass::kD, /*dedup_rows=*/true);
      } else {
        TLP_STATS_ADD(duplicates_avoided,
                      tile.begin[SegmentOf(ObjectClass::kD) + 1] -
                          tile.begin[SegmentOf(ObjectClass::kD)]);
      }
    });
  }
}

void TwoLayerGrid::DiskQuery(const Point& q, Coord radius,
                             std::vector<ObjectId>* out) const {
  TLP_STATS_QUERY_TIMER();
  const std::size_t before = out->size();
  ForEachDiskResult(q, radius, /*min_radius=*/-1,
                    [&](const BoxEntry& e) { out->push_back(e.id); });
  TLP_STATS_ADD(candidates, out->size() - before);
}

void TwoLayerGrid::DiskQueryEntries(const Point& q, Coord radius,
                                    std::vector<BoxEntry>* out,
                                    Coord min_radius) const {
  TLP_STATS_QUERY_TIMER();
  const std::size_t before = out->size();
  ForEachDiskResult(q, radius, min_radius,
                    [&](const BoxEntry& e) { out->push_back(e); });
  TLP_STATS_ADD(candidates, out->size() - before);
}

std::size_t TwoLayerGrid::SizeBytes() const {
  std::size_t bytes = tiles_.capacity() * sizeof(Tile) +
                      class_a_extent_.capacity() * sizeof(Box);
  for (const Tile& tile : tiles_) {
    bytes += tile.entries.footprint_bytes();
  }
  return bytes;
}

std::size_t TwoLayerGrid::entry_count() const {
  std::size_t n = 0;
  for (const Tile& tile : tiles_) n += tile.entries.size();
  return n;
}

std::size_t TwoLayerGrid::ClassCount(std::uint32_t i, std::uint32_t j,
                                     ObjectClass c) const {
  const Tile& tile = tiles_[layout_.TileId(i, j)];
  const std::size_t k = SegmentOf(c);
  return tile.begin[k + 1] - tile.begin[k];
}

bool TwoLayerGrid::CheckInvariants() const {
  if (occupancy_.bit_count() != tiles_.size()) return false;
  if (class_a_extent_.size() != tiles_.size()) return false;
  std::size_t class_a_total = 0;
  for (std::uint32_t j = 0; j < layout_.ny(); ++j) {
    for (std::uint32_t i = 0; i < layout_.nx(); ++i) {
      const Tile& tile = tiles_[layout_.TileId(i, j)];
      // The occupancy bit must agree with the tile's emptiness, or queries
      // routed through the bitset would silently drop (or re-scan) tiles.
      if (occupancy_.Test(layout_.TileId(i, j)) != !tile.empty()) {
        return false;
      }
      if (tile.begin[0] != 0) return false;
      for (std::size_t s = 0; s < kNumClasses; ++s) {
        if (tile.begin[s] > tile.begin[s + 1]) return false;
      }
      if (tile.begin[kNumClasses] != tile.entries.size()) return false;
      // Every entry must sit in the segment of its class; Insert/Delete
      // rotations that misplace a single element break the lemmas silently,
      // which is exactly what this catches.
      for (std::size_t s = 0; s < kNumClasses; ++s) {
        for (std::uint32_t k = tile.begin[s]; k < tile.begin[s + 1]; ++k) {
          const ObjectClass c =
              ClassifyEntryInTile(layout_, i, j, tile.entries[k].box);
          if (SegmentOf(c) != s) return false;
        }
      }
      // The class-A extent must bound every class-A box, or the skyline's
      // tile pruning would skip entries it has to consider.
      const std::size_t a = SegmentOf(ObjectClass::kA);
      class_a_total += tile.begin[a + 1] - tile.begin[a];
      const Box& ext = class_a_extent_[layout_.TileId(i, j)];
      for (std::uint32_t k = tile.begin[a]; k < tile.begin[a + 1]; ++k) {
        if (!ext.Contains(tile.entries[k].box)) return false;
      }
    }
  }
  // KNN's emptiness test and seed radius read the maintained count.
  return class_a_total == object_count_;
}

std::pair<const BoxEntry*, std::size_t> TwoLayerGrid::ClassSpan(
    std::uint32_t i, std::uint32_t j, ObjectClass c) const {
  const Tile& tile = tiles_[layout_.TileId(i, j)];
  const std::size_t k = SegmentOf(c);
  return {tile.entries.data() + tile.begin[k],
          tile.begin[k + 1] - tile.begin[k]};
}

}  // namespace tlp
