#include "grid/one_layer_grid.h"

#include "grid/parallel_build.h"
#include "grid/scan.h"

namespace tlp {

OneLayerGrid::OneLayerGrid(const GridLayout& layout, DedupPolicy dedup)
    : layout_(layout), dedup_(dedup), tiles_(layout.tile_count()) {
  occupancy_.Reset(tiles_.size());
}

void OneLayerGrid::RebuildOccupancy() {
  occupancy_.Reset(tiles_.size());
  for (std::size_t t = 0; t < tiles_.size(); ++t) {
    if (!tiles_[t].empty()) occupancy_.Set(t);
  }
}

bool OneLayerGrid::CheckInvariants() const {
  if (occupancy_.bit_count() != tiles_.size()) return false;
  for (std::size_t t = 0; t < tiles_.size(); ++t) {
    if (occupancy_.Test(t) != !tiles_[t].empty()) return false;
  }
  return true;
}

void OneLayerGrid::Build(const std::vector<BoxEntry>& entries,
                         std::size_t num_threads) {
  // Full rebuild: discard prior contents (capacity is kept; the reserve
  // below right-sizes each tile anyway).
  for (auto& tile : tiles_) tile.clear();

  // Two passes (count, then place) so every tile allocates exactly once;
  // the bulk-loaded grid then has the same footprint as the two-layer grid
  // over the same layout (paper §VII-B: "1-layer and 2-layer have the same
  // space requirements").
  const std::size_t threads =
      build_internal::EffectiveBuildThreads(num_threads, entries.size());
  if (threads <= 1) {
    std::vector<std::uint32_t> counts(tiles_.size(), 0);
    for (const BoxEntry& e : entries) {
      const TileRange range = layout_.TilesFor(e.box);
      for (std::uint32_t j = range.j0; j <= range.j1; ++j) {
        for (std::uint32_t i = range.i0; i <= range.i1; ++i) {
          ++counts[layout_.TileId(i, j)];
        }
      }
    }
    for (std::size_t t = 0; t < tiles_.size(); ++t) {
      tiles_[t].reserve(counts[t]);
    }
    for (const BoxEntry& e : entries) Insert(e);
    RebuildOccupancy();
    return;
  }

  ThreadPool pool(threads);
  const std::vector<TileRange> ranges =
      build_internal::ComputeTileRanges(pool, layout_, entries);

  // Count pass: per-chunk tile histograms, merged per tile below.
  std::vector<std::vector<std::uint32_t>> chunk_counts(threads);
  ParallelForChunks(
      pool, entries.size(), threads,
      [&](std::size_t c, std::size_t begin, std::size_t end) {
        auto& counts = chunk_counts[c];
        counts.assign(tiles_.size(), 0);
        for (std::size_t k = begin; k < end; ++k) {
          const TileRange& r = ranges[k];
          for (std::uint32_t j = r.j0; j <= r.j1; ++j) {
            for (std::uint32_t i = r.i0; i <= r.i1; ++i) {
              ++counts[layout_.TileId(i, j)];
            }
          }
        }
      });

  // Merge + allocate, and record per-tile work for the ownership split.
  std::vector<std::uint64_t> tile_work(tiles_.size());
  ParallelFor(pool, tiles_.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t t = begin; t < end; ++t) {
      std::uint64_t total = 0;
      for (const auto& counts : chunk_counts) total += counts[t];
      tiles_[t].reserve(total);
      tile_work[t] = total;
    }
  });

  // Place pass: each worker owns a contiguous tile range and scans the full
  // entry vector, appending only into its own tiles. One writer per tile
  // means no synchronization, and the input-order scan makes the per-tile
  // entry order identical to the sequential build's.
  const std::vector<std::size_t> cuts =
      build_internal::BalanceTiles(tile_work, threads);
  for (std::size_t p = 0; p < threads; ++p) {
    pool.Submit([this, p, &cuts, &ranges, &entries] {
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
            tiles_[t].push_back(entries[k]);
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

void OneLayerGrid::Insert(const BoxEntry& entry) {
  const TileRange range = layout_.TilesFor(entry.box);
  for (std::uint32_t j = range.j0; j <= range.j1; ++j) {
    for (std::uint32_t i = range.i0; i <= range.i1; ++i) {
      const std::size_t t = layout_.TileId(i, j);
      tiles_[t].push_back(entry);
      occupancy_.Set(t);
    }
  }
}

bool OneLayerGrid::Delete(ObjectId id, const Box& box) {
  const TileRange range = layout_.TilesFor(box);
  bool found = false;
  for (std::uint32_t j = range.j0; j <= range.j1; ++j) {
    for (std::uint32_t i = range.i0; i <= range.i1; ++i) {
      const std::size_t t = layout_.TileId(i, j);
      auto& tile = tiles_[t];
      for (std::size_t k = 0; k < tile.size(); ++k) {
        if (tile[k].id == id) {
          tile[k] = tile.back();  // order within a tile is irrelevant
          tile.pop_back();
          if (tile.empty()) occupancy_.Clear(t);
          found = true;
          break;
        }
      }
    }
  }
  return found;
}

void OneLayerGrid::WindowQuery(const Box& w,
                               std::vector<ObjectId>* out) const {
  TLP_STATS_QUERY_TIMER();
  const TileRange range = layout_.TilesFor(w);
  const std::size_t first_result = out->size();
  std::uint64_t rejected = 0;
  for (std::uint32_t j = range.j0; j <= range.j1; ++j) {
    ForEachOccupiedColumn(occupancy_, layout_, j, range.i0, range.i1, [&](
                                                      std::uint32_t i) {
      const auto& tile = tiles_[layout_.TileId(i, j)];
      if (tile.empty()) return;
      TLP_STATS_ADD(tiles_visited, 1);
      TLP_STATS_ADD(scanned_flat, tile.size());
      const unsigned mask = TileComparisonMask(i == range.i0, i == range.i1,
                                               j == range.j0, j == range.j1);
      if (dedup_ == DedupPolicy::kReferencePoint) {
        // Every intersecting copy is found, then the reference-point test
        // keeps exactly one of them (the paper's state-of-the-art baseline).
        // Copies it rejects are duplicates that were generated and then
        // eliminated at query time — the post-hoc cost the 2-layer scheme
        // avoids by construction.
        ScanPartitionDispatch(mask, tile.data(), tile.size(), w,
                              [&](const BoxEntry& e) {
                                if (ReferencePointInTile(layout_, e.box, w, i,
                                                         j)) {
                                  out->push_back(e.id);
                                } else {
                                  ++rejected;
                                }
                              });
      } else {
        ScanPartitionDispatch(
            mask, tile.data(), tile.size(), w,
            [&](const BoxEntry& e) { out->push_back(e.id); });
      }
    });
  }
  TLP_STATS_ADD(candidates, out->size() - first_result);
  TLP_STATS_ADD(posthoc_dedup, rejected);
  if (dedup_ == DedupPolicy::kHash) SortUniqueIds(out, first_result);
}

void OneLayerGrid::DiskQuery(const Point& q, Coord radius,
                             std::vector<ObjectId>* out) const {
  TLP_STATS_QUERY_TIMER();
  const Box mbr{q.x - radius, q.y - radius, q.x + radius, q.y + radius};
  const TileRange range = layout_.TilesFor(mbr);
  const std::size_t first_result = out->size();
  std::uint64_t tested = 0;
  std::uint64_t rejected = 0;
  for (std::uint32_t j = range.j0; j <= range.j1; ++j) {
    ForEachOccupiedColumn(occupancy_, layout_, j, range.i0, range.i1, [&](
                                                      std::uint32_t i) {
      const auto& tile = tiles_[layout_.TileId(i, j)];
      if (tile.empty()) return;
      const Box tile_box = layout_.TileBox(i, j);
      // With reference-point dedup, tiles of the MBR range that lie outside
      // the disk must still be scanned: the reference point of a qualifying
      // object may fall there. Only the hash policy may skip them (a
      // qualifying object always appears in some tile touching the disk).
      if (dedup_ == DedupPolicy::kHash &&
          tile_box.MinDistanceTo(q) > radius) {
        return;
      }
      TLP_STATS_ADD(tiles_visited, 1);
      TLP_STATS_ADD(scanned_flat, tile.size());
      // A tile fully covered by the disk needs no per-object distance tests.
      const bool covered = tile_box.MaxDistanceTo(q) <= radius;
      const unsigned mask = TileComparisonMask(i == range.i0, i == range.i1,
                                               j == range.j0, j == range.j1);
      auto handle = [&](const BoxEntry& e) {
        if (!covered) {
          ++tested;
          if (e.box.MinDistanceTo(q) > radius) return;
        }
        if (dedup_ == DedupPolicy::kReferencePoint &&
            !ReferencePointInTile(layout_, e.box, mbr, i, j)) {
          ++rejected;
          return;
        }
        out->push_back(e.id);
      };
      ScanPartitionDispatch(mask, tile.data(), tile.size(), mbr, handle);
    });
  }
  TLP_STATS_ADD(comparisons, tested);
  TLP_STATS_ADD(candidates, out->size() - first_result);
  TLP_STATS_ADD(posthoc_dedup, rejected);
  if (dedup_ == DedupPolicy::kHash) SortUniqueIds(out, first_result);
}

std::size_t OneLayerGrid::SizeBytes() const {
  std::size_t bytes = tiles_.capacity() * sizeof(tiles_[0]);
  for (const auto& tile : tiles_) bytes += tile.capacity() * sizeof(BoxEntry);
  return bytes;
}

std::size_t OneLayerGrid::entry_count() const {
  std::size_t n = 0;
  for (const auto& tile : tiles_) n += tile.size();
  return n;
}

}  // namespace tlp
