#ifndef TLP_CORE_TWO_LAYER_GRID_H_
#define TLP_CORE_TWO_LAYER_GRID_H_

#include <array>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "api/spatial_index.h"
#include "common/column.h"
#include "core/classes.h"
#include "grid/grid_layout.h"
#include "grid/occupancy_bitset.h"

namespace tlp {

class SnapshotReader;
class SnapshotWriter;
class ThreadPool;

/// A candidate produced by the filtering step, annotated with what the
/// two-layer evaluation already knows about it (paper §V "efficient
/// secondary filtering"): when the window starts before the candidate's tile
/// in dimension d, only classes that start inside the tile in d were
/// accessed, so W.dl < r.dl is implied and RefAvoid+ can skip that
/// comparison.
struct Candidate {
  ObjectId id = kInvalidObjectId;
  Box box;
  bool x_start_implied = false;  // W.xl < r.xl is known without comparing
  bool y_start_implied = false;  // W.yl < r.yl is known without comparing
};

/// The paper's contribution (§III, §IV): a regular grid whose tiles are
/// secondarily partitioned into classes A/B/C/D. Window queries access, per
/// tile, only the classes that cannot produce duplicates (Lemmas 1-2) with
/// at most one comparison per dimension (Lemmas 3-4, Corollary 1); no
/// deduplication step ever runs. Disk queries follow §IV-E.
class TwoLayerGrid final : public PersistentIndex {
 public:
  explicit TwoLayerGrid(const GridLayout& layout);

  /// Bulk-loads with two passes (count, then place); entries within a tile
  /// end up grouped contiguously as A|B|C|D. A full rebuild: any previously
  /// built or inserted entries are discarded first (contract:
  /// api/spatial_index.h). `num_threads` 0 = one per hardware core (small
  /// inputs fall back to one), 1 = the sequential path; tile ownership in
  /// the parallel place pass makes the built grid bit-identical for every
  /// thread count. Throws std::logic_error on a frozen (mapped-snapshot)
  /// grid, std::invalid_argument on an inverted box or a NaN coordinate
  /// (changing nothing).
  void Build(const std::vector<BoxEntry>& entries,
             std::size_t num_threads = 0);
  /// As above, on the caller's pool (TwoLayerPlusGrid shares one pool
  /// across both layers of its build this way).
  void Build(const std::vector<BoxEntry>& entries, ThreadPool& pool);

  /// Throws std::invalid_argument on an inverted box or a NaN coordinate,
  /// changing nothing.
  void Insert(const BoxEntry& entry) override;

  /// True iff object `entry.id` is stored with exactly `entry.box`
  /// (searches the class A of the box's lower-corner tile).
  [[nodiscard]] bool Contains(const BoxEntry& entry) const;

  /// Removes the object `id` with bounding box `box` (the box must be the
  /// one it was inserted with; it locates the replicas). Returns false if
  /// no such entry exists. O(tile occupancy) per touched tile.
  bool Delete(ObjectId id, const Box& box);

  void WindowQuery(const Box& w, std::vector<ObjectId>* out) const override;

  /// Filtering step that also reports the §V implied-comparison flags; input
  /// of the RefAvoid+ secondary filter.
  void WindowCandidates(const Box& w, std::vector<Candidate>* out) const;

  void DiskQuery(const Point& q, Coord radius,
                 std::vector<ObjectId>* out) const override;

  /// Disk query returning the full (MBR, id) entries instead of bare ids;
  /// used by consumers that rank candidates by distance (e.g., KnnQuery).
  /// A non-negative `min_radius` restricts the report to the annulus
  /// min_radius < MinDistanceTo(q) <= radius: tiles entirely within
  /// `min_radius` of `q` are skipped and entries at distance <= min_radius
  /// are filtered out, so an incremental caller that has already evaluated
  /// the disk of radius `min_radius` (e.g. KnnQuery's radius doubling) sees
  /// each remaining object exactly once instead of re-receiving the whole
  /// inner disk.
  void DiskQueryEntries(const Point& q, Coord radius,
                        std::vector<BoxEntry>* out,
                        Coord min_radius = -1) const;

  /// Evaluates the window `w` on a single tile (i, j), given the full tile
  /// range of `w`. Exposed for the tiles-based batch executor (§VI), which
  /// regroups per-tile subtasks across many queries.
  void WindowQueryTile(std::uint32_t i, std::uint32_t j, const Box& w,
                       const TileRange& range,
                       std::vector<ObjectId>* out) const;

  std::size_t SizeBytes() const override;
  std::string name() const override { return "2-layer"; }

  /// Snapshot persistence (src/persist; defined in core/grid_snapshots.cc).
  [[nodiscard]] Status Save(const std::string& path,
                            FileSystem* fs = nullptr) const override;
  [[nodiscard]] Status Load(const std::string& path,
                            FileSystem* fs = nullptr) override;

  /// Container-level snapshot plumbing: writes/reads this grid's sections
  /// (layout, tile begins, tile entries) inside an open snapshot. Used by
  /// Save/Load above and by TwoLayerPlusGrid, whose snapshot embeds its
  /// record layer. With `mapped` the tile entry arrays become views into
  /// the reader's mapping (which must then outlive this grid) and the grid
  /// comes back frozen: Build/Insert/Delete throw std::logic_error until
  /// ThawStorage()/Thaw() — without the guard a release-mode update would
  /// write straight into the read-only mapping (SIGSEGV, not an error).
  void AppendSnapshotSections(SnapshotWriter* writer) const;
  [[nodiscard]] Status LoadSnapshotSections(const SnapshotReader& reader,
                                            bool mapped);
  /// Copies any mapped tile-entry views into owned storage and unfreezes.
  void ThawStorage();

  /// True after a mapped LoadSnapshotSections (updates rejected).
  [[nodiscard]] bool frozen() const override { return frozen_; }
  [[nodiscard]] Status Thaw() override {
    ThawStorage();
    return Status::OK();
  }

  const GridLayout& layout() const { return layout_; }

  /// Total number of stored (MBR, id) entries, replicas included. Same value
  /// as the equally-partitioned 1-layer grid (paper §VII-B). O(tiles).
  std::size_t entry_count() const;

  /// Number of stored objects: every object is class A of exactly one tile
  /// (Lemmas 1-2), so this is the class-A entry count. O(1), maintained by
  /// Build/Insert/Delete and recomputed on snapshot loads.
  std::size_t object_count() const { return object_count_; }

  /// Number of entries of `c` in tile (i, j); exposed for tests.
  std::size_t ClassCount(std::uint32_t i, std::uint32_t j,
                         ObjectClass c) const;

  /// Total entries (all classes) of the tile with id `tile_id`; the
  /// per-tile work estimate TwoLayerPlusGrid's parallel build balances its
  /// tile ownership on.
  std::size_t TileEntryCount(std::size_t tile_id) const {
    return tiles_[tile_id].entries.size();
  }

  /// Read-only view of the secondary partition T^c of tile (i, j) as a
  /// (pointer, length) span; used by the spatial-join module and tests.
  std::pair<const BoxEntry*, std::size_t> ClassSpan(std::uint32_t i,
                                                    std::uint32_t j,
                                                    ObjectClass c) const;

  /// Bounding box of tile (i, j)'s class-A entries, or a superset after
  /// Deletes (class_a_extent_); the skyline query prunes tiles with it.
  const Box& ClassAExtent(std::uint32_t i, std::uint32_t j) const {
    return class_a_extent_[layout_.TileId(i, j)];
  }

  /// Full structural check of every tile's segmented vector: begin[0] == 0,
  /// begin[] monotone, begin[kNumClasses] == entries.size(), and every entry
  /// stored in the segment of its class — plus the occupancy bitset agreeing
  /// with every tile's emptiness, the class-A extent containing every
  /// class-A box of its tile and object_count() equalling the class-A
  /// total. O(total entries); for tests — the Insert/Delete logic must
  /// preserve all seven properties.
  bool CheckInvariants() const;

  /// Per-tile occupancy bits (set iff the tile holds entries); queries use
  /// it to skip empty tile runs word-wide. TwoLayerPlusGrid's window query
  /// reuses this bitset of its record layer: a record tile is non-empty iff
  /// the corresponding decomposed tables are.
  const OccupancyBitset& occupancy() const { return occupancy_; }

 private:
  /// A tile's entries, grouped into class segments laid out D|C|B|A;
  /// segment s occupies [begin[s], begin[s+1]) within `entries` and class c
  /// lives in segment SegmentOf(c). Class A sits last so the common-case
  /// insert is an append. The entry column is a Column so a mapped snapshot
  /// can back it zero-copy (read path identical; updates require owned
  /// storage).
  struct Tile {
    Column<BoxEntry> entries;
    std::array<std::uint32_t, kNumClasses + 1> begin = {0, 0, 0, 0, 0};

    bool empty() const { return entries.empty(); }
  };

  /// Today's single-threaded two-pass bulk load.
  void BuildSequential(const std::vector<BoxEntry>& entries);
  /// Parallel bulk load (count pass by entry chunks, place pass by owned
  /// tile ranges); bit-identical output to BuildSequential.
  void BuildOnPool(const std::vector<BoxEntry>& entries, ThreadPool& pool);

  /// Rejects updates while frozen (mapped); throws std::logic_error.
  void RequireMutable(const char* op) const;

  /// Recomputes the occupancy bitset, the class-A extents, the object count
  /// and the out-of-domain flag from the tiles in one pass over the class-A
  /// segments (every stored object is class A in exactly one tile).
  /// O(entries); used after bulk loads and snapshot loads (all four are
  /// derived state and not persisted — rebuilding keeps the snapshot format
  /// unchanged).
  void RebuildOccupancy();

  /// True iff `b` lies entirely inside the declared domain. Entries failing
  /// this are CLAMPED into border tiles they do not geometrically overlap,
  /// which invalidates tile-box distance reasoning there (has_out_of_domain_).
  bool InDomain(const Box& b) const;

  /// Runs the §IV-B masked scans over the relevant classes of one tile.
  /// `emit(entry)` receives every reported entry.
  template <typename Emit>
  void ScanTile(const Tile& tile, const Box& w, unsigned base_mask,
                bool first_col, bool first_row, Emit&& emit) const;

  /// Shared §IV-E disk evaluation core: calls `emit(entry)` exactly once for
  /// every entry whose MBR lies within `radius` of `q` — restricted, when
  /// `min_radius` >= 0, to the annulus min_radius < distance <= radius.
  template <typename Emit>
  void ForEachDiskResult(const Point& q, Coord radius, Coord min_radius,
                         Emit&& emit) const;

  /// Per-row column ranges of tiles intersecting the disk (§IV-E); rows with
  /// lo > hi do not touch the disk.
  struct RowRange {
    std::uint32_t lo = 1;
    std::uint32_t hi = 0;
    bool empty() const { return lo > hi; }
  };

  GridLayout layout_;
  std::vector<Tile> tiles_;
  OccupancyBitset occupancy_;
  /// Per-tile bounding box of the tile's class-A entries, parallel to
  /// tiles_ and kept flat so a skyline sweep streams 32 bytes per tile
  /// without touching the tiles themselves. Box::Empty() for a tile with
  /// no class-A entry. Insert grows it; Delete leaves it alone, because a
  /// superset is still a valid bound — sticky like has_out_of_domain_.
  /// Recomputed exactly by RebuildOccupancy on bulk/snapshot loads; not
  /// persisted.
  std::vector<Box> class_a_extent_;
  /// Number of class-A entries over all tiles, i.e. stored objects.
  std::size_t object_count_ = 0;
  /// True if any stored entry lies (partly) outside the declared domain.
  /// Such entries are clamped into border tiles whose boxes do not bound
  /// them, so disk queries must treat border tiles conservatively: no
  /// tile-box distance shortcuts, and border rows extend to infinity when
  /// computing per-row disk extents. Sticky across Deletes (conservative);
  /// recomputed by RebuildOccupancy on bulk/snapshot loads.
  bool has_out_of_domain_ = false;
  /// True while the tile entry columns view a read-only snapshot mapping.
  bool frozen_ = false;
};

}  // namespace tlp

#endif  // TLP_CORE_TWO_LAYER_GRID_H_
