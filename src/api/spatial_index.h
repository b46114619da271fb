#ifndef TLP_API_SPATIAL_INDEX_H_
#define TLP_API_SPATIAL_INDEX_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/query_stats.h"
#include "common/file_system.h"
#include "common/status.h"
#include "geometry/box.h"
#include "geometry/point.h"

namespace tlp {

/// Common interface of every index in this library (2-layer grids, 1-layer
/// grid, quad-trees, R-trees, BLOCK). Benchmarks and integration tests treat
/// all indices through this interface.
///
/// Contract (filtering step, paper §II-A):
///  * WindowQuery appends the ids of all objects whose MBR intersects `w`
///    (closed-interval semantics), each id exactly once, order unspecified.
///  * DiskQuery appends the ids of all objects whose MBR lies within
///    (minimum) distance `radius` of `q`, each id exactly once.
///  * Insert adds one (MBR, id) entry; queries afterwards must reflect it.
///  * Build (offered by every concrete index) is a FULL rebuild: it first
///    discards everything previously built or inserted, then bulk-loads
///    exactly `entries` — calling Build on a non-empty index is equivalent
///    to Build on a freshly constructed one, never an append. The grid
///    family additionally takes a `num_threads` knob (0 = one thread per
///    hardware core, 1 = sequential) and guarantees the built index is
///    identical — same per-tile contents in the same order — for every
///    thread count.
///
/// Observability: the grid indices always account per-query operation
/// counts (common/query_stats.h) — tiles visited, entries scanned per
/// class, comparisons, duplicate handling, refinement hits/misses,
/// wall-clock — into the calling thread's accumulator. Callers sample it
/// with ResetQueryStats() / GetQueryStats(); BatchExecutor merges its
/// workers' counters into the caller on Wait().
class SpatialIndex {
 public:
  virtual ~SpatialIndex() = default;

  virtual void WindowQuery(const Box& w, std::vector<ObjectId>* out) const = 0;
  virtual void DiskQuery(const Point& q, Coord radius,
                         std::vector<ObjectId>* out) const = 0;
  virtual void Insert(const BoxEntry& entry) = 0;

  /// Approximate main-memory footprint of the index structure in bytes
  /// (entries + directory; excludes the GeometryStore).
  [[nodiscard]] virtual std::size_t SizeBytes() const = 0;

  /// Human-readable method name as used in the paper's tables.
  [[nodiscard]] virtual std::string name() const = 0;
};

/// A SpatialIndex that can round-trip through the on-disk snapshot format
/// (src/persist, docs/PERSISTENCE.md). Implemented by the grid family
/// (1-layer, 2-layer, 2-layer+).
///
/// Contract:
///  * Save writes a versioned, checksummed snapshot, atomically: the bytes
///    stream into a temp file that is fsync()ed and rename(2)d onto `path`
///    only once complete (docs/ROBUSTNESS.md). A crash or I/O failure mid-
///    save leaves the destination exactly as it was — the previous snapshot
///    or no file — never a torn one. Load replaces this index's contents
///    with the snapshot's (the index's current layout and entries are
///    discarded). Load never crashes on malformed input: a corrupt,
///    truncated, foreign-endian, or wrong-version file yields a descriptive
///    error (StatusCode::kCorruption / kKindMismatch / kIoError) and leaves
///    the index exactly as it was (still queryable, no partially applied
///    state).
///  * An index may be *frozen* after a zero-copy mapped load
///    (TwoLayerPlusGrid::LoadMapped): queries run directly out of the
///    mapped snapshot, and Insert/Delete throw std::logic_error until
///    Thaw() copies the mapped columns into owned memory.
/// Save/Load take an optional FileSystem through which every file
/// operation is routed (tests inject a FaultInjectingFs to exercise crash
/// and I/O-failure points); null means the POSIX default.
class PersistentIndex : public SpatialIndex {
 public:
  [[nodiscard]] virtual Status Save(const std::string& path,
                                    FileSystem* fs = nullptr) const = 0;
  [[nodiscard]] virtual Status Load(const std::string& path,
                                    FileSystem* fs = nullptr) = 0;

  /// True when backed by a read-only snapshot mapping (updates rejected).
  [[nodiscard]] virtual bool frozen() const { return false; }

  /// Copies any mapped storage into owned memory and releases the mapping,
  /// re-enabling Insert/Delete. No-op on an index that is not frozen.
  [[nodiscard]] virtual Status Thaw() { return Status::OK(); }
};

/// Reference implementation of the query contract by exhaustive scan; the
/// correctness oracle for every index in tests.
class BruteForceIndex final : public SpatialIndex {
 public:
  BruteForceIndex() = default;
  explicit BruteForceIndex(std::vector<BoxEntry> entries)
      : entries_(std::move(entries)) {}

  void WindowQuery(const Box& w, std::vector<ObjectId>* out) const override {
    for (const BoxEntry& e : entries_) {
      if (e.box.Intersects(w)) out->push_back(e.id);
    }
  }

  void DiskQuery(const Point& q, Coord radius,
                 std::vector<ObjectId>* out) const override {
    for (const BoxEntry& e : entries_) {
      if (e.box.MinDistanceTo(q) <= radius) out->push_back(e.id);
    }
  }

  void Insert(const BoxEntry& entry) override { entries_.push_back(entry); }

  [[nodiscard]] std::size_t SizeBytes() const override {
    return entries_.capacity() * sizeof(BoxEntry);
  }

  [[nodiscard]] std::string name() const override { return "brute-force"; }

 private:
  std::vector<BoxEntry> entries_;
};

}  // namespace tlp

#endif  // TLP_API_SPATIAL_INDEX_H_
