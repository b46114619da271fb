#ifndef TLP_CONCURRENCY_VERSIONED_GRID_H_
#define TLP_CONCURRENCY_VERSIONED_GRID_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "concurrency/epoch.h"
#include "core/diversified_knn.h"
#include "core/entry_predicate.h"
#include "core/skyline.h"
#include "core/two_layer_grid.h"

namespace tlp {

class DurableLog;

/// One update in the append-only delta log.
struct DeltaOp {
  enum class Kind : unsigned char { kInsert, kDelete };
  Kind kind = Kind::kInsert;
  BoxEntry entry;
};

/// Fixed-capacity node of the chunked delta log. Chunks are filled slot by
/// slot by the (mutex-serialized) writer and linked forward; a slot and a
/// `next` pointer are written strictly before the version publication that
/// makes them reachable, so readers never observe a slot they are allowed
/// to read being written (the happens-before edge is the seq_cst exchange
/// on the published version pointer).
struct DeltaChunk {
  static constexpr std::size_t kCap = 256;
  std::array<DeltaOp, kCap> ops;
  std::shared_ptr<DeltaChunk> next;
};

/// The last-op-wins state of an unmerged delta window: every id the window
/// touched (their base entries are hidden), and the entries whose last op
/// is an insert, both sorted by id. Only the writer applies ops, before it
/// publishes the Version holding the overlay; readers only search it.
struct DeltaOverlay {
  std::vector<ObjectId> touched;
  std::vector<BoxEntry> inserted;

  [[nodiscard]] bool empty() const { return touched.empty(); }
  [[nodiscard]] bool Touched(ObjectId id) const {
    return std::binary_search(touched.begin(), touched.end(), id);
  }
  /// Folds one more op into the window's state.
  void Apply(const DeltaOp& op);
};

/// An immutable published state of the concurrent index: a frozen-by-
/// protocol base grid plus the window of delta-log ops not yet merged into
/// it. A Version object is never modified after publication; retiring it
/// (epoch-deferred delete) drops its shared_ptrs, which is what eventually
/// frees superseded base grids and consumed delta-chunk prefixes.
struct Version {
  std::shared_ptr<const TwoLayerGrid> base;
  /// Chunk holding op index `head_base` (<= delta_begin); the unmerged
  /// window is reached by walking `next` from here.
  std::shared_ptr<const DeltaChunk> delta_head;
  std::uint64_t head_base = 0;
  /// Global op indices [delta_begin, delta_end) overlay `base`. delta_end
  /// equals the total number of ops ever published, so it doubles as the
  /// version's logical sequence number.
  std::uint64_t delta_begin = 0;
  std::uint64_t delta_end = 0;
  /// Ops [delta_begin, delta_end) folded last-op-wins.
  DeltaOverlay overlay;
};

/// Concurrent wrapper around TwoLayerGrid where version-swap is the *only*
/// mutation path (ROADMAP item 1, docs/CONCURRENCY.md):
///
///   - Readers call Acquire() and query the returned Snapshot. A Snapshot
///     pins an epoch and points at the then-current Version; every query is
///     evaluated over (immutable base grid + unmerged delta overlay) and
///     is exact and duplicate-free (the base probes keep their Lemma 1-4
///     guarantees, the overlay hides every id the window touched).
///   - Insert/Delete serialize on a small writer mutex, append to the
///     chunked delta log, and publish a fresh Version (and overlay) per op.
///   - A background merge task (1-thread exception-safe ThreadPool) clones
///     the base, folds the delta window into it with the ordinary
///     sequential Insert/Delete paths, and publishes the merged Version.
///     Superseded Versions retire through the EpochDomain and are freed
///     once no reader pins them.
///
/// Thread safety: any number of concurrent Acquire()/query threads, any
/// number of concurrent Insert/Delete/Flush callers (serialized
/// internally), plus the internal merge thread. Construction and
/// destruction must be externally quiesced (no concurrent calls, no live
/// Snapshots).
class ConcurrentTwoLayerGrid {
 public:
  struct Options {
    /// Unmerged ops that trigger a background merge. The delta window a
    /// reader overlays stays bounded by roughly this plus one merge's
    /// worth of concurrent appends.
    std::size_t merge_threshold = 1024;
    /// With an attached WAL: durable ops beyond the log's low-water mark
    /// that make the background merge thread write a delta snapshot
    /// (docs/DURABILITY.md). 0 disables the automatic cadence (checkpoints
    /// then only happen through CheckpointWal/CompactWal).
    std::uint64_t wal_delta_every = 4096;
  };

  /// Takes ownership of `base` (thaws it first if frozen — served versions
  /// are immutable by protocol, not by the frozen flag, and the merge path
  /// needs mutable clones).
  explicit ConcurrentTwoLayerGrid(TwoLayerGrid base);
  ConcurrentTwoLayerGrid(TwoLayerGrid base, Options options);
  ~ConcurrentTwoLayerGrid();

  ConcurrentTwoLayerGrid(const ConcurrentTwoLayerGrid&) = delete;
  ConcurrentTwoLayerGrid& operator=(const ConcurrentTwoLayerGrid&) = delete;

  /// Inserts `entry`. Returns false (and changes nothing) when an object
  /// with this id is already live — the sequential index's "ids are
  /// unique" contract, enforced here so delta overlay semantics stay
  /// well-defined — or when the box is inverted or has a NaN coordinate.
  [[nodiscard]] bool Insert(const BoxEntry& entry);

  /// Deletes object `id` (with the box it was inserted with, as in
  /// TwoLayerGrid::Delete). Returns false unless it is live with that box.
  [[nodiscard]] bool Delete(ObjectId id, const Box& box);

  /// Attaches the write-ahead log every subsequent update appends to
  /// before entering the delta log (docs/DURABILITY.md). Must be called
  /// before the first update (the log's committed history has to equal
  /// this index's op history); throws std::logic_error otherwise. The log
  /// must already reflect this index's base state (RecoverIndex, or a
  /// seeding Compact) and must outlive this object.
  void AttachWal(DurableLog* wal);

  /// Insert with durability: the op is logged, applied, and group-commit
  /// fsynced before OK returns — an OK with *applied true is a durable
  /// acknowledgment. A non-OK status means the update must NOT be
  /// acknowledged: the WAL rejected or failed to persist it (when the
  /// fsync itself failed the op may still be visible in memory; recovery
  /// replays a consistent prefix regardless). Without an attached WAL
  /// this is exactly Insert(). *applied false with OK = duplicate id. A
  /// box that is inverted or has a NaN coordinate is InvalidArgument,
  /// before the WAL sees it.
  [[nodiscard]] Status InsertDurable(const BoxEntry& entry, bool* applied);

  /// Delete counterpart of InsertDurable. *applied false with OK = no
  /// such live object, or one live with another box.
  [[nodiscard]] Status DeleteDurable(ObjectId id, const Box& box,
                                     bool* applied);

  /// Writes a WAL delta snapshot covering everything durable (O(changes);
  /// the cheap checkpoint a graceful shutdown performs). No-op without an
  /// attached WAL.
  [[nodiscard]] Status CheckpointWal();

  /// Flushes all ops into the base grid, then compacts the WAL into a
  /// full snapshot of it. Requires the index to be quiesced (no
  /// concurrent writers). No-op without an attached WAL.
  [[nodiscard]] Status CompactWal();

  /// The attached log (null when none) — for stats surfaces (WALSTATS).
  /// Takes the writer mutex briefly (the pointer itself is guarded; the
  /// log's own surfaces are internally synchronized).
  [[nodiscard]] DurableLog* wal() const TLP_EXCLUDES(writer_mu_) {
    MutexLock lock(writer_mu_);
    return wal_;
  }

  /// Blocks until every op published before the call is merged into the
  /// base grid (the published delta window is empty).
  void Flush() TLP_EXCLUDES(writer_mu_);

  /// An immutable view: base grid + the last-op-wins overlay of a delta
  /// window, plus the epoch pin that keeps both alive. Queries mirror the
  /// sequential index's result contracts exactly (order included). This is
  /// the one read surface: Acquire() returns a pinned view of the
  /// published version, Of() an unpinned view of a plain grid. Movable;
  /// keep it only as long as the query runs — a long-lived pinned Snapshot
  /// stalls memory reclamation.
  class Snapshot {
   public:
    Snapshot(Snapshot&&) = default;
    Snapshot& operator=(Snapshot&&) = default;
    Snapshot(const Snapshot&) = delete;
    Snapshot& operator=(const Snapshot&) = delete;

    /// A non-owning view of `grid` with an empty overlay: unpinned,
    /// seq() == 0, nothing copied — how a read-only index joins the
    /// snapshot read path. No epoch protects `grid`: the caller keeps it
    /// alive and unmodified for as long as the Snapshot exists.
    [[nodiscard]] static Snapshot Of(const TwoLayerGrid& grid) {
      return Snapshot(EpochDomain::Guard(), &grid, &kNoOverlay, 0);
    }

    /// Logical sequence number: total update ops visible to this view.
    [[nodiscard]] std::uint64_t seq() const { return seq_; }
    /// The base grid (excludes the delta overlay).
    [[nodiscard]] const TwoLayerGrid& base() const { return *base_; }
    /// Distinct object ids touched by the unmerged delta window.
    [[nodiscard]] std::size_t overlay_size() const {
      return overlay_->touched.size();
    }

    /// Ids of live objects intersecting `w` and matching `keep`, sorted
    /// ascending.
    void WindowQuery(const Box& w, std::vector<ObjectId>* out,
                     const EntryPredicate& keep = {}) const;
    /// Entries of live objects intersecting `w`, sorted by id.
    void WindowEntries(const Box& w, std::vector<BoxEntry>* out) const;
    /// Ids of live objects with MinDistanceTo(q) <= radius matching
    /// `keep`, sorted ascending.
    void DiskQuery(const Point& q, Coord radius, std::vector<ObjectId>* out,
                   const EntryPredicate& keep = {}) const;
    /// Entries of live objects with MinDistanceTo(q) <= radius, sorted by
    /// id.
    void DiskQueryEntries(const Point& q, Coord radius,
                          std::vector<BoxEntry>* out) const;
    /// The k nearest live entries matching `keep`, sorted by
    /// (distance, id) — same contract as tlp::KnnEntries.
    [[nodiscard]] std::vector<RankedEntry> KnnEntries(const Point& q, std::size_t k,
                                        const EntryPredicate& keep = {}) const;
    /// Skyline of the live set — same contract as tlp::SkylineQuery.
    [[nodiscard]] std::vector<SkylineEntry> SkylineQuery(
        const Point& q, const Box* region = nullptr,
        const EntryPredicate& keep = {}) const;
    /// Diversified kNN over the live set — same contract as
    /// tlp::DiversifiedKnnQuery.
    [[nodiscard]] std::vector<RankedEntry> DiversifiedKnnQuery(
        const Point& q, const DivKnnOptions& opts,
        const EntryPredicate& keep = {}) const;

   private:
    friend class ConcurrentTwoLayerGrid;

    Snapshot(EpochDomain::Guard guard, const TwoLayerGrid* grid,
             const DeltaOverlay* overlay, std::uint64_t sequence)
        : guard_(std::move(guard)), base_(grid), overlay_(overlay),
          seq_(sequence) {}

    /// `keep` composed with hiding the overlay's touched ids, for the
    /// base-grid probes that rank or prune (kNN, skyline).
    EntryPredicate BaseKeep(const EntryPredicate& keep) const;
    /// Turns a base probe's `out` (ids or entries) into the live result:
    /// drops touched ids, appends the inserted entries passing `match(box)`
    /// and `keep`, and sorts by id with a radix sort on the 32-bit id
    /// (common/radix_sort.h): every window and disk reply, read-only
    /// servers included, passes through this one sort.
    template <typename T, typename Match>
    void PatchAndSort(std::vector<T>* out, Match&& match,
                      const EntryPredicate& keep) const;

    /// The overlay every Of view points at.
    inline static const DeltaOverlay kNoOverlay;

    EpochDomain::Guard guard_;
    /// Kept alive by the pinned version (Acquire) or by the caller (Of).
    const TwoLayerGrid* base_;
    const DeltaOverlay* overlay_;
    std::uint64_t seq_;
  };

  /// Pins the current published version and points at its base grid and
  /// overlay: O(1), nothing is copied.
  [[nodiscard]] Snapshot Acquire() const;

  /// Sequence number of the currently published version (test/monitoring
  /// aid; racy by nature).
  [[nodiscard]] std::uint64_t published_seq() const;
  /// Live objects (base + delta). Lock-free: reads an atomic counter the
  /// writer maintains, so monitoring surfaces (WALSTATS, the serve
  /// counters) never contend with the update path. Exact once writers
  /// quiesce; during concurrent updates it lags by at most the in-flight
  /// op.
  [[nodiscard]] std::size_t live_count() const {
    return live_count_.load(std::memory_order_relaxed);
  }
  /// Completed background merges (test/monitoring aid).
  [[nodiscard]] std::uint64_t merges_completed() const {
    return merges_completed_.load();
  }
  /// Epoch domain, exposed for leak/retirement tests.
  [[nodiscard]] EpochDomain& epoch_domain() const { return epoch_; }

  /// The raw published Version pointer WITHOUT pinning an epoch. The
  /// pointee may be retired and freed at any moment; only the concurrency
  /// layer's own internals (which hold the writer mutex, under which
  /// retirement of the *current* version cannot happen) may touch it.
  /// tools/tlp_lint.py rule TLP005 rejects any use outside
  /// src/concurrency/ — everyone else must hold versions through a
  /// Snapshot.
  [[nodiscard]] const Version* unsafe_published_version() const {
    return published_.load();
  }

 private:
  /// Appends one op and publishes a Version exposing it (compiler-checked
  /// caller-holds-writer_mu_ contract).
  void AppendLocked(const DeltaOp& op) TLP_REQUIRES(writer_mu_);
  /// Publishes `v` (heap-allocated, ownership taken) and retires the
  /// previous version.
  void PublishLocked(const Version* v) TLP_REQUIRES(writer_mu_);
  /// Schedules a background merge if one is warranted and none is queued.
  void MaybeScheduleMergeLocked() TLP_REQUIRES(writer_mu_);
  /// The background merge task body. Takes writer_mu_ itself (twice,
  /// briefly); the clone-and-fold runs unlocked.
  void RunMerge() TLP_EXCLUDES(writer_mu_);

  const Options options_;

  mutable Mutex writer_mu_;
  /// Ids currently live (base + appended delta): Insert's duplicate test.
  /// Delete asks the published version, because the box must match too.
  std::unordered_set<ObjectId> live_ids_ TLP_GUARDED_BY(writer_mu_);
  /// live_ids_.size(), mirrored for lock-free live_count().
  std::atomic<std::size_t> live_count_{0};
  /// Durability (null = not durable). wal_base_ + op index = WAL sequence;
  /// both set once by AttachWal before any update.
  DurableLog* wal_ TLP_GUARDED_BY(writer_mu_) = nullptr;
  std::uint64_t wal_base_ TLP_GUARDED_BY(writer_mu_) = 0;
  /// Chunk receiving the next append and the global index of its ops[0].
  std::shared_ptr<DeltaChunk> tail_ TLP_GUARDED_BY(writer_mu_);
  std::uint64_t tail_base_ TLP_GUARDED_BY(writer_mu_) = 0;
  std::uint64_t total_ops_ TLP_GUARDED_BY(writer_mu_) = 0;
  bool merge_scheduled_ TLP_GUARDED_BY(writer_mu_) = false;
  CondVar merged_cv_;

  std::atomic<const Version*> published_{nullptr};
  mutable EpochDomain epoch_;
  std::atomic<std::uint64_t> merges_completed_{0};

  /// Declared last: destroyed (joined) first, so no merge task can touch
  /// the members above during teardown.
  ThreadPool merge_pool_;
};

}  // namespace tlp

#endif  // TLP_CONCURRENCY_VERSIONED_GRID_H_
