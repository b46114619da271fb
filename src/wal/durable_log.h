#ifndef TLP_WAL_DURABLE_LOG_H_
#define TLP_WAL_DURABLE_LOG_H_

// Durability subsystem (ROADMAP item 5, docs/DURABILITY.md): a CRC-framed
// write-ahead log with group-commit fsync batching, delta snapshots that
// advance a low-water mark in O(changes), and compaction into a full
// snapshot. Everything goes through the tlp::FileSystem seam, so the
// FaultInjectingFs sweep harness can fail every append, fsync, rotation,
// delta-snapshot, and compaction operation and prove recovery reaches a
// consistent prefix of the committed history.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/file_system.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/two_layer_grid.h"
#include "wal/wal_format.h"

namespace tlp {

/// Monotonic counters a DurableLog maintains (all successful-operation
/// counts; a copy is returned by DurableLog::stats()).
struct WalStats {
  std::uint64_t appends = 0;         // records accepted by Append
  std::uint64_t bytes_logged = 0;    // encoded bytes accepted by Append
  std::uint64_t fsync_batches = 0;   // group commits (fsyncs of the log)
  std::uint64_t rotations = 0;       // segments sealed
  std::uint64_t delta_snapshots = 0; // delta checkpoints written
  std::uint64_t compactions = 0;     // full-snapshot compactions
  std::uint64_t records_replayed = 0;// op records applied by RecoverIndex
  std::uint64_t records_skipped = 0; // already-checkpointed ops skipped
};

/// Read-only summary of a WAL directory (tlp_snapshot wal-info). Produced
/// by DurableLog::Inspect without modifying anything on disk.
struct WalDirInfo {
  bool has_full = false;
  std::uint64_t full_seq = 0;       // newest full snapshot's sequence
  std::uint64_t low_water = 0;      // full + contiguous delta chain end
  std::uint64_t committed_seq = 0;  // last recoverable op (checkpoit+log)
  std::size_t delta_files = 0;
  std::size_t segment_files = 0;
  std::uint64_t segment_bytes = 0;  // total size of all segments
  std::uint64_t torn_bytes = 0;     // invalid tail bytes of the last segment
  std::size_t temp_files = 0;       // leftover .tmp files from a crash
};

/// A write-ahead log directory: `wal-*.tlpw` segments, `delta-*.tlpd`
/// delta snapshots, `full-*.tlps` full snapshots (format in wal_format.h).
///
/// Single-writer-per-directory contract: at most one DurableLog instance
/// (in one process) may have a directory open for writing at a time — the
/// same contract a serving index has for its snapshot file.
///
/// Thread safety: Append must be externally serialized (the concurrent
/// index calls it under its writer mutex). Sync may be called from any
/// number of threads concurrently — callers whose records are already
/// durable return immediately, one caller becomes the flush leader and
/// fsyncs everything appended so far (that is the group commit), the rest
/// wait. WriteDeltaSnapshot/Compact serialize on an internal checkpoint
/// mutex and may run concurrently with Append/Sync. RecoverIndex must run
/// before the first Append.
///
/// Error model: the first I/O failure on the append/flush path is sticky —
/// every later Append/Sync returns it, because the in-memory batch that
/// failed to reach the disk is gone and pretending later records are
/// durable would reorder history. Recovery from a sticky failure is
/// re-opening the directory.
class DurableLog {
 public:
  struct Options {
    /// Segment size that triggers rotation (checked after each flush).
    std::uint64_t segment_bytes = 4u << 20;
  };

  /// Opens `dir` (which must exist): scans the files, validates the
  /// segment chain, truncates a torn tail off the last segment, removes
  /// leftover temp files, and positions the log for appending. The next
  /// append always starts a fresh segment (the FileSystem seam's
  /// NewWritableFile truncates, so a recovered segment is never reopened
  /// for append).
  [[nodiscard]] static Status Open(const std::string& dir, const Options& options,
                     FileSystem* fs, std::unique_ptr<DurableLog>* out);

  /// Read-only directory summary; never modifies disk state.
  [[nodiscard]] static Status Inspect(const std::string& dir, FileSystem* fs,
                        WalDirInfo* out);

  ~DurableLog();
  DurableLog(const DurableLog&) = delete;
  DurableLog& operator=(const DurableLog&) = delete;

  /// Buffers one op record. `rec.seq` must be exactly `next_seq()`; the
  /// record is not durable until a Sync(rec.seq) call returns OK.
  /// External serialization required (see class comment).
  [[nodiscard]] Status Append(const wal::WalRecord& rec) TLP_EXCLUDES(mu_);

  /// Group commit: returns OK once every record with sequence <= `seq` is
  /// on stable storage. Safe from any thread.
  [[nodiscard]] Status Sync(std::uint64_t seq) TLP_EXCLUDES(mu_);

  /// Writes a delta snapshot covering ops (low_water_mark(), upto] —
  /// collapsed last-op-wins, atomic temp+rename — then advances the
  /// low-water mark and collects log segments that fell entirely below
  /// it. `upto` is clamped to durable_seq(); a no-op when nothing new is
  /// durable. O(ops in the window), not O(index).
  [[nodiscard]] Status WriteDeltaSnapshot(std::uint64_t upto)
      TLP_EXCLUDES(checkpoint_mu_, mu_);

  /// Folds everything up to `seq` into a full snapshot of `base` (which
  /// must be the index state after ops [1, seq]), then collects every
  /// older full snapshot, all delta snapshots, and all sealed segments at
  /// or below `seq`. Also used with seq = 0 to seed a fresh directory.
  [[nodiscard]] Status Compact(const TwoLayerGrid& base, std::uint64_t seq)
      TLP_EXCLUDES(checkpoint_mu_, mu_);

  /// Rebuilds the index: loads the newest full snapshot, applies the
  /// contiguous delta-snapshot chain, then replays log records — skipping
  /// ops at or below the checkpoint (idempotent re-application) and
  /// stopping at the first gap. Must be called before the first Append.
  /// Fails with kInvalidArgument when the directory has no full snapshot
  /// yet (seed one with Compact).
  [[nodiscard]] Status RecoverIndex(std::unique_ptr<TwoLayerGrid>* grid,
                                    std::uint64_t* seq)
      TLP_EXCLUDES(checkpoint_mu_, mu_);

  /// Sequence number the next Append must carry.
  [[nodiscard]] std::uint64_t next_seq() const;
  /// Last sequence known durable (acknowledged by a Sync).
  [[nodiscard]] std::uint64_t durable_seq() const;
  /// Last sequence covered by checkpoints (full + delta chain).
  [[nodiscard]] std::uint64_t low_water_mark() const;
  [[nodiscard]] WalStats stats() const;
  [[nodiscard]] const std::string& dir() const { return dir_; }

 private:
  struct SegmentInfo {
    std::string name;
    std::uint64_t first_seq = 0;
    std::uint64_t last_seq = 0;  // active segment: tracked by the leader
  };

  DurableLog(std::string dir, const Options& options, FileSystem* fs);

  [[nodiscard]] std::string PathOf(const std::string& name) const;
  /// Flush leader body: writes `batch` (first record sequence
  /// `batch_first`) to the active segment, creating one when needed, and
  /// fsyncs. Called with flush_in_progress_ set, outside mu_; touches only
  /// the leader-owned members. Sets *created when a segment was opened and
  /// *rotated when the segment was sealed afterwards.
  [[nodiscard]] Status FlushBatch(const std::string& batch, std::uint64_t batch_first,
                    bool* created, bool* rotated) TLP_EXCLUDES(mu_);
  /// Reads op records in (after, upto] from the segment chain into *ops.
  [[nodiscard]] Status CollectOps(std::uint64_t after, std::uint64_t upto,
                    std::vector<wal::WalRecord>* ops) TLP_EXCLUDES(mu_);
  /// Removes sealed segments with last_seq <= bound (best effort) plus,
  /// when `everything_below` is set, delta files with to <= bound and
  /// full snapshots older than bound. Caller holds checkpoint_mu_ (the
  /// compiler-checked contract); this takes mu_ internally.
  void CollectStale(std::uint64_t bound, bool everything_below)
      TLP_REQUIRES(checkpoint_mu_) TLP_EXCLUDES(mu_);

  const std::string dir_;
  const Options options_;
  FileSystem* const fs_;

  mutable Mutex mu_;
  CondVar sync_cv_;
  /// Sticky append/flush failure.
  Status failed_ TLP_GUARDED_BY(mu_);
  /// Encoded records not yet flushed.
  std::string pending_ TLP_GUARDED_BY(mu_);
  /// Seq of pending_'s first record.
  std::uint64_t pending_first_ TLP_GUARDED_BY(mu_) = 0;
  std::uint64_t appended_seq_ TLP_GUARDED_BY(mu_) = 0;
  std::uint64_t durable_seq_ TLP_GUARDED_BY(mu_) = 0;
  std::uint64_t low_water_ TLP_GUARDED_BY(mu_) = 0;
  bool flush_in_progress_ TLP_GUARDED_BY(mu_) = false;
  /// RecoverIndex no longer allowed.
  bool recovered_ TLP_GUARDED_BY(mu_) = false;
  /// Ascending first_seq, on disk.
  std::vector<SegmentInfo> sealed_ TLP_GUARDED_BY(mu_);
  /// Mirror of the active (not yet sealed) segment, for readers
  /// (CollectOps): present once its first flush committed.
  SegmentInfo active_mirror_ TLP_GUARDED_BY(mu_);
  bool active_present_ TLP_GUARDED_BY(mu_) = false;
  WalStats stats_ TLP_GUARDED_BY(mu_);

  /// Serializes WriteDeltaSnapshot/Compact against each other. Always
  /// acquired before mu_ (those paths take mu_ internally).
  Mutex checkpoint_mu_ TLP_ACQUIRED_BEFORE(mu_);

  /// Leader-owned (touched only while this thread holds flush leadership
  /// — flush_in_progress_ set by it — or externally quiesced): the active
  /// segment being appended to.
  std::unique_ptr<WritableFile> file_;
  std::uint64_t active_first_ = 0;
  std::uint64_t active_bytes_ = 0;
};

/// Order-independent digest of a grid's live set: CRC32 over the id-sorted
/// (id, box) entries. Two indexes with equal digests hold the same live
/// objects — used by `tlp_snapshot wal-replay` and the crash tests to
/// compare recovered states across restarts and compactions.
[[nodiscard]] std::uint32_t LiveSetDigest(const TwoLayerGrid& grid);

}  // namespace tlp

#endif  // TLP_WAL_DURABLE_LOG_H_
