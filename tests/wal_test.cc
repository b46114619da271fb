// Tests for the durability subsystem (src/wal, docs/DURABILITY.md):
//
//  * Frame format round-trip — every record kind encodes and decodes
//    bit-exactly; truncated and bit-flipped frames are detected as such
//    (kTruncated / kCorrupt), never silently misparsed.
//  * DurableLog protocol — append/sync acknowledgment, group-commit
//    batching counters, segment rotation, torn-tail recovery, delta
//    snapshots (collapse semantics + low-water advancement + stale
//    segment collection), compaction, and idempotent replay. Every
//    recovery is checked against a sequential oracle that applied the
//    same acknowledged ops.
//  * ConcurrentTwoLayerGrid integration — durable updates through the
//    writer path, simulated-crash recovery differentials (the recovered
//    live set must equal the acknowledged history exactly), the
//    AttachWal ordering contract, and the lock-free live_count mirror
//    pinned against an oracle across background merges.
//
// The fault-injection sweeps (every-op failure, every-prefix truncation,
// every-bit tail flips, crash-during-compaction) live in
// tests/wal_fault_test.cc.

#include <sys/stat.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

#include "common/file_system.h"
#include "concurrency/versioned_grid.h"
#include "core/two_layer_grid.h"
#include "grid/grid_layout.h"
#include "wal/durable_log.h"
#include "wal/wal_format.h"

namespace tlp {
namespace {

using wal::DecodeRecord;
using wal::DecodeResult;
using wal::EncodeRecord;
using wal::RecordKind;
using wal::WalRecord;

/// A fresh, empty directory under the gtest temp root.
std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::vector<std::string> names;
  if (FileSystem::Default()->ListDir(dir, &names).ok()) {
    for (const std::string& n : names) {
      EXPECT_TRUE(FileSystem::Default()->RemoveFile(dir + "/" + n).ok());
    }
  } else {
    EXPECT_EQ(::mkdir(dir.c_str(), 0777), 0) << dir;
  }
  return dir;
}

GridLayout TinyLayout() { return GridLayout(Box{0, 0, 1, 1}, 4, 4); }

Box BoxFor(std::uint32_t k) {
  const double x = 0.01 * static_cast<double>(k % 90);
  const double y = 0.013 * static_cast<double>((k * 7) % 70);
  return Box{x, y, x + 0.05, y + 0.05};
}

/// Oracle of the live set: id -> box, last op wins.
using Oracle = std::map<ObjectId, Box>;

void ApplyToOracle(Oracle* oracle, const WalRecord& rec) {
  if (rec.kind == RecordKind::kInsert) {
    (*oracle)[rec.entry.id] = rec.entry.box;
  } else if (rec.kind == RecordKind::kDelete) {
    oracle->erase(rec.entry.id);
  }
}

/// Asserts `grid`'s class-A live set equals the oracle exactly.
void ExpectLiveSet(const TwoLayerGrid& grid, const Oracle& oracle) {
  Oracle actual;
  const GridLayout& layout = grid.layout();
  for (std::uint32_t j = 0; j < layout.ny(); ++j) {
    for (std::uint32_t i = 0; i < layout.nx(); ++i) {
      const auto [p, n] = grid.ClassSpan(i, j, ObjectClass::kA);
      for (std::size_t k = 0; k < n; ++k) {
        ASSERT_TRUE(actual.emplace(p[k].id, p[k].box).second)
            << "duplicate class-A id " << p[k].id;
      }
    }
  }
  ASSERT_EQ(actual.size(), oracle.size());
  for (const auto& [id, box] : oracle) {
    const auto it = actual.find(id);
    ASSERT_TRUE(it != actual.end()) << "missing id " << id;
    EXPECT_EQ(it->second.xl, box.xl);
    EXPECT_EQ(it->second.yl, box.yl);
    EXPECT_EQ(it->second.xu, box.xu);
    EXPECT_EQ(it->second.yu, box.yu);
  }
}

/// Opens `dir`, seeds it with an empty full snapshot when fresh, and
/// returns the log positioned for appending from sequence 1.
std::unique_ptr<DurableLog> OpenSeeded(const std::string& dir,
                                       const DurableLog::Options& options =
                                           DurableLog::Options{}) {
  std::unique_ptr<DurableLog> log;
  EXPECT_TRUE(DurableLog::Open(dir, options, nullptr, &log).ok());
  WalDirInfo info;
  EXPECT_TRUE(DurableLog::Inspect(dir, nullptr, &info).ok());
  if (!info.has_full) {
    TwoLayerGrid empty(TinyLayout());
    EXPECT_TRUE(log->Compact(empty, 0).ok());
  }
  return log;
}

/// Appends + syncs one op, mirroring it into the oracle.
void LogOp(DurableLog* log, Oracle* oracle, bool insert, std::uint32_t id,
           const Box& box) {
  const WalRecord rec =
      wal::MakeOp(insert, log->next_seq(), BoxEntry{box, id});
  ASSERT_TRUE(log->Append(rec).ok());
  ASSERT_TRUE(log->Sync(rec.seq).ok());
  ApplyToOracle(oracle, rec);
}

void RecoverAndCheck(const std::string& dir, const Oracle& oracle,
                     std::uint64_t want_seq) {
  std::unique_ptr<DurableLog> log;
  ASSERT_TRUE(
      DurableLog::Open(dir, DurableLog::Options{}, nullptr, &log).ok());
  std::unique_ptr<TwoLayerGrid> grid;
  std::uint64_t seq = 0;
  ASSERT_TRUE(log->RecoverIndex(&grid, &seq).ok());
  EXPECT_EQ(seq, want_seq);
  ExpectLiveSet(*grid, oracle);
}

// --------------------------------------------------------------------------
// Frame format

TEST(WalFormatTest, AllRecordKindsRoundTrip) {
  const Box b{0.125, 0.25, 0.5, 0.75};
  const WalRecord records[] = {
      wal::MakeSegmentHeader(42),
      wal::MakeOp(true, 7, BoxEntry{b, 11}),
      wal::MakeOp(false, 8, BoxEntry{b, 12}),
      wal::MakeDeltaHeader(10, 20, 5),
  };
  for (const WalRecord& rec : records) {
    std::string buf;
    EncodeRecord(rec, &buf);
    WalRecord got;
    std::size_t consumed = 0;
    ASSERT_EQ(DecodeRecord(
                  reinterpret_cast<const unsigned char*>(buf.data()),
                  buf.size(), &got, &consumed),
              DecodeResult::kOk);
    EXPECT_EQ(consumed, buf.size());
    EXPECT_EQ(got.kind, rec.kind);
    EXPECT_EQ(got.seq, rec.seq);
    EXPECT_EQ(got.aux, rec.aux);
    EXPECT_EQ(got.count, rec.count);
    EXPECT_EQ(got.entry.id, rec.entry.id);
    EXPECT_EQ(got.entry.box.xl, rec.entry.box.xl);
    EXPECT_EQ(got.entry.box.yu, rec.entry.box.yu);
  }
}

TEST(WalFormatTest, EveryTruncationIsDetected) {
  std::string buf;
  EncodeRecord(wal::MakeOp(true, 3, BoxEntry{BoxFor(1), 9}), &buf);
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    WalRecord got;
    std::size_t consumed = 0;
    EXPECT_EQ(DecodeRecord(
                  reinterpret_cast<const unsigned char*>(buf.data()), cut,
                  &got, &consumed),
              DecodeResult::kTruncated)
        << "prefix length " << cut;
  }
}

TEST(WalFormatTest, EveryBitFlipIsDetected) {
  std::string clean;
  EncodeRecord(wal::MakeOp(false, 5, BoxEntry{BoxFor(2), 4}), &clean);
  for (std::size_t bit = 0; bit < clean.size() * 8; ++bit) {
    std::string buf = clean;
    buf[bit / 8] = static_cast<char>(buf[bit / 8] ^ (1 << (bit % 8)));
    WalRecord got;
    std::size_t consumed = 0;
    const DecodeResult r = DecodeRecord(
        reinterpret_cast<const unsigned char*>(buf.data()), buf.size(), &got,
        &consumed);
    // A flip in the length field can make the frame claim more bytes than
    // the buffer holds (kTruncated); everything else must be kCorrupt.
    // What it must never be is kOk.
    EXPECT_NE(r, DecodeResult::kOk) << "bit " << bit;
  }
}

TEST(WalFormatTest, FileNamesRoundTripAndSortNumerically) {
  std::uint64_t seq = 0, from = 0, to = 0;
  EXPECT_TRUE(wal::ParseSegmentFileName(wal::SegmentFileName(123), &seq));
  EXPECT_EQ(seq, 123u);
  EXPECT_TRUE(
      wal::ParseDeltaFileName(wal::DeltaFileName(45, 99), &from, &to));
  EXPECT_EQ(from, 45u);
  EXPECT_EQ(to, 99u);
  EXPECT_TRUE(wal::ParseFullFileName(wal::FullFileName(7), &seq));
  EXPECT_EQ(seq, 7u);
  EXPECT_FALSE(wal::ParseSegmentFileName("wal-123.tlpw", &seq));
  EXPECT_FALSE(wal::ParseFullFileName(wal::SegmentFileName(1), &seq));
  // Lexicographic order must equal numeric order (directory scans rely
  // on it), which the zero padding provides.
  EXPECT_LT(wal::SegmentFileName(9), wal::SegmentFileName(10));
  EXPECT_LT(wal::SegmentFileName(99), wal::SegmentFileName(100));
}

// --------------------------------------------------------------------------
// DurableLog

TEST(DurableLogTest, AppendSyncRecoverRoundTrip) {
  const std::string dir = FreshDir("wal_roundtrip");
  Oracle oracle;
  {
    auto log = OpenSeeded(dir);
    for (std::uint32_t k = 0; k < 40; ++k) {
      LogOp(log.get(), &oracle, /*insert=*/true, k, BoxFor(k));
    }
    for (std::uint32_t k = 0; k < 40; k += 3) {
      LogOp(log.get(), &oracle, /*insert=*/false, k, BoxFor(k));
    }
    const WalStats stats = log->stats();
    EXPECT_EQ(stats.appends, 54u);
    EXPECT_EQ(stats.fsync_batches, 54u);  // serial caller: one per op
    EXPECT_GT(stats.bytes_logged, 0u);
    EXPECT_EQ(log->durable_seq(), 54u);
  }
  RecoverAndCheck(dir, oracle, 54);
}

TEST(DurableLogTest, AppendRejectsOutOfOrderSequence) {
  const std::string dir = FreshDir("wal_order");
  auto log = OpenSeeded(dir);
  EXPECT_FALSE(
      log->Append(wal::MakeOp(true, 5, BoxEntry{BoxFor(0), 0})).ok());
  EXPECT_TRUE(
      log->Append(wal::MakeOp(true, 1, BoxEntry{BoxFor(0), 0})).ok());
}

TEST(DurableLogTest, TornTailIsTruncatedToLastValidRecord) {
  const std::string dir = FreshDir("wal_torn");
  Oracle oracle;
  {
    auto log = OpenSeeded(dir);
    for (std::uint32_t k = 0; k < 10; ++k) {
      LogOp(log.get(), &oracle, true, k, BoxFor(k));
    }
  }
  // Simulate a crash mid-write: garbage (half a frame header) lands after
  // the last durable record.
  const std::string seg = dir + "/" + wal::SegmentFileName(1);
  {
    std::ofstream out(seg, std::ios::binary | std::ios::app);
    out.write("\x13\x37\xde", 3);
    ASSERT_TRUE(out.good());
  }
  WalDirInfo info;
  ASSERT_TRUE(DurableLog::Inspect(dir, nullptr, &info).ok());
  EXPECT_EQ(info.torn_bytes, 3u);
  EXPECT_EQ(info.committed_seq, 10u);
  RecoverAndCheck(dir, oracle, 10);
  // Open truncated the tail: a second inspection sees a clean segment.
  ASSERT_TRUE(DurableLog::Inspect(dir, nullptr, &info).ok());
  EXPECT_EQ(info.torn_bytes, 0u);
}

TEST(DurableLogTest, RotationSplitsSegmentsAndRecoveryWalksTheChain) {
  const std::string dir = FreshDir("wal_rotate");
  Oracle oracle;
  DurableLog::Options options;
  options.segment_bytes = 256;  // a few records per segment
  {
    auto log = OpenSeeded(dir, options);
    for (std::uint32_t k = 0; k < 30; ++k) {
      LogOp(log.get(), &oracle, true, 100 + k, BoxFor(k));
    }
    EXPECT_GT(log->stats().rotations, 2u);
  }
  WalDirInfo info;
  ASSERT_TRUE(DurableLog::Inspect(dir, nullptr, &info).ok());
  EXPECT_GT(info.segment_files, 3u);
  RecoverAndCheck(dir, oracle, 30);
}

TEST(DurableLogTest, DeltaSnapshotCollapsesAdvancesLowWaterAndCollects) {
  const std::string dir = FreshDir("wal_delta");
  DurableLog::Options options;
  options.segment_bytes = 256;
  Oracle oracle;
  auto log = OpenSeeded(dir, options);
  // A window whose collapse differs from its raw ops: id 1 is inserted
  // then deleted (must vanish), id 2 is inserted twice via delete+insert
  // (last box must win), id 3 is deleted without a prior insert in the
  // window (the delete must survive collapse as a delete).
  LogOp(log.get(), &oracle, true, 1, BoxFor(1));
  LogOp(log.get(), &oracle, true, 2, BoxFor(2));
  LogOp(log.get(), &oracle, true, 3, BoxFor(3));
  ASSERT_TRUE(log->WriteDeltaSnapshot(log->durable_seq()).ok());
  EXPECT_EQ(log->low_water_mark(), 3u);
  LogOp(log.get(), &oracle, false, 1, BoxFor(1));
  LogOp(log.get(), &oracle, false, 2, BoxFor(2));
  LogOp(log.get(), &oracle, true, 2, BoxFor(42));
  LogOp(log.get(), &oracle, false, 3, BoxFor(3));
  ASSERT_TRUE(log->WriteDeltaSnapshot(log->durable_seq()).ok());
  EXPECT_EQ(log->low_water_mark(), 7u);
  EXPECT_EQ(log->stats().delta_snapshots, 2u);
  log.reset();
  RecoverAndCheck(dir, oracle, 7);

  // Sealed segments entirely below the low-water mark must be gone; the
  // delta chain replaces them.
  WalDirInfo info;
  ASSERT_TRUE(DurableLog::Inspect(dir, nullptr, &info).ok());
  EXPECT_EQ(info.low_water, 7u);
  EXPECT_EQ(info.delta_files, 2u);
}

TEST(DurableLogTest, DeltaSnapshotWithNothingNewIsANoOp) {
  const std::string dir = FreshDir("wal_delta_noop");
  Oracle oracle;
  auto log = OpenSeeded(dir);
  LogOp(log.get(), &oracle, true, 1, BoxFor(1));
  ASSERT_TRUE(log->WriteDeltaSnapshot(log->durable_seq()).ok());
  EXPECT_EQ(log->stats().delta_snapshots, 1u);
  ASSERT_TRUE(log->WriteDeltaSnapshot(log->durable_seq()).ok());
  EXPECT_EQ(log->stats().delta_snapshots, 1u);  // unchanged
  EXPECT_EQ(log->low_water_mark(), 1u);
}

TEST(DurableLogTest, CompactFoldsEverythingIntoOneFullSnapshot) {
  const std::string dir = FreshDir("wal_compact");
  Oracle oracle;
  std::uint32_t digest_before = 0;
  {
    auto log = OpenSeeded(dir);
    for (std::uint32_t k = 0; k < 20; ++k) {
      LogOp(log.get(), &oracle, true, k, BoxFor(k));
    }
    ASSERT_TRUE(log->WriteDeltaSnapshot(log->durable_seq()).ok());
    for (std::uint32_t k = 0; k < 20; k += 2) {
      LogOp(log.get(), &oracle, false, k, BoxFor(k));
    }
  }
  {
    std::unique_ptr<DurableLog> log;
    ASSERT_TRUE(
        DurableLog::Open(dir, DurableLog::Options{}, nullptr, &log).ok());
    std::unique_ptr<TwoLayerGrid> grid;
    std::uint64_t seq = 0;
    ASSERT_TRUE(log->RecoverIndex(&grid, &seq).ok());
    ASSERT_EQ(seq, 30u);
    digest_before = LiveSetDigest(*grid);
    ASSERT_TRUE(log->Compact(*grid, seq).ok());
    EXPECT_EQ(log->low_water_mark(), 30u);
  }
  // Only the new full snapshot remains...
  WalDirInfo info;
  ASSERT_TRUE(DurableLog::Inspect(dir, nullptr, &info).ok());
  EXPECT_TRUE(info.has_full);
  EXPECT_EQ(info.full_seq, 30u);
  EXPECT_EQ(info.delta_files, 0u);
  EXPECT_EQ(info.segment_files, 0u);
  // ...and recovery from it alone reproduces the exact live set.
  std::unique_ptr<DurableLog> log;
  ASSERT_TRUE(
      DurableLog::Open(dir, DurableLog::Options{}, nullptr, &log).ok());
  std::unique_ptr<TwoLayerGrid> grid;
  std::uint64_t seq = 0;
  ASSERT_TRUE(log->RecoverIndex(&grid, &seq).ok());
  EXPECT_EQ(seq, 30u);
  EXPECT_EQ(LiveSetDigest(*grid), digest_before);
  ExpectLiveSet(*grid, oracle);
}

TEST(DurableLogTest, ReplaySkipsOpsAlreadyCoveredByCheckpoints) {
  const std::string dir = FreshDir("wal_idempotent");
  Oracle oracle;
  {
    auto log = OpenSeeded(dir);
    for (std::uint32_t k = 0; k < 8; ++k) {
      LogOp(log.get(), &oracle, true, k, BoxFor(k));
    }
    // Checkpoint covering 1..5 only: the still-live log segment holds
    // 1..8, so replay re-encounters 1..5 and must skip, not re-apply.
    ASSERT_TRUE(log->WriteDeltaSnapshot(5).ok());
  }
  std::unique_ptr<DurableLog> log;
  ASSERT_TRUE(
      DurableLog::Open(dir, DurableLog::Options{}, nullptr, &log).ok());
  std::unique_ptr<TwoLayerGrid> grid;
  std::uint64_t seq = 0;
  ASSERT_TRUE(log->RecoverIndex(&grid, &seq).ok());
  EXPECT_EQ(seq, 8u);
  const WalStats stats = log->stats();
  EXPECT_EQ(stats.records_skipped, 5u);
  EXPECT_EQ(stats.records_replayed, 5u + 3u);  // 5 delta frames + ops 6..8
  ExpectLiveSet(*grid, oracle);
}

TEST(DurableLogTest, RecoverIndexRequiresAFullSnapshot) {
  const std::string dir = FreshDir("wal_nofull");
  std::unique_ptr<DurableLog> log;
  ASSERT_TRUE(
      DurableLog::Open(dir, DurableLog::Options{}, nullptr, &log).ok());
  std::unique_ptr<TwoLayerGrid> grid;
  std::uint64_t seq = 0;
  const Status s = log->RecoverIndex(&grid, &seq);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(DurableLogTest, GroupCommitBatchesConcurrentSyncs) {
  const std::string dir = FreshDir("wal_group");
  auto log = OpenSeeded(dir);
  // One appender (the contract), many sync waiters racing it: with all
  // records appended before the first fsync completes, the leader batches
  // them and fsync_batches stays well below appends.
  constexpr std::uint32_t kOps = 200;
  for (std::uint32_t k = 0; k < kOps; ++k) {
    ASSERT_TRUE(
        log->Append(wal::MakeOp(true, k + 1, BoxEntry{BoxFor(k), k})).ok());
  }
  std::vector<std::thread> waiters;
  waiters.reserve(8);
  for (int t = 0; t < 8; ++t) {
    waiters.emplace_back([&log] { EXPECT_TRUE(log->Sync(kOps).ok()); });
  }
  for (std::thread& th : waiters) th.join();
  const WalStats stats = log->stats();
  EXPECT_EQ(stats.appends, kOps);
  EXPECT_GE(stats.fsync_batches, 1u);
  EXPECT_LE(stats.fsync_batches, 8u);
  EXPECT_EQ(log->durable_seq(), kOps);
}

// --------------------------------------------------------------------------
// ConcurrentTwoLayerGrid integration

/// Builds a live index over `n` seeded entries backed by a fresh WAL
/// directory, returning both (the log must outlive the index).
struct DurableFixture {
  std::unique_ptr<DurableLog> log;
  std::unique_ptr<ConcurrentTwoLayerGrid> live;
  Oracle oracle;

  explicit DurableFixture(const std::string& dir, std::size_t n = 50,
                          ConcurrentTwoLayerGrid::Options options = {}) {
    TwoLayerGrid base(TinyLayout());
    std::vector<BoxEntry> entries;
    for (std::uint32_t k = 0; k < n; ++k) {
      entries.push_back(BoxEntry{BoxFor(k), k});
      oracle[k] = BoxFor(k);
    }
    base.Build(entries);
    EXPECT_TRUE(
        DurableLog::Open(dir, DurableLog::Options{}, nullptr, &log).ok());
    EXPECT_TRUE(log->Compact(base, 0).ok());
    live = std::make_unique<ConcurrentTwoLayerGrid>(std::move(base),
                                                    options);
    live->AttachWal(log.get());
  }
};

TEST(DurableGridTest, AcknowledgedUpdatesSurviveSimulatedCrash) {
  const std::string dir = FreshDir("wal_grid_crash");
  Oracle oracle;
  {
    DurableFixture fx(dir);
    oracle = fx.oracle;
    bool applied = false;
    for (std::uint32_t k = 100; k < 130; ++k) {
      ASSERT_TRUE(fx.live->InsertDurable(BoxEntry{BoxFor(k), k}, &applied)
                      .ok());
      ASSERT_TRUE(applied);
      oracle[k] = BoxFor(k);
    }
    for (std::uint32_t k = 0; k < 20; k += 2) {
      ASSERT_TRUE(fx.live->DeleteDurable(k, BoxFor(k), &applied).ok());
      ASSERT_TRUE(applied);
      oracle.erase(k);
    }
    // Simulated SIGKILL: destroy the index and log with no checkpoint,
    // drain, or flush — recovery may only use what Sync acknowledged.
  }
  RecoverAndCheck(dir, oracle, 40);
}

TEST(DurableGridTest, DuplicateAndMissingUpdatesAreNotLogged) {
  const std::string dir = FreshDir("wal_grid_noop");
  DurableFixture fx(dir);
  bool applied = true;
  // Duplicate insert: OK, not applied, and nothing reaches the log.
  ASSERT_TRUE(fx.live->InsertDurable(BoxEntry{BoxFor(0), 0}, &applied).ok());
  EXPECT_FALSE(applied);
  // Delete of a never-inserted id: same.
  ASSERT_TRUE(fx.live->DeleteDurable(999, BoxFor(9), &applied).ok());
  EXPECT_FALSE(applied);
  EXPECT_EQ(fx.log->stats().appends, 0u);
  EXPECT_EQ(fx.log->next_seq(), 1u);
}

TEST(DurableGridTest, WrongBoxDeleteIsRejectedAndRecoveryStillWorks) {
  // A delete names the box the object was inserted with. One naming
  // another box used to be acknowledged (and logged), after which replay
  // failed with "delete of non-live id" and the index could not restart.
  const std::string dir = FreshDir("wal_grid_wrong_box");
  Oracle oracle;
  {
    DurableFixture fx(dir);
    oracle = fx.oracle;
    bool applied = false;
    ASSERT_TRUE(
        fx.live->InsertDurable(BoxEntry{BoxFor(42), 142}, &applied).ok());
    ASSERT_TRUE(applied);
    oracle[142] = BoxFor(42);
    // Unmerged (overlay) object and base object, each with another box.
    ASSERT_TRUE(fx.live->DeleteDurable(142, BoxFor(7), &applied).ok());
    EXPECT_FALSE(applied);
    ASSERT_TRUE(fx.live->DeleteDurable(3, BoxFor(4), &applied).ok());
    EXPECT_FALSE(applied);
    EXPECT_EQ(fx.log->stats().appends, 1u);
    EXPECT_EQ(fx.live->live_count(), oracle.size());
  }
  RecoverAndCheck(dir, oracle, 1);
}

TEST(DurableGridTest, NaNBoxInsertIsRejectedBeforeTheLog) {
  const std::string dir = FreshDir("wal_grid_nan");
  DurableFixture fx(dir);
  const Coord nan = std::numeric_limits<Coord>::quiet_NaN();
  // An inverted box is rejected alike: it would be stored in no tile.
  for (const Box& box : {Box{0.5, nan, 0.6, 0.7}, Box{0.6, 0.2, 0.4, 0.3}}) {
    bool applied = true;
    const Status s = fx.live->InsertDurable(BoxEntry{box, 500}, &applied);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.message();
    EXPECT_FALSE(applied);
    EXPECT_EQ(fx.log->stats().appends, 0u);
    EXPECT_EQ(fx.live->live_count(), fx.oracle.size());
  }
}

TEST(DurableLogTest, ReplayReportsANaNBoxInsertAsCorruption) {
  // A log written by an older build may hold such an insert (or one of an
  // inverted box); replay must report it, not throw from the grid's
  // rejection.
  const Coord nan = std::numeric_limits<Coord>::quiet_NaN();
  for (const Box& box : {Box{nan, 0.1, 0.2, 0.2}, Box{0.1, 0.3, 0.2, 0.2}}) {
    const std::string dir = FreshDir("wal_replay_nan");
    {
      auto log = OpenSeeded(dir);
      const WalRecord rec =
          wal::MakeOp(/*insert=*/true, log->next_seq(), BoxEntry{box, 7});
      ASSERT_TRUE(log->Append(rec).ok());
      ASSERT_TRUE(log->Sync(rec.seq).ok());
    }
    std::unique_ptr<DurableLog> log;
    ASSERT_TRUE(
        DurableLog::Open(dir, DurableLog::Options{}, nullptr, &log).ok());
    std::unique_ptr<TwoLayerGrid> grid;
    std::uint64_t seq = 0;
    const Status s = log->RecoverIndex(&grid, &seq);
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.message();
  }
}

TEST(DurableGridTest, AttachWalAfterAnUpdateThrows) {
  const std::string dir = FreshDir("wal_grid_late");
  std::unique_ptr<DurableLog> log;
  ASSERT_TRUE(
      DurableLog::Open(dir, DurableLog::Options{}, nullptr, &log).ok());
  TwoLayerGrid base(TinyLayout());
  ASSERT_TRUE(log->Compact(base, 0).ok());
  ConcurrentTwoLayerGrid live(std::move(base));
  ASSERT_TRUE(live.Insert(BoxEntry{BoxFor(1), 1}));
  EXPECT_THROW(live.AttachWal(log.get()), std::logic_error);
}

TEST(DurableGridTest, CheckpointAndCompactThroughTheLiveIndex) {
  const std::string dir = FreshDir("wal_grid_ckpt");
  Oracle oracle;
  {
    DurableFixture fx(dir);
    oracle = fx.oracle;
    bool applied = false;
    for (std::uint32_t k = 200; k < 220; ++k) {
      ASSERT_TRUE(fx.live->InsertDurable(BoxEntry{BoxFor(k), k}, &applied)
                      .ok());
      oracle[k] = BoxFor(k);
    }
    ASSERT_TRUE(fx.live->CheckpointWal().ok());
    EXPECT_EQ(fx.log->low_water_mark(), 20u);
    for (std::uint32_t k = 220; k < 230; ++k) {
      ASSERT_TRUE(fx.live->InsertDurable(BoxEntry{BoxFor(k), k}, &applied)
                      .ok());
      oracle[k] = BoxFor(k);
    }
    ASSERT_TRUE(fx.live->CompactWal().ok());
    EXPECT_EQ(fx.log->low_water_mark(), 30u);
    EXPECT_EQ(fx.log->stats().compactions, 2u);  // seed + explicit
  }
  RecoverAndCheck(dir, oracle, 30);
}

TEST(DurableGridTest, MergeThreadWritesDeltaSnapshotsAtTheCadence) {
  const std::string dir = FreshDir("wal_grid_cadence");
  ConcurrentTwoLayerGrid::Options options;
  options.merge_threshold = 16;
  options.wal_delta_every = 64;
  DurableFixture fx(dir, 10, options);
  bool applied = false;
  for (std::uint32_t k = 1000; k < 1200; ++k) {
    ASSERT_TRUE(
        fx.live->InsertDurable(BoxEntry{BoxFor(k), k}, &applied).ok());
  }
  fx.live->Flush();
  // Merges ran (threshold 16 over 200 ops) and the cadence fired at least
  // once (200 durable ops against a 64-op trigger).
  EXPECT_GT(fx.live->merges_completed(), 0u);
  EXPECT_GT(fx.log->stats().delta_snapshots, 0u);
  EXPECT_GT(fx.log->low_water_mark(), 0u);
}

// --------------------------------------------------------------------------
// live_count satellite

TEST(LiveCountTest, TracksOracleAcrossUpdatesAndMerges) {
  ConcurrentTwoLayerGrid::Options options;
  options.merge_threshold = 8;  // force many background merges
  TwoLayerGrid base(TinyLayout());
  std::vector<BoxEntry> entries;
  for (std::uint32_t k = 0; k < 64; ++k) {
    entries.push_back(BoxEntry{BoxFor(k), k});
  }
  base.Build(entries);
  ConcurrentTwoLayerGrid live(std::move(base), options);
  Oracle oracle;
  for (const BoxEntry& e : entries) oracle[e.id] = e.box;
  EXPECT_EQ(live.live_count(), oracle.size());

  // Deterministic op mix with duplicates and misses sprinkled in; after
  // every quiesced step the atomic mirror must equal the oracle exactly
  // (it is updated under the writer mutex, so quiescence makes it exact).
  for (std::uint32_t round = 0; round < 6; ++round) {
    for (std::uint32_t k = 0; k < 40; ++k) {
      const std::uint32_t id = (round * 17 + k * 3) % 96;
      if ((round + k) % 3 == 0) {
        if (live.Insert(BoxEntry{BoxFor(id), id})) oracle[id] = BoxFor(id);
      } else {
        if (live.Delete(id, BoxFor(id))) oracle.erase(id);
      }
      ASSERT_EQ(live.live_count(), oracle.size())
          << "round " << round << " op " << k;
    }
    live.Flush();  // fold into the base; the count must not drift
    ASSERT_EQ(live.live_count(), oracle.size()) << "after flush " << round;
  }
}

TEST(LiveCountTest, ReadableWhileAWriterHoldsTheMutex) {
  // Regression shape for the satellite: live_count() must not block on
  // writer_mu_. A reader thread polls it while a writer streams updates;
  // the reader observing forward progress (and the test terminating) is
  // the property — with the old mutex-guarded count this still passed,
  // but under TSan the atomic version proves there is no lock handoff.
  TwoLayerGrid base(TinyLayout());
  ConcurrentTwoLayerGrid live(std::move(base));
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> reads{0};
  std::thread reader([&] {
    while (!stop.load()) {
      (void)live.live_count();
      reads.fetch_add(1);
    }
  });
  for (std::uint32_t k = 0; k < 2000; ++k) {
    ASSERT_TRUE(live.Insert(BoxEntry{BoxFor(k % 97), 10'000 + k}));
  }
  // The writer can outrun thread start-up; hold the index live until the
  // reader has demonstrably polled the count at least once.
  while (reads.load() == 0) std::this_thread::yield();
  stop.store(true);
  reader.join();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(live.live_count(), 2000u);
}

}  // namespace
}  // namespace tlp
