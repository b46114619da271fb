// Fault-injection sweeps over the durability subsystem (src/wal,
// docs/DURABILITY.md, docs/ROBUSTNESS.md). The single invariant every
// sweep asserts:
//
//   After ANY injected failure — a hard I/O error at any operation of the
//   append/fsync/rotation/delta-snapshot/compaction protocol, a torn tail
//   of any length, or any single-bit flip of the log tail — reopening the
//   directory recovers successfully, and the recovered index equals the
//   sequential oracle at the recovered sequence number, which is a
//   consistent prefix of the committed history. Hard faults (where the
//   disk kept everything it acknowledged) must additionally lose nothing:
//   the prefix must cover every op a Sync acknowledged before the fault.
//
// The sweeps follow the FaultInjectingFs recipe (tests/
// fault_injection_test.cc): arm operation k for k = 0, 1, ... until a run
// sees no fault fire, so every failure point of the protocol is visited —
// not just the ones a hand-written mock would cover.

#include <sys/stat.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "common/fault_injecting_fs.h"
#include "common/file_system.h"
#include "core/two_layer_grid.h"
#include "grid/grid_layout.h"
#include "wal/durable_log.h"
#include "wal/wal_format.h"

namespace tlp {
namespace {

using wal::RecordKind;
using wal::WalRecord;

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

GridLayout TinyLayout() { return GridLayout(Box{0, 0, 1, 1}, 2, 2); }

/// The filesystem under every DurableLog here. The invariants concern what
/// a reopen sees after an injected failure, which fsync does not change, so
/// the sweeps skip it (it would dominate their thousands of reopens);
/// FaultInjectingFs still counts and fails Sync and SyncDir like any op.
FileSystem* SweepFs() { return FileSystem::NonDurable(); }

/// Writes the first `n` of `bytes` as a new file at `path`. The old file is
/// removed rather than truncated in place: on ext4, truncating a file that
/// holds data waits for a writeback (auto_da_alloc), tens of milliseconds
/// on a slow disk, and the tail sweeps rewrite once per byte or bit.
void RewriteFile(const std::string& path,
                 const std::vector<unsigned char>& bytes, std::size_t n) {
  std::remove(path.c_str());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(n));
  ASSERT_TRUE(out.good()) << path;
}

Box BoxFor(std::uint32_t k) {
  const double x = 0.02 * static_cast<double>(k % 45);
  const double y = 0.03 * static_cast<double>((k * 7) % 30);
  return Box{x, y, x + 0.04, y + 0.04};
}

/// The scripted op history every sweep runs: inserts, deletes, and
/// re-inserts so delta collapse and replay see every op shape.
struct ScriptOp {
  bool insert;
  std::uint32_t id;
};

std::vector<ScriptOp> Script() {
  std::vector<ScriptOp> ops;
  for (std::uint32_t k = 0; k < 12; ++k) ops.push_back({true, k});
  for (std::uint32_t k = 0; k < 12; k += 3) ops.push_back({false, k});
  for (std::uint32_t k = 0; k < 12; k += 6) ops.push_back({true, k});
  return ops;
}

using Oracle = std::map<ObjectId, Box>;

/// Oracle state after the first `seq` script ops.
Oracle OracleAt(std::uint64_t seq) {
  Oracle oracle;
  const std::vector<ScriptOp> ops = Script();
  EXPECT_LE(seq, ops.size());
  for (std::uint64_t i = 0; i < seq; ++i) {
    if (ops[i].insert) {
      oracle[ops[i].id] = BoxFor(ops[i].id);
    } else {
      oracle.erase(ops[i].id);
    }
  }
  return oracle;
}

void ExpectLiveSet(const TwoLayerGrid& grid, const Oracle& oracle,
                   const std::string& context) {
  Oracle actual;
  const GridLayout& layout = grid.layout();
  for (std::uint32_t j = 0; j < layout.ny(); ++j) {
    for (std::uint32_t i = 0; i < layout.nx(); ++i) {
      const auto [p, n] = grid.ClassSpan(i, j, ObjectClass::kA);
      for (std::size_t k = 0; k < n; ++k) {
        ASSERT_TRUE(actual.emplace(p[k].id, p[k].box).second)
            << context << ": duplicate class-A id " << p[k].id;
      }
    }
  }
  ASSERT_EQ(actual.size(), oracle.size()) << context;
  for (const auto& [id, box] : oracle) {
    const auto it = actual.find(id);
    ASSERT_TRUE(it != actual.end()) << context << ": missing id " << id;
    EXPECT_EQ(it->second.xl, box.xl) << context;
    EXPECT_EQ(it->second.yu, box.yu) << context;
  }
}

/// Recovers `dir` with a clean filesystem and asserts the invariant:
/// recovery succeeds, the recovered sequence is in [acked_floor,
/// script size], and the live set equals the oracle at that sequence.
void ExpectConsistentPrefix(const std::string& dir,
                            std::uint64_t acked_floor,
                            const std::string& context) {
  // A fault during the initial seeding can die before the full snapshot's
  // atomic rename: the database then never existed, which is only a
  // consistent outcome if nothing was acknowledged yet.
  WalDirInfo info;
  ASSERT_TRUE(DurableLog::Inspect(dir, SweepFs(), &info).ok()) << context;
  if (!info.has_full) {
    EXPECT_EQ(acked_floor, 0u)
        << context << ": acked ops but no full snapshot";
    return;
  }
  std::unique_ptr<DurableLog> log;
  ASSERT_TRUE(DurableLog::Open(dir, DurableLog::Options{}, SweepFs(), &log)
                  .ok())
      << context;
  std::unique_ptr<TwoLayerGrid> grid;
  std::uint64_t seq = 0;
  ASSERT_TRUE(log->RecoverIndex(&grid, &seq).ok()) << context;
  EXPECT_GE(seq, acked_floor) << context << ": acknowledged ops lost";
  EXPECT_LE(seq, Script().size()) << context;
  ExpectLiveSet(*grid, OracleAt(seq), context);
}

/// One full protocol run against `fs`: seed, append+sync the script with
/// a mid-way delta snapshot, then compact. Returns the last sequence a
/// Sync acknowledged (0 when the fault hit before the first ack); stops
/// at the first error, like a real writer hitting a dying disk.
std::uint64_t RunProtocol(const std::string& dir, FileSystem* fs) {
  DurableLog::Options options;
  options.segment_bytes = 192;  // a few records per segment: rotations
  std::unique_ptr<DurableLog> log;
  if (!DurableLog::Open(dir, options, fs, &log).ok()) return 0;
  TwoLayerGrid empty(TinyLayout());
  if (!log->Compact(empty, 0).ok()) return 0;
  std::uint64_t acked = 0;
  const std::vector<ScriptOp> ops = Script();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::uint64_t seq = static_cast<std::uint64_t>(i) + 1;
    if (!log->Append(wal::MakeOp(ops[i].insert, seq,
                                 BoxEntry{BoxFor(ops[i].id), ops[i].id}))
             .ok()) {
      return acked;
    }
    if (!log->Sync(seq).ok()) return acked;
    acked = seq;
    if (seq == ops.size() / 2 &&
        !log->WriteDeltaSnapshot(log->durable_seq()).ok()) {
      return acked;  // checkpoint failures must not lose acked ops
    }
  }
  // Final compaction of the whole history.
  std::unique_ptr<TwoLayerGrid> grid;
  std::uint64_t seq = 0;
  {
    std::unique_ptr<DurableLog> reader;
    if (!DurableLog::Open(dir, options, SweepFs(), &reader).ok()) {
      return acked;
    }
    if (!reader->RecoverIndex(&grid, &seq).ok()) return acked;
  }
  (void)log->Compact(*grid, seq);
  return acked;
}

// --------------------------------------------------------------------------
// Every-operation hard-failure sweep

TEST(WalFaultSweepTest, EveryOperationFailureRecoversToAConsistentPrefix) {
  // Clean run first: count the operations a fault-free protocol performs.
  const std::string clean_dir = FreshDir("wal_sweep_clean");
  FaultInjectingFs counter(SweepFs());
  const std::uint64_t clean_acked = RunProtocol(clean_dir, &counter);
  ASSERT_EQ(clean_acked, Script().size());
  ASSERT_FALSE(counter.fault_fired());
  const std::uint64_t total_ops = counter.op_count();
  ASSERT_GT(total_ops, 20u);

  for (std::uint64_t k = 0; k < total_ops; ++k) {
    const std::string dir =
        FreshDir("wal_sweep_" + std::to_string(k));
    FaultInjectingFs fs(SweepFs());
    fs.FailOperation(k);
    const std::uint64_t acked = RunProtocol(dir, &fs);
    const std::string context = "fault at op " + std::to_string(k);
    // Not every k fires (error paths cut the run short of op k on some
    // arms); a fired fault is the interesting case either way.
    ExpectConsistentPrefix(dir, acked, context);
  }
}

// --------------------------------------------------------------------------
// Torn-tail sweep: every truncation prefix of the final segment

TEST(WalFaultSweepTest, EveryTailTruncationRecovers) {
  const std::string dir = FreshDir("wal_trunc_sweep");
  DurableLog::Options options;
  // Large segments: the whole script lands in one file, so truncating it
  // sweeps through every op's frame boundary.
  std::uint64_t committed = 0;
  {
    std::unique_ptr<DurableLog> log;
    ASSERT_TRUE(DurableLog::Open(dir, options, SweepFs(), &log).ok());
    TwoLayerGrid empty(TinyLayout());
    ASSERT_TRUE(log->Compact(empty, 0).ok());
    const std::vector<ScriptOp> ops = Script();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const std::uint64_t seq = static_cast<std::uint64_t>(i) + 1;
      ASSERT_TRUE(
          log->Append(wal::MakeOp(ops[i].insert, seq,
                                  BoxEntry{BoxFor(ops[i].id), ops[i].id}))
              .ok());
      ASSERT_TRUE(log->Sync(seq).ok());
    }
    committed = log->durable_seq();
  }
  const std::string seg_path = dir + "/" + wal::SegmentFileName(1);
  std::vector<unsigned char> full_bytes;
  ASSERT_TRUE(FileSystem::Default()->ReadFile(seg_path, &full_bytes).ok());

  for (std::size_t cut = 0; cut <= full_bytes.size(); ++cut) {
    // Rewrite the segment as its cut-byte prefix, then recover.
    ASSERT_NO_FATAL_FAILURE(RewriteFile(seg_path, full_bytes, cut));
    ExpectConsistentPrefix(dir, 0, "truncated to " + std::to_string(cut));
  }
  // Restore the full segment: recovery must see the entire history again
  // (the sweep's Opens only ever truncate invalid tails, and a valid file
  // has none).
  ASSERT_NO_FATAL_FAILURE(RewriteFile(seg_path, full_bytes, full_bytes.size()));
  ExpectConsistentPrefix(dir, committed, "restored full segment");
}

// --------------------------------------------------------------------------
// Bit-flip sweep: every single-bit flip of the log tail

TEST(WalFaultSweepTest, EverySingleBitFlipOfTheTailRecovers) {
  const std::string dir = FreshDir("wal_flip_sweep");
  {
    std::unique_ptr<DurableLog> log;
    ASSERT_TRUE(
        DurableLog::Open(dir, DurableLog::Options{}, SweepFs(), &log).ok());
    TwoLayerGrid empty(TinyLayout());
    ASSERT_TRUE(log->Compact(empty, 0).ok());
    const std::vector<ScriptOp> ops = Script();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const std::uint64_t seq = static_cast<std::uint64_t>(i) + 1;
      ASSERT_TRUE(
          log->Append(wal::MakeOp(ops[i].insert, seq,
                                  BoxEntry{BoxFor(ops[i].id), ops[i].id}))
              .ok());
      ASSERT_TRUE(log->Sync(seq).ok());
    }
  }
  const std::string seg_path = dir + "/" + wal::SegmentFileName(1);
  std::vector<unsigned char> clean;
  ASSERT_TRUE(FileSystem::Default()->ReadFile(seg_path, &clean).ok());

  for (std::size_t bit = 0; bit < clean.size() * 8; ++bit) {
    std::vector<unsigned char> damaged = clean;
    damaged[bit / 8] =
        static_cast<unsigned char>(damaged[bit / 8] ^ (1u << (bit % 8)));
    ASSERT_NO_FATAL_FAILURE(RewriteFile(seg_path, damaged, damaged.size()));
    // A flipped bit is disk corruption: recovery may surface a shortened
    // prefix (acked floor 0) but must stay consistent and must not crash.
    // Note Open truncates the detected-bad tail, so each iteration
    // rewrites the file from the clean copy.
    ExpectConsistentPrefix(dir, 0, "bit flip " + std::to_string(bit));
  }
}

// --------------------------------------------------------------------------
// Crash-during-compaction: every injected step between "full snapshot
// written" and "stale files collected"

TEST(WalFaultSweepTest, CrashDuringCompactionIsReplayIdempotent) {
  // Build one durable history to compact, and remember its digest.
  const std::string proto_dir = FreshDir("wal_compact_proto");
  std::uint64_t committed = 0;
  std::uint32_t want_digest = 0;
  {
    std::unique_ptr<DurableLog> log;
    ASSERT_TRUE(DurableLog::Open(proto_dir, DurableLog::Options{}, SweepFs(),
                                 &log)
                    .ok());
    TwoLayerGrid empty(TinyLayout());
    ASSERT_TRUE(log->Compact(empty, 0).ok());
    const std::vector<ScriptOp> ops = Script();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const std::uint64_t seq = static_cast<std::uint64_t>(i) + 1;
      ASSERT_TRUE(
          log->Append(wal::MakeOp(ops[i].insert, seq,
                                  BoxEntry{BoxFor(ops[i].id), ops[i].id}))
              .ok());
      ASSERT_TRUE(log->Sync(seq).ok());
      if (seq == 6) {
        ASSERT_TRUE(log->WriteDeltaSnapshot(log->durable_seq()).ok());
      }
    }
    committed = log->durable_seq();
    std::unique_ptr<DurableLog> reader;
    ASSERT_TRUE(DurableLog::Open(proto_dir, DurableLog::Options{},
                                 SweepFs(), &reader)
                    .ok());
    std::unique_ptr<TwoLayerGrid> grid;
    std::uint64_t seq = 0;
    ASSERT_TRUE(reader->RecoverIndex(&grid, &seq).ok());
    ASSERT_EQ(seq, committed);
    want_digest = LiveSetDigest(*grid);
  }
  const std::vector<std::string> proto_files = [&] {
    std::vector<std::string> names;
    EXPECT_TRUE(FileSystem::Default()->ListDir(proto_dir, &names).ok());
    return names;
  }();

  // Count a clean compaction's operations, then kill it at every step.
  // Each iteration clones the prototype directory, so every sweep point
  // sees the identical pre-compaction state.
  const auto clone_proto = [&](const std::string& dir) {
    for (const std::string& n : proto_files) {
      std::vector<unsigned char> bytes;
      ASSERT_TRUE(
          FileSystem::Default()->ReadFile(proto_dir + "/" + n, &bytes).ok());
      std::ofstream out(dir + "/" + n, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
      ASSERT_TRUE(out.good());
    }
  };
  const auto run_compact = [&](const std::string& dir, FileSystem* fs) {
    std::unique_ptr<DurableLog> log;
    if (!DurableLog::Open(dir, DurableLog::Options{}, fs, &log).ok()) {
      return;
    }
    std::unique_ptr<TwoLayerGrid> grid;
    std::uint64_t seq = 0;
    if (!log->RecoverIndex(&grid, &seq).ok()) return;
    (void)log->Compact(*grid, seq);
  };

  const std::uint64_t total_ops = [&] {
    const std::string dir = FreshDir("wal_compact_count");
    clone_proto(dir);
    FaultInjectingFs counter(SweepFs());
    run_compact(dir, &counter);
    EXPECT_FALSE(counter.fault_fired());
    return counter.op_count();
  }();
  ASSERT_GT(total_ops, 5u);

  for (std::uint64_t k = 0; k < total_ops; ++k) {
    const std::string dir = FreshDir("wal_compact_" + std::to_string(k));
    clone_proto(dir);
    FaultInjectingFs fs(SweepFs());
    fs.FailOperation(k);
    run_compact(dir, &fs);

    // Whatever step died — full snapshot half-written, rename skipped,
    // some stale files collected and others not — recovery must still
    // reach the full committed history with the same live set...
    const std::string context = "compaction fault at op " +
                                std::to_string(k);
    {
      std::unique_ptr<DurableLog> log;
      ASSERT_TRUE(DurableLog::Open(dir, DurableLog::Options{}, SweepFs(),
                                   &log)
                      .ok())
          << context;
      std::unique_ptr<TwoLayerGrid> grid;
      std::uint64_t seq = 0;
      ASSERT_TRUE(log->RecoverIndex(&grid, &seq).ok()) << context;
      ASSERT_EQ(seq, committed) << context;
      ASSERT_EQ(LiveSetDigest(*grid), want_digest) << context;

      // ...and re-running the compaction on the recovered state must
      // converge (idempotent replay): same digest, one full snapshot.
      ASSERT_TRUE(log->Compact(*grid, seq).ok()) << context;
    }
    ExpectConsistentPrefix(dir, committed, context + " after re-compact");
  }
}

}  // namespace
}  // namespace tlp
