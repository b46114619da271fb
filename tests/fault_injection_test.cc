// Fault-injection sweeps over the crash-safe snapshot save protocol and
// torn-read sweeps over the load paths (docs/ROBUSTNESS.md).
//
// The save sweeps arm a hard failure at operation k for every k a clean
// save performs, and assert the atomic-save invariant at each one: after a
// failed Save(), the destination holds either the complete previous
// snapshot or nothing (the single exception being a failure *after* the
// rename — the new snapshot is then complete and valid, just not guaranteed
// durable). The torn sweeps cut or bit-flip the file at every position and
// assert every damaged prefix fails Load/LoadMapped cleanly with the live
// index bit-identical to its pre-load state.
//
// These tests run under ASan/UBSan in the fault-injection CI job; datasets
// are deliberately tiny so every-position sweeps stay fast.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "common/fault_injecting_fs.h"
#include "common/file_system.h"
#include "core/two_layer_plus_grid.h"
#include "datagen/synthetic.h"
#include "grid/grid_layout.h"
#include "persist/open_snapshot.h"
#include "persist/snapshot_writer.h"

namespace tlp {
namespace {

using Op = FaultInjectingFs::Op;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<BoxEntry> MakeData(std::size_t n, std::uint64_t seed) {
  SyntheticConfig config;
  config.cardinality = n;
  config.area = 1e-3;
  config.seed = seed;
  return GenerateSyntheticRects(config);
}

/// 2x2 grid, a handful of entries: keeps snapshots around 2 KB so the
/// every-byte sweeps below stay cheap even under sanitizers.
GridLayout TinyLayout() { return GridLayout(Box{0, 0, 1, 1}, 2, 2); }

std::vector<unsigned char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

/// Writes `bytes` as a new file at `path`. The old file is removed rather
/// than truncated in place: on ext4, truncating a file that holds data
/// waits for a writeback (auto_da_alloc), tens of milliseconds on a slow
/// disk, and the torn-read sweeps rewrite once per byte.
void WriteFileBytes(const std::string& path,
                    const std::vector<unsigned char>& bytes) {
  std::remove(path.c_str());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

bool Exists(const std::string& path) {
  return FileSystem::Default()->FileExists(path);
}

/// Names of leftover `<base>.tmp.*` files next to `path`.
std::vector<std::string> TempLeftovers(const std::string& path) {
  const std::string dir = DirnameOf(path);
  const std::string base = path.substr(path.find_last_of('/') + 1);
  std::vector<std::string> names, hits;
  EXPECT_TRUE(FileSystem::Default()->ListDir(dir, &names).ok());
  for (const std::string& n : names) {
    if (n.compare(0, base.size() + 5, base + ".tmp.") == 0) hits.push_back(n);
  }
  return hits;
}

void RemoveAll(const std::string& path) {
  const std::string dir = DirnameOf(path);
  for (const std::string& n : TempLeftovers(path)) {
    std::remove((dir + "/" + n).c_str());
  }
  std::remove(path.c_str());
}

/// Ops a clean save of `index` to `path` performs (the sweep bound).
std::uint64_t CleanSaveOpCount(const TwoLayerPlusGrid& index,
                               const std::string& path) {
  FaultInjectingFs fs;
  Status s = index.Save(path, &fs);
  EXPECT_TRUE(s.ok()) << s.message();
  return fs.op_count();
}

/// The atomic-save invariant after Save() against `fs` returned `s`:
///  * failure before the rename — destination untouched (`old_bytes`, empty
///    meaning "no file");
///  * failure after the rename (directory fsync) — destination is the
///    complete new snapshot (`new_bytes`);
///  * success — the new snapshot.
void CheckSaveOutcome(const Status& s, const FaultInjectingFs& fs,
                      const std::string& path,
                      const std::vector<unsigned char>& old_bytes,
                      const std::vector<unsigned char>& new_bytes,
                      const std::string& context) {
  if (s.ok()) {
    ASSERT_TRUE(Exists(path)) << context;
    EXPECT_EQ(ReadFileBytes(path), new_bytes) << context;
    return;
  }
  EXPECT_TRUE(fs.fault_fired()) << context << ": unexpected real I/O error: "
                                << s.message();
  EXPECT_EQ(s.code(), StatusCode::kIoError) << context;
  if (!Exists(path)) {
    EXPECT_TRUE(old_bytes.empty()) << context << ": old snapshot lost";
    return;
  }
  const std::vector<unsigned char> now = ReadFileBytes(path);
  if (now == old_bytes) return;  // destination untouched
  // Only a post-rename failure may leave new content — and then it must be
  // the complete, verifiable snapshot, never a torn prefix.
  EXPECT_EQ(now, new_bytes) << context << ": torn file at destination";
  EXPECT_TRUE(VerifySnapshot(path).ok()) << context;
}

TEST(SaveFaultSweep, FreshDestinationHoldsNothingOrCompleteSnapshot) {
  const std::string path = TempPath("sweep_fresh.tlps");
  const std::string probe = TempPath("sweep_fresh_probe.tlps");
  RemoveAll(path);
  TwoLayerPlusGrid index(TinyLayout());
  index.Build(MakeData(8, 1));
  const std::uint64_t clean_ops = CleanSaveOpCount(index, probe);
  const std::vector<unsigned char> new_bytes = ReadFileBytes(probe);
  ASSERT_GT(clean_ops, 5u);

  for (std::uint64_t k = 0; k < clean_ops; ++k) {
    RemoveAll(path);
    FaultInjectingFs fs;
    fs.FailOperation(k);
    const Status s = index.Save(path, &fs);
    CheckSaveOutcome(s, fs, path, /*old_bytes=*/{}, new_bytes,
                     "fail op " + std::to_string(k));
  }

  // One past the end: nothing fires, the save succeeds.
  RemoveAll(path);
  FaultInjectingFs fs;
  fs.FailOperation(clean_ops);
  ASSERT_TRUE(index.Save(path, &fs).ok());
  EXPECT_FALSE(fs.fault_fired());
  EXPECT_EQ(ReadFileBytes(path), new_bytes);
  EXPECT_TRUE(TempLeftovers(path).empty());
  RemoveAll(path);
  RemoveAll(probe);
}

TEST(SaveFaultSweep, ExistingSnapshotSurvivesEveryFailurePoint) {
  const std::string path = TempPath("sweep_replace.tlps");
  const std::string probe = TempPath("sweep_replace_probe.tlps");
  RemoveAll(path);
  TwoLayerPlusGrid old_index(TinyLayout());
  old_index.Build(MakeData(8, 1));
  ASSERT_TRUE(old_index.Save(path).ok());
  const std::vector<unsigned char> old_bytes = ReadFileBytes(path);

  TwoLayerPlusGrid new_index(TinyLayout());
  new_index.Build(MakeData(12, 2));
  const std::uint64_t clean_ops = CleanSaveOpCount(new_index, probe);
  const std::vector<unsigned char> new_bytes = ReadFileBytes(probe);
  ASSERT_NE(old_bytes, new_bytes);

  for (std::uint64_t k = 0; k < clean_ops; ++k) {
    // Restore the old snapshot if the previous iteration replaced it (the
    // post-rename failure case); leftover temps stay — Save must collect
    // them itself.
    if (!Exists(path) || ReadFileBytes(path) != old_bytes) {
      WriteFileBytes(path, old_bytes);
    }
    FaultInjectingFs fs;
    fs.FailOperation(k);
    const Status s = new_index.Save(path, &fs);
    CheckSaveOutcome(s, fs, path, old_bytes, new_bytes,
                     "fail op " + std::to_string(k));
    // Whatever the destination holds, it must load.
    std::unique_ptr<PersistentIndex> loaded;
    ASSERT_TRUE(OpenSnapshot(path, /*mapped=*/false, &loaded).ok())
        << "fail op " << k;
  }
  RemoveAll(path);
  RemoveAll(probe);
}

TEST(SaveFaultSweep, ShortWritesNeverReachTheDestination) {
  const std::string path = TempPath("sweep_short.tlps");
  const std::string probe = TempPath("sweep_short_probe.tlps");
  RemoveAll(path);
  TwoLayerPlusGrid old_index(TinyLayout());
  old_index.Build(MakeData(8, 1));
  ASSERT_TRUE(old_index.Save(path).ok());
  const std::vector<unsigned char> old_bytes = ReadFileBytes(path);

  TwoLayerPlusGrid new_index(TinyLayout());
  new_index.Build(MakeData(12, 2));
  const std::uint64_t clean_ops = CleanSaveOpCount(new_index, probe);
  const std::vector<unsigned char> new_bytes = ReadFileBytes(probe);

  for (std::uint64_t k = 0; k < clean_ops; ++k) {
    if (!Exists(path) || ReadFileBytes(path) != old_bytes) {
      WriteFileBytes(path, old_bytes);
    }
    FaultInjectingFs fs;
    fs.ShortWriteAt(k, 3);  // leave a 3-byte torn prefix in the temp
    const Status s = new_index.Save(path, &fs);
    // Fires only when op k happens to be an Append; otherwise clean run.
    CheckSaveOutcome(s, fs, path, old_bytes, new_bytes,
                     "short write at op " + std::to_string(k));
  }
  RemoveAll(path);
  RemoveAll(probe);
}

// The pre-PR writer fflush()ed without fsync() and could not report sync
// failures at all; this regression pins both halves of the fix: a failing
// fsync fails the save with kIoError and the destination stays untouched.
TEST(SaveFaultPoints, FsyncFailureFailsTheSave) {
  const std::string path = TempPath("fault_fsync.tlps");
  RemoveAll(path);
  TwoLayerPlusGrid index(TinyLayout());
  index.Build(MakeData(8, 1));
  FaultInjectingFs fs;
  fs.FailNextOf(Op::kSync);
  const Status s = index.Save(path, &fs);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_NE(s.message().find("fsync"), std::string::npos) << s.message();
  EXPECT_TRUE(fs.fault_fired());
  EXPECT_FALSE(Exists(path));
  EXPECT_TRUE(TempLeftovers(path).empty());
}

TEST(SaveFaultPoints, CrashBeforeRenamePublishesNothing) {
  const std::string path = TempPath("fault_rename.tlps");
  RemoveAll(path);
  TwoLayerPlusGrid index(TinyLayout());
  index.Build(MakeData(8, 1));
  FaultInjectingFs fs;
  fs.FailNextOf(Op::kRename);
  const Status s = index.Save(path, &fs);
  ASSERT_FALSE(s.ok());
  EXPECT_FALSE(Exists(path));
  EXPECT_TRUE(TempLeftovers(path).empty());
}

TEST(SaveFaultPoints, EnospcStyleMessageSurfacesToTheCaller) {
  const std::string path = TempPath("fault_enospc.tlps");
  RemoveAll(path);
  TwoLayerPlusGrid index(TinyLayout());
  index.Build(MakeData(8, 1));
  FaultInjectingFs fs;
  fs.FailOperation(2);  // some mid-save write
  const Status s = index.Save(path, &fs);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("No space left on device"), std::string::npos)
      << s.message();
}

// The durability protocol in the order that makes it correct: payload
// fsync, close, atomic rename, parent-directory fsync — and exactly one
// rename (one publication point).
TEST(SaveProtocol, OperationOrdering) {
  const std::string path = TempPath("protocol_order.tlps");
  RemoveAll(path);
  TwoLayerPlusGrid index(TinyLayout());
  index.Build(MakeData(8, 1));
  FaultInjectingFs fs;
  ASSERT_TRUE(index.Save(path, &fs).ok());
  const std::vector<Op> log = fs.OperationLog();
  const auto index_of = [&](Op op) {
    const auto it = std::find(log.begin(), log.end(), op);
    EXPECT_NE(it, log.end()) << FaultInjectingFs::OpName(op) << " never ran";
    return it - log.begin();
  };
  EXPECT_LT(index_of(Op::kNewWritableFile), index_of(Op::kAppend));
  EXPECT_LT(index_of(Op::kSync), index_of(Op::kClose));
  EXPECT_LT(index_of(Op::kClose), index_of(Op::kRename));
  EXPECT_LT(index_of(Op::kRename), index_of(Op::kSyncDir));
  EXPECT_EQ(std::count(log.begin(), log.end(), Op::kRename), 1);
  RemoveAll(path);
}

TEST(SaveProtocol, StaleTempsFromACrashedSaveAreCollected) {
  const std::string path = TempPath("stale_collect.tlps");
  RemoveAll(path);
  const std::string stale = path + ".tmp.99999.7";
  WriteFileBytes(stale, {0xde, 0xad, 0xbe, 0xef});
  // A temp of a *different* destination must not be touched.
  const std::string other = TempPath("stale_other.tlps.tmp.99999.7");
  WriteFileBytes(other, {0x01});

  TwoLayerPlusGrid index(TinyLayout());
  index.Build(MakeData(8, 1));
  ASSERT_TRUE(index.Save(path).ok());
  EXPECT_TRUE(TempLeftovers(path).empty());
  EXPECT_TRUE(Exists(other));
  std::remove(other.c_str());
  RemoveAll(path);
}

// Abandon() is the one place temp-file cleanup failures can surface;
// the pre-PR void Abandon() swallowed them.
TEST(SaveProtocol, AbandonReportsCleanupFailures) {
  const std::string path = TempPath("abandon_report.tlps");
  RemoveAll(path);
  {
    FaultInjectingFs fs;
    SnapshotWriter writer;
    ASSERT_TRUE(
        writer.Open(path, SnapshotIndexKind::kTwoLayerPlusGrid, &fs).ok());
    fs.FailNextOf(Op::kRemove);
    const Status s = writer.Abandon();
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kIoError);
  }
  // The failed remove leaked the temp; a later save collects it.
  ASSERT_FALSE(TempLeftovers(path).empty());
  TwoLayerPlusGrid index(TinyLayout());
  index.Build(MakeData(8, 1));
  ASSERT_TRUE(index.Save(path).ok());
  EXPECT_TRUE(TempLeftovers(path).empty());
  RemoveAll(path);

  // And the happy path: Abandon removes the temp and reports OK.
  SnapshotWriter writer;
  ASSERT_TRUE(writer.Open(path, SnapshotIndexKind::kTwoLayerPlusGrid).ok());
  ASSERT_FALSE(TempLeftovers(path).empty());
  EXPECT_TRUE(writer.Abandon().ok());
  EXPECT_TRUE(TempLeftovers(path).empty());
  EXPECT_FALSE(Exists(path));
}

/// Shared torn-read sweep: for every damaged variant `make(i)` of the
/// snapshot, Load/LoadMapped must fail cleanly (or, for benign bit flips in
/// CRC-uncovered padding, succeed with identical logical content), and the
/// victim index must stay bit-identical to its pre-load state — proven by
/// re-saving it and comparing bytes against the pristine snapshot.
void TornReadSweep(bool truncation_sweep) {
  const std::string pristine_path = TempPath("torn_pristine.tlps");
  const std::string damaged_path = TempPath("torn_damaged.tlps");
  const std::string resave_path = TempPath("torn_resave.tlps");
  RemoveAll(pristine_path);

  // The sweep re-saves once per damaged variant and checks what a reader
  // sees, so the saves skip fsync and never rename onto an existing file
  // (ext4 waits for a writeback there, as in WriteFileBytes): either would
  // dominate the run, and no crash is simulated here.
  FileSystem* const fs = FileSystem::NonDurable();

  TwoLayerPlusGrid victim(TinyLayout());
  victim.Build(MakeData(8, 1));
  const auto resave = [&] {
    std::remove(resave_path.c_str());
    return victim.Save(resave_path, fs);
  };
  ASSERT_TRUE(victim.Save(pristine_path, fs).ok());
  // The header records the index's true memory footprint (capacity-based),
  // which differs between a freshly built index and one reconstituted by
  // Load. Round-trip once so the victim sits at its save/load fixed point;
  // from here every re-save of unchanged state is byte-identical.
  ASSERT_TRUE(victim.Load(pristine_path).ok());
  ASSERT_TRUE(victim.Save(pristine_path, fs).ok());
  const std::vector<unsigned char> pristine = ReadFileBytes(pristine_path);
  ASSERT_GT(pristine.size(), sizeof(std::uint64_t));
  ASSERT_TRUE(resave().ok());
  ASSERT_EQ(ReadFileBytes(resave_path), pristine)
      << "save/load fixed point not reached; byte-compare sweep would be "
         "meaningless";

  for (std::size_t i = 0; i < pristine.size(); ++i) {
    std::vector<unsigned char> damaged;
    if (truncation_sweep) {
      damaged.assign(pristine.begin(),
                     pristine.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      damaged = pristine;
      damaged[i] ^= 0x01;
    }
    WriteFileBytes(damaged_path, damaged);

    const Status owned = victim.Load(damaged_path);
    TwoLayerPlusGrid mapped_victim(TinyLayout());
    mapped_victim.Build(MakeData(8, 1));
    const Status mapped =
        mapped_victim.LoadMapped(damaged_path, /*verify_checksums=*/true);

    if (truncation_sweep) {
      // Every strict prefix must be rejected (the header records the file
      // size, so even a cut past the last checksum is caught).
      EXPECT_FALSE(owned.ok()) << "cut at " << i;
      EXPECT_FALSE(mapped.ok()) << "cut at " << i;
    } else if (owned.ok()) {
      // A flip in CRC-uncovered alignment padding loads fine — but then it
      // must not have changed the logical content.
      ASSERT_TRUE(resave().ok()) << "flip at " << i;
      EXPECT_EQ(ReadFileBytes(resave_path), pristine) << "flip at " << i;
      continue;  // victim re-verified; skip the untouched-state check
    } else {
      EXPECT_FALSE(mapped.ok()) << "flip at " << i;
    }

    // The failed load left the victim bit-identical to its pre-load state.
    ASSERT_TRUE(resave().ok()) << "variant " << i;
    EXPECT_EQ(ReadFileBytes(resave_path), pristine) << "variant " << i;
  }
  RemoveAll(pristine_path);
  RemoveAll(damaged_path);
  RemoveAll(resave_path);
}

TEST(TornReadSweep, EveryTruncationPrefixFailsCleanly) {
  TornReadSweep(/*truncation_sweep=*/true);
}

TEST(TornReadSweep, EveryBitFlipFailsCleanlyOrIsBenign) {
  TornReadSweep(/*truncation_sweep=*/false);
}

// Reads and maps route through the filesystem too: an injected read/map
// failure surfaces as kIoError (distinct from kCorruption).
TEST(LoadFaultPoints, InjectedReadAndMapFailuresAreIoErrors) {
  const std::string path = TempPath("load_fault.tlps");
  RemoveAll(path);
  TwoLayerPlusGrid index(TinyLayout());
  index.Build(MakeData(8, 1));
  ASSERT_TRUE(index.Save(path).ok());

  {
    FaultInjectingFs fs;
    fs.FailNextOf(Op::kReadFile);
    TwoLayerPlusGrid loaded(TinyLayout());
    const Status s = loaded.Load(path, &fs);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kIoError);
  }
  {
    FaultInjectingFs fs;
    fs.FailNextOf(Op::kMap);
    TwoLayerPlusGrid loaded(TinyLayout());
    const Status s = loaded.LoadMapped(path, /*verify_checksums=*/false, &fs);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kIoError);
  }
  // Whereas a truncated file through a healthy filesystem is kCorruption.
  {
    std::vector<unsigned char> bytes = ReadFileBytes(path);
    bytes.resize(bytes.size() / 2);
    WriteFileBytes(path, bytes);
    TwoLayerPlusGrid loaded(TinyLayout());
    const Status s = loaded.Load(path);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kCorruption);
  }
  RemoveAll(path);
}

// The sweeps' NonDurable filesystem must differ from Default() only in
// skipping fsync: a synced-but-unclosed file is fully visible to readers.
TEST(NonDurableFs, SyncStillFlushesTheWriteBuffer) {
  const std::string path = TempPath("non_durable.bin");
  std::remove(path.c_str());
  FileSystem* const fs = FileSystem::NonDurable();
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(fs->NewWritableFile(path, &file).ok());
  const std::vector<unsigned char> bytes = {1, 2, 3, 4, 5};
  ASSERT_TRUE(file->Append(bytes.data(), bytes.size()).ok());
  ASSERT_TRUE(file->Sync().ok());
  EXPECT_EQ(ReadFileBytes(path), bytes);
  EXPECT_TRUE(fs->SyncDir(DirnameOf(path)).ok());
  ASSERT_TRUE(file->Close().ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tlp
