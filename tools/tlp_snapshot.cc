// tlp_snapshot — build, inspect, and verify index snapshot files (*.tlps).
//
//   tlp_snapshot build  <out.tlps> [--kind=2layer+|2layer|1layer]
//                       [--n=N] [--dist=uniform|zipf] [--seed=S] [--grid=D]
//       Generate a synthetic dataset (datagen/synthetic), build the index,
//       and save it. --grid=0 (default) sizes the grid like the benches do.
//   tlp_snapshot save   <out.tlps> --from-csv=<mbrs.csv> [--kind=...]
//                       [--grid=D]
//       Same, but the dataset comes from an `xl,yl,xu,yu` CSV (io layer).
//   tlp_snapshot load   <in.tlps> [--mmap] [--queries=N] [--area=PCT]
//       Load (deserializing, or zero-copy with --mmap) and run a window-
//       query workload; prints load/query timings and a TLP_QUERY_STATS
//       JSON line for tools/summarize_results.py.
//   tlp_snapshot verify <in.tlps>
//       Full integrity pass: header, section table, every payload CRC.
//   tlp_snapshot info   <in.tlps>
//       Print the header summary as JSON (no payload access).
//   tlp_snapshot wal-info   <wal-dir>
//       Print a WAL directory summary as JSON (docs/DURABILITY.md) without
//       modifying anything: checkpoint coverage, committed sequence, torn
//       tail bytes, leftover temp files.
//   tlp_snapshot wal-replay <wal-dir>
//       Recover the index from the directory (full snapshot + delta chain
//       + log replay) and print the recovered state as JSON, including a
//       live-set digest for differential crash tests.
//   tlp_snapshot compact    <wal-dir>
//       Recover, then fold the whole committed history into one full
//       snapshot and collect the superseded files. Replay-idempotent:
//       crashing anywhere inside leaves a recoverable directory.
//
// Exit status (messages on stderr) — scripts branch on the class, not the
// message text:
//   0  success
//   1  unclassified failure
//   2  bad usage / malformed input (arguments, CSV/WKT parse errors)
//   3  I/O error (cannot open/read/write/rename, ENOSPC, ...)
//   4  corrupt snapshot (bad magic, checksum mismatch, truncation)
//   5  kind mismatch (valid snapshot, wrong index kind for the request)
//
// Fault injection (CI crash tests): when TLP_SNAPSHOT_FAULT_OP is set, all
// file I/O of build/save — and of the wal-* / compact subcommands — runs
// through a FaultInjectingFs with that fault armed — an integer arms the
// k-th operation, an op name ("rename", "sync", ...) arms the next
// operation of that kind. The save must then fail with exit 3 and must NOT
// have published anything at the destination; an interrupted compact must
// leave the directory recoverable to the same live set.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injecting_fs.h"
#include "common/file_system.h"
#include "common/query_stats.h"
#include "core/two_layer_grid.h"
#include "core/two_layer_plus_grid.h"
#include "datagen/query_gen.h"
#include "datagen/synthetic.h"
#include "grid/grid_layout.h"
#include "grid/one_layer_grid.h"
#include "io/dataset_io.h"
#include "persist/open_snapshot.h"
#include "wal/durable_log.h"

namespace {

using tlp::BoxEntry;
using tlp::Status;
using tlp::StatusCode;

enum ExitCode : int {
  kExitOk = 0,
  kExitUnknown = 1,
  kExitUsage = 2,
  kExitIo = 3,
  kExitCorruption = 4,
  kExitKindMismatch = 5,
};

/// Maps a failed Status to the documented exit code, printing the message.
int Report(const Status& s, const char* what) {
  std::fprintf(stderr, "tlp_snapshot: %s: %s\n", what, s.message().c_str());
  switch (s.code()) {
    case StatusCode::kOk: return kExitOk;
    case StatusCode::kUnknown: return kExitUnknown;
    case StatusCode::kInvalidArgument: return kExitUsage;
    case StatusCode::kIoError: return kExitIo;
    case StatusCode::kCorruption: return kExitCorruption;
    case StatusCode::kKindMismatch: return kExitKindMismatch;
  }
  return kExitUnknown;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string command;
  std::string path;
  std::string kind = "2layer+";
  std::string dist = "uniform";
  std::string from_csv;
  std::size_t n = 1'000'000;
  std::uint64_t seed = 7;
  std::uint32_t grid = 0;  // 0 = auto (sqrt(n)/4 per dimension)
  std::size_t queries = 1000;
  double area_percent = 0.1;
  bool mmap = false;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: tlp_snapshot <command> <path> [options]\n"
      "  build  <out.tlps>  --kind=2layer+|2layer|1layer --n=N\n"
      "         --dist=uniform|zipf --seed=S --grid=D\n"
      "  save   <out.tlps>  --from-csv=FILE --kind=... --grid=D\n"
      "  load   <in.tlps>   [--mmap] [--queries=N] [--area=PCT]\n"
      "  verify / info <in.tlps>\n"
      "  wal-info / wal-replay / compact <wal-dir>\n");
  return kExitUsage;
}

bool ParseArgs(int argc, char** argv, Options* out) {
  if (argc < 3) return false;
  out->command = argv[1];
  out->path = argv[2];
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eat = [&](const char* prefix, std::string* value) {
      const std::size_t len = std::strlen(prefix);
      if (arg.compare(0, len, prefix) != 0) return false;
      *value = arg.substr(len);
      return true;
    };
    // stoull/stod throw on junk ("--n=ten") and overflow; a CLI reports
    // usage errors, it does not die on an uncaught exception.
    try {
      std::string v;
      if (arg == "--mmap") {
        out->mmap = true;
      } else if (eat("--kind=", &v)) {
        out->kind = v;
      } else if (eat("--dist=", &v)) {
        out->dist = v;
      } else if (eat("--from-csv=", &v)) {
        out->from_csv = v;
      } else if (eat("--n=", &v)) {
        out->n = std::stoull(v);
      } else if (eat("--seed=", &v)) {
        out->seed = std::stoull(v);
      } else if (eat("--grid=", &v)) {
        out->grid = static_cast<std::uint32_t>(std::stoul(v));
      } else if (eat("--queries=", &v)) {
        out->queries = std::stoull(v);
      } else if (eat("--area=", &v)) {
        out->area_percent = std::stod(v);
      } else {
        std::fprintf(stderr, "tlp_snapshot: unknown option '%s'\n",
                     arg.c_str());
        return false;
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "tlp_snapshot: bad value in '%s'\n", arg.c_str());
      return false;
    }
  }
  return true;
}

/// The filesystem save/build write through: the POSIX default, or a
/// FaultInjectingFs armed from TLP_SNAPSHOT_FAULT_OP (see file comment).
/// Returns false on a malformed knob value.
bool SaveFileSystem(std::unique_ptr<tlp::FaultInjectingFs>* holder,
                    tlp::FileSystem** out) {
  *out = nullptr;  // library default
  // Single-threaded CLI startup; no setenv anywhere in this process.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* knob = std::getenv("TLP_SNAPSHOT_FAULT_OP");
  if (knob == nullptr || *knob == '\0') return true;
  auto fs = std::make_unique<tlp::FaultInjectingFs>();
  tlp::FaultInjectingFs::Op op;
  if (tlp::FaultInjectingFs::ParseOp(knob, &op)) {
    fs->FailNextOf(op);
  } else {
    try {
      fs->FailOperation(std::stoull(knob));
    } catch (const std::exception&) {
      std::fprintf(stderr,
                   "tlp_snapshot: TLP_SNAPSHOT_FAULT_OP='%s' is neither an "
                   "operation name nor an index\n",
                   knob);
      return false;
    }
  }
  *out = fs.get();
  *holder = std::move(fs);
  return true;
}

tlp::GridLayout LayoutFor(const std::vector<BoxEntry>& entries,
                          std::uint32_t grid_dim) {
  tlp::Box domain{0, 0, 1, 1};
  if (!entries.empty()) {
    domain = entries.front().box;
    for (const BoxEntry& e : entries) {
      domain.xl = std::min(domain.xl, e.box.xl);
      domain.yl = std::min(domain.yl, e.box.yl);
      domain.xu = std::max(domain.xu, e.box.xu);
      domain.yu = std::max(domain.yu, e.box.yu);
    }
  }
  std::uint32_t dim = grid_dim;
  if (dim == 0) {
    dim = static_cast<std::uint32_t>(
        std::sqrt(static_cast<double>(entries.size())) / 4);
    dim = std::min<std::uint32_t>(4096, std::max<std::uint32_t>(16, dim));
  }
  return tlp::GridLayout(domain, dim, dim);
}

int BuildAndSave(const Options& opt, const std::vector<BoxEntry>& entries) {
  std::unique_ptr<tlp::FaultInjectingFs> fault_fs;
  tlp::FileSystem* fs = nullptr;
  if (!SaveFileSystem(&fault_fs, &fs)) return kExitUsage;
  const tlp::GridLayout layout = LayoutFor(entries, opt.grid);
  Status s = Status::OK();
  double built_at = 0;
  const double start = NowSeconds();
  if (opt.kind == "2layer+") {
    tlp::TwoLayerPlusGrid index(layout);
    index.Build(entries);
    built_at = NowSeconds();
    s = index.Save(opt.path, fs);
  } else if (opt.kind == "2layer") {
    tlp::TwoLayerGrid index(layout);
    index.Build(entries);
    built_at = NowSeconds();
    s = index.Save(opt.path, fs);
  } else if (opt.kind == "1layer") {
    tlp::OneLayerGrid index(layout);
    index.Build(entries);
    built_at = NowSeconds();
    s = index.Save(opt.path, fs);
  } else {
    std::fprintf(stderr, "tlp_snapshot: unknown --kind '%s'\n",
                 opt.kind.c_str());
    return kExitUsage;
  }
  if (!s.ok()) return Report(s, "save failed");
  const double done = NowSeconds();
  std::printf(
      "saved %s: kind=%s entries=%zu grid=%ux%u build=%.3fs save=%.3fs\n",
      opt.path.c_str(), opt.kind.c_str(), entries.size(), layout.nx(),
      layout.ny(), built_at - start, done - built_at);
  return kExitOk;
}

int CmdBuild(const Options& opt) {
  tlp::SyntheticConfig config;
  config.cardinality = opt.n;
  config.seed = opt.seed;
  if (opt.dist == "zipf") {
    config.distribution = tlp::SpatialDistribution::kZipfian;
  } else if (opt.dist != "uniform") {
    std::fprintf(stderr, "tlp_snapshot: unknown --dist '%s'\n",
                 opt.dist.c_str());
    return kExitUsage;
  }
  return BuildAndSave(opt, tlp::GenerateSyntheticRects(config));
}

int CmdSave(const Options& opt) {
  if (opt.from_csv.empty()) {
    std::fprintf(stderr, "tlp_snapshot: save requires --from-csv=FILE\n");
    return kExitUsage;
  }
  std::vector<BoxEntry> entries;
  Status s = tlp::LoadMbrCsv(opt.from_csv, &entries);
  if (!s.ok()) return Report(s, "cannot load CSV");
  return BuildAndSave(opt, entries);
}

int CmdLoad(const Options& opt) {
  std::unique_ptr<tlp::PersistentIndex> index;
  const double t0 = NowSeconds();
  Status s = tlp::OpenSnapshot(opt.path, opt.mmap, &index);
  const double load_seconds = NowSeconds() - t0;
  if (!s.ok()) return Report(s, "load failed");
  std::printf("loaded %s: index=%s size=%zu bytes frozen=%d load=%.4fs\n",
              opt.path.c_str(), index->name().c_str(), index->SizeBytes(),
              index->frozen() ? 1 : 0, load_seconds);

  if (opt.queries > 0) {
    // Data-distribution-following workload is not reconstructible from the
    // snapshot alone, so probe with uniformly placed square windows.
    std::vector<tlp::Box> windows;
    windows.reserve(opt.queries);
    const double side = std::sqrt(opt.area_percent / 100.0);
    for (std::size_t q = 0; q < opt.queries; ++q) {
      // Low-discrepancy sweep over the unit square (no RNG dependency).
      const double fx = std::fmod(0.6180339887498949 * double(q + 1), 1.0);
      const double fy = std::fmod(0.7548776662466927 * double(q + 1), 1.0);
      const double xl = fx * (1.0 - side), yl = fy * (1.0 - side);
      windows.push_back(tlp::Box{xl, yl, xl + side, yl + side});
    }
    tlp::ResetQueryStats();
    std::vector<tlp::ObjectId> out;
    std::size_t results = 0;
    const double q0 = NowSeconds();
    for (const tlp::Box& w : windows) {
      out.clear();
      index->WindowQuery(w, &out);
      results += out.size();
    }
    const double query_seconds = NowSeconds() - q0;
    std::printf("queries=%zu results=%zu query=%.4fs\n", opt.queries,
                results, query_seconds);
    std::printf("TLP_QUERY_STATS %s\n",
                tlp::GetQueryStats()
                    .ToJson(std::string("snapshot_load_") +
                            (opt.mmap ? "mmap" : "owned"))
                    .c_str());
  }
  return kExitOk;
}

int CmdVerify(const Options& opt) {
  Status s = tlp::VerifySnapshot(opt.path);
  if (!s.ok()) return Report(s, "verify FAILED");
  std::printf("%s: OK (all checksums verified)\n", opt.path.c_str());
  return kExitOk;
}

int CmdInfo(const Options& opt) {
  tlp::SnapshotInfo info;
  Status s = tlp::ReadSnapshotInfo(opt.path, &info);
  if (!s.ok()) return Report(s, "info failed");
  std::printf(
      "{\"path\": \"%s\", \"kind\": \"%s\", \"format_version\": %u, "
      "\"sections\": %u, \"file_size\": %llu, \"index_size_bytes\": %llu, "
      "\"entry_count\": %llu}\n",
      opt.path.c_str(), tlp::SnapshotIndexKindName(info.kind),
      info.format_version, info.section_count,
      static_cast<unsigned long long>(info.file_size),
      static_cast<unsigned long long>(info.index_size_bytes),
      static_cast<unsigned long long>(info.entry_count));
  return kExitOk;
}

int CmdWalInfo(const Options& opt) {
  std::unique_ptr<tlp::FaultInjectingFs> fault_fs;
  tlp::FileSystem* fs = nullptr;
  if (!SaveFileSystem(&fault_fs, &fs)) return kExitUsage;
  tlp::WalDirInfo info;
  Status s = tlp::DurableLog::Inspect(opt.path, fs, &info);
  if (!s.ok()) return Report(s, "wal-info failed");
  std::printf(
      "{\"dir\": \"%s\", \"has_full\": %s, \"full_seq\": %llu, "
      "\"low_water\": %llu, \"committed_seq\": %llu, \"delta_files\": %zu, "
      "\"segment_files\": %zu, \"segment_bytes\": %llu, "
      "\"torn_bytes\": %llu, \"temp_files\": %zu}\n",
      opt.path.c_str(), info.has_full ? "true" : "false",
      static_cast<unsigned long long>(info.full_seq),
      static_cast<unsigned long long>(info.low_water),
      static_cast<unsigned long long>(info.committed_seq), info.delta_files,
      info.segment_files,
      static_cast<unsigned long long>(info.segment_bytes),
      static_cast<unsigned long long>(info.torn_bytes), info.temp_files);
  return kExitOk;
}

/// Shared open + recover front half of wal-replay and compact. The fault
/// FS (when armed) lands in *fault_fs, which the caller must keep alive
/// for as long as *wal — the log writes through it.
int RecoverWal(const Options& opt,
               std::unique_ptr<tlp::FaultInjectingFs>* fault_fs,
               std::unique_ptr<tlp::DurableLog>* wal,
               std::unique_ptr<tlp::TwoLayerGrid>* grid,
               std::uint64_t* seq) {
  tlp::FileSystem* fs = nullptr;
  if (!SaveFileSystem(fault_fs, &fs)) return kExitUsage;
  Status s = tlp::DurableLog::Open(opt.path, tlp::DurableLog::Options{}, fs,
                                   wal);
  if (!s.ok()) return Report(s, "cannot open wal dir");
  s = (*wal)->RecoverIndex(grid, seq);
  if (!s.ok()) return Report(s, "recovery failed");
  return kExitOk;
}

int CmdWalReplay(const Options& opt) {
  std::unique_ptr<tlp::FaultInjectingFs> fault_fs;
  std::unique_ptr<tlp::DurableLog> wal;
  std::unique_ptr<tlp::TwoLayerGrid> grid;
  std::uint64_t seq = 0;
  const double t0 = NowSeconds();
  if (const int rc = RecoverWal(opt, &fault_fs, &wal, &grid, &seq);
      rc != kExitOk) {
    return rc;
  }
  const double recover_seconds = NowSeconds() - t0;
  const tlp::WalStats ws = wal->stats();
  std::printf(
      "{\"dir\": \"%s\", \"recovered_seq\": %llu, \"entries\": %zu, "
      "\"live_objects\": %zu, \"live_digest\": %lu, "
      "\"records_replayed\": %llu, "
      "\"records_skipped\": %llu, \"recover_seconds\": %.4f}\n",
      opt.path.c_str(), static_cast<unsigned long long>(seq),
      grid->entry_count(), grid->object_count(),
      static_cast<unsigned long>(tlp::LiveSetDigest(*grid)),
      static_cast<unsigned long long>(ws.records_replayed),
      static_cast<unsigned long long>(ws.records_skipped), recover_seconds);
  return kExitOk;
}

int CmdCompact(const Options& opt) {
  std::unique_ptr<tlp::FaultInjectingFs> fault_fs;
  std::unique_ptr<tlp::DurableLog> wal;
  std::unique_ptr<tlp::TwoLayerGrid> grid;
  std::uint64_t seq = 0;
  if (const int rc = RecoverWal(opt, &fault_fs, &wal, &grid, &seq);
      rc != kExitOk) {
    return rc;
  }
  Status s = wal->Compact(*grid, seq);
  if (!s.ok()) return Report(s, "compact failed");
  std::printf(
      "{\"dir\": \"%s\", \"compacted_seq\": %llu, \"entries\": %zu, "
      "\"live_objects\": %zu, \"live_digest\": %lu}\n",
      opt.path.c_str(), static_cast<unsigned long long>(seq),
      grid->entry_count(), grid->object_count(),
      static_cast<unsigned long>(tlp::LiveSetDigest(*grid)));
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) return Usage();
  if (opt.command == "build") return CmdBuild(opt);
  if (opt.command == "save") return CmdSave(opt);
  if (opt.command == "load") return CmdLoad(opt);
  if (opt.command == "verify") return CmdVerify(opt);
  if (opt.command == "info") return CmdInfo(opt);
  if (opt.command == "wal-info") return CmdWalInfo(opt);
  if (opt.command == "wal-replay") return CmdWalReplay(opt);
  if (opt.command == "compact") return CmdCompact(opt);
  return Usage();
}
