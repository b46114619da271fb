// servebench trace — per-layer timings over a workload's own statements.
//
//   servebench trace --snapshot=F --workload=W --seed=S --wal-dir=D
//                    [--seconds=T] [--mix=...]
//
// Single-threaded and in-process: each number below is the time of one
// call into a module's public functions, taken with steady_clock around
// the call from here. Nothing inside the library is instrumented.
//
//   persist      OpenSnapshot of F (load_s).
//   wal          DurableLog::Open + Compact of the base into the empty
//                directory D (seed_s).
//   net          The statements the load client sends for this seed
//                (connections interleaved round-robin), replayed for T
//                seconds: ParseQuery, EvaluateQuery per kind, and
//                EncodeOkReply + EncodeFrame of the reply. Reads evaluate
//                against what the server serves: the loaded grid, or on
//                live workloads a ConcurrentTwoLayerGrid copy of it that
//                also takes the stream's updates (without a WAL).
//   core         On every 4th read, the probe EvaluateQuery makes
//                (TwoLayerGrid / KnnEntries / SkylineQuery /
//                DiversifiedKnnQuery, or the Snapshot methods on live
//                workloads), timed alone, and its row count.
//   concurrency  Around those probes, Acquire() + Snapshot release and the
//                overlay size, on the live copy (read-only workloads never
//                update it, so they measure the empty-overlay cost); its
//                merges_completed() after the replay. Then a fresh copy of
//                the base takes 1,024 paired INSERT/DELETE with merging
//                held off (update_us; on durable workloads through the WAL
//                seeded above, so each op is fsynced alone), and one
//                Flush() merges exactly those ops (merge_s).
//
// Output: one JSON line {"statements": N, "metrics": {name: value}}.

#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "concurrency/versioned_grid.h"
#include "core/diversified_knn.h"
#include "core/skyline.h"
#include "core/two_layer_grid.h"
#include "net/query_eval.h"
#include "net/query_lang.h"
#include "net/wire.h"
#include "persist/open_snapshot.h"
#include "servebench/servebench.h"
#include "wal/durable_log.h"

namespace servebench {

namespace {

using tlp::ConcurrentTwoLayerGrid;
using tlp::TwoLayerGrid;

/// The core call EvaluateQuery makes for read `q`, against the grid on
/// read-only workloads or the snapshot on live ones. Returns the row count.
std::size_t Probe(const tlp::net::Query& q, const TwoLayerGrid* grid,
                  const ConcurrentTwoLayerGrid::Snapshot& snap) {
  const tlp::EntryPredicate keep = tlp::net::CompileWhere(q.where.get());
  switch (q.kind) {
    case tlp::net::QueryKind::kWindow: {
      if (q.where != nullptr) {
        if (grid != nullptr) {
          std::vector<tlp::Candidate> out;
          grid->WindowCandidates(q.box, &out);
          return out.size();
        }
        std::vector<tlp::BoxEntry> out;
        snap.WindowEntries(q.box, &out);
        return out.size();
      }
      std::vector<tlp::ObjectId> out;
      if (grid != nullptr) {
        grid->WindowQuery(q.box, &out);
      } else {
        snap.WindowQuery(q.box, &out);
      }
      return out.size();
    }
    case tlp::net::QueryKind::kDisk: {
      std::vector<tlp::BoxEntry> out;
      if (grid != nullptr) {
        grid->DiskQueryEntries(q.point, q.radius, &out);
      } else {
        snap.DiskQueryEntries(q.point, q.radius, &out);
      }
      return out.size();
    }
    case tlp::net::QueryKind::kKnn:
      return (grid != nullptr ? tlp::KnnEntries(*grid, q.point, q.k, keep)
                              : snap.KnnEntries(q.point, q.k, keep))
          .size();
    case tlp::net::QueryKind::kSkyline:
      return (grid != nullptr ? tlp::SkylineQuery(*grid, q.point, nullptr, keep)
                              : snap.SkylineQuery(q.point, nullptr, keep))
          .size();
    case tlp::net::QueryKind::kDivKnn: {
      tlp::DivKnnOptions opts;
      opts.k = q.k;
      if (q.has_lambda) opts.lambda = q.lambda;
      return (grid != nullptr
                  ? tlp::DiversifiedKnnQuery(*grid, q.point, opts, keep)
                  : snap.DiversifiedKnnQuery(q.point, opts, keep))
          .size();
    }
    default:
      return 0;
  }
}

/// Samples by metric stem. Each series is reported as <stem>.mean, .p50,
/// .p99 and .max; run.py keeps the ones BENCHMARK.json lists.
class Samples {
 public:
  void Add(const std::string& stem, double v) { series_[stem].push_back(v); }

  void Summarize(std::map<std::string, double>* out) {
    for (auto& [stem, v] : series_) {
      (*out)[stem + ".mean"] = Mean(v);
      (*out)[stem + ".p50"] = Percentile(&v, 0.50);
      (*out)[stem + ".p99"] = Percentile(&v, 0.99);
      (*out)[stem + ".max"] = Percentile(&v, 1.0);
    }
  }

 private:
  std::map<std::string, std::vector<double>> series_;
};

int Fail(const std::string& what) {
  std::fprintf(stderr, "servebench trace: %s\n", what.c_str());
  return 1;
}

}  // namespace

int RunTrace(Args& args) {
  Mix mix;
  const Workload* w = WorkloadArg(args, &mix);
  if (w == nullptr) return 2;
  const std::string snapshot = args.Str("snapshot");
  const std::string wal_dir = args.Str("wal-dir");
  const std::uint64_t seed = args.U64("seed", 1);
  const double seconds = args.F64("seconds", 10);
  if (!args.error().empty() || !args.Leftover().empty() || snapshot.empty() ||
      wal_dir.empty()) {
    std::fprintf(stderr,
                 "servebench trace: needs --snapshot --workload --wal-dir "
                 "%s%s\n",
                 args.error().c_str(), args.Leftover().c_str());
    return 2;
  }
  std::map<std::string, double> metrics;
  Samples samples;

  double t0 = NowSeconds();
  std::unique_ptr<tlp::PersistentIndex> index;
  if (tlp::Status s = tlp::OpenSnapshot(snapshot, /*mapped=*/false, &index);
      !s.ok()) {
    return Fail(s.message());
  }
  metrics["persist.load_s"] = NowSeconds() - t0;
  const auto* grid = dynamic_cast<const TwoLayerGrid*>(index.get());
  if (grid == nullptr) return Fail("snapshot is not a 2layer index");

  t0 = NowSeconds();
  std::unique_ptr<tlp::DurableLog> wal;
  tlp::Status s = tlp::DurableLog::Open(wal_dir, {}, nullptr, &wal);
  if (s.ok()) s = wal->Compact(*grid, 0);
  if (!s.ok()) return Fail("wal seed: " + s.message());
  metrics["wal.seed_s"] = NowSeconds() - t0;

  std::size_t statements = 0;
  {
    ConcurrentTwoLayerGrid live{TwoLayerGrid(*grid)};
    const TwoLayerGrid* served_grid = w->live ? nullptr : grid;
    std::vector<StatementStream> streams;
    for (std::size_t c = 0; c < kConnections; ++c) {
      streams.emplace_back(mix, w->where_fraction, seed, c);
    }
    std::size_t reads = 0;
    const double end = NowSeconds() + seconds;
    for (; NowSeconds() < end; ++statements) {
      const Statement st = streams[statements % kConnections].Next();
      const std::string kind = kReportNames[ReportIndex(st.kind)];
      tlp::net::Query q;
      tlp::net::ParseError err;
      t0 = NowSeconds();
      const bool parsed = tlp::net::ParseQuery(st.text, &q, &err);
      samples.Add("net.parse_us", (NowSeconds() - t0) * 1e6);
      if (!parsed) return Fail("parse: " + err.message + " <- " + st.text);

      tlp::net::EvalResult result;
      t0 = NowSeconds();
      s = served_grid != nullptr
              ? tlp::net::EvaluateQuery(*served_grid, q, &result)
              : tlp::net::EvaluateQuery(live, q, &result);
      const double t1 = NowSeconds();
      if (!s.ok()) return Fail("eval: " + s.message() + " <- " + st.text);
      samples.Add("net.eval_us." + kind, (t1 - t0) * 1e6);
      if (!IsRead(st.kind)) {
        if (result.rows.size() != 1 || result.rows[0] != "1") {
          return Fail("update not applied <- " + st.text);
        }
        continue;
      }
      const std::string frame = tlp::net::EncodeFrame(
          tlp::net::EncodeOkReply(result.rows, result.stats_json));
      samples.Add("net.encode_us", (NowSeconds() - t1) * 1e6);
      samples.Add("net.reply_bytes", static_cast<double>(frame.size()));

      if (reads++ % 4 != 0) continue;
      t0 = NowSeconds();
      std::optional<ConcurrentTwoLayerGrid::Snapshot> snap = live.Acquire();
      const double p0 = NowSeconds();
      const std::size_t rows = Probe(q, served_grid, *snap);
      const double p1 = NowSeconds();
      const auto overlay = static_cast<double>(snap->overlay_size());
      snap.reset();
      samples.Add("concurrency.acquire_us",
                  ((p0 - t0) + (NowSeconds() - p1)) * 1e6);
      samples.Add("concurrency.overlay_ids", overlay);
      samples.Add("core.probe_us." + kind, (p1 - p0) * 1e6);
      samples.Add("core.rows." + kind, static_cast<double>(rows));
    }
    metrics["concurrency.merges"] =
        static_cast<double>(live.merges_completed());
  }

  {
    ConcurrentTwoLayerGrid::Options opts;
    opts.merge_threshold = std::numeric_limits<std::size_t>::max();
    opts.wal_delta_every = 0;
    ConcurrentTwoLayerGrid fresh(TwoLayerGrid(*grid), opts);
    if (w->durable) fresh.AttachWal(wal.get());
    for (std::size_t u = 0; u < 1024; ++u) {
      const tlp::BoxEntry e = PrivateEntry(seed, 0, u / 2);
      bool applied = false;
      t0 = NowSeconds();
      s = u % 2 == 0 ? fresh.InsertDurable(e, &applied)
                     : fresh.DeleteDurable(e.id, e.box, &applied);
      samples.Add("concurrency.update_us", (NowSeconds() - t0) * 1e6);
      if (!s.ok() || !applied) return Fail("update probe op not applied");
    }
    t0 = NowSeconds();
    fresh.Flush();
    metrics["concurrency.merge_s"] = NowSeconds() - t0;
  }

  samples.Summarize(&metrics);

  std::string out;
  for (const auto& [name, value] : metrics) {
    if (!out.empty()) out += ", ";
    out += JsonString(name) + ": " + JsonNumber(value);
  }
  std::printf("{\"statements\": %zu, \"metrics\": {%s}}\n", statements,
              out.c_str());
  return 0;
}

}  // namespace servebench
