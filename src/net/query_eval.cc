#include "net/query_eval.h"

#include <cstdint>

#include "common/query_stats.h"
#include "core/diversified_knn.h"
#include "core/skyline.h"
#include "wal/durable_log.h"

namespace tlp::net {

namespace {

/// The WALSTATS result: deterministic key-sorted `key value` rows so
/// clients (bench_serve, the kill-restart smoke) can diff two servers'
/// durability state textually.
Status EmitWalStats(const ConcurrentTwoLayerGrid& live, EvalResult* out) {
  *out = {};
  const DurableLog* wal = live.wal();
  const WalStats stats = wal != nullptr ? wal->stats() : WalStats{};
  const auto row = [out](const char* key, std::uint64_t value) {
    out->rows.push_back(std::string(key) + " " + std::to_string(value));
  };
  row("appends", stats.appends);
  row("bytes_logged", stats.bytes_logged);
  row("compactions", stats.compactions);
  row("delta_snapshots", stats.delta_snapshots);
  row("durable_seq", wal != nullptr ? wal->durable_seq() : 0);
  row("fsync_batches", stats.fsync_batches);
  row("live_count", live.live_count());
  row("low_water_mark", wal != nullptr ? wal->low_water_mark() : 0);
  row("published_seq", live.published_seq());
  row("rotations", stats.rotations);
  row("wal_attached", wal != nullptr ? 1 : 0);
  return Status::OK();
}

/// INSERT / DELETE through the writer path; the single reply row is "1"
/// (applied) or "0" (duplicate id / not found).
Status ApplyUpdate(ConcurrentTwoLayerGrid& live, const Query& q,
                   EvalResult* out) {
  *out = {};
  if (q.id >= kInvalidObjectId) {
    return Status::InvalidArgument("object id out of range");
  }
  const ObjectId id = static_cast<ObjectId>(q.id);
  // The durable path: with a WAL attached the op is logged and
  // group-commit fsynced before OK comes back, so the "1"/"0" reply is a
  // durable acknowledgment; a WAL failure surfaces as ERR and the client
  // must not count the op as accepted.
  bool applied = false;
  const Status s = q.kind == QueryKind::kInsert
                       ? live.InsertDurable(BoxEntry{q.box, id}, &applied)
                       : live.DeleteDurable(id, q.box, &applied);
  if (!s.ok()) return s;
  out->rows.push_back(applied ? "1" : "0");
  return Status::OK();
}

/// Shared k/fetch sanity ceiling: they size the result or pool the server
/// must materialize; 2^32 already exceeds any dataset this serves.
Status CheckCounts(const Query& q) {
  constexpr std::uint64_t kMaxCount = std::uint64_t{1} << 32;
  if (q.k > kMaxCount) return Status::InvalidArgument("k too large");
  if (q.has_fetch && q.fetch > kMaxCount) {
    return Status::InvalidArgument("fetch too large");
  }
  return Status::OK();
}

std::string IdRow(ObjectId id) { return std::to_string(id); }

std::string RankedRow(const RankedEntry& r) {
  std::string row = std::to_string(r.entry.id);
  row.push_back(' ');
  row += FormatNumber(r.distance);
  return row;
}

std::string SkylineRow(const SkylineEntry& s) {
  std::string row = std::to_string(s.entry.id);
  row.push_back(' ');
  row += FormatNumber(s.dx);
  row.push_back(' ');
  row += FormatNumber(s.dy);
  return row;
}

/// One formatted row per result, in the order the probe returned them.
template <typename T, typename Format>
void EmitRows(const std::vector<T>& results, Format format,
              std::vector<std::string>* rows) {
  rows->reserve(results.size());
  for (const T& r : results) rows->push_back(format(r));
}

/// The one read evaluator. `snap` is a live index's pinned version or
/// Snapshot::Of a read-only grid; either way the Snapshot probes already
/// return the reply order, so nothing here sorts.
Status EvaluateRead(const ConcurrentTwoLayerGrid::Snapshot& snap,
                    const Query& q, EvalResult* out) {
  if (Status s = CheckCounts(q); !s.ok()) return s;
  *out = {};
  if (q.with_stats) ResetQueryStats();
  const EntryPredicate keep = CompileWhere(q.where.get());
  const char* stats_label = "";  // names the WITH STATS line

  switch (q.kind) {
    case QueryKind::kWindow: {
      stats_label = "serve/window";
      std::vector<ObjectId> ids;
      if (!q.box.IsEmpty()) snap.WindowQuery(q.box, &ids, keep);
      EmitRows(ids, IdRow, &out->rows);
      break;
    }
    case QueryKind::kDisk: {
      stats_label = "serve/disk";
      std::vector<ObjectId> ids;
      snap.DiskQuery(q.point, q.radius, &ids, keep);
      EmitRows(ids, IdRow, &out->rows);
      break;
    }
    case QueryKind::kKnn:
      stats_label = "serve/knn";
      EmitRows(snap.KnnEntries(q.point, static_cast<std::size_t>(q.k), keep),
               RankedRow, &out->rows);
      break;
    case QueryKind::kSkyline:
      stats_label = "serve/skyline";
      EmitRows(snap.SkylineQuery(q.point, q.has_region ? &q.box : nullptr,
                                 keep),
               SkylineRow, &out->rows);
      break;
    case QueryKind::kDivKnn: {
      stats_label = "serve/divknn";
      DivKnnOptions opts;
      opts.k = static_cast<std::size_t>(q.k);
      if (q.has_fetch) opts.fetch = static_cast<std::size_t>(q.fetch);
      if (q.has_lambda) opts.lambda = q.lambda;
      EmitRows(snap.DiversifiedKnnQuery(q.point, opts, keep), RankedRow,
               &out->rows);
      break;
    }
    case QueryKind::kInsert:
    case QueryKind::kDelete:
    case QueryKind::kWalStats:
      return Status::InvalidArgument("not a read statement");
  }

  if (q.with_stats) {
    out->stats_json = GetQueryStats().ToJson(stats_label);
  }
  return Status::OK();
}

}  // namespace

double FieldValue(const BoxEntry& entry, Field field) {
  switch (field) {
    case Field::kId: return static_cast<double>(entry.id);
    case Field::kXl: return entry.box.xl;
    case Field::kYl: return entry.box.yl;
    case Field::kXu: return entry.box.xu;
    case Field::kYu: return entry.box.yu;
    case Field::kWidth: return entry.box.width();
    case Field::kHeight: return entry.box.height();
    case Field::kArea: return entry.box.area();
  }
  return 0;
}

bool EvalExpr(const Expr& e, const BoxEntry& entry) {
  switch (e.kind) {
    case Expr::Kind::kCompare: {
      const double v = FieldValue(entry, e.field);
      switch (e.op) {
        case CmpOp::kLt: return v < e.value;
        case CmpOp::kLe: return v <= e.value;
        case CmpOp::kGt: return v > e.value;
        case CmpOp::kGe: return v >= e.value;
        case CmpOp::kEq: return v == e.value;
        case CmpOp::kNe: return v != e.value;
      }
      return false;
    }
    case Expr::Kind::kAnd:
      for (const auto& child : e.children) {
        if (!EvalExpr(*child, entry)) return false;
      }
      return true;
    case Expr::Kind::kOr:
      for (const auto& child : e.children) {
        if (EvalExpr(*child, entry)) return true;
      }
      return false;
    case Expr::Kind::kNot:
      return e.children.empty() || !EvalExpr(*e.children[0], entry);
  }
  return false;
}

EntryPredicate CompileWhere(const Expr* where) {
  if (where == nullptr) return {};
  return [where](const BoxEntry& entry) { return EvalExpr(*where, entry); };
}

Status EvaluateQuery(const TwoLayerGrid& grid, const Query& q,
                     EvalResult* out) {
  if (IsUpdate(q.kind)) {
    return Status::InvalidArgument(
        "read-only index: updates need a live server (tlp_serve --live)");
  }
  if (q.kind == QueryKind::kWalStats) {
    return Status::InvalidArgument(
        "read-only index: WALSTATS needs a live server (tlp_serve --live)");
  }
  return EvaluateRead(ConcurrentTwoLayerGrid::Snapshot::Of(grid), q, out);
}

Status EvaluateQuery(ConcurrentTwoLayerGrid& live, const Query& q,
                     EvalResult* out) {
  if (IsUpdate(q.kind)) return ApplyUpdate(live, q, out);
  if (q.kind == QueryKind::kWalStats) return EmitWalStats(live, out);
  return EvaluateRead(live.Acquire(), q, out);
}

}  // namespace tlp::net
