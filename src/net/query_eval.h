#ifndef TLP_NET_QUERY_EVAL_H_
#define TLP_NET_QUERY_EVAL_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "concurrency/versioned_grid.h"
#include "core/entry_predicate.h"
#include "core/two_layer_grid.h"
#include "net/query_lang.h"

namespace tlp::net {

/// Bridges the parsed query language onto the library's query paths.
/// Row formats are deterministic (a pure function of the stored set and
/// the query), so differential tests can compare replies as strings:
///
///   WINDOW / DISK : "<id>"                    ascending id order
///   KNN / DIVKNN  : "<id> <distance>"         rank order
///   SKYLINE       : "<id> <dx> <dy>"          ascending id order
///
/// Numbers use the canonical shortest round-trip formatting
/// (FormatNumber). WHERE clauses compile to an EntryPredicate and restrict
/// the input set of every query kind (for KNN: the k nearest *matching*
/// objects).

struct EvalResult {
  std::vector<std::string> rows;
  /// One-line QueryStats JSON for this query alone; empty unless the
  /// query said WITH STATS.
  std::string stats_json;
};

/// There is one read path: both overloads below evaluate every read over
/// a ConcurrentTwoLayerGrid::Snapshot, through the same internal
/// evaluator. A read-only grid enters as Snapshot::Of(grid) — an unpinned
/// view with an empty overlay that copies nothing, valid only while the
/// grid it views is alive — and a live index as Acquire().
///
/// WITH STATS resets and reads the calling thread's query-stats accumulator,
/// so the reported counters cover exactly this query. Resource-insane
/// parameters (k or fetch beyond 2^32) return kInvalidArgument — the
/// "eval" error class on the wire.

/// Evaluates `q` against a read-only `grid`. INSERT, DELETE and WALSTATS
/// get kInvalidArgument ("read-only index: ...").
[[nodiscard]] Status EvaluateQuery(const TwoLayerGrid& grid, const Query& q,
                                   EvalResult* out);

/// Evaluates `q` against a live (concurrent) index. Reads see one
/// epoch-pinned snapshot (published version + unmerged delta) — exact,
/// duplicate-free, same rows as the read-only overload on the same set.
/// Updates (INSERT / DELETE) apply through the writer path and reply with
/// a single row: "1" (inserted / found and deleted) or "0" (duplicate id /
/// not found).
[[nodiscard]] Status EvaluateQuery(ConcurrentTwoLayerGrid& live,
                                   const Query& q, EvalResult* out);

/// The WHERE-clause scalar a field denotes for one stored entry.
double FieldValue(const BoxEntry& entry, Field field);

/// Evaluates a WHERE expression tree for one entry.
bool EvalExpr(const Expr& e, const BoxEntry& entry);

/// Compiles a WHERE tree (may be null) into an EntryPredicate; the tree
/// must outlive the returned predicate. Null compiles to the empty
/// (keep-everything) predicate.
EntryPredicate CompileWhere(const Expr* where);

}  // namespace tlp::net

#endif  // TLP_NET_QUERY_EVAL_H_
