#ifndef TLP_CORE_DIVERSIFIED_KNN_H_
#define TLP_CORE_DIVERSIFIED_KNN_H_

#include <cstddef>
#include <vector>

#include "core/entry_predicate.h"
#include "core/knn.h"
#include "core/two_layer_grid.h"

namespace tlp {

// Diversified kNN is two stages: KnnEntries (core/knn.h) fetches a pool of
// the nearest matching entries — seeded from the maintained object count,
// with the tile-based fallback when that radius is not > 0 — and
// DiversifiedReRank re-ranks it. Only the second stage lives here.

struct DivKnnOptions {
  /// Number of results to return.
  std::size_t k = 0;
  /// Size of the over-fetched candidate pool the greedy re-ranker draws
  /// from; 0 means the default 4*k. Values below k are raised to k.
  std::size_t fetch = 0;
  /// Relevance/diversity trade-off in [0, 1]: 0 degenerates to plain kNN
  /// order, 1 ranks purely by spread. Values outside [0, 1] are clamped.
  double lambda = 0.5;
};

/// The pool size DiversifiedKnnQuery's fetch stage resolves `opts` to:
/// opts.fetch, defaulting to 4*k when 0 and raised to k when below it.
/// Single-sourced here so the concurrency overlay's diversified kNN
/// over-fetches exactly like the sequential query.
std::size_t ResolvedDivKnnFetch(const DivKnnOptions& opts);

/// The greedy max-min re-ranking stage of DiversifiedKnnQuery over an
/// explicit candidate pool, which must be sorted by (distance, id) — the
/// order KnnEntries returns. `lambda` is clamped to [0, 1]. Returns
/// min(k, pool.size()) entries in selection order. Exposed so the
/// concurrency overlay can re-rank a pool assembled from (published
/// version + delta) with bit-identical semantics.
std::vector<RankedEntry> DiversifiedReRank(const std::vector<RankedEntry>& pool,
                                           std::size_t k, double lambda);

/// Diversified k-nearest-neighbor query: fetches the `fetch` nearest
/// matching entries as a pool (KnnEntries), then greedily re-ranks them
/// max-min style. The first selection is the pool head (nearest overall;
/// ties by id). Each further step scores every unselected pool member as
///
///   score(e) = lambda * min_{s in selected} CenterDistance(e, s)
///              - (1 - lambda) * e.distance
///
/// where CenterDistance is the Euclidean distance between MBR centers
/// (sqrt(dx*dx + dy*dy) on Box::center() differences), and selects the
/// strictly greatest score, breaking ties by pool order — i.e. by
/// (distance, id). Fully deterministic: the result is a pure function of
/// the stored set, q, and the options. Returns min(k, matching objects)
/// entries in selection (rank) order, which is NOT distance order.
///
/// Duplicate-free by construction: the pool comes from the §IV-E annulus
/// probes which report each object exactly once (Lemmas 1-4), and the
/// greedy pass only reorders that pool.
std::vector<RankedEntry> DiversifiedKnnQuery(const TwoLayerGrid& grid,
                                             const Point& q,
                                             const DivKnnOptions& opts,
                                             const EntryPredicate& keep = {});

}  // namespace tlp

#endif  // TLP_CORE_DIVERSIFIED_KNN_H_
