#ifndef TLP_CORE_KNN_H_
#define TLP_CORE_KNN_H_

#include <cstddef>
#include <vector>

#include "core/entry_predicate.h"
#include "core/two_layer_grid.h"

namespace tlp {

/// One k-nearest-neighbor result: (MBR minimum distance, object id).
struct KnnResult {
  Coord distance = 0;
  ObjectId id = kInvalidObjectId;

  friend bool operator==(const KnnResult& a, const KnnResult& b) {
    return a.distance == b.distance && a.id == b.id;
  }
};

/// A stored entry ranked by its MBR minimum distance to the query point
/// (Box::MinDistanceTo): the element of KnnEntries' answer and of the
/// diversified-kNN pool (core/diversified_knn.h).
struct RankedEntry {
  BoxEntry entry;
  Coord distance = 0;

  friend bool operator==(const RankedEntry& a, const RankedEntry& b) {
    return a.entry.id == b.entry.id && a.entry.box == b.entry.box &&
           a.distance == b.distance;
  }
};

/// k-nearest-neighbor search over a two-layer grid (the paper's §VIII
/// "future work" query type), at the filtering level: the k nearest entries
/// to `q` by MBR minimum distance that satisfy `keep`, with their boxes and
/// distances, sorted by (distance, id). Entries failing `keep` do not count
/// toward k, so the search expands until k *matching* entries are in hand
/// (or the data is exhausted).
///
/// Strategy: duplicate-free §IV-E disk probes of geometrically growing
/// radius. Each probe after the first covers only the annulus beyond the
/// previous radius, so every object is fetched and distance-tested at most
/// once.
///  - Seed: the radius whose disk is expected to hold ~2k objects if they
///    were spread evenly over the domain, sqrt(2k * domain area /
///    (pi * object_count())). The count is maintained by the grid, so
///    neither the seed nor the emptiness test walks the tiles. When that
///    radius is not > 0 (a domain whose area underflows to 0), the seed
///    falls back to 2 * max(tile width, tile height) * sqrt(k): a zero
///    radius would never grow by doubling.
///  - Stop: once a probe holds >= k matching candidates, the k-th smallest
///    distance d_k <= radius bounds the answer — every missed object is
///    farther than the radius and objects at exactly the radius are
///    included — so the first k by (distance, id) are exact, whatever the
///    seed. Ties beyond position k are cut by id.
///  - Bound: doubling stops at the radius that covers the whole domain.
///    Entries outside the declared domain (the grid clamps them into
///    border tiles) are covered by a final infinite-radius probe, so fewer
///    than k results come back only when fewer than k objects match.
std::vector<RankedEntry> KnnEntries(const TwoLayerGrid& grid, const Point& q,
                                    std::size_t k,
                                    const EntryPredicate& keep = {});

/// KnnEntries(grid, q, k) projected onto (distance, id).
std::vector<KnnResult> KnnQuery(const TwoLayerGrid& grid, const Point& q,
                                std::size_t k);

}  // namespace tlp

#endif  // TLP_CORE_KNN_H_
