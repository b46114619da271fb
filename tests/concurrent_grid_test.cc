// Tests for the epoch-based concurrent index (src/concurrency,
// docs/CONCURRENCY.md):
//
//  * EpochDomain protocol unit tests — the "global - 2" reclamation rule,
//    pinned readers blocking advancement, the nothing-retired refusal that
//    keeps drain loops finite, and guard move semantics.
//  * Overlay exactness — every query kind over (published base + unmerged
//    delta) must equal the same query over a sequential TwoLayerGrid that
//    applied the identical ops, at every interleaving of appends, merges,
//    and flushes. Duplicate-freeness rides along: the id-set comparators
//    reject duplicates, and posthoc_dedup must stay 0
//    (the Lemma 1-4 replica-avoidance survives the overlay composition).
//  * Randomized interleaved reader/writer differential test — one writer
//    replays a precomputed op script while reader threads pin snapshots
//    and check them against an oracle reconstructed *at the snapshot's
//    sequence number*. This is the TSan CI target for the concurrency
//    layer; it also proves snapshot sequence numbers are monotone per
//    reader.
//  * Version-retirement accounting — after any quiesced op, the epoch
//    domain must have drained every retired version (retired_count == 0),
//    so a leaked Version would be visible here long before ASan reports
//    it at exit.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

#include "common/query_stats.h"
#include "common/rng.h"
#include "concurrency/epoch.h"
#include "concurrency/versioned_grid.h"
#include "core/diversified_knn.h"
#include "core/skyline.h"
#include "core/two_layer_grid.h"
#include "grid/grid_layout.h"
#include "test_util.h"

namespace tlp {
namespace {

// --------------------------------------------------------------------------
// EpochDomain

TEST(EpochDomainTest, AdvanceRefusesWithNothingRetired) {
  EpochDomain d;
  const std::uint64_t g = d.global_epoch();
  EXPECT_FALSE(d.TryAdvance());
  EXPECT_EQ(d.global_epoch(), g);
}

TEST(EpochDomainTest, RetireeFreesAfterTwoAdvances) {
  EpochDomain d;
  bool freed = false;
  d.Retire([&freed] { freed = true; });
  EXPECT_EQ(d.retired_count(), 1u);

  // Retired at epoch g: the first advance (to g+1) frees the g-1 bucket,
  // the second (to g+2) frees the g bucket — the standard global-2 rule.
  EXPECT_TRUE(d.TryAdvance());
  EXPECT_FALSE(freed);
  EXPECT_TRUE(d.TryAdvance());
  EXPECT_TRUE(freed);
  EXPECT_EQ(d.retired_count(), 0u);
  EXPECT_FALSE(d.TryAdvance());  // drained: refuse again
}

TEST(EpochDomainTest, PinnedReaderBlocksSecondAdvance) {
  EpochDomain d;
  bool freed = false;
  {
    EpochDomain::Guard guard = d.Pin();
    EXPECT_EQ(d.active_pins(), 1u);
    d.Retire([&freed] { freed = true; });
    // The pin announces the current epoch, so one advance succeeds; the
    // guard is now one epoch behind and must block the next advance —
    // this is exactly what keeps the retiree alive while the reader can
    // still hold a pointer to it.
    EXPECT_TRUE(d.TryAdvance());
    EXPECT_FALSE(d.TryAdvance());
    EXPECT_FALSE(freed);
  }
  EXPECT_EQ(d.active_pins(), 0u);
  EXPECT_TRUE(d.TryAdvance());
  EXPECT_TRUE(freed);
}

TEST(EpochDomainTest, GuardMoveTransfersTheSlot) {
  EpochDomain d;
  EpochDomain::Guard a = d.Pin();
  EXPECT_TRUE(a.pinned());
  EXPECT_EQ(d.active_pins(), 1u);

  EpochDomain::Guard b = std::move(a);
  EXPECT_FALSE(a.pinned());  // NOLINT(bugprone-use-after-move): post-move test
  EXPECT_TRUE(b.pinned());
  EXPECT_EQ(d.active_pins(), 1u);

  EpochDomain::Guard c;
  c = std::move(b);
  EXPECT_TRUE(c.pinned());
  EXPECT_EQ(d.active_pins(), 1u);
}

TEST(EpochDomainTest, ReclaimAllRunsEveryBucket) {
  EpochDomain d;
  int runs = 0;
  d.Retire([&runs] { ++runs; });
  ASSERT_TRUE(d.TryAdvance());  // spreads retirees across two buckets
  d.Retire([&runs] { ++runs; });
  EXPECT_EQ(d.retired_count(), 2u);
  d.ReclaimAll();
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(d.retired_count(), 0u);
}

// --------------------------------------------------------------------------
// Overlay exactness against a sequential oracle

const Box kUnit{0, 0, 1, 1};

GridLayout Layout() { return GridLayout(kUnit, 9, 7); }

/// Compares every query kind between a pinned snapshot of `live` and the
/// sequential `oracle` that applied the identical op sequence, on random
/// windows and points plus each of `at` (as a window, and its centre as a
/// query point).
void ExpectSnapshotMatchesOracle(const ConcurrentTwoLayerGrid& live,
                                 const TwoLayerGrid& oracle,
                                 std::uint64_t query_seed,
                                 const std::string& context,
                                 const std::vector<Box>& at = {}) {
  const ConcurrentTwoLayerGrid::Snapshot snap = live.Acquire();
  Rng rng(query_seed);
  // A WHERE-style filter: restricts every probe's input set to odd ids.
  const EntryPredicate keep = [](const BoxEntry& e) { return e.id % 2 == 1; };

  std::vector<Box> windows = testing::RandomWindows(8, query_seed);
  windows.insert(windows.end(), at.begin(), at.end());
  for (const Box& w : windows) {
    std::vector<ObjectId> expected;
    oracle.WindowQuery(w, &expected);
    std::sort(expected.begin(), expected.end());
    ResetQueryStats();
    std::vector<ObjectId> actual;
    snap.WindowQuery(w, &actual);
    testing::ExpectSameIdSet(expected, actual, context + " window");
    // Lemma 1-4 hold over (base + overlay): results come out exact without
    // any post-hoc dedup pass.
    EXPECT_EQ(GetQueryStats().posthoc_dedup, 0u) << context;

    std::vector<Candidate> candidates;
    oracle.WindowCandidates(w, &candidates);
    std::vector<ObjectId> expected_kept;
    for (const Candidate& c : candidates) {
      if (keep(BoxEntry{c.box, c.id})) expected_kept.push_back(c.id);
    }
    std::sort(expected_kept.begin(), expected_kept.end());
    snap.WindowQuery(w, &actual, keep);
    EXPECT_EQ(actual, expected_kept) << context << " window keep";
  }

  for (std::size_t t = 0; t < 6 + at.size(); ++t) {
    const Point q = t < 6 ? Point{rng.NextDouble(), rng.NextDouble()}
                          : at[t - 6].center();
    const Coord radius = rng.NextDouble() * 0.15;

    std::vector<BoxEntry> expected_entries;
    oracle.DiskQueryEntries(q, radius, &expected_entries);
    std::sort(expected_entries.begin(), expected_entries.end(),
              [](const BoxEntry& a, const BoxEntry& b) { return a.id < b.id; });
    std::vector<BoxEntry> actual_entries;
    snap.DiskQueryEntries(q, radius, &actual_entries);
    ASSERT_EQ(actual_entries.size(), expected_entries.size())
        << context << " disk";
    for (std::size_t i = 0; i < actual_entries.size(); ++i) {
      EXPECT_EQ(actual_entries[i].id, expected_entries[i].id)
          << context << " disk entry " << i;
      EXPECT_EQ(actual_entries[i].box, expected_entries[i].box)
          << context << " disk entry " << i;
    }
    std::vector<ObjectId> expected_ids;
    std::vector<ObjectId> expected_kept;
    for (const BoxEntry& e : expected_entries) {
      expected_ids.push_back(e.id);
      if (keep(e)) expected_kept.push_back(e.id);
    }
    std::vector<ObjectId> ids;
    snap.DiskQuery(q, radius, &ids);
    EXPECT_EQ(ids, expected_ids) << context << " disk ids";
    snap.DiskQuery(q, radius, &ids, keep);
    EXPECT_EQ(ids, expected_kept) << context << " disk keep";

    const std::size_t k = 1 + static_cast<std::size_t>(rng.NextDouble() * 12);
    EXPECT_EQ(snap.KnnEntries(q, k), KnnEntries(oracle, q, k))
        << context << " knn k=" << k;
    EXPECT_EQ(snap.KnnEntries(q, k, keep), KnnEntries(oracle, q, k, keep))
        << context << " knn keep k=" << k;

    EXPECT_EQ(snap.SkylineQuery(q), [&] {
      auto sky = SkylineQuery(oracle, q);
      std::sort(sky.begin(), sky.end(),
                [](const SkylineEntry& a, const SkylineEntry& b) {
                  return a.entry.id < b.entry.id;
                });
      return sky;
    }()) << context << " skyline";

    DivKnnOptions opts;
    opts.k = 1 + static_cast<std::size_t>(rng.NextDouble() * 8);
    opts.lambda = rng.NextDouble();
    EXPECT_EQ(snap.DiversifiedKnnQuery(q, opts),
              DiversifiedKnnQuery(oracle, q, opts))
        << context << " divknn k=" << opts.k;
  }
}

TEST(ConcurrentGridTest, OverlayExactnessAcrossInterleavedUpdates) {
  const auto base_data = testing::RandomEntries(1000, 0.05, 71);
  TwoLayerGrid oracle(Layout());
  oracle.Build(base_data);
  TwoLayerGrid base(Layout());
  base.Build(base_data);

  ConcurrentTwoLayerGrid::Options opts;
  opts.merge_threshold = 48;  // small: exercise merges mid-test
  ConcurrentTwoLayerGrid live(std::move(base), opts);
  EXPECT_EQ(live.live_count(), base_data.size());

  // Op mix over base ids (deletes/reinserts) and a fresh id range, with a
  // sprinkle of out-of-domain boxes (the clamped class-A corner case).
  Rng rng(72);
  std::unordered_map<ObjectId, Box> live_boxes;
  for (const BoxEntry& e : base_data) live_boxes.emplace(e.id, e.box);
  std::uint64_t applied = 0;

  for (int round = 0; round < 8; ++round) {
    for (int op = 0; op < 40; ++op) {
      const double dice = rng.NextDouble();
      if (dice < 0.45 && !live_boxes.empty()) {
        // Delete a (pseudo)random live object.
        auto it = live_boxes.begin();
        std::advance(it, static_cast<long>(rng.NextDouble() *
                                           static_cast<double>(
                                               live_boxes.size())));
        ASSERT_TRUE(live.Delete(it->first, it->second));
        ASSERT_TRUE(oracle.Delete(it->first, it->second));
        live_boxes.erase(it);
        ++applied;
      } else {
        const double x = rng.NextDouble() * 1.2 - 0.1;  // may exit [0,1]
        const double y = rng.NextDouble() * 1.2 - 0.1;
        const Box b{x, y, x + rng.NextDouble() * 0.05,
                    y + rng.NextDouble() * 0.05};
        const ObjectId id = static_cast<ObjectId>(
            20000 + rng.NextDouble() * 500);
        const BoxEntry entry{b, id};
        const bool fresh = live_boxes.count(id) == 0;
        EXPECT_EQ(live.Insert(entry), fresh);
        if (fresh) {
          oracle.Insert(entry);
          live_boxes.emplace(id, b);
          ++applied;
        }
      }
    }
    ExpectSnapshotMatchesOracle(live, oracle,
                                73 + static_cast<std::uint64_t>(round),
                                "round " + std::to_string(round));
    EXPECT_EQ(live.live_count(), live_boxes.size());

    if (round % 3 == 2) {
      live.Flush();
      // A flushed snapshot has an empty overlay; results must not change.
      const auto snap = live.Acquire();
      EXPECT_EQ(snap.overlay_size(), 0u);
      EXPECT_EQ(snap.seq(), applied);
      ExpectSnapshotMatchesOracle(live, oracle,
                                  173 + static_cast<std::uint64_t>(round),
                                  "flushed round " + std::to_string(round));
    }
  }
  EXPECT_GE(live.merges_completed(), 1u);

  // Duplicate-insert / missing-delete return values.
  const BoxEntry dup{live_boxes.begin()->second, live_boxes.begin()->first};
  EXPECT_FALSE(live.Insert(dup));
  EXPECT_FALSE(live.Delete(static_cast<ObjectId>(999999), kUnit));
}

TEST(ConcurrentGridTest, OverlayHidesEveryTouchedIdAndKeepsLastInserts) {
  // One unmerged window that reinserts ids: base id X deleted and
  // reinserted in another tile, base id Y deleted, fresh id Z inserted,
  // deleted and reinserted elsewhere. X's base entry must stay hidden
  // although X is live again, and only each id's last insert may show.
  const auto base_data = testing::RandomEntries(600, 0.05, 75);
  TwoLayerGrid oracle(Layout());
  oracle.Build(base_data);
  TwoLayerGrid base(Layout());
  base.Build(base_data);
  ConcurrentTwoLayerGrid live(std::move(base));  // merges at 1,024 ops

  const BoxEntry x = base_data[101];
  const BoxEntry y = base_data[203];
  const Box far = x.box.xl < 0.5 ? Box{0.8, 0.8, 0.83, 0.82}
                                 : Box{0.1, 0.1, 0.13, 0.12};
  const Box z1{0.45, 0.05, 0.47, 0.08};
  const Box z2{0.05, 0.55, 0.06, 0.58};
  const ObjectId z = 20001;
  ASSERT_TRUE(live.Delete(x.id, x.box));
  ASSERT_TRUE(live.Insert(BoxEntry{far, x.id}));
  ASSERT_TRUE(live.Delete(y.id, y.box));
  ASSERT_TRUE(live.Insert(BoxEntry{z1, z}));
  ASSERT_TRUE(live.Delete(z, z1));
  ASSERT_TRUE(live.Insert(BoxEntry{z2, z}));
  ASSERT_TRUE(oracle.Delete(x.id, x.box));
  oracle.Insert(BoxEntry{far, x.id});
  ASSERT_TRUE(oracle.Delete(y.id, y.box));
  oracle.Insert(BoxEntry{z2, z});

  const std::vector<Box> at = {x.box, far, y.box, z1, z2};
  {
    const auto snap = live.Acquire();
    ASSERT_EQ(snap.seq(), 6u) << "the window must still be unmerged";
    EXPECT_EQ(snap.overlay_size(), 3u);
  }
  ExpectSnapshotMatchesOracle(live, oracle, 76, "unmerged", at);
  EXPECT_EQ(live.live_count(), base_data.size());
  live.Flush();
  ExpectSnapshotMatchesOracle(live, oracle, 77, "merged", at);
}

TEST(ConcurrentGridTest, DeleteWithAnotherBoxIsRejected) {
  // Delete names the box the object was inserted with. Another box used
  // to be acknowledged and drop the live count, while the merge's base
  // Delete then missed, leaving the object visible and its id reusable.
  const auto base_data = testing::RandomEntries(300, 0.05, 78);
  TwoLayerGrid base(Layout());
  base.Build(base_data);
  ConcurrentTwoLayerGrid live(std::move(base));
  const Box a{0.2, 0.2, 0.25, 0.25};
  const Box b{0.6, 0.6, 0.65, 0.65};
  ASSERT_TRUE(live.Insert(BoxEntry{a, 42000}));
  EXPECT_FALSE(live.Delete(42000, b));                    // delta object
  EXPECT_FALSE(live.Delete(base_data[7].id, b));          // base object
  EXPECT_FALSE(live.Delete(base_data[7].id, base_data[8].box));
  EXPECT_EQ(live.live_count(), base_data.size() + 1);
  live.Flush();

  std::vector<ObjectId> ids;
  live.Acquire().WindowQuery(kUnit, &ids);
  EXPECT_EQ(std::count(ids.begin(), ids.end(), 42000), 1);
  EXPECT_EQ(std::count(ids.begin(), ids.end(), base_data[7].id), 1);
  EXPECT_EQ(ids.size(), base_data.size() + 1);
  EXPECT_FALSE(live.Insert(BoxEntry{b, 42000})) << "the id is still live";
  EXPECT_FALSE(live.Delete(42000, b));  // merged into the base now
  EXPECT_TRUE(live.Delete(42000, a));
  EXPECT_TRUE(live.Delete(base_data[7].id, base_data[7].box));
  EXPECT_EQ(live.live_count(), base_data.size() - 1);
}

TEST(ConcurrentGridTest, InsertOfANaNBoxIsRejected) {
  TwoLayerGrid base(Layout());
  base.Build(testing::RandomEntries(50, 0.05, 79));
  ConcurrentTwoLayerGrid live(std::move(base));
  const Coord nan = std::numeric_limits<Coord>::quiet_NaN();
  EXPECT_FALSE(live.Insert(BoxEntry{Box{0.5, 0.2, nan, 0.3}, 9000}));
  EXPECT_FALSE(live.Insert(BoxEntry{Box{0.6, 0.2, 0.4, 0.3}, 9000}))
      << "inverted box";
  EXPECT_EQ(live.live_count(), 50u);
  EXPECT_EQ(live.published_seq(), 0u);
  // A degenerate box (a point) stays valid, and the id was never taken.
  EXPECT_TRUE(live.Insert(BoxEntry{Box{0.4, 0.2, 0.4, 0.2}, 9000}));
  live.Flush();
  std::vector<ObjectId> ids;
  live.Acquire().WindowQuery(Box{0.39, 0.19, 0.41, 0.21}, &ids);
  EXPECT_NE(std::find(ids.begin(), ids.end(), 9000u), ids.end());
}

void ExpectSameEntries(const std::vector<BoxEntry>& got,
                       const std::vector<BoxEntry>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].id, want[i].id) << what << " entry " << i;
    ASSERT_EQ(got[i].box, want[i].box) << what << " entry " << i;
  }
}

/// Window and disk replies of over 1,000 rows, with ids spread across all
/// four bytes of ObjectId, equal a sorted brute force over `live_set`:
/// every digit pass of the id sort runs, on both element types, with and
/// without `keep`.
void ExpectLargeRepliesSorted(const ConcurrentTwoLayerGrid::Snapshot& snap,
                              const std::vector<BoxEntry>& live_set,
                              const std::string& context) {
  const EntryPredicate keep = [](const BoxEntry& e) { return e.id % 3 != 0; };
  const auto brute = [&](auto&& hit) {
    std::vector<BoxEntry> want;
    for (const BoxEntry& e : live_set) {
      if (hit(e.box)) want.push_back(e);
    }
    std::sort(want.begin(), want.end(),
              [](const BoxEntry& a, const BoxEntry& b) { return a.id < b.id; });
    return want;
  };
  const auto ids_of = [&](const std::vector<BoxEntry>& es, bool filter) {
    std::vector<ObjectId> ids;
    for (const BoxEntry& e : es) {
      if (!filter || keep(e)) ids.push_back(e.id);
    }
    return ids;
  };
  std::vector<ObjectId> ids;
  std::vector<BoxEntry> entries;
  for (const Box& w : {kUnit, Box{0.05, 0.1, 0.9, 0.95}}) {
    const std::vector<BoxEntry> want =
        brute([&w](const Box& b) { return b.Intersects(w); });
    ASSERT_GT(want.size(), 1000u) << context;
    snap.WindowQuery(w, &ids);
    EXPECT_EQ(ids, ids_of(want, false)) << context << " window";
    snap.WindowQuery(w, &ids, keep);
    EXPECT_EQ(ids, ids_of(want, true)) << context << " window keep";
    snap.WindowEntries(w, &entries);
    ExpectSameEntries(entries, want, context + " window entries");
  }
  const Point q{0.45, 0.55};
  const Coord radius = 0.4;
  const std::vector<BoxEntry> want =
      brute([&](const Box& b) { return b.MinDistanceTo(q) <= radius; });
  ASSERT_GT(want.size(), 1000u) << context;
  snap.DiskQuery(q, radius, &ids);
  EXPECT_EQ(ids, ids_of(want, false)) << context << " disk";
  snap.DiskQuery(q, radius, &ids, keep);
  EXPECT_EQ(ids, ids_of(want, true)) << context << " disk keep";
  snap.DiskQueryEntries(q, radius, &entries);
  ExpectSameEntries(entries, want, context + " disk entries");
}

TEST(ConcurrentGridTest, LargeRepliesSortIdsAcrossTheFullIdRange) {
  // Distinct ids drawn across the whole 32-bit range, both ends included.
  std::vector<BoxEntry> data = testing::RandomEntries(3000, 0.05, 83);
  Rng rng(84);
  std::unordered_set<ObjectId> used;
  for (std::size_t i = 0; i < data.size(); ++i) {
    ObjectId id = i == 0   ? 0
                  : i == 1 ? kInvalidObjectId - 1
                           : static_cast<ObjectId>(
                                 rng.NextBelow(kInvalidObjectId));
    while (!used.insert(id).second) {
      id = static_cast<ObjectId>(rng.NextBelow(kInvalidObjectId));
    }
    data[i].id = id;
  }
  const std::vector<BoxEntry> base_data(data.begin(), data.begin() + 2500);
  TwoLayerGrid plain(Layout());
  plain.Build(base_data);
  ExpectLargeRepliesSorted(ConcurrentTwoLayerGrid::Snapshot::Of(plain),
                           base_data, "read-only");

  ConcurrentTwoLayerGrid::Options opts;
  opts.merge_threshold = 1u << 20;  // keep every op in the overlay
  TwoLayerGrid base(Layout());
  base.Build(base_data);
  ConcurrentTwoLayerGrid live(std::move(base), opts);
  ExpectLargeRepliesSorted(live.Acquire(), base_data, "empty overlay");

  // Touch base ids (delete; delete and re-insert with another box) and
  // insert fresh ids, all left unmerged.
  std::unordered_map<ObjectId, BoxEntry> live_set;
  for (const BoxEntry& e : base_data) live_set.emplace(e.id, e);
  for (std::size_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(live.Delete(data[i].id, data[i].box));
    live_set.erase(data[i].id);
    if (i % 2 == 0) {
      const BoxEntry moved{data[2999 - i].box, data[i].id};
      ASSERT_TRUE(live.Insert(moved));
      live_set.emplace(moved.id, moved);
    }
  }
  for (std::size_t i = 2500; i < 2800; ++i) {
    ASSERT_TRUE(live.Insert(data[i]));
    live_set.emplace(data[i].id, data[i]);
  }
  const ConcurrentTwoLayerGrid::Snapshot snap = live.Acquire();
  ASSERT_EQ(snap.overlay_size(), 600u);
  std::vector<BoxEntry> expected;
  for (const auto& [id, e] : live_set) expected.push_back(e);
  ExpectLargeRepliesSorted(snap, expected, "overlay");
}

TEST(ConcurrentGridTest, SnapshotOutlivesSupersedingMerge) {
  const auto base_data = testing::RandomEntries(300, 0.05, 81);
  TwoLayerGrid base(Layout());
  base.Build(base_data);
  ConcurrentTwoLayerGrid::Options opts;
  opts.merge_threshold = 8;
  ConcurrentTwoLayerGrid live(std::move(base), opts);

  // Pin a snapshot, then push the index through several merges. The pinned
  // version (and its base grid) must stay fully usable: the epoch pin is
  // what keeps the retired-but-observed versions alive.
  const auto snap = live.Acquire();
  std::vector<ObjectId> before;
  snap.WindowQuery(kUnit, &before);

  for (ObjectId id = 30000; id < 30100; ++id) {
    ASSERT_TRUE(live.Insert(BoxEntry{Box{0.4, 0.4, 0.41, 0.41}, id}));
  }
  live.Flush();
  EXPECT_GE(live.merges_completed(), 1u);

  std::vector<ObjectId> after;
  snap.WindowQuery(kUnit, &after);  // the OLD view: pre-insert results
  EXPECT_EQ(before, after);

  const auto fresh = live.Acquire();
  std::vector<ObjectId> now;
  fresh.WindowQuery(kUnit, &now);
  EXPECT_EQ(now.size(), before.size() + 100);
}

TEST(ConcurrentGridTest, SnapshotOfPlainGridIsAView) {
  TwoLayerGrid grid(Layout());
  grid.Build(testing::RandomEntries(400, 0.05, 85));
  const auto snap = ConcurrentTwoLayerGrid::Snapshot::Of(grid);
  EXPECT_EQ(&snap.base(), &grid);  // nothing copied
  EXPECT_EQ(snap.seq(), 0u);
  EXPECT_EQ(snap.overlay_size(), 0u);
  for (const Box& w : testing::RandomWindows(8, 86)) {
    std::vector<ObjectId> expected;
    grid.WindowQuery(w, &expected);
    std::sort(expected.begin(), expected.end());
    std::vector<ObjectId> actual;
    snap.WindowQuery(w, &actual);
    EXPECT_EQ(actual, expected);
  }
}

TEST(ConcurrentGridTest, RetiredVersionsDrainOnceUnpinned) {
  TwoLayerGrid base(Layout());
  base.Build(testing::RandomEntries(100, 0.05, 91));
  ConcurrentTwoLayerGrid live(std::move(base));
  EpochDomain& d = live.epoch_domain();

  // Quiesced appends drain their own garbage: every publish retires the
  // previous version and advances the epoch all the way, so nothing may
  // accumulate.
  for (ObjectId id = 40000; id < 40050; ++id) {
    ASSERT_TRUE(live.Insert(BoxEntry{Box{0.1, 0.1, 0.2, 0.2}, id}));
    EXPECT_EQ(d.retired_count(), 0u) << "id " << id;
  }

  // A pinned reader parks retirement; releasing it lets the next publish
  // drain the backlog.
  {
    const auto snap = live.Acquire();
    for (ObjectId id = 40050; id < 40060; ++id) {
      ASSERT_TRUE(live.Insert(BoxEntry{Box{0.1, 0.1, 0.2, 0.2}, id}));
    }
    EXPECT_GT(d.retired_count(), 0u);
    EXPECT_EQ(d.active_pins(), 1u);
  }
  ASSERT_TRUE(live.Insert(BoxEntry{Box{0.1, 0.1, 0.2, 0.2}, 40060}));
  EXPECT_EQ(d.retired_count(), 0u);
  EXPECT_EQ(d.active_pins(), 0u);
}

// --------------------------------------------------------------------------
// Randomized interleaved reader/writer differential test (TSan target)

struct ScriptedOp {
  bool insert = false;
  BoxEntry entry;
};

/// Per-object timeline: (seq, present, box) changes, seq 0 = base state.
struct IdHistory {
  struct Event {
    std::uint64_t seq = 0;
    bool present = false;
    Box box;
  };
  std::vector<Event> events;
};

/// The live set at sequence number `seq`, reconstructed from histories.
std::vector<BoxEntry> LiveSetAt(
    const std::unordered_map<ObjectId, IdHistory>& history,
    std::uint64_t seq) {
  std::vector<BoxEntry> out;
  for (const auto& [id, h] : history) {
    const IdHistory::Event* last = nullptr;
    for (const auto& e : h.events) {
      if (e.seq > seq) break;
      last = &e;
    }
    if (last != nullptr && last->present) out.push_back(BoxEntry{last->box, id});
  }
  return out;
}

TEST(ConcurrentGridTest, InterleavedReadersWriterDifferential) {
  const std::size_t kBase = 400;
  const std::uint64_t kOps = 900;
  const auto base_data = testing::RandomEntries(kBase, 0.05, 101);

  // Precompute the op script plus each op's expected return value, and the
  // per-id histories reader threads replay by snapshot sequence number.
  std::unordered_map<ObjectId, IdHistory> history;
  std::unordered_map<ObjectId, Box> live_boxes;
  for (const BoxEntry& e : base_data) {
    history[e.id].events.push_back({0, true, e.box});
    live_boxes.emplace(e.id, e.box);
  }
  std::vector<ScriptedOp> script;
  script.reserve(kOps);
  Rng rng(102);
  for (std::uint64_t s = 1; s <= kOps; ++s) {
    ScriptedOp op;
    if (rng.NextDouble() < 0.5 && !live_boxes.empty()) {
      auto it = live_boxes.begin();
      std::advance(it, static_cast<long>(rng.NextDouble() *
                                         static_cast<double>(
                                             live_boxes.size())));
      op.insert = false;
      op.entry = BoxEntry{it->second, it->first};
      live_boxes.erase(it);
      history[op.entry.id].events.push_back({s, false, op.entry.box});
    } else {
      ObjectId id;
      do {
        id = static_cast<ObjectId>(50000 + rng.NextDouble() * 900);
      } while (live_boxes.count(id) != 0);
      const double x = rng.NextDouble() * 0.95;
      const double y = rng.NextDouble() * 0.95;
      const Box b{x, y, x + rng.NextDouble() * 0.04,
                  y + rng.NextDouble() * 0.04};
      op.insert = true;
      op.entry = BoxEntry{b, id};
      live_boxes.emplace(id, b);
      history[id].events.push_back({s, true, b});
    }
    script.push_back(op);
  }

  TwoLayerGrid base(Layout());
  base.Build(base_data);
  ConcurrentTwoLayerGrid::Options opts;
  opts.merge_threshold = 64;  // merges race the readers throughout
  ConcurrentTwoLayerGrid live(std::move(base), opts);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> checks{0};

  auto reader = [&](std::uint64_t seed) {
    Rng qrng(seed);
    std::uint64_t last_seq = 0;
    while (!done.load()) {
      const auto snap = live.Acquire();
      const std::uint64_t s = snap.seq();
      EXPECT_LE(s, kOps);
      EXPECT_GE(s, last_seq) << "snapshot sequence went backwards";
      last_seq = s;

      const auto expected_live = LiveSetAt(history, s);
      const double wx = qrng.NextDouble() * 0.8;
      const double wy = qrng.NextDouble() * 0.8;
      const Box w{wx, wy, wx + 0.2, wy + 0.2};
      std::vector<ObjectId> expected;
      for (const BoxEntry& e : expected_live) {
        if (e.box.Intersects(w)) expected.push_back(e.id);
      }
      std::sort(expected.begin(), expected.end());
      std::vector<ObjectId> actual;
      snap.WindowQuery(w, &actual);
      EXPECT_EQ(actual, expected) << "window mismatch at seq " << s;

      // kNN against brute force over the reconstructed live set; both
      // sides order by (distance, id), so equality is exact.
      const Point q{qrng.NextDouble(), qrng.NextDouble()};
      std::vector<RankedEntry> brute;
      for (const BoxEntry& e : expected_live) {
        brute.push_back(RankedEntry{e, e.box.MinDistanceTo(q)});
      }
      std::sort(brute.begin(), brute.end(),
                [](const RankedEntry& a, const RankedEntry& b) {
                  return a.distance != b.distance
                             ? a.distance < b.distance
                             : a.entry.id < b.entry.id;
                });
      if (brute.size() > 5) brute.resize(5);
      EXPECT_EQ(snap.KnnEntries(q, 5), brute) << "knn mismatch at seq " << s;

      checks.fetch_add(1);
    }
  };

  std::vector<std::thread> readers;
  for (std::uint64_t t = 0; t < 3; ++t) {
    readers.emplace_back(reader, 103 + t);
  }

  for (std::size_t n = 0; n < script.size(); ++n) {
    const ScriptedOp& op = script[n];
    if (op.insert) {
      EXPECT_TRUE(live.Insert(op.entry));
    } else {
      EXPECT_TRUE(live.Delete(op.entry.id, op.entry.box));
    }
    // Let readers land snapshots between appends — otherwise the writer
    // finishes before they observe more than a couple of sequence numbers.
    if (n % 16 == 0) std::this_thread::yield();
  }
  live.Flush();
  done.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_GT(checks.load(), 0u);
  EXPECT_EQ(live.published_seq(), kOps);
  EXPECT_EQ(live.live_count(), live_boxes.size());

  // Final state: a quiesced snapshot must equal the fully-applied oracle.
  TwoLayerGrid oracle(Layout());
  oracle.Build(base_data);
  for (const ScriptedOp& op : script) {
    if (op.insert) {
      oracle.Insert(op.entry);
    } else {
      ASSERT_TRUE(oracle.Delete(op.entry.id, op.entry.box));
    }
  }
  ExpectSnapshotMatchesOracle(live, oracle, 104, "post-join final state");

  // Retirement accounting: no pins remain, and the final publishes drained
  // all retired versions (an actual leak would also trip ASan at exit).
  EXPECT_EQ(live.epoch_domain().active_pins(), 0u);
  ASSERT_TRUE(live.Insert(BoxEntry{Box{0.5, 0.5, 0.51, 0.51}, 60000}));
  EXPECT_EQ(live.epoch_domain().retired_count(), 0u);
}

}  // namespace
}  // namespace tlp
