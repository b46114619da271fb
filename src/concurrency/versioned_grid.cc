#include "concurrency/versioned_grid.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/radix_sort.h"
#include "wal/durable_log.h"

namespace tlp {

namespace {

/// Advances (*chunk, *base) along the chain until the chunk containing op
/// index `target` — or the last allocated chunk when `target` is exactly
/// one chunk boundary past it (the next append will link the successor
/// before publishing any op). Caller must hold the writer mutex, or (the
/// merge's fold) seek only to ops published before it read the chain.
void SeekChunk(std::shared_ptr<const DeltaChunk>* chunk, std::uint64_t* base,
               std::uint64_t target) {
  while (target >= *base + DeltaChunk::kCap && (*chunk)->next != nullptr) {
    *chunk = (*chunk)->next;
    *base += DeltaChunk::kCap;
  }
}

bool IdBelow(const BoxEntry& e, ObjectId id) { return e.id < id; }

ObjectId IdOf(ObjectId id) { return id; }
ObjectId IdOf(const BoxEntry& e) { return e.id; }
void Add(std::vector<ObjectId>* v, const BoxEntry& e) { v->push_back(e.id); }
void Add(std::vector<BoxEntry>* v, const BoxEntry& e) { v->push_back(e); }

/// True iff object `id` is live in `v` with exactly `box` (caller holds the
/// writer mutex, so the published `v` cannot retire).
bool LiveWithBox(const Version& v, ObjectId id, const Box& box) {
  if (!v.overlay.Touched(id)) return v.base->Contains(BoxEntry{box, id});
  const std::vector<BoxEntry>& ins = v.overlay.inserted;
  auto it = std::lower_bound(ins.begin(), ins.end(), id, IdBelow);
  return it != ins.end() && it->id == id && it->box == box;
}

bool ByRank(const RankedEntry& a, const RankedEntry& b) {
  return a.distance != b.distance ? a.distance < b.distance
                                  : a.entry.id < b.entry.id;
}

}  // namespace

void DeltaOverlay::Apply(const DeltaOp& op) {
  const ObjectId id = op.entry.id;
  auto t = std::lower_bound(touched.begin(), touched.end(), id);
  if (t == touched.end() || *t != id) touched.insert(t, id);
  auto it = std::lower_bound(inserted.begin(), inserted.end(), id, IdBelow);
  if (it != inserted.end() && it->id == id) it = inserted.erase(it);
  if (op.kind == DeltaOp::Kind::kInsert) inserted.insert(it, op.entry);
}

ConcurrentTwoLayerGrid::ConcurrentTwoLayerGrid(TwoLayerGrid base)
    : ConcurrentTwoLayerGrid(std::move(base), Options()) {}

ConcurrentTwoLayerGrid::ConcurrentTwoLayerGrid(TwoLayerGrid base,
                                               Options options)
    : options_(options), merge_pool_(1) {
  if (base.frozen()) base.ThawStorage();
  auto owned = std::make_shared<TwoLayerGrid>(std::move(base));
  // Seed the live-id set: every object sits in class A of exactly one tile
  // (out-of-domain entries included — clamping assigns them a unique
  // lower-corner tile too).
  const GridLayout& layout = owned->layout();
  for (std::uint32_t j = 0; j < layout.ny(); ++j) {
    for (std::uint32_t i = 0; i < layout.nx(); ++i) {
      const auto span = owned->ClassSpan(i, j, ObjectClass::kA);
      for (std::size_t n = 0; n < span.second; ++n) {
        live_ids_.insert(span.first[n].id);
      }
    }
  }
  live_count_.store(live_ids_.size(), std::memory_order_relaxed);
  tail_ = std::make_shared<DeltaChunk>();
  published_.store(new Version{std::move(owned), tail_, 0, 0, 0, {}});
}

ConcurrentTwoLayerGrid::~ConcurrentTwoLayerGrid() {
  // No readers or writers may be active here (class contract). Drain any
  // queued merge, then free the published version and all retired ones.
  try {
    merge_pool_.Wait();
  } catch (...) {
    // A failed merge leaves the previous version published — still a
    // consistent state; nothing to do beyond not throwing from a dtor.
  }
  delete published_.exchange(nullptr);
  epoch_.ReclaimAll();
}

bool ConcurrentTwoLayerGrid::Insert(const BoxEntry& entry) {
  bool applied = false;
  // With a WAL attached a failed append/fsync reports as "not applied" on
  // this legacy surface; callers that must distinguish (the serving eval
  // path) use InsertDurable directly.
  (void)InsertDurable(entry, &applied);
  return applied;
}

bool ConcurrentTwoLayerGrid::Delete(ObjectId id, const Box& box) {
  bool applied = false;
  (void)DeleteDurable(id, box, &applied);
  return applied;
}

void ConcurrentTwoLayerGrid::AttachWal(DurableLog* wal) {
  MutexLock lock(writer_mu_);
  if (total_ops_ != 0) {
    throw std::logic_error(
        "AttachWal: updates already applied without a log; the WAL history "
        "would not match the index history");
  }
  wal_ = wal;
  wal_base_ = wal->next_seq() - 1;
}

Status ConcurrentTwoLayerGrid::InsertDurable(const BoxEntry& entry,
                                             bool* applied) {
  *applied = false;
  std::uint64_t seq = 0;
  DurableLog* wal = nullptr;
  {
    if (!entry.box.IsWellFormed()) {
      return Status::InvalidArgument(
          "insert: box is inverted or has a NaN coordinate");
    }
    MutexLock lock(writer_mu_);
    if (live_ids_.count(entry.id) != 0) return Status::OK();  // duplicate
    wal = wal_;
    if (wal != nullptr) {
      // Log before entering the delta log: an op a reader could ever see
      // must be on the path to durability. Append only buffers — failure
      // here leaves both log and index untouched.
      seq = wal_base_ + total_ops_ + 1;
      Status s = wal->Append(wal::MakeOp(/*insert=*/true, seq, entry));
      if (!s.ok()) return s;
    }
    live_ids_.insert(entry.id);
    AppendLocked(DeltaOp{DeltaOp::Kind::kInsert, entry});
    live_count_.store(live_ids_.size(), std::memory_order_relaxed);
  }
  *applied = true;
  // Group commit outside the writer mutex: concurrent writers keep
  // appending while one leader fsyncs a batch covering all of them.
  if (wal != nullptr) return wal->Sync(seq);
  return Status::OK();
}

Status ConcurrentTwoLayerGrid::DeleteDurable(ObjectId id, const Box& box,
                                             bool* applied) {
  *applied = false;
  std::uint64_t seq = 0;
  DurableLog* wal = nullptr;
  {
    MutexLock lock(writer_mu_);
    // Another box would make the merge's Delete miss and replay fail.
    if (!LiveWithBox(*published_.load(), id, box)) return Status::OK();
    wal = wal_;
    if (wal != nullptr) {
      seq = wal_base_ + total_ops_ + 1;
      Status s =
          wal->Append(wal::MakeOp(/*insert=*/false, seq, BoxEntry{box, id}));
      if (!s.ok()) return s;
    }
    live_ids_.erase(id);
    AppendLocked(DeltaOp{DeltaOp::Kind::kDelete, BoxEntry{box, id}});
    live_count_.store(live_ids_.size(), std::memory_order_relaxed);
  }
  *applied = true;
  if (wal != nullptr) return wal->Sync(seq);
  return Status::OK();
}

Status ConcurrentTwoLayerGrid::CheckpointWal() {
  DurableLog* log = wal();
  if (log == nullptr) return Status::OK();
  return log->WriteDeltaSnapshot(log->durable_seq());
}

Status ConcurrentTwoLayerGrid::CompactWal() {
  if (wal() == nullptr) return Status::OK();
  Flush();
  std::shared_ptr<const TwoLayerGrid> base;
  std::uint64_t seq = 0;
  DurableLog* log = nullptr;
  {
    MutexLock lock(writer_mu_);
    const Version& cur = *published_.load();
    if (cur.delta_begin != cur.delta_end) {
      return Status::InvalidArgument(
          "CompactWal: index not quiesced (ops appended during the flush)");
    }
    base = cur.base;
    seq = wal_base_ + cur.delta_end;
    log = wal_;
  }
  // `base` is immutable by protocol and the shared_ptr keeps it alive even
  // if another version publishes meanwhile.
  return log->Compact(*base, seq);
}

void ConcurrentTwoLayerGrid::AppendLocked(const DeltaOp& op) {
  const std::uint64_t idx = total_ops_;
  if (idx == tail_base_ + DeltaChunk::kCap) {
    auto fresh = std::make_shared<DeltaChunk>();
    // Plain writes: `fresh` and this `next` edge only become reachable to
    // readers through the version publication below (seq_cst exchange),
    // which orders them.
    tail_->next = fresh;
    tail_ = std::move(fresh);
    tail_base_ += DeltaChunk::kCap;
  }
  tail_->ops[idx - tail_base_] = op;
  ++total_ops_;
  const Version& cur = *published_.load();
  auto* next = new Version{cur.base, cur.delta_head, cur.head_base,
                           cur.delta_begin, total_ops_, cur.overlay};
  next->overlay.Apply(op);
  PublishLocked(next);
  MaybeScheduleMergeLocked();
}

void ConcurrentTwoLayerGrid::PublishLocked(const Version* v) {
  const Version* old = published_.exchange(v);
  if (old != nullptr) {
    epoch_.Retire([old] { delete old; });
    // Amortized reclamation: advance as far as current pins allow. Cheap
    // when readers are pinned (first slot mismatch returns false).
    while (epoch_.TryAdvance()) {
    }
  }
}

void ConcurrentTwoLayerGrid::MaybeScheduleMergeLocked() {
  if (merge_scheduled_) return;
  const Version& cur = *published_.load();
  if (cur.delta_end - cur.delta_begin < options_.merge_threshold) return;
  merge_scheduled_ = true;
  merge_pool_.Submit([this] { RunMerge(); });
}

void ConcurrentTwoLayerGrid::RunMerge() {
  std::shared_ptr<const TwoLayerGrid> base;
  std::shared_ptr<const DeltaChunk> chunk;
  std::uint64_t chunk_base = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  DurableLog* log = nullptr;
  {
    MutexLock lock(writer_mu_);
    const Version& cur = *published_.load();
    base = cur.base;
    chunk = cur.delta_head;
    chunk_base = cur.head_base;
    begin = cur.delta_begin;
    end = cur.delta_end;
    log = wal_;
  }
  try {
    // Clone and fold outside the mutex: ops [begin, end) and the base grid
    // are immutable, and the writer keeps appending (and publishing)
    // meanwhile. The clone goes through the ordinary sequential
    // Insert/Delete paths, which maintain occupancy and the segmented
    // class invariants op by op.
    auto fresh = std::make_shared<TwoLayerGrid>(*base);
    for (std::uint64_t idx = begin; idx < end; ++idx) {
      SeekChunk(&chunk, &chunk_base, idx);
      const DeltaOp& op = chunk->ops[idx - chunk_base];
      if (op.kind == DeltaOp::Kind::kInsert) {
        fresh->Insert(op.entry);
      } else {
        fresh->Delete(op.entry.id, op.entry.box);
      }
    }
    {
      MutexLock lock(writer_mu_);
      const Version& cur = *published_.load();
      std::shared_ptr<const DeltaChunk> head = cur.delta_head;
      std::uint64_t head_base = cur.head_base;
      SeekChunk(&head, &head_base, end);
      // Its overlay holds only the ops appended while the merge ran.
      auto* merged = new Version{std::move(fresh), head, head_base, end,
                                 cur.delta_end, {}};
      for (std::uint64_t idx = end; idx < cur.delta_end; ++idx) {
        SeekChunk(&head, &head_base, idx);
        merged->overlay.Apply(head->ops[idx - head_base]);
      }
      PublishLocked(merged);
      merge_scheduled_ = false;
      merges_completed_.fetch_add(1);
      // Appends during the merge may already exceed the threshold again.
      MaybeScheduleMergeLocked();
    }
    merged_cv_.NotifyAll();
    // Checkpoint cadence rides on the merge thread — the one background
    // thread this index owns — so delta snapshots never block a writer or
    // a reader. A failed checkpoint only leaves the low-water mark where
    // it was (recovery replays more log); persistent I/O failures surface
    // through the writers' own appends.
    if (log != nullptr && options_.wal_delta_every > 0) {
      const std::uint64_t durable = log->durable_seq();
      if (durable >= log->low_water_mark() + options_.wal_delta_every) {
        (void)log->WriteDeltaSnapshot(durable);
      }
    }
  } catch (...) {
    {
      MutexLock lock(writer_mu_);
      merge_scheduled_ = false;
    }
    merged_cv_.NotifyAll();
    throw;  // surfaces through ThreadPool::Wait in the destructor
  }
}

void ConcurrentTwoLayerGrid::Flush() {
  MutexLock lock(writer_mu_);
  for (;;) {
    const Version& cur = *published_.load();
    if (cur.delta_begin == cur.delta_end && !merge_scheduled_) return;
    if (!merge_scheduled_) {
      merge_scheduled_ = true;
      merge_pool_.Submit([this] { RunMerge(); });
    }
    merged_cv_.Wait(writer_mu_);
  }
}

ConcurrentTwoLayerGrid::Snapshot ConcurrentTwoLayerGrid::Acquire() const {
  // Pin first, then load: the epoch argument (docs/CONCURRENCY.md) shows a
  // version loaded after the announcement cannot be freed while the pin
  // lives — and the version owns its overlay and keeps its base grid alive.
  EpochDomain::Guard guard = epoch_.Pin();
  const Version* v = published_.load();
  return Snapshot(std::move(guard), v->base.get(), &v->overlay, v->delta_end);
}

std::uint64_t ConcurrentTwoLayerGrid::published_seq() const {
  // Under the writer mutex the current version cannot retire (retirement
  // only happens in PublishLocked).
  MutexLock lock(writer_mu_);
  return published_.load()->delta_end;
}

EntryPredicate ConcurrentTwoLayerGrid::Snapshot::BaseKeep(
    const EntryPredicate& keep) const {
  if (overlay_->empty()) return keep;
  return [overlay = overlay_, keep](const BoxEntry& e) {
    return !overlay->Touched(e.id) && (!keep || keep(e));
  };
}

template <typename T, typename Match>
void ConcurrentTwoLayerGrid::Snapshot::PatchAndSort(
    std::vector<T>* out, Match&& match, const EntryPredicate& keep) const {
  if (!overlay_->empty()) {
    std::erase_if(*out, [this](const T& x) {
      return overlay_->Touched(IdOf(x));
    });
    for (const BoxEntry& e : overlay_->inserted) {
      if (match(e.box) && (!keep || keep(e))) Add(out, e);
    }
  }
  RadixSortBy(out, [](const T& x) { return IdOf(x); });
}

void ConcurrentTwoLayerGrid::Snapshot::WindowEntries(
    const Box& w, std::vector<BoxEntry>* out) const {
  out->clear();
  std::vector<Candidate> cands;
  base().WindowCandidates(w, &cands);
  out->reserve(cands.size());
  for (const Candidate& c : cands) out->push_back(BoxEntry{c.box, c.id});
  PatchAndSort(out, [&w](const Box& b) { return b.Intersects(w); }, {});
}

void ConcurrentTwoLayerGrid::Snapshot::WindowQuery(
    const Box& w, std::vector<ObjectId>* out,
    const EntryPredicate& keep) const {
  out->clear();
  if (!keep) {
    base().WindowQuery(w, out);
  } else {
    std::vector<Candidate> cands;
    base().WindowCandidates(w, &cands);
    out->reserve(cands.size());
    for (const Candidate& c : cands) {
      if (keep(BoxEntry{c.box, c.id})) out->push_back(c.id);
    }
  }
  PatchAndSort(out, [&w](const Box& b) { return b.Intersects(w); }, keep);
}

void ConcurrentTwoLayerGrid::Snapshot::DiskQuery(
    const Point& q, Coord radius, std::vector<ObjectId>* out,
    const EntryPredicate& keep) const {
  out->clear();
  if (!keep) {
    base().DiskQuery(q, radius, out);
  } else {
    std::vector<BoxEntry> entries;
    base().DiskQueryEntries(q, radius, &entries);
    out->reserve(entries.size());
    for (const BoxEntry& e : entries) {
      if (keep(e)) out->push_back(e.id);
    }
  }
  PatchAndSort(
      out, [&](const Box& b) { return b.MinDistanceTo(q) <= radius; }, keep);
}

void ConcurrentTwoLayerGrid::Snapshot::DiskQueryEntries(
    const Point& q, Coord radius, std::vector<BoxEntry>* out) const {
  out->clear();
  base().DiskQueryEntries(q, radius, out);
  PatchAndSort(
      out, [&](const Box& b) { return b.MinDistanceTo(q) <= radius; }, {});
}

std::vector<RankedEntry> ConcurrentTwoLayerGrid::Snapshot::KnnEntries(
    const Point& q, std::size_t k, const EntryPredicate& keep) const {
  // The hide-filter runs inside the base probe, so it returns the exact k
  // nearest *surviving* base entries; delta inserts can only add
  // candidates. The top-k of the union is therefore exact without
  // over-fetching.
  std::vector<RankedEntry> pool =
      tlp::KnnEntries(base(), q, k, BaseKeep(keep));
  if (overlay_->empty()) return pool;
  for (const BoxEntry& e : overlay_->inserted) {
    if (!keep || keep(e)) pool.push_back({e, e.box.MinDistanceTo(q)});
  }
  std::sort(pool.begin(), pool.end(), ByRank);
  if (pool.size() > k) pool.resize(k);
  return pool;
}

std::vector<SkylineEntry> ConcurrentTwoLayerGrid::Snapshot::SkylineQuery(
    const Point& q, const Box* region, const EntryPredicate& keep) const {
  // skyline(base' ∪ delta) = skyline(skyline(base') ∪ delta), where base'
  // is the base with overridden ids hidden *before* dominance runs (a
  // hidden entry must not evict anything). So the base skyline is a valid
  // starting state for the same incremental step the base query runs.
  std::vector<SkylineEntry> sky =
      tlp::SkylineQuery(base(), q, region, BaseKeep(keep));
  if (overlay_->empty()) return sky;
  for (const BoxEntry& e : overlay_->inserted) {
    if (region != nullptr && !e.box.Intersects(*region)) continue;
    if (!keep || keep(e)) SkylineAdmit(e, q, &sky);
  }
  std::sort(sky.begin(), sky.end(),
            [](const SkylineEntry& a, const SkylineEntry& b) {
              return a.entry.id < b.entry.id;
            });
  return sky;
}

std::vector<RankedEntry> ConcurrentTwoLayerGrid::Snapshot::DiversifiedKnnQuery(
    const Point& q, const DivKnnOptions& opts,
    const EntryPredicate& keep) const {
  if (opts.k == 0) return {};
  const std::vector<RankedEntry> pool =
      KnnEntries(q, ResolvedDivKnnFetch(opts), keep);
  return DiversifiedReRank(pool, opts.k, opts.lambda);
}

}  // namespace tlp
