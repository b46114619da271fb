#include "wal/durable_log.h"

#include <algorithm>
#include <map>
#include <unordered_set>
#include <utility>

#include "grid/grid_layout.h"

namespace tlp {

namespace {

using wal::DecodeRecord;
using wal::DecodeResult;
using wal::RecordKind;
using wal::WalRecord;

/// Result of scanning one segment file: the frames that decode cleanly up
/// to the first gap, corruption, or truncation.
struct SegmentScan {
  bool header_ok = false;
  std::uint64_t first_seq = 0;   // from the header frame
  std::uint64_t last_seq = 0;    // last contiguous op (first_seq-1 if none)
  std::uint64_t valid_bytes = 0; // prefix covered by intact frames
  bool clean = true;             // no bytes beyond valid_bytes
};

/// Decodes the frame stream of a segment whose name promises `want_first`.
/// Ops must be contiguous starting at want_first; the scan stops (clean =
/// false) at the first torn/corrupt/out-of-sequence frame.
SegmentScan ScanSegment(const std::vector<unsigned char>& bytes,
                        std::uint64_t want_first) {
  SegmentScan scan;
  scan.first_seq = want_first;
  scan.last_seq = want_first == 0 ? 0 : want_first - 1;
  std::size_t pos = 0;
  bool saw_header = false;
  while (pos < bytes.size()) {
    WalRecord rec;
    std::size_t consumed = 0;
    const DecodeResult r =
        DecodeRecord(bytes.data() + pos, bytes.size() - pos, &rec, &consumed);
    if (r != DecodeResult::kOk) {
      scan.clean = false;
      break;
    }
    if (!saw_header) {
      if (rec.kind != RecordKind::kSegmentHeader || rec.seq != want_first ||
          rec.aux > wal::kWalFormatVersion) {
        scan.clean = false;
        break;
      }
      saw_header = true;
      scan.header_ok = true;
    } else {
      if ((rec.kind != RecordKind::kInsert &&
           rec.kind != RecordKind::kDelete) ||
          rec.seq != scan.last_seq + 1) {
        scan.clean = false;
        break;
      }
      scan.last_seq = rec.seq;
    }
    pos += consumed;
    scan.valid_bytes = pos;
  }
  return scan;
}

/// Everything a directory listing says about a WAL dir, numerically parsed
/// and sorted. Shared by Open and Inspect.
struct DirListing {
  std::vector<std::uint64_t> fulls;                       // ascending
  std::vector<std::pair<std::uint64_t, std::uint64_t>> deltas;  // by from
  std::vector<std::pair<std::uint64_t, std::string>> segments;  // by first
  std::vector<std::string> temps;
};

Status ListWalDir(const std::string& dir, FileSystem* fs, DirListing* out) {
  std::vector<std::string> names;
  Status s = fs->ListDir(dir, &names);
  if (!s.ok()) return s;
  for (const std::string& name : names) {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    if (name.find(".tmp") != std::string::npos) {
      out->temps.push_back(name);
    } else if (wal::ParseFullFileName(name, &a)) {
      out->fulls.push_back(a);
    } else if (wal::ParseDeltaFileName(name, &a, &b)) {
      out->deltas.emplace_back(a, b);
    } else if (wal::ParseSegmentFileName(name, &a)) {
      out->segments.emplace_back(a, name);
    }
  }
  std::sort(out->fulls.begin(), out->fulls.end());
  std::sort(out->deltas.begin(), out->deltas.end());
  std::sort(out->segments.begin(), out->segments.end());
  return Status::OK();
}

/// Low-water mark implied by the checkpoints: the newest full snapshot
/// extended by the contiguous delta chain hanging off it.
std::uint64_t LowWaterOf(const DirListing& listing, bool* has_full,
                         std::uint64_t* full_seq) {
  *has_full = !listing.fulls.empty();
  *full_seq = *has_full ? listing.fulls.back() : 0;
  std::uint64_t lw = *full_seq;
  bool advanced = true;
  while (advanced) {
    advanced = false;
    for (const auto& [from, to] : listing.deltas) {
      if (from == lw && to > lw) {
        lw = to;
        advanced = true;
      }
    }
  }
  return *has_full ? lw : 0;
}

/// Strict application of one op to (grid, live set). The committed history
/// is internally consistent by construction, so any violation here means
/// the files lied despite their CRCs — corruption, not a prefix.
Status ApplyOp(const WalRecord& rec, TwoLayerGrid* grid,
               std::unordered_set<ObjectId>* live) {
  if (rec.kind == RecordKind::kInsert) {
    if (!rec.entry.box.IsWellFormed()) {
      return Status::Corruption("wal replay: insert of an ill-formed box, id " +
                                std::to_string(rec.entry.id));
    }
    if (!live->insert(rec.entry.id).second) {
      return Status::Corruption("wal replay: insert of live id " +
                                std::to_string(rec.entry.id));
    }
    grid->Insert(rec.entry);
    return Status::OK();
  }
  if (live->erase(rec.entry.id) == 0 ||
      !grid->Delete(rec.entry.id, rec.entry.box)) {
    return Status::Corruption("wal replay: delete of non-live id " +
                              std::to_string(rec.entry.id));
  }
  return Status::OK();
}

}  // namespace

DurableLog::DurableLog(std::string dir, const Options& options,
                       FileSystem* fs)
    : dir_(std::move(dir)), options_(options), fs_(fs) {}

DurableLog::~DurableLog() = default;

std::string DurableLog::PathOf(const std::string& name) const {
  return dir_ + "/" + name;
}

Status DurableLog::Open(const std::string& dir, const Options& options,
                        FileSystem* fs, std::unique_ptr<DurableLog>* out) {
  fs = ResolveFs(fs);
  std::unique_ptr<DurableLog> log(new DurableLog(dir, options, fs));
  // The log is private to this function until *out is assigned; holding its
  // mutex costs nothing and keeps the guarded-member proof airtight.
  MutexLock setup_lock(log->mu_);
  DirListing listing;
  Status s = ListWalDir(dir, fs, &listing);
  if (!s.ok()) return s;

  // Leftover temps from a crashed delta-snapshot write are invisible to
  // recovery (never renamed into place); collect them.
  for (const std::string& name : listing.temps) {
    (void)fs->RemoveFile(log->PathOf(name));
  }

  bool has_full = false;
  std::uint64_t full_seq = 0;
  log->low_water_ = LowWaterOf(listing, &has_full, &full_seq);

  // Walk the segment chain: each segment must start where the previous one
  // ended, and the first must not leave a gap after the checkpoint. The
  // last valid record of the chain is the committed end of the log; a torn
  // tail beyond it on the final segment is truncated away (the crash
  // interrupted an unacknowledged batch). Segments provably superseded by
  // the checkpoint or by a later chain segment (a crashed compaction's
  // leftover removes) are collected here, best effort.
  std::uint64_t committed = log->low_water_;
  std::uint64_t chain_next = 0;
  bool chain_alive = false;
  for (std::size_t i = 0; i < listing.segments.size(); ++i) {
    const auto& [first_seq, name] = listing.segments[i];
    if (chain_alive) {
      if (first_seq < chain_next) {
        // Entirely covered by the chain walked so far: a segment's records
        // end before the next segment's first sequence.
        (void)fs->RemoveFile(log->PathOf(name));
        continue;
      }
      if (first_seq > chain_next) break;  // gap: unreachable
    } else {
      // The chain may begin at or below the checkpoint (records <= the
      // low-water mark replay as no-ops) but not beyond it.
      if (first_seq > log->low_water_ + 1) break;
      // A later segment also chains to the checkpoint, so this one's
      // records are all at or below the low-water mark: stale.
      if (i + 1 < listing.segments.size() &&
          listing.segments[i + 1].first <= log->low_water_ + 1) {
        (void)fs->RemoveFile(log->PathOf(name));
        continue;
      }
    }
    std::vector<unsigned char> bytes;
    s = fs->ReadFile(log->PathOf(name), &bytes);
    if (!s.ok()) return s;
    const SegmentScan scan = ScanSegment(bytes, first_seq);
    if (!scan.header_ok) break;  // never-synced or mangled header
    chain_alive = true;
    chain_next = scan.last_seq + 1;
    committed = std::max(committed, scan.last_seq);
    log->sealed_.push_back(SegmentInfo{name, first_seq, scan.last_seq});
    if (!scan.clean) {
      if (i + 1 == listing.segments.size() &&
          scan.valid_bytes < bytes.size()) {
        s = fs->Truncate(log->PathOf(name), scan.valid_bytes);
        if (!s.ok()) return s;
      }
      break;  // records beyond a tear are not part of the committed prefix
    }
  }
  // A tail segment holding no ops (crash right after its header) would
  // collide with the name of the next segment the log creates; forget it
  // so the fresh NewWritableFile simply truncates and reuses the file.
  if (!log->sealed_.empty() &&
      log->sealed_.back().last_seq < log->sealed_.back().first_seq) {
    log->sealed_.pop_back();
  }

  log->appended_seq_ = committed;
  log->durable_seq_ = committed;
  *out = std::move(log);
  return Status::OK();
}

Status DurableLog::Inspect(const std::string& dir, FileSystem* fs,
                           WalDirInfo* out) {
  fs = ResolveFs(fs);
  *out = WalDirInfo{};
  DirListing listing;
  Status s = ListWalDir(dir, fs, &listing);
  if (!s.ok()) return s;
  out->temp_files = listing.temps.size();
  out->delta_files = listing.deltas.size();
  out->segment_files = listing.segments.size();
  out->low_water = LowWaterOf(listing, &out->has_full, &out->full_seq);
  out->committed_seq = out->low_water;
  std::uint64_t chain_next = 0;
  bool chain_alive = false;
  for (std::size_t i = 0; i < listing.segments.size(); ++i) {
    const auto& [first_seq, name] = listing.segments[i];
    std::vector<unsigned char> bytes;
    s = fs->ReadFile(dir + "/" + name, &bytes);
    if (!s.ok()) return s;
    out->segment_bytes += bytes.size();
    if (chain_alive && first_seq != chain_next) continue;
    if (!chain_alive) {
      if (first_seq > out->low_water + 1) continue;
      if (i + 1 < listing.segments.size() &&
          listing.segments[i + 1].first <= out->low_water + 1) {
        continue;
      }
    }
    const SegmentScan scan = ScanSegment(bytes, first_seq);
    if (!scan.header_ok) continue;
    chain_alive = true;
    chain_next = scan.last_seq + 1;
    out->committed_seq = std::max(out->committed_seq, scan.last_seq);
    if (i + 1 == listing.segments.size()) {
      out->torn_bytes = bytes.size() - scan.valid_bytes;
    }
  }
  return Status::OK();
}

std::uint64_t DurableLog::next_seq() const {
  MutexLock lock(mu_);
  return appended_seq_ + 1;
}

std::uint64_t DurableLog::durable_seq() const {
  MutexLock lock(mu_);
  return durable_seq_;
}

std::uint64_t DurableLog::low_water_mark() const {
  MutexLock lock(mu_);
  return low_water_;
}

WalStats DurableLog::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

Status DurableLog::Append(const WalRecord& rec) {
  MutexLock lock(mu_);
  if (!failed_.ok()) return failed_;
  if (rec.kind != RecordKind::kInsert && rec.kind != RecordKind::kDelete) {
    return Status::InvalidArgument("wal append: not an op record");
  }
  if (rec.seq != appended_seq_ + 1) {
    return Status::InvalidArgument(
        "wal append: sequence " + std::to_string(rec.seq) + ", expected " +
        std::to_string(appended_seq_ + 1));
  }
  recovered_ = true;  // appending forfeits RecoverIndex
  if (pending_.empty()) pending_first_ = rec.seq;
  const std::size_t before = pending_.size();
  wal::EncodeRecord(rec, &pending_);
  appended_seq_ = rec.seq;
  ++stats_.appends;
  stats_.bytes_logged += pending_.size() - before;
  return Status::OK();
}

Status DurableLog::Sync(std::uint64_t seq) {
  MutexLock lock(mu_);
  for (;;) {
    if (!failed_.ok()) return failed_;
    if (durable_seq_ >= seq) return Status::OK();
    if (seq > appended_seq_) {
      return Status::InvalidArgument("wal sync: sequence not yet appended");
    }
    if (!flush_in_progress_) break;
    sync_cv_.Wait(mu_);
  }
  // This thread is the flush leader: take the whole pending batch (group
  // commit — one fsync covers every record appended so far, including
  // those of the threads waiting above).
  flush_in_progress_ = true;
  const std::string batch = std::move(pending_);
  pending_.clear();
  const std::uint64_t batch_first = pending_first_;
  const std::uint64_t batch_end = appended_seq_;
  lock.Unlock();  // the leader flushes outside mu_; followers keep appending

  bool created = false;
  bool rotated = false;
  Status s = FlushBatch(batch, batch_first, &created, &rotated);

  lock.Lock();
  flush_in_progress_ = false;
  if (!s.ok()) {
    failed_ = s;
  } else {
    durable_seq_ = batch_end;
    ++stats_.fsync_batches;
    if (created) {
      active_mirror_ =
          SegmentInfo{wal::SegmentFileName(batch_first), batch_first, 0};
      active_present_ = true;
    }
    active_mirror_.last_seq = batch_end;
    if (rotated) {
      ++stats_.rotations;
      sealed_.push_back(active_mirror_);
      active_present_ = false;
    }
  }
  sync_cv_.NotifyAll();
  return s;
}

Status DurableLog::FlushBatch(const std::string& batch,
                              std::uint64_t batch_first, bool* created,
                              bool* rotated) {
  *created = false;
  *rotated = false;
  std::string buf;
  if (file_ == nullptr) {
    active_first_ = batch_first;
    active_bytes_ = 0;
    Status s =
        fs_->NewWritableFile(PathOf(wal::SegmentFileName(batch_first)), &file_);
    if (!s.ok()) return s;
    *created = true;
    wal::EncodeRecord(wal::MakeSegmentHeader(batch_first), &buf);
  }
  buf += batch;
  Status s = file_->Append(buf.data(), buf.size());
  if (!s.ok()) return s;
  s = file_->Sync();
  if (!s.ok()) return s;
  if (*created) {
    // The segment's directory entry must survive the crash too.
    s = fs_->SyncDir(dir_);
    if (!s.ok()) return s;
  }
  active_bytes_ += buf.size();
  if (active_bytes_ >= options_.segment_bytes) {
    s = file_->Close();
    file_.reset();
    if (!s.ok()) return s;
    *rotated = true;  // caller (under mu_) moves it onto the sealed list
  }
  return Status::OK();
}

Status DurableLog::CollectOps(std::uint64_t after, std::uint64_t upto,
                              std::vector<WalRecord>* ops) {
  // Segment files holding records in (after, upto]: the sealed list plus
  // the active segment. All records <= durable_seq_ were flushed to the
  // file before durable_seq_ advanced, so reading the files sees them
  // complete even while the leader keeps appending behind us.
  std::vector<SegmentInfo> files;
  {
    MutexLock lock(mu_);
    files = sealed_;
    if (active_present_) files.push_back(active_mirror_);
  }
  std::sort(files.begin(), files.end(),
            [](const SegmentInfo& a, const SegmentInfo& b) {
              return a.first_seq < b.first_seq;
            });
  for (const SegmentInfo& seg : files) {
    if (seg.first_seq > upto) break;
    std::vector<unsigned char> bytes;
    Status s = fs_->ReadFile(PathOf(seg.name), &bytes);
    if (!s.ok()) return s;
    const SegmentScan scan = ScanSegment(bytes, seg.first_seq);
    if (!scan.header_ok) {
      return Status::Corruption("wal segment " + seg.name +
                                " lost its header");
    }
    std::size_t pos = 0;
    bool saw_header = false;
    while (pos < scan.valid_bytes) {
      WalRecord rec;
      std::size_t consumed = 0;
      if (DecodeRecord(bytes.data() + pos, bytes.size() - pos, &rec,
                       &consumed) != DecodeResult::kOk) {
        break;  // cannot happen within valid_bytes
      }
      pos += consumed;
      if (!saw_header) {
        saw_header = true;
        continue;
      }
      if (rec.seq > upto) break;
      if (rec.seq > after) ops->push_back(rec);
    }
  }
  // The caller asked for a range it believes durable; holes mean the
  // segments no longer cover it.
  std::uint64_t expect = after + 1;
  for (const WalRecord& rec : *ops) {
    if (rec.seq != expect) {
      return Status::Corruption("wal op range (" + std::to_string(after) +
                                ", " + std::to_string(upto) +
                                "] has a hole at " + std::to_string(expect));
    }
    ++expect;
  }
  if (expect != upto + 1) {
    return Status::Corruption("wal op range (" + std::to_string(after) + ", " +
                              std::to_string(upto) + "] ends early at " +
                              std::to_string(expect - 1));
  }
  return Status::OK();
}

Status DurableLog::WriteDeltaSnapshot(std::uint64_t upto) {
  MutexLock checkpoint_lock(checkpoint_mu_);
  std::uint64_t from = 0;
  {
    MutexLock lock(mu_);
    from = low_water_;
    upto = std::min(upto, durable_seq_);
  }
  if (upto <= from) return Status::OK();

  std::vector<WalRecord> ops;
  Status s = CollectOps(from, upto, &ops);
  if (!s.ok()) return s;

  // Collapse to net effects, last-op-wins per id: an id whose first op in
  // the window is a delete was live at the window start (emit the delete);
  // an id whose last op is an insert is live at the window end (emit the
  // insert, final box). Insert-then-delete within the window cancels out.
  // Emission is id-sorted, deletes before inserts per id, so replay's
  // strict liveness checks hold.
  std::map<ObjectId, std::pair<const WalRecord*, const WalRecord*>> by_id;
  for (const WalRecord& rec : ops) {
    auto [it, fresh] = by_id.emplace(
        rec.entry.id, std::pair<const WalRecord*, const WalRecord*>{&rec, &rec});
    if (!fresh) it->second.second = &rec;
  }
  std::string body;
  std::uint64_t count = 0;
  for (const auto& [id, firstlast] : by_id) {
    const WalRecord* first = firstlast.first;
    const WalRecord* last = firstlast.second;
    if (first->kind == RecordKind::kDelete) {
      wal::EncodeRecord(wal::MakeOp(false, first->seq, first->entry), &body);
      ++count;
    }
    if (last->kind == RecordKind::kInsert) {
      wal::EncodeRecord(wal::MakeOp(true, last->seq, last->entry), &body);
      ++count;
    }
  }
  std::string payload;
  wal::EncodeRecord(wal::MakeDeltaHeader(from, upto, count), &payload);
  payload += body;

  const std::string final_path = PathOf(wal::DeltaFileName(from, upto));
  const std::string tmp_path = final_path + ".tmp";
  {
    std::unique_ptr<WritableFile> file;
    s = fs_->NewWritableFile(tmp_path, &file);
    if (s.ok()) s = file->Append(payload.data(), payload.size());
    if (s.ok()) s = file->Sync();
    if (s.ok()) s = file->Close();
  }
  if (s.ok()) s = fs_->RenameFile(tmp_path, final_path);
  if (s.ok()) s = fs_->SyncDir(dir_);
  if (!s.ok()) {
    if (fs_->FileExists(tmp_path)) (void)fs_->RemoveFile(tmp_path);
    return s;
  }
  {
    MutexLock lock(mu_);
    low_water_ = upto;
    ++stats_.delta_snapshots;
  }
  CollectStale(upto, /*everything_below=*/false);
  return Status::OK();
}

Status DurableLog::Compact(const TwoLayerGrid& base, std::uint64_t seq) {
  MutexLock checkpoint_lock(checkpoint_mu_);
  {
    MutexLock lock(mu_);
    if (seq < low_water_ || seq > durable_seq_) {
      return Status::InvalidArgument(
          "wal compact: sequence " + std::to_string(seq) +
          " outside [low-water " + std::to_string(low_water_) + ", durable " +
          std::to_string(durable_seq_) + "]");
    }
  }
  Status s = base.Save(PathOf(wal::FullFileName(seq)), fs_);
  if (!s.ok()) return s;
  {
    MutexLock lock(mu_);
    low_water_ = seq;
    ++stats_.compactions;
  }
  CollectStale(seq, /*everything_below=*/true);
  return Status::OK();
}

void DurableLog::CollectStale(std::uint64_t bound,
                                    bool everything_below) {
  // Best effort: a failed remove leaves a stale file that recovery skips
  // and the next checkpoint retries.
  std::vector<SegmentInfo> keep;
  std::vector<std::string> victims;
  {
    MutexLock lock(mu_);
    for (const SegmentInfo& seg : sealed_) {
      if (seg.last_seq <= bound && seg.first_seq <= bound) {
        victims.push_back(seg.name);
      } else {
        keep.push_back(seg);
      }
    }
    sealed_ = std::move(keep);
  }
  for (const std::string& name : victims) {
    (void)fs_->RemoveFile(PathOf(name));
  }
  if (!everything_below) return;
  DirListing listing;
  if (!ListWalDir(dir_, fs_, &listing).ok()) return;
  for (const std::uint64_t full : listing.fulls) {
    if (full < bound) (void)fs_->RemoveFile(PathOf(wal::FullFileName(full)));
  }
  for (const auto& [from, to] : listing.deltas) {
    if (to <= bound) {
      (void)fs_->RemoveFile(PathOf(wal::DeltaFileName(from, to)));
    }
  }
}

Status DurableLog::RecoverIndex(std::unique_ptr<TwoLayerGrid>* grid,
                                std::uint64_t* seq) {
  MutexLock checkpoint_lock(checkpoint_mu_);
  {
    MutexLock lock(mu_);
    if (recovered_) {
      return Status::InvalidArgument(
          "wal recover: log already appended to; recovery must come first");
    }
    recovered_ = true;
  }
  DirListing listing;
  Status s = ListWalDir(dir_, fs_, &listing);
  if (!s.ok()) return s;
  if (listing.fulls.empty()) {
    return Status::InvalidArgument(
        "wal dir '" + dir_ + "' has no full snapshot; seed one with compact");
  }
  const std::uint64_t full_seq = listing.fulls.back();
  auto fresh =
      std::make_unique<TwoLayerGrid>(GridLayout(Box{0, 0, 1, 1}, 1, 1));
  s = fresh->Load(PathOf(wal::FullFileName(full_seq)), fs_);
  if (!s.ok()) return s;

  // Live-id set for the strict replay checks, seeded the way the
  // concurrent wrapper seeds its own: every object sits in class A of
  // exactly one tile.
  std::unordered_set<ObjectId> live;
  const GridLayout& layout = fresh->layout();
  for (std::uint32_t j = 0; j < layout.ny(); ++j) {
    for (std::uint32_t i = 0; i < layout.nx(); ++i) {
      const auto span = fresh->ClassSpan(i, j, ObjectClass::kA);
      for (std::size_t n = 0; n < span.second; ++n) {
        live.insert(span.first[n].id);
      }
    }
  }

  std::uint64_t cur = full_seq;
  std::uint64_t replayed = 0;
  std::uint64_t skipped = 0;

  // Delta-snapshot chain: apply each file whose `from` equals the current
  // state. Files are collapsed net effects, so plain strict application
  // advances the state to `to` exactly.
  bool advanced = true;
  while (advanced) {
    advanced = false;
    for (const auto& [from, to] : listing.deltas) {
      if (from != cur || to <= cur) continue;
      std::vector<unsigned char> bytes;
      const std::string name = wal::DeltaFileName(from, to);
      s = fs_->ReadFile(PathOf(name), &bytes);
      if (!s.ok()) return s;
      std::size_t pos = 0;
      WalRecord header;
      std::size_t consumed = 0;
      if (DecodeRecord(bytes.data(), bytes.size(), &header, &consumed) !=
              DecodeResult::kOk ||
          header.kind != RecordKind::kDeltaHeader || header.seq != from ||
          header.aux != to) {
        return Status::Corruption("delta snapshot " + name +
                                  " has a bad header");
      }
      pos = consumed;
      std::uint64_t applied = 0;
      while (applied < header.count) {
        WalRecord rec;
        if (DecodeRecord(bytes.data() + pos, bytes.size() - pos, &rec,
                         &consumed) != DecodeResult::kOk ||
            (rec.kind != RecordKind::kInsert &&
             rec.kind != RecordKind::kDelete)) {
          return Status::Corruption("delta snapshot " + name +
                                    " truncated or corrupt");
        }
        pos += consumed;
        s = ApplyOp(rec, fresh.get(), &live);
        if (!s.ok()) return s;
        ++applied;
        ++replayed;
      }
      cur = to;
      advanced = true;
    }
  }

  // Log replay: ops at or below the checkpoint are no-ops (idempotent
  // re-application), ops beyond it must be contiguous.
  std::vector<SegmentInfo> chain;
  {
    MutexLock lock(mu_);
    chain = sealed_;
  }
  for (const SegmentInfo& seg : chain) {
    if (seg.last_seq <= cur) {
      skipped += seg.last_seq - (seg.first_seq == 0 ? 0 : seg.first_seq - 1);
      continue;
    }
    std::vector<unsigned char> bytes;
    s = fs_->ReadFile(PathOf(seg.name), &bytes);
    if (!s.ok()) return s;
    const SegmentScan scan = ScanSegment(bytes, seg.first_seq);
    std::size_t pos = 0;
    bool saw_header = false;
    bool stop = false;
    while (pos < scan.valid_bytes && !stop) {
      WalRecord rec;
      std::size_t consumed = 0;
      if (DecodeRecord(bytes.data() + pos, bytes.size() - pos, &rec,
                       &consumed) != DecodeResult::kOk) {
        break;
      }
      pos += consumed;
      if (!saw_header) {
        saw_header = true;
        continue;
      }
      if (rec.seq <= cur) {
        ++skipped;
        continue;
      }
      if (rec.seq != cur + 1) {
        stop = true;  // gap: the committed prefix ends here
        break;
      }
      s = ApplyOp(rec, fresh.get(), &live);
      if (!s.ok()) return s;
      cur = rec.seq;
      ++replayed;
    }
    if (stop) break;
  }

  {
    MutexLock lock(mu_);
    stats_.records_replayed += replayed;
    stats_.records_skipped += skipped;
  }
  *grid = std::move(fresh);
  *seq = cur;
  return Status::OK();
}

std::uint32_t LiveSetDigest(const TwoLayerGrid& grid) {
  std::vector<BoxEntry> entries;
  const GridLayout& layout = grid.layout();
  for (std::uint32_t j = 0; j < layout.ny(); ++j) {
    for (std::uint32_t i = 0; i < layout.nx(); ++i) {
      const auto span = grid.ClassSpan(i, j, ObjectClass::kA);
      for (std::size_t n = 0; n < span.second; ++n) {
        entries.push_back(span.first[n]);
      }
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const BoxEntry& a, const BoxEntry& b) { return a.id < b.id; });
  std::uint32_t crc = 0;
  for (const BoxEntry& e : entries) {
    crc = Crc32(&e.id, sizeof e.id, crc);
    crc = Crc32(&e.box.xl, sizeof e.box.xl, crc);
    crc = Crc32(&e.box.yl, sizeof e.box.yl, crc);
    crc = Crc32(&e.box.xu, sizeof e.box.xu, crc);
    crc = Crc32(&e.box.yu, sizeof e.box.yu, crc);
  }
  return crc;
}

}  // namespace tlp
