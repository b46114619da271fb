// Snapshot (de)serialization of the two-layer grids (container format:
// src/persist; layout documented in docs/PERSISTENCE.md).
//
// TwoLayerGrid sections — also embedded as the record layer of a 2-layer+
// snapshot:
//   kSecLayout      grid geometry
//   kSecTileBegins  per-tile class-segment boundaries (5 u32 per tile)
//   kSecTileEntries concatenated per-tile BoxEntry arrays (tile-id order)
//
// TwoLayerPlusGrid adds the flat decomposed sorted tables of paper §IV-C —
// exactly the structure-of-arrays layout a zero-copy mapped load wants:
//   kSecMbrs        id -> MBR table (raw Box array)
//   kSecTableDir    per-tile sorted-table sizes (SnapshotTableDirEntry)
//   kSecTableValues all coordinate columns, concatenated in directory order
//   kSecTableIds    all id columns, same order
//
// Loads validate every structural property *before* mutating the index:
// section sizes must agree with the tile/entry counts derived from the
// already-checked sections, so a corrupt (but checksum-valid) file is
// rejected with a diagnostic instead of over-allocating or scanning out of
// bounds. The mapped load path materializes only the per-tile directory and
// segment boundaries (O(tiles)); the entry and column payloads stay in the
// mapping and are faulted in per page as queries touch them.

#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "core/two_layer_grid.h"
#include "core/two_layer_plus_grid.h"
#include "grid/grid_snapshot_util.h"

namespace tlp {

using snapshot_internal::ExpectKind;
using snapshot_internal::ExpectSectionSize;
using snapshot_internal::ReadLayoutSection;
using snapshot_internal::WriteLayoutSection;

void TwoLayerGrid::AppendSnapshotSections(SnapshotWriter* writer) const {
  WriteLayoutSection(writer, layout_);

  writer->BeginSection(kSecTileBegins);
  for (const Tile& tile : tiles_) {
    writer->Write(tile.begin.data(),
                  (kNumClasses + 1) * sizeof(std::uint32_t));
  }
  writer->EndSection();

  writer->BeginSection(kSecTileEntries);
  for (const Tile& tile : tiles_) {
    writer->Write(tile.entries.data(),
                  tile.entries.size() * sizeof(BoxEntry));
  }
  writer->EndSection();
}

Status TwoLayerGrid::LoadSnapshotSections(const SnapshotReader& reader,
                                          bool mapped) {
  GridLayout layout = layout_;
  Status s = ReadLayoutSection(reader, &layout);
  if (!s.ok()) return s;

  SnapshotReader::Span begins_span, entries_span;
  if (Status f = reader.Find(kSecTileBegins, &begins_span); !f.ok()) return f;
  if (Status f = reader.Find(kSecTileEntries, &entries_span); !f.ok()) {
    return f;
  }

  const std::size_t tile_count = layout.tile_count();
  constexpr std::size_t kBeginBytes = (kNumClasses + 1) * sizeof(std::uint32_t);
  if (Status f = ExpectSectionSize(begins_span, tile_count, kBeginBytes,
                                   "tile begins");
      !f.ok()) {
    return f;
  }

  // First pass over the begins: validate the segmented-vector invariants and
  // derive the total entry count the entries section must hold. Capping the
  // running total by what the entries section can physically hold keeps the
  // uint64 sum from wrapping on a crafted file (each addend is a u32, so the
  // total can never jump past the cap unseen).
  std::vector<Tile> tiles(tile_count);
  const std::uint64_t max_entries = entries_span.size / sizeof(BoxEntry);
  std::uint64_t total = 0;
  for (std::size_t t = 0; t < tile_count; ++t) {
    std::memcpy(tiles[t].begin.data(), begins_span.data + t * kBeginBytes,
                kBeginBytes);
    const auto& b = tiles[t].begin;
    if (b[0] != 0) {
      return Status::Corruption("corrupt snapshot: tile begin[0] != 0");
    }
    for (std::size_t c = 0; c < kNumClasses; ++c) {
      if (b[c] > b[c + 1]) {
        return Status::Corruption(
            "corrupt snapshot: non-monotone tile class boundaries");
      }
    }
    total += b[kNumClasses];
    if (total > max_entries) {
      return Status::Corruption(
          "corrupt snapshot: tile begins claim more entries than the "
          "entries section holds");
    }
  }
  if (Status f =
          ExpectSectionSize(entries_span, total, sizeof(BoxEntry), "entries");
      !f.ok()) {
    return f;
  }

  const auto* entry = reinterpret_cast<const BoxEntry*>(entries_span.data);
  for (std::size_t t = 0; t < tile_count; ++t) {
    const std::size_t n = tiles[t].begin[kNumClasses];
    if (mapped) {
      tiles[t].entries.SetView(entry, n);
    } else {
      tiles[t].entries.vec().assign(entry, entry + n);
    }
    entry += n;
  }

  layout_ = layout;
  tiles_ = std::move(tiles);
  // Occupancy, the class-A extents and the out-of-domain flag are derived
  // state, not snapshot sections: rebuilding them reads each class-A entry
  // once and keeps the file format unchanged.
  RebuildOccupancy();
  // A mapped load leaves the entry columns viewing the read-only mapping;
  // freeze so Build/Insert/Delete fail loudly instead of faulting.
  frozen_ = mapped;
  return Status::OK();
}

void TwoLayerGrid::ThawStorage() {
  for (Tile& tile : tiles_) tile.entries.Thaw();
  frozen_ = false;
}

Status TwoLayerGrid::Save(const std::string& path, FileSystem* fs) const {
  SnapshotWriter writer;
  Status s = writer.Open(path, SnapshotIndexKind::kTwoLayerGrid, fs);
  if (!s.ok()) return s;
  AppendSnapshotSections(&writer);
  return writer.Finalize(SizeBytes(), entry_count());
}

Status TwoLayerGrid::Load(const std::string& path, FileSystem* fs) {
  SnapshotReader reader;
  Status s = reader.Open(path, SnapshotReader::Mode::kBuffered, fs);
  if (!s.ok()) return s;
  s = ExpectKind(reader, SnapshotIndexKind::kTwoLayerGrid, "TwoLayerGrid");
  if (!s.ok()) return s;
  return LoadSnapshotSections(reader, /*mapped=*/false);
}

TwoLayerPlusGrid::~TwoLayerPlusGrid() = default;

Status TwoLayerPlusGrid::Save(const std::string& path,
                              FileSystem* fs) const {
  SnapshotWriter writer;
  Status s = writer.Open(path, SnapshotIndexKind::kTwoLayerPlusGrid, fs);
  if (!s.ok()) return s;

  record_.AppendSnapshotSections(&writer);

  writer.BeginSection(kSecMbrs);
  writer.Write(mbrs_.data(), mbrs_.size() * sizeof(Box));
  writer.EndSection();

  writer.BeginSection(kSecTableDir);
  for (std::size_t t = 0; t < tile_tables_.size(); ++t) {
    const TileTables* tt = tile_tables_[t].get();
    if (tt == nullptr) continue;
    SnapshotTableDirEntry dir{};
    dir.tile_id = static_cast<std::uint32_t>(t);
    for (std::size_t c = 0; c < kNumClasses; ++c) {
      for (std::size_t k = 0; k < 4; ++k) {
        dir.count[c][k] =
            static_cast<std::uint32_t>(tt->tables[c][k].size());
      }
    }
    writer.WriteValue(dir);
  }
  writer.EndSection();

  writer.BeginSection(kSecTableValues);
  for (const auto& tt : tile_tables_) {
    if (tt == nullptr) continue;
    for (const auto& class_tables : tt->tables) {
      for (const SortedTable& table : class_tables) {
        writer.Write(table.values.data(), table.size() * sizeof(Coord));
      }
    }
  }
  writer.EndSection();

  writer.BeginSection(kSecTableIds);
  for (const auto& tt : tile_tables_) {
    if (tt == nullptr) continue;
    for (const auto& class_tables : tt->tables) {
      for (const SortedTable& table : class_tables) {
        writer.Write(table.ids.data(), table.size() * sizeof(ObjectId));
      }
    }
  }
  writer.EndSection();

  return writer.Finalize(SizeBytes(), record_.entry_count());
}

Status TwoLayerPlusGrid::LoadFromReader(const SnapshotReader& reader,
                                        bool mapped, bool validate_ids) {
  // Deserialize into temporaries; *this is only touched by the commit at the
  // very end, so a failed load leaves the live index fully intact — in
  // particular, a failed LoadMapped must not leave any column viewing the
  // caller's about-to-be-unmapped file.
  TwoLayerGrid record(record_.layout());
  Status s = record.LoadSnapshotSections(reader, mapped);
  if (!s.ok()) return s;
  const GridLayout& g = record.layout();

  SnapshotReader::Span mbrs_span, dir_span, values_span, ids_span;
  if (Status f = reader.Find(kSecMbrs, &mbrs_span); !f.ok()) return f;
  if (Status f = reader.Find(kSecTableDir, &dir_span); !f.ok()) return f;
  if (Status f = reader.Find(kSecTableValues, &values_span); !f.ok()) {
    return f;
  }
  if (Status f = reader.Find(kSecTableIds, &ids_span); !f.ok()) return f;

  if (mbrs_span.size % sizeof(Box) != 0) {
    return Status::Corruption(
        "corrupt snapshot: MBR section not a Box array");
  }
  const std::size_t mbr_count = mbrs_span.size / sizeof(Box);
  if (dir_span.size % sizeof(SnapshotTableDirEntry) != 0) {
    return Status::Corruption(
        "corrupt snapshot: malformed table directory");
  }
  const std::size_t dir_count =
      dir_span.size / sizeof(SnapshotTableDirEntry);
  if (dir_count > g.tile_count()) {
    return Status::Corruption(
        "corrupt snapshot: more table directory entries than tiles");
  }

  // Validate the whole directory against the just-loaded record layer: the
  // two representations must describe identical per-tile partitions. The
  // running column total is capped by what the values section can hold so
  // the uint64 sum cannot wrap on a crafted file (each directory entry adds
  // at most 16 u32 counts between checks).
  std::vector<SnapshotTableDirEntry> dir(dir_count);
  if (dir_count > 0) {
    std::memcpy(dir.data(), dir_span.data, dir_span.size);
  }
  const std::uint64_t max_columns = values_span.size / sizeof(Coord);
  std::uint64_t column_total = 0;   // summed sorted-table lengths
  std::uint64_t entries_in_dir = 0; // record entries covered by the directory
  std::uint32_t prev_tile = 0;
  for (std::size_t d = 0; d < dir_count; ++d) {
    const SnapshotTableDirEntry& e = dir[d];
    if (e.tile_id >= g.tile_count() ||
        (d > 0 && e.tile_id <= prev_tile)) {
      return Status::Corruption(
          "corrupt snapshot: table directory tiles not strictly increasing");
    }
    prev_tile = e.tile_id;
    const auto i = static_cast<std::uint32_t>(e.tile_id % g.nx());
    const auto j = static_cast<std::uint32_t>(e.tile_id / g.nx());
    for (std::size_t c = 0; c < kNumClasses; ++c) {
      const auto cls = static_cast<ObjectClass>(c);
      const std::size_t expected = record.ClassCount(i, j, cls);
      for (std::size_t k = 0; k < 4; ++k) {
        const std::uint32_t n = e.count[c][k];
        const bool stored = TableStored(cls, static_cast<CoordKind>(k));
        if ((!stored && n != 0) || (stored && n != expected)) {
          return Status::Corruption(
              "corrupt snapshot: table sizes disagree with the record "
              "layer's partitions");
        }
        column_total += n;
      }
    }
    if (column_total > max_columns) {
      return Status::Corruption(
          "corrupt snapshot: table directory claims more columns than the "
          "values section holds");
    }
    entries_in_dir += record.ClassCount(i, j, ObjectClass::kA) +
                      record.ClassCount(i, j, ObjectClass::kB) +
                      record.ClassCount(i, j, ObjectClass::kC) +
                      record.ClassCount(i, j, ObjectClass::kD);
  }
  if (entries_in_dir != record.entry_count()) {
    return Status::Corruption(
        "corrupt snapshot: table directory misses tiles that hold entries");
  }
  if (Status f = ExpectSectionSize(values_span, column_total, sizeof(Coord),
                                   "table values");
      !f.ok()) {
    return f;
  }
  if (Status f = ExpectSectionSize(ids_span, column_total, sizeof(ObjectId),
                                   "table ids");
      !f.ok()) {
    return f;
  }

  const auto* values = reinterpret_cast<const Coord*>(values_span.data);
  const auto* ids = reinterpret_cast<const ObjectId*>(ids_span.data);
  if (validate_ids) {
    // One linear pass guaranteeing that every stored id can index the MBR
    // table (EvaluateClass dereferences it). Owned loads always pay it;
    // mapped loads pay it with verify_checksums (already an O(file) pass) —
    // CRCs alone only catch accidental corruption, not a crafted file with
    // internally consistent checksums.
    for (std::uint64_t x = 0; x < column_total; ++x) {
      if (ids[x] >= mbr_count) {
        return Status::Corruption(
            "corrupt snapshot: table id out of MBR-table range");
      }
    }
  }

  // Everything validated — materialize into locals. Only the directory walk
  // below touches pages in mapped mode; the value/id columns stay untouched
  // in the mapping.
  Column<Box> mbrs;
  if (mapped) {
    mbrs.SetView(reinterpret_cast<const Box*>(mbrs_span.data), mbr_count);
  } else {
    const auto* boxes = reinterpret_cast<const Box*>(mbrs_span.data);
    mbrs.vec().assign(boxes, boxes + mbr_count);
  }

  std::vector<std::unique_ptr<TileTables>> tables(g.tile_count());
  std::uint64_t cursor = 0;
  for (const SnapshotTableDirEntry& e : dir) {
    auto tt = std::make_unique<TileTables>();
    for (std::size_t c = 0; c < kNumClasses; ++c) {
      for (std::size_t k = 0; k < 4; ++k) {
        const std::uint32_t n = e.count[c][k];
        if (n == 0) continue;
        SortedTable& table = tt->tables[c][k];
        if (mapped) {
          table.values.SetView(values + cursor, n);
          table.ids.SetView(ids + cursor, n);
        } else {
          table.values.vec().assign(values + cursor, values + cursor + n);
          table.ids.vec().assign(ids + cursor, ids + cursor + n);
        }
        cursor += n;
      }
    }
    tables[e.tile_id] = std::move(tt);
  }

  record_ = std::move(record);
  mbrs_ = std::move(mbrs);
  tile_tables_ = std::move(tables);
  return Status::OK();
}

Status TwoLayerPlusGrid::Load(const std::string& path, FileSystem* fs) {
  SnapshotReader reader;
  Status s = reader.Open(path, SnapshotReader::Mode::kBuffered, fs);
  if (!s.ok()) return s;
  s = ExpectKind(reader, SnapshotIndexKind::kTwoLayerPlusGrid,
                 "TwoLayerPlusGrid");
  if (!s.ok()) return s;
  s = LoadFromReader(reader, /*mapped=*/false, /*validate_ids=*/true);
  if (!s.ok()) return s;
  snapshot_.reset();
  frozen_ = false;
  return Status::OK();
}

Status TwoLayerPlusGrid::LoadMapped(const std::string& path,
                                    bool verify_checksums, FileSystem* fs) {
  auto reader = std::make_unique<SnapshotReader>();
  Status s = reader->Open(path, SnapshotReader::Mode::kMapped, fs);
  if (!s.ok()) return s;
  if (verify_checksums) {
    s = reader->VerifyPayloadChecksums();
    if (!s.ok()) return s;
  }
  s = ExpectKind(*reader, SnapshotIndexKind::kTwoLayerPlusGrid,
                 "TwoLayerPlusGrid");
  if (!s.ok()) return s;
  s = LoadFromReader(*reader, /*mapped=*/true,
                     /*validate_ids=*/verify_checksums);
  if (!s.ok()) return s;
  // The mapping must outlive every column view pointing into it.
  snapshot_ = std::move(reader);
  frozen_ = true;
  return Status::OK();
}

Status TwoLayerPlusGrid::Thaw() {
  if (!frozen_) return Status::OK();
  record_.ThawStorage();
  mbrs_.Thaw();
  for (auto& tt : tile_tables_) {
    if (tt == nullptr) continue;
    for (auto& class_tables : tt->tables) {
      for (SortedTable& table : class_tables) {
        table.values.Thaw();
        table.ids.Thaw();
      }
    }
  }
  snapshot_.reset();
  frozen_ = false;
  return Status::OK();
}

}  // namespace tlp
