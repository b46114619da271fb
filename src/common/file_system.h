#ifndef TLP_COMMON_FILE_SYSTEM_H_
#define TLP_COMMON_FILE_SYSTEM_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/status.h"

namespace tlp {

/// A file being written through a FileSystem. Writes buffer in userspace;
/// nothing is guaranteed on stable storage until Sync() returns OK. Errors
/// are returned, never thrown — a full disk is an expected condition for a
/// serving system, not an exceptional one.
class WritableFile {
 public:
  virtual ~WritableFile();

  /// Appends `n` bytes at the current end of file.
  virtual Status Append(const void* data, std::size_t n) = 0;

  /// Writes `n` bytes at absolute `offset` (used for the snapshot header
  /// rewrite). Does not move the append position.
  virtual Status WriteAt(std::uint64_t offset, const void* data,
                         std::size_t n) = 0;

  /// Flushes userspace buffers and fsync()s file contents to stable
  /// storage. After OK, the bytes written so far survive a crash.
  virtual Status Sync() = 0;

  /// Flushes and closes. Idempotent; the destructor closes (best effort,
  /// errors dropped) if the caller never did.
  virtual Status Close() = 0;
};

/// Pluggable filesystem boundary (LevelDB's Env pattern): every file
/// operation the persistence and dataset-I/O layers perform goes through
/// this interface, so tests can substitute a FaultInjectingFs and make
/// ENOSPC, short writes, fsync failures, and crash points reproducible in
/// unit tests. Production code uses Default(), the POSIX implementation.
///
/// All methods are thread-safe in the POSIX implementation; a WritableFile
/// itself must only be used from one thread at a time.
class FileSystem {
 public:
  virtual ~FileSystem();

  /// The process-wide POSIX filesystem. Never null; not owned.
  static FileSystem* Default();

  /// Default() without the fsync(2) calls: WritableFile::Sync() still
  /// flushes userspace buffers to the kernel and SyncDir() returns OK, so
  /// every reader sees exactly what it would under Default(); only
  /// power-loss durability is gone. For tests that sweep thousands of
  /// failure points and assert what a reader sees after each one, where a
  /// real fsync (tens of milliseconds on some disks) would dominate the
  /// run. Never null; not owned.
  static FileSystem* NonDurable();

  /// Creates (or truncates) `path` for writing.
  virtual Status NewWritableFile(const std::string& path,
                                 std::unique_ptr<WritableFile>* out) = 0;

  /// Reads the entire regular file at `path` into `*out`.
  virtual Status ReadFile(const std::string& path,
                          std::vector<unsigned char>* out) = 0;

  /// Memory-maps `path` read-only (zero-copy snapshot loads).
  virtual Status MapReadOnly(const std::string& path, MappedFile* out) = 0;

  /// Atomically renames `from` onto `to` (POSIX rename(2) semantics: `to`
  /// is replaced as a unit; readers see the old file or the new one, never
  /// a mix). The final step of a crash-safe snapshot save.
  virtual Status RenameFile(const std::string& from,
                            const std::string& to) = 0;

  /// Removes `path`. Removing a file that does not exist is an error.
  virtual Status RemoveFile(const std::string& path) = 0;

  /// fsync()s the directory at `path`, persisting directory entries created
  /// or renamed inside it (without this a power loss can forget a
  /// just-renamed file even though its contents were synced).
  virtual Status SyncDir(const std::string& path) = 0;

  /// Truncates the regular file at `path` to its first `size` bytes.
  virtual Status Truncate(const std::string& path, std::uint64_t size) = 0;

  /// True when `path` exists (any file type).
  virtual bool FileExists(const std::string& path) = 0;

  /// Lists the entry names (not paths; "." and ".." excluded) of the
  /// directory at `path`.
  virtual Status ListDir(const std::string& path,
                         std::vector<std::string>* names) = 0;
};

/// The directory part of `path` ("." when it has none) — where SyncDir must
/// point after renaming `path` into place.
std::string DirnameOf(const std::string& path);

/// Resolves an optional filesystem argument: `fs` when non-null, else
/// FileSystem::Default(). The persistence entry points take `FileSystem*`
/// defaulted to nullptr so ordinary callers never mention the abstraction.
inline FileSystem* ResolveFs(FileSystem* fs) {
  return fs != nullptr ? fs : FileSystem::Default();
}

}  // namespace tlp

#endif  // TLP_COMMON_FILE_SYSTEM_H_
