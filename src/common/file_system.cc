#include "common/file_system.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/env.h"

namespace tlp {

WritableFile::~WritableFile() = default;
FileSystem::~FileSystem() = default;

std::string DirnameOf(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

namespace {

Status Errno(const std::string& path, const char* what) {
  return Status::IoError(path + ": " + what + ": " + ErrnoMessage(errno));
}

/// Buffered append-only POSIX file. Buffering matters: the snapshot writer
/// emits many small records (a 20-byte begins blob per tile), and one
/// write(2) per record would turn a 16M-tile save into 16M syscalls.
/// Without `durable`, Sync() flushes the buffer but skips the fsync(2).
class PosixWritableFile final : public WritableFile {
 public:
  PosixWritableFile(std::string path, int fd, bool durable)
      : path_(std::move(path)), fd_(fd), durable_(durable) {}

  ~PosixWritableFile() override {
    if (fd_ >= 0) {
      (void)FlushBuffer().ok();  // best effort
      ::close(fd_);
    }
  }

  Status Append(const void* data, std::size_t n) override {
    if (fd_ < 0) return Status::IoError(path_ + ": append on closed file");
    const auto* p = static_cast<const unsigned char*>(data);
    if (buffer_.size() + n <= kBufferCap) {
      buffer_.insert(buffer_.end(), p, p + n);
      return Status::OK();
    }
    Status s = FlushBuffer();
    if (!s.ok()) return s;
    if (n <= kBufferCap / 2) {
      buffer_.insert(buffer_.end(), p, p + n);
      return Status::OK();
    }
    return WriteAll(p, n);
  }

  Status WriteAt(std::uint64_t offset, const void* data,
                 std::size_t n) override {
    if (fd_ < 0) return Status::IoError(path_ + ": write on closed file");
    // The buffer holds bytes logically *after* anything written so far, so
    // it must land in the file before an absolute-offset overwrite.
    Status s = FlushBuffer();
    if (!s.ok()) return s;
    const auto* p = static_cast<const unsigned char*>(data);
    std::size_t done = 0;
    while (done < n) {
      const ssize_t w = ::pwrite(fd_, p + done, n - done,
                                 static_cast<off_t>(offset + done));
      if (w < 0) {
        if (errno == EINTR) continue;
        return Errno(path_, "pwrite failed");
      }
      done += static_cast<std::size_t>(w);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (fd_ < 0) return Status::IoError(path_ + ": sync on closed file");
    Status s = FlushBuffer();
    if (!s.ok()) return s;
    if (durable_ && ::fsync(fd_) != 0) return Errno(path_, "fsync failed");
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    Status s = FlushBuffer();
    const int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0 && s.ok()) s = Errno(path_, "close failed");
    return s;
  }

 private:
  static constexpr std::size_t kBufferCap = 1 << 16;

  Status FlushBuffer() {
    if (buffer_.empty()) return Status::OK();
    Status s = WriteAll(buffer_.data(), buffer_.size());
    buffer_.clear();
    return s;
  }

  Status WriteAll(const unsigned char* p, std::size_t n) {
    std::size_t done = 0;
    while (done < n) {
      const ssize_t w = ::write(fd_, p + done, n - done);
      if (w < 0) {
        if (errno == EINTR) continue;
        return Errno(path_, "write failed");
      }
      done += static_cast<std::size_t>(w);
    }
    return Status::OK();
  }

  std::string path_;
  int fd_;
  const bool durable_;
  std::vector<unsigned char> buffer_;
};

class PosixFileSystem final : public FileSystem {
 public:
  explicit PosixFileSystem(bool durable) : durable_(durable) {}

  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<WritableFile>* out) override {
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return Errno(path, "cannot create");
    *out = std::make_unique<PosixWritableFile>(path, fd, durable_);
    return Status::OK();
  }

  Status ReadFile(const std::string& path,
                  std::vector<unsigned char>* out) override {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return Errno(path, "cannot open");
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      const Status s = Errno(path, "cannot stat");
      ::close(fd);
      return s;
    }
    if (!S_ISREG(st.st_mode)) {
      ::close(fd);
      return Status::IoError(path + ": not a regular file");
    }
    out->resize(static_cast<std::size_t>(st.st_size));
    std::size_t done = 0;
    while (done < out->size()) {
      const ssize_t r =
          ::read(fd, out->data() + done, out->size() - done);
      if (r < 0) {
        if (errno == EINTR) continue;
        const Status s = Errno(path, "read failed");
        ::close(fd);
        return s;
      }
      if (r == 0) break;  // shrank underneath us
      done += static_cast<std::size_t>(r);
    }
    ::close(fd);
    if (done != out->size()) return Status::IoError(path + ": short read");
    return Status::OK();
  }

  Status MapReadOnly(const std::string& path, MappedFile* out) override {
    std::string error;
    if (!MappedFile::Open(path, out, &error)) return Status::IoError(error);
    return Status::OK();
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return Errno(from, ("rename to '" + to + "' failed").c_str());
    }
    return Status::OK();
  }

  Status RemoveFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) return Errno(path, "remove failed");
    return Status::OK();
  }

  Status SyncDir(const std::string& path) override {
    if (!durable_) return Status::OK();
    const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) return Errno(path, "cannot open directory");
    if (::fsync(fd) != 0) {
      const Status s = Errno(path, "directory fsync failed");
      ::close(fd);
      return s;
    }
    ::close(fd);
    return Status::OK();
  }

  Status Truncate(const std::string& path, std::uint64_t size) override {
    if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
      return Errno(path, "truncate failed");
    }
    return Status::OK();
  }

  bool FileExists(const std::string& path) override {
    return ::access(path.c_str(), F_OK) == 0;
  }

  Status ListDir(const std::string& path,
                 std::vector<std::string>* names) override {
    names->clear();
    DIR* dir = ::opendir(path.c_str());
    if (dir == nullptr) return Errno(path, "cannot list directory");
    // readdir-per-DIR-stream is thread-safe on every libc we target; the
    // _r variant is deprecated in glibc and this stream is function-local.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    while (const struct dirent* entry = ::readdir(dir)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      names->push_back(name);
    }
    ::closedir(dir);
    return Status::OK();
  }

 private:
  const bool durable_;
};

}  // namespace

FileSystem* FileSystem::Default() {
  static PosixFileSystem* posix = new PosixFileSystem(/*durable=*/true);
  return posix;  // never destroyed
}

FileSystem* FileSystem::NonDurable() {
  static PosixFileSystem* posix = new PosixFileSystem(/*durable=*/false);
  return posix;  // never destroyed
}

}  // namespace tlp
