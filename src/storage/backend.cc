#include "storage/backend.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "obs/trace.h"

namespace sigma {

StorageBackend::StorageBackend(obs::Registry* metrics,
                               const std::string& label)
    : metrics_(metrics),
      prefix_(label.empty() ? std::string("store.") : "store." + label + "."),
      reads_(metrics_->counter(prefix_ + "reads")),
      writes_(metrics_->counter(prefix_ + "writes")),
      bytes_read_(metrics_->counter(prefix_ + "bytes_read")),
      bytes_written_(metrics_->counter(prefix_ + "bytes_written")) {}

IoStats StorageBackend::stats() const {
  IoStats s;
  s.reads = reads_.value();
  s.writes = writes_.value();
  s.bytes_read = bytes_read_.value();
  s.bytes_written = bytes_written_.value();
  return s;
}

void MemoryBackend::put(const std::string& key, ByteView data) {
  {
    MutexLock lock(mu_);
    blobs_[key] = to_buffer(data);
  }
  record_write(data.size());
}

std::optional<Buffer> MemoryBackend::get(const std::string& key) {
  std::optional<Buffer> out;
  {
    MutexLock lock(mu_);
    auto it = blobs_.find(key);
    if (it != blobs_.end()) out = it->second;
  }
  if (out) record_read(out->size());
  return out;
}

std::optional<Buffer> MemoryBackend::get_range(const std::string& key,
                                               std::uint64_t offset,
                                               std::uint64_t len) {
  Buffer out;
  {
    MutexLock lock(mu_);
    auto it = blobs_.find(key);
    if (it == blobs_.end()) return std::nullopt;
    const Buffer& blob = it->second;
    if (offset > blob.size() || len > blob.size() - offset) {
      throw std::out_of_range("MemoryBackend: range past end of " + key);
    }
    const auto first = blob.begin() + static_cast<std::ptrdiff_t>(offset);
    out.assign(first, first + static_cast<std::ptrdiff_t>(len));
  }
  record_read(len);
  return out;
}

bool MemoryBackend::exists(const std::string& key) {
  MutexLock lock(mu_);
  return blobs_.contains(key);
}

void MemoryBackend::remove(const std::string& key) {
  MutexLock lock(mu_);
  blobs_.erase(key);
}

std::vector<std::string> MemoryBackend::keys() {
  MutexLock lock(mu_);
  std::vector<std::string> out;
  out.reserve(blobs_.size());
  for (const auto& [k, v] : blobs_) out.push_back(k);
  return out;
}

namespace {

bool ends_with_tmp_suffix(const std::string& name) {
  return name.size() >= FileBackend::kTmpSuffix.size() &&
         name.compare(name.size() - FileBackend::kTmpSuffix.size(),
                      FileBackend::kTmpSuffix.size(),
                      FileBackend::kTmpSuffix) == 0;
}

[[noreturn]] void throw_errno(const std::string& what,
                              const std::filesystem::path& path) {
  throw std::runtime_error("FileBackend: " + what + ": " + path.string() +
                           ": " + std::strerror(errno));
}

/// Closes a descriptor on scope exit, thrown-through or not.
class FdCloser {
 public:
  explicit FdCloser(int fd) : fd_(fd) {}
  ~FdCloser() { ::close(fd_); }
  FdCloser(const FdCloser&) = delete;
  FdCloser& operator=(const FdCloser&) = delete;

 private:
  int fd_;
};

void fsync_path(const std::filesystem::path& path, bool directory) {
  const int fd =
      ::open(path.c_str(), directory ? (O_RDONLY | O_DIRECTORY) : O_RDONLY);
  if (fd < 0) throw_errno("cannot open for fsync", path);
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("fsync failed", path);
  }
  ::close(fd);
}

}  // namespace

FileBackend::FileBackend(std::filesystem::path dir, bool fsync,
                         obs::Registry* metrics, const std::string& label)
    : StorageBackend(metrics, label),
      dir_(std::move(dir)),
      fsync_(fsync),
      put_us_(this->metrics().histogram(prefix() + "put_us")),
      fsync_us_(this->metrics().histogram(prefix() + "fsync_us")) {
  std::filesystem::create_directories(dir_);
  // A crashed writer can leave *.inprogress temps behind; they were never
  // visible as keys and must not become visible now.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.is_regular_file() &&
        ends_with_tmp_suffix(entry.path().filename().string())) {
      std::filesystem::remove(entry.path());
    }
  }
}

std::filesystem::path FileBackend::path_for(const std::string& key) const {
  // Keys are generated internally (container ids, index shards) and never
  // contain path separators; reject anything suspicious outright. The
  // temp-file suffix is reserved so a key can never collide with an
  // in-progress write.
  if (key.empty() || key.find('/') != std::string::npos ||
      key.find("..") != std::string::npos || ends_with_tmp_suffix(key)) {
    throw std::invalid_argument("FileBackend: invalid key: " + key);
  }
  return dir_ / key;
}

void FileBackend::put(const std::string& key, ByteView data) {
  // Child of the daemon's svc.WriteSuperChunk span (via the thread-local
  // context); a no-op on unsampled requests and flush paths.
  obs::SpanScope span("store.put");
  obs::ScopedTimer put_timer(put_us_);
  std::uint64_t fsync_us = 0;
  const auto path = path_for(key);
  // The slow phase — writing and (optionally) fsyncing the payload —
  // happens on a per-call temp file OUTSIDE mu_, so a multi-millisecond
  // container-seal fsync never blocks concurrent reads on the node.
  auto tmp = path;
  tmp += '.';
  tmp += std::to_string(tmp_seq_.fetch_add(1));
  tmp += kTmpSuffix;
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("cannot open for write", tmp);
  std::size_t written = 0;
  while (written < data.size()) {
    const ::ssize_t n =
        ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      std::filesystem::remove(tmp);
      errno = saved;
      throw_errno("short write", tmp);
    }
    written += static_cast<std::size_t>(n);
  }
  if (fsync_) {
    obs::SpanScope fsync_span("store.fsync");
    const auto fsync_start = std::chrono::steady_clock::now();
    if (::fsync(fd) != 0) {
      const int saved = errno;
      ::close(fd);
      std::filesystem::remove(tmp);
      errno = saved;
      throw_errno("fsync failed", tmp);
    }
    fsync_us += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - fsync_start)
            .count());
  }
  if (::close(fd) != 0) {
    std::filesystem::remove(tmp);
    throw_errno("close failed", tmp);
  }
  {
    MutexLock lock(mu_);
    // Atomic publish: a crash before this rename leaves only the temp
    // file (swept on the next startup); after it, the complete blob.
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
      std::filesystem::remove(tmp);
      throw std::runtime_error("FileBackend: rename failed: " +
                               path.string() + ": " + ec.message());
    }
    if (fsync_) {
      obs::SpanScope fsync_span("store.fsync");
      const auto fsync_start = std::chrono::steady_clock::now();
      fsync_path(dir_, /*directory=*/true);
      fsync_us += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - fsync_start)
              .count());
    }
  }
  if (fsync_) fsync_us_.observe(fsync_us);
  record_write(data.size());
}

std::optional<Buffer> FileBackend::get(const std::string& key) {
  const auto path = path_for(key);
  Buffer buf;
  {
    MutexLock lock(mu_);
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) return std::nullopt;
    const std::streamsize size = in.tellg();
    in.seekg(0);
    buf.resize(static_cast<std::size_t>(size));
    in.read(reinterpret_cast<char*>(buf.data()), size);
    if (!in) {
      throw std::runtime_error("FileBackend: short read: " + path.string());
    }
  }
  record_read(buf.size());
  return buf;
}

std::optional<Buffer> FileBackend::get_range(const std::string& key,
                                             std::uint64_t offset,
                                             std::uint64_t len) {
  const auto path = path_for(key);
  // No mu_: a published file is never rewritten in place (put renames a
  // finished temp over it), so an open descriptor sees one whole version.
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return std::nullopt;
    throw_errno("cannot open for read", path);
  }
  const FdCloser closer(fd);
  struct ::stat st {};
  if (::fstat(fd, &st) != 0) throw_errno("cannot stat", path);
  const auto size = static_cast<std::uint64_t>(st.st_size);
  if (offset > size || len > size - offset) {
    throw std::out_of_range("FileBackend: range past end of " +
                            path.string());
  }
  Buffer buf(static_cast<std::size_t>(len));
  for (std::uint64_t got = 0; got < len;) {
    const ::ssize_t n = ::pread(fd, buf.data() + got, len - got,
                                static_cast<::off_t>(offset + got));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) throw_errno("read failed", path);
    if (n == 0) {
      throw std::runtime_error("FileBackend: short read: " + path.string());
    }
    got += static_cast<std::uint64_t>(n);
  }
  record_read(len);
  return buf;
}

bool FileBackend::exists(const std::string& key) {
  MutexLock lock(mu_);
  return std::filesystem::exists(path_for(key));
}

void FileBackend::remove(const std::string& key) {
  MutexLock lock(mu_);
  std::filesystem::remove(path_for(key));
}

std::vector<std::string> FileBackend::keys() {
  MutexLock lock(mu_);
  std::vector<std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (!entry.is_regular_file()) continue;  // foreign subdirs etc.
    std::string name = entry.path().filename().string();
    if (ends_with_tmp_suffix(name)) continue;  // never-published temp
    out.push_back(std::move(name));
  }
  return out;
}

}  // namespace sigma
