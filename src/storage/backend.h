// Storage backend abstraction for persisted structures (sealed containers,
// on-disk index shards). Two implementations:
//   * MemoryBackend — for tests and the trace-driven cluster simulation;
//   * FileBackend   — real files under a directory, used by the examples.
// Both count I/O so benches can report disk-access behaviour uniformly.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace sigma {

/// I/O counters of one backend: a view of its `store.[<label>.]*`
/// registry counters.
struct IoStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
};

/// Key-value blob store. Keys are flat strings ("container-42").
/// Thread-safe.
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  virtual void put(const std::string& key, ByteView data) = 0;
  /// Returns std::nullopt if the key does not exist.
  virtual std::optional<Buffer> get(const std::string& key) = 0;
  /// Bytes [offset, offset + len) of the blob under `key`; std::nullopt if
  /// the key does not exist. Throws if the range runs past the blob's end
  /// — a short answer would be a torn read, never a valid one. Counts
  /// `len` bytes read, not the blob's size.
  virtual std::optional<Buffer> get_range(const std::string& key,
                                          std::uint64_t offset,
                                          std::uint64_t len) = 0;
  virtual bool exists(const std::string& key) = 0;
  virtual void remove(const std::string& key) = 0;
  virtual std::vector<std::string> keys() = 0;

  IoStats stats() const;

 protected:
  /// Counts into `metrics` (must outlive the backend) under
  /// `store.[<label>.]`, or into a private registry when null.
  StorageBackend(obs::Registry* metrics, const std::string& label);

  /// The backend's registry and metric-name prefix, for subclasses'
  /// own instruments.
  obs::Registry& metrics() const { return *metrics_; }
  const std::string& prefix() const { return prefix_; }

  void record_read(std::uint64_t bytes) {
    reads_.inc();
    bytes_read_.inc(bytes);
  }
  void record_write(std::uint64_t bytes) {
    writes_.inc();
    bytes_written_.inc(bytes);
  }

 private:
  obs::RegistryRef metrics_;
  std::string prefix_;
  obs::Counter& reads_;
  obs::Counter& writes_;
  obs::Counter& bytes_read_;
  obs::Counter& bytes_written_;
};

/// In-memory backend.
class MemoryBackend final : public StorageBackend {
 public:
  explicit MemoryBackend(obs::Registry* metrics = nullptr,
                         const std::string& label = {})
      : StorageBackend(metrics, label) {}

  void put(const std::string& key, ByteView data) override;
  std::optional<Buffer> get(const std::string& key) override;
  std::optional<Buffer> get_range(const std::string& key,
                                  std::uint64_t offset,
                                  std::uint64_t len) override;
  bool exists(const std::string& key) override;
  void remove(const std::string& key) override;
  std::vector<std::string> keys() override;

 private:
  Mutex mu_{LockRank::kStorageBackend};
  std::unordered_map<std::string, Buffer> blobs_ SIGMA_GUARDED_BY(mu_);
};

/// Directory-of-files backend. Keys map to file names; the directory is
/// created on construction (stale in-progress temp files from a crashed
/// writer are swept away then).
///
/// `put` is atomic with respect to crashes: data is written to a temp
/// file and renamed into place, so a reader (in particular crash
/// recovery) only ever sees a key fully written or not at all. With
/// `fsync` enabled the payload is fsynced before the rename and the
/// directory after it — the durability policy node daemons use so a
/// sealed container survives power loss, not just process death. A
/// published file is therefore immutable, which is why `get_range` reads
/// it with a plain `pread` and no lock.
class FileBackend final : public StorageBackend {
 public:
  /// Each put records its whole-call latency (`store.[<label>.]put_us`)
  /// and, when fsync is enabled, the durability portion — payload fsync
  /// plus directory fsync — separately (`store.[<label>.]fsync_us`), in
  /// `metrics` (must outlive the backend) or a private registry.
  explicit FileBackend(std::filesystem::path dir, bool fsync = false,
                       obs::Registry* metrics = nullptr,
                       const std::string& label = {});

  void put(const std::string& key, ByteView data) override;
  std::optional<Buffer> get(const std::string& key) override;
  std::optional<Buffer> get_range(const std::string& key,
                                  std::uint64_t offset,
                                  std::uint64_t len) override;
  bool exists(const std::string& key) override;
  void remove(const std::string& key) override;
  /// Lists stored keys: regular files only, in-progress temps excluded.
  std::vector<std::string> keys() override;

  const std::filesystem::path& dir() const { return dir_; }
  bool fsync_enabled() const { return fsync_; }

  /// Suffix of in-progress temp files (never valid in a key).
  static constexpr std::string_view kTmpSuffix = ".inprogress";

 private:
  std::filesystem::path path_for(const std::string& key) const;

  std::filesystem::path dir_;
  const bool fsync_;
  obs::Histogram& put_us_;
  obs::Histogram& fsync_us_;
  /// Makes each put's temp file unique, so the slow write+fsync phase
  /// runs outside mu_ without two puts ever sharing a temp path.
  std::atomic<std::uint64_t> tmp_seq_{0};
  /// Guards the externally visible directory state (rename-into-place +
  /// directory fsync, remove) rather than any member — the files ARE the
  /// guarded data, which is why no member carries SIGMA_GUARDED_BY(mu_).
  Mutex mu_{LockRank::kStorageBackend};
};

}  // namespace sigma
