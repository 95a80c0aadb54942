// The backup client (paper Section 3.1): the source side of source inline
// deduplication. For each backup session it
//   * partitions every file's data into chunks (data partitioning module),
//   * fingerprints each chunk (chunk fingerprinting module),
//   * groups consecutive chunks of the session stream into super-chunks
//     and routes each one via the cluster's routing scheme (data routing
//     module),
//   * sends the super-chunk's fingerprints as one batched duplicate-test
//     query and transfers only unique chunk payloads, and
//   * records file recipes with the director for restore.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/director.h"
#include "common/thread_pool.h"
#include "workload/dataset.h"

namespace sigma {

struct BackupClientConfig {
  ChunkingScheme chunking = ChunkingScheme::kStatic;
  std::uint32_t chunk_bytes = 4096;
  HashAlgorithm hash = HashAlgorithm::kSha1;
  std::uint64_t super_chunk_bytes = 1ull << 20;
  /// Threads for client-side chunking + fingerprinting (the dominant
  /// client cost; serial it caps write-pipeline overlap around depth 4).
  /// 0 = one per hardware thread (capped at 8), 1 = serial.
  std::size_t hash_threads = 0;
};

/// Outcome of one backup session from the client's perspective.
struct BackupSummary {
  std::uint64_t logical_bytes = 0;
  std::uint64_t transferred_bytes = 0;  // unique payloads only
  std::uint64_t chunk_count = 0;
  std::uint64_t super_chunk_count = 0;
  double elapsed_seconds = 0.0;

  /// Bytes saved per second — the paper's deduplication-efficiency metric
  /// (Eq. 6).
  double dedup_efficiency() const {
    return elapsed_seconds <= 0.0
               ? 0.0
               : static_cast<double>(logical_bytes - transferred_bytes) /
                     elapsed_seconds;
  }
};

class BackupClient {
 public:
  BackupClient(const BackupClientConfig& config, Cluster& cluster,
               Director& director);

  /// Back up one session of files. `stream` identifies this client's data
  /// stream for per-stream open containers on the nodes.
  BackupSummary backup(const ContentBackup& session, StreamId stream = 0);

  /// Restore one file from its recipe. Reads a window of recipe entries
  /// at a time, all in flight together, and re-hashes every chunk with the
  /// configured algorithm against its recipe fingerprint. Throws if the
  /// recipe or a chunk is missing, or a chunk's content does not match.
  Buffer restore(const std::string& session, const std::string& path) const;

 private:
  /// Run fn(i) for i in [0, n), striped across the hash pool (or inline
  /// when the pool is absent or the job smaller than min_per_shard items
  /// per worker — pass 1 for coarse items like whole files).
  void parallel_over(std::size_t n, std::size_t min_per_shard,
                     const std::function<void(std::size_t)>& fn) const;

  BackupClientConfig config_;
  Cluster& cluster_;
  Director& director_;
  std::size_t hash_threads_;  // resolved from config (1 = serial)
  /// Created on the first job large enough to shard, so restore-only and
  /// small-session clients never pay for idle threads.
  mutable std::once_flag hash_pool_once_;
  mutable std::unique_ptr<ThreadPool> hash_pool_;
};

}  // namespace sigma
