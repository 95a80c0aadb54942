// Traditional full chunk index (fingerprint -> chunk location). In a real
// deployment this lives on disk and is the bottleneck the similarity index
// is designed to avoid (paper Sections 1 and 3.3: "we also maintain a
// traditional hash-table based chunk fingerprint index on disk to support
// further comparison after in-cache fingerprint lookup fails").
//
// We keep the table in memory but meter every lookup/insert as a simulated
// disk access, so benches can report "disk index I/Os avoided" — the
// quantity the paper's design optimizes.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "common/fingerprint.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "storage/container_store.h"

namespace sigma {

/// A view of the index's counters.
struct ChunkIndexStats {
  std::uint64_t lookups = 0;  // simulated disk reads
  std::uint64_t hits = 0;
  std::uint64_t inserts = 0;  // simulated disk writes
};

/// Exact fingerprint -> location map with disk-access metering.
/// Thread-safe.
class ChunkIndex {
 public:
  ChunkIndex() = default;

  /// Record a chunk's location. Existing entries keep their first location
  /// (a duplicate store would be a bug upstream).
  void insert(const Fingerprint& fp, const ChunkLocation& loc);

  /// Metered lookup (counts as a disk access).
  std::optional<ChunkLocation> lookup(const Fingerprint& fp);

  /// Unmetered lookup, for routing probes and test assertions that model
  /// RAM-resident sampling rather than the on-disk path.
  std::optional<ChunkLocation> peek(const Fingerprint& fp) const;

  bool contains(const Fingerprint& fp) const;

  std::size_t size() const;
  ChunkIndexStats stats() const;

  /// Estimated RAM a fully memory-resident index would need (40 B/entry,
  /// the figure the paper uses in its RAM comparison).
  std::uint64_t estimated_ram_bytes() const;

 private:
  mutable Mutex mu_{LockRank::kChunkIndex};
  std::unordered_map<Fingerprint, ChunkLocation> map_ SIGMA_GUARDED_BY(mu_);
  // Not in any scrape (a node reports its own disk_index_lookups), so
  // the instruments live here rather than in a registry.
  obs::Counter lookups_;
  obs::Counter hits_;
  obs::Counter inserts_;
};

}  // namespace sigma
