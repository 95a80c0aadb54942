// Traditional full chunk index (fingerprint -> chunk location). In a real
// deployment this lives on disk and is the bottleneck the similarity index
// is designed to avoid (paper Sections 1 and 3.3: "we also maintain a
// traditional hash-table based chunk fingerprint index on disk to support
// further comparison after in-cache fingerprint lookup fails").
//
// We keep the table in memory. The simulated disk accesses are metered by
// the caller: DedupNode counts `node.<n>.disk_index_lookups` for the
// lookups its write path makes after the cache and Bloom filter miss, so
// benches can report "disk index I/Os avoided" — the quantity the paper's
// design optimizes. Probe and restore lookups model RAM-resident sampling
// and are not counted.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "common/fingerprint.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "storage/container_store.h"

namespace sigma {

/// Exact fingerprint -> location map. Thread-safe.
class ChunkIndex {
 public:
  ChunkIndex() = default;

  /// Record a chunk's location. Existing entries keep their first location
  /// (a duplicate store would be a bug upstream).
  void insert(const Fingerprint& fp, const ChunkLocation& loc);

  std::optional<ChunkLocation> lookup(const Fingerprint& fp) const;

  bool contains(const Fingerprint& fp) const;

  std::size_t size() const;

  /// Estimated RAM a fully memory-resident index would need (40 B/entry,
  /// the figure the paper uses in its RAM comparison).
  std::uint64_t estimated_ram_bytes() const;

 private:
  mutable Mutex mu_{LockRank::kChunkIndex};
  std::unordered_map<Fingerprint, ChunkLocation> map_ SIGMA_GUARDED_BY(mu_);
};

}  // namespace sigma
