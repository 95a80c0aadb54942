// Chunk-fingerprint cache (paper Section 3.3): an LRU cache of the
// fingerprint lists of recently accessed containers. A similarity-index hit
// prefetches the mapped container's whole metadata section here, so that
// the chunk-by-chunk duplicate test for the rest of the super-chunk is a
// RAM lookup instead of a disk index I/O — the locality-preserved caching
// idea of DDFS, keyed by similarity instead of by recency alone.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/fingerprint.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "storage/container.h"

namespace sigma {

/// Cache statistics: a view of the cache's counters.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;

  double hit_ratio() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// LRU cache of container fingerprint sets, capacity counted in containers.
/// Thread-safe.
class FingerprintCache {
 public:
  explicit FingerprintCache(std::size_t capacity_containers);

  /// Insert (or refresh) a container's fingerprint list.
  void insert(ContainerId id,
              const std::vector<ChunkMeta>& metadata);

  /// Is this container currently cached? (Does not touch LRU order.)
  bool contains_container(ContainerId id) const;

  /// Look up a chunk fingerprint across all cached containers. A hit
  /// returns the container and promotes it to most-recently-used.
  std::optional<ContainerId> lookup(const Fingerprint& fp);

  CacheStats stats() const;
  std::size_t cached_containers() const;
  std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    ContainerId id;
    std::vector<Fingerprint> fps;
  };
  using LruList = std::list<Entry>;

  void evict_one_locked() SIGMA_REQUIRES(mu_);
  void touch_locked(LruList::iterator it) SIGMA_REQUIRES(mu_);

  const std::size_t capacity_;
  mutable Mutex mu_{LockRank::kFingerprintCache};
  LruList lru_ SIGMA_GUARDED_BY(mu_);  // front = most recently used
  std::unordered_map<ContainerId, LruList::iterator> by_container_
      SIGMA_GUARDED_BY(mu_);
  // fp -> container holding it; rebuilt incrementally on insert/evict.
  std::unordered_map<Fingerprint, ContainerId> by_fp_ SIGMA_GUARDED_BY(mu_);
  // Not in any scrape, so the instruments live here rather than in a
  // registry.
  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter inserts_;
  obs::Counter evictions_;
};

}  // namespace sigma
