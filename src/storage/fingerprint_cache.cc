#include "storage/fingerprint_cache.h"

#include <stdexcept>

namespace sigma {

FingerprintCache::FingerprintCache(std::size_t capacity_containers)
    : capacity_(capacity_containers) {
  if (capacity_ == 0) {
    throw std::invalid_argument("FingerprintCache: capacity must be > 0");
  }
}

void FingerprintCache::insert(ContainerId id,
                              const std::vector<ChunkMeta>& metadata) {
  MutexLock lock(mu_);
  auto existing = by_container_.find(id);
  if (existing != by_container_.end()) {
    // Refresh in place: an open container grows between prefetches, so
    // replace the cached fingerprint list with the current metadata.
    Entry& entry = *existing->second;
    entry.fps.clear();
    entry.fps.reserve(metadata.size());
    for (const auto& m : metadata) {
      entry.fps.push_back(m.fp);
      by_fp_[m.fp] = id;
    }
    touch_locked(existing->second);
    return;
  }
  while (lru_.size() >= capacity_) evict_one_locked();

  Entry entry;
  entry.id = id;
  entry.fps.reserve(metadata.size());
  for (const auto& m : metadata) {
    entry.fps.push_back(m.fp);
    by_fp_[m.fp] = id;
  }
  lru_.push_front(std::move(entry));
  by_container_[id] = lru_.begin();
  inserts_.inc();
}

bool FingerprintCache::contains_container(ContainerId id) const {
  MutexLock lock(mu_);
  return by_container_.contains(id);
}

std::optional<ContainerId> FingerprintCache::lookup(const Fingerprint& fp) {
  MutexLock lock(mu_);
  auto it = by_fp_.find(fp);
  if (it == by_fp_.end()) {
    misses_.inc();
    return std::nullopt;
  }
  hits_.inc();
  auto entry_it = by_container_.find(it->second);
  if (entry_it != by_container_.end()) touch_locked(entry_it->second);
  return it->second;
}

CacheStats FingerprintCache::stats() const {
  return {hits_.value(), misses_.value(), inserts_.value(), evictions_.value()};
}

std::size_t FingerprintCache::cached_containers() const {
  MutexLock lock(mu_);
  return lru_.size();
}

void FingerprintCache::evict_one_locked() {
  if (lru_.empty()) return;
  const Entry& victim = lru_.back();
  for (const auto& fp : victim.fps) {
    auto it = by_fp_.find(fp);
    if (it != by_fp_.end() && it->second == victim.id) by_fp_.erase(it);
  }
  by_container_.erase(victim.id);
  lru_.pop_back();
  evictions_.inc();
}

void FingerprintCache::touch_locked(LruList::iterator it) {
  lru_.splice(lru_.begin(), lru_, it);
}

}  // namespace sigma
