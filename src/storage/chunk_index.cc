#include "storage/chunk_index.h"

namespace sigma {

void ChunkIndex::insert(const Fingerprint& fp, const ChunkLocation& loc) {
  inserts_.inc();
  MutexLock lock(mu_);
  map_.try_emplace(fp, loc);
}

std::optional<ChunkLocation> ChunkIndex::lookup(const Fingerprint& fp) {
  lookups_.inc();
  MutexLock lock(mu_);
  auto it = map_.find(fp);
  if (it == map_.end()) return std::nullopt;
  hits_.inc();
  return it->second;
}

std::optional<ChunkLocation> ChunkIndex::peek(const Fingerprint& fp) const {
  MutexLock lock(mu_);
  auto it = map_.find(fp);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

bool ChunkIndex::contains(const Fingerprint& fp) const {
  MutexLock lock(mu_);
  return map_.contains(fp);
}

std::size_t ChunkIndex::size() const {
  MutexLock lock(mu_);
  return map_.size();
}

ChunkIndexStats ChunkIndex::stats() const {
  return {lookups_.value(), hits_.value(), inserts_.value()};
}

std::uint64_t ChunkIndex::estimated_ram_bytes() const {
  return static_cast<std::uint64_t>(size()) * 40;
}

}  // namespace sigma
