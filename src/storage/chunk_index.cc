#include "storage/chunk_index.h"

namespace sigma {

void ChunkIndex::insert(const Fingerprint& fp, const ChunkLocation& loc) {
  MutexLock lock(mu_);
  map_.try_emplace(fp, loc);
}

std::optional<ChunkLocation> ChunkIndex::lookup(const Fingerprint& fp) const {
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

std::uint64_t ChunkIndex::estimated_ram_bytes() const {
  return static_cast<std::uint64_t>(size()) * 40;
}

}  // namespace sigma
