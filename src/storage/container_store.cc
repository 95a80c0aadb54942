#include "storage/container_store.h"

#include <stdexcept>

namespace sigma {

ContainerStore::ContainerStore(StorageBackend& backend,
                               std::uint64_t capacity_bytes)
    : backend_(backend), capacity_bytes_(capacity_bytes) {
  if (capacity_bytes_ == 0) {
    throw std::invalid_argument("ContainerStore: capacity must be > 0");
  }
}

std::string ContainerStore::container_key(ContainerId id) {
  return "container-" + std::to_string(id);
}

std::optional<ContainerId> ContainerStore::parse_container_key(
    const std::string& key) {
  constexpr std::string_view kPrefix = "container-";
  if (key.size() <= kPrefix.size() ||
      key.compare(0, kPrefix.size(), kPrefix) != 0) {
    return std::nullopt;
  }
  // Strictly digits after the prefix: temp or backup copies
  // ("container-3.bak") and foreign files ("container-junk") are not
  // container blobs.
  ContainerId id = 0;
  for (std::size_t i = kPrefix.size(); i < key.size(); ++i) {
    const char c = key[i];
    if (c < '0' || c > '9') return std::nullopt;
    if (id > (kInvalidContainer - (c - '0')) / 10) return std::nullopt;
    id = id * 10 + static_cast<ContainerId>(c - '0');
  }
  // The sentinel is not an allocatable id; admitting it would wrap
  // restore_state(id + 1) back to 0.
  if (id == kInvalidContainer) return std::nullopt;
  return id;
}

Container& ContainerStore::open_container_for(StreamId stream,
                                              std::uint64_t upcoming) {
  auto it = open_.find(stream);
  if (it == open_.end()) {
    it = open_.emplace(stream, std::make_unique<Container>(next_id_++)).first;
  } else if (it->second->data_size() + upcoming > capacity_bytes_ &&
             it->second->chunk_count() > 0) {
    seal_locked(stream);
    it = open_.emplace(stream, std::make_unique<Container>(next_id_++)).first;
  }
  return *it->second;
}

void ContainerStore::seal_locked(StreamId stream) {
  auto it = open_.find(stream);
  if (it == open_.end() || it->second->chunk_count() == 0) return;
  backend_.put(container_key(it->second->id()), it->second->serialize());
  open_.erase(it);
}

ChunkLocation ContainerStore::append(StreamId stream, const Fingerprint& fp,
                                     ByteView data) {
  MutexLock lock(mu_);
  Container& c = open_container_for(stream, data.size());
  const std::uint64_t offset = c.append(fp, data);
  stored_bytes_ += data.size();
  return {c.id(), static_cast<std::uint32_t>(c.chunk_count() - 1),
          static_cast<std::uint32_t>(data.size()), offset};
}

ChunkLocation ContainerStore::append_meta(StreamId stream,
                                          const Fingerprint& fp,
                                          std::uint32_t length) {
  MutexLock lock(mu_);
  Container& c = open_container_for(stream, length);
  const std::uint64_t offset = c.data_size();
  c.append_meta(fp, length);
  stored_bytes_ += length;
  return {c.id(), static_cast<std::uint32_t>(c.chunk_count() - 1), length,
          offset};
}

void ContainerStore::flush() {
  MutexLock lock(mu_);
  std::vector<StreamId> streams;
  streams.reserve(open_.size());
  for (const auto& [stream, c] : open_) streams.push_back(stream);
  for (StreamId s : streams) seal_locked(s);
}

std::vector<ChunkMeta> ContainerStore::read_metadata(ContainerId id) const {
  {
    MutexLock lock(mu_);
    for (const auto& [stream, c] : open_) {
      if (c->id() == id) return c->metadata();
    }
  }
  // Sealed: the fixed header sizes the metadata section; one more ranged
  // read fetches the section and the checksum that covers it and the
  // header, so the prefix verifies without touching payload bytes.
  const std::string key = container_key(id);
  std::optional<Buffer> prefix =
      backend_.get_range(key, 0, Container::kHeaderBytes);
  std::optional<Buffer> section;
  if (prefix) {
    const std::uint64_t len = Container::metadata_prefix_bytes(*prefix, id);
    section = backend_.get_range(key, Container::kHeaderBytes,
                                 len - Container::kHeaderBytes);
  }
  if (!section) {
    throw std::runtime_error("ContainerStore: unknown container " +
                             std::to_string(id));
  }
  prefix->insert(prefix->end(), section->begin(), section->end());
  return Container::parse_metadata_prefix(*prefix, id);
}

Buffer ContainerStore::read_chunk(const ChunkLocation& loc) const {
  {
    MutexLock lock(mu_);
    for (const auto& [stream, c] : open_) {
      if (c->id() == loc.container) {
        ByteView v = c->chunk_data(loc.index);
        return Buffer(v.begin(), v.end());
      }
    }
  }
  // Sealed: the fixed header proves the blob is this payload container
  // and places its data section; the chunk is then one exact-length read.
  const std::string key = container_key(loc.container);
  std::optional<Buffer> chunk;
  if (const auto header =
          backend_.get_range(key, 0, Container::kHeaderBytes)) {
    const std::uint64_t start =
        Container::data_section_start(*header, loc.container);
    chunk = backend_.get_range(key, start + loc.offset, loc.length);
  }
  if (!chunk) {
    throw std::runtime_error("ContainerStore: unknown container " +
                             std::to_string(loc.container));
  }
  return std::move(*chunk);
}

std::uint64_t ContainerStore::stored_bytes() const {
  MutexLock lock(mu_);
  return stored_bytes_;
}

std::uint64_t ContainerStore::container_count() const {
  MutexLock lock(mu_);
  return next_id_;
}

std::size_t ContainerStore::open_container_count() const {
  MutexLock lock(mu_);
  return open_.size();
}

void ContainerStore::restore_state(ContainerId min_next,
                                   std::uint64_t bytes) {
  MutexLock lock(mu_);
  next_id_ = std::max(next_id_, min_next);
  stored_bytes_ += bytes;
}

bool ContainerStore::is_open(ContainerId id) const {
  MutexLock lock(mu_);
  for (const auto& [stream, c] : open_) {
    if (c->id() == id) return true;
  }
  return false;
}

}  // namespace sigma
