// Parallel container management (paper Section 3.3): a dedicated open
// container per data stream, sealed and persisted to the backend as one
// self-describing blob when it fills, with container-granularity metadata
// reads and chunk-granularity restore reads, both ranged reads of that
// blob. This is the locality-preserving store underneath the similarity
// index and the fingerprint cache.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "storage/backend.h"
#include "storage/container.h"

namespace sigma {

/// Identifies one backup data stream; each stream owns an open container.
using StreamId = std::uint32_t;

/// Where a stored chunk lives: enough to read it back with one ranged
/// read of its container, without loading the rest.
struct ChunkLocation {
  ContainerId container = kInvalidContainer;
  std::uint32_t index = 0;   // position within the container's metadata
  std::uint32_t length = 0;  // chunk bytes
  std::uint64_t offset = 0;  // within the container's data section
};

class ContainerStore {
 public:
  /// `capacity_bytes` — seal threshold for open containers (paper-style
  /// default 4 MB). `backend` must outlive the store.
  ContainerStore(StorageBackend& backend, std::uint64_t capacity_bytes);

  /// Append a chunk payload to `stream`'s open container, sealing it first
  /// if the chunk would not fit. Returns the location of the chunk.
  ChunkLocation append(StreamId stream, const Fingerprint& fp, ByteView data);

  /// Metadata-only append for trace-driven simulation (no payload bytes).
  ChunkLocation append_meta(StreamId stream, const Fingerprint& fp,
                            std::uint32_t length);

  /// Seal and persist every open container.
  void flush();

  /// Read a container's metadata section. Open containers answer from
  /// memory; a sealed one costs two ranged reads — its fixed header, then
  /// the metadata section and its checksum, which are verified (with the
  /// header) before parsing. Payload bytes are never read.
  std::vector<ChunkMeta> read_metadata(ContainerId id) const;

  /// Read one chunk's payload (for restore). Requires payload
  /// materialization. Open containers answer from memory; a sealed one
  /// costs two ranged reads — its fixed header, then exactly the chunk's
  /// bytes. The container checksum is not verified on this path (it is at
  /// recovery); restore checks each chunk against its fingerprint.
  Buffer read_chunk(const ChunkLocation& loc) const;

  /// Total bytes accounted to stored chunks (physical usage).
  std::uint64_t stored_bytes() const;

  /// Number of containers ever allocated.
  std::uint64_t container_count() const;

  /// Containers currently open (unsealed).
  std::size_t open_container_count() const;

  /// Is this container still open (mutable)? Cached metadata of an open
  /// container goes stale as the container grows; callers must refresh.
  bool is_open(ContainerId id) const;

  /// Recovery support: make sure future container ids start at or after
  /// `min_next`, and credit `bytes` of pre-existing stored data.
  void restore_state(ContainerId min_next, std::uint64_t bytes);

  /// Backend key of a sealed container blob ("container-<id>").
  static std::string container_key(ContainerId id);
  /// Parses a backend key of the container_key() form back to an id;
  /// std::nullopt for manifests and foreign files.
  static std::optional<ContainerId> parse_container_key(
      const std::string& key);

 private:
  Container& open_container_for(StreamId stream, std::uint64_t upcoming)
      SIGMA_REQUIRES(mu_);
  // seal calls backend_.put under mu_ — the one storage-plane nesting
  // (kContainerStore before kStorageBackend in the rank order).
  void seal_locked(StreamId stream) SIGMA_REQUIRES(mu_);

  StorageBackend& backend_;
  const std::uint64_t capacity_bytes_;

  mutable Mutex mu_{LockRank::kContainerStore};
  std::unordered_map<StreamId, std::unique_ptr<Container>> open_
      SIGMA_GUARDED_BY(mu_);
  std::uint64_t next_id_ SIGMA_GUARDED_BY(mu_) = 0;
  std::uint64_t stored_bytes_ SIGMA_GUARDED_BY(mu_) = 0;
};

}  // namespace sigma
