// Per-node durable metadata: a small versioned manifest written into the
// node's storage backend when a daemon first opens a data directory, and
// validated on every restart. It pins the directory to one node identity
// (node id + fleet endpoint) and records the storage format version, so a
// daemon refuses — with a precise error, before serving anything — to
// recover a directory written by a different node, a remapped endpoint,
// or an incompatible on-disk format.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/bytes.h"
#include "storage/backend.h"

namespace sigma {

/// Backend key the manifest lives under (alongside container-<id> blobs).
inline constexpr const char* kManifestKey = "node.manifest";

struct NodeManifest {
  /// On-disk format version this directory was written with. Bump when
  /// the container or manifest encoding changes incompatibly.
  static constexpr std::uint32_t kVersion = 3;

  std::uint32_t version = kVersion;
  /// Daemon-local node id that owns this directory.
  std::uint64_t node_id = 0;
  /// Fleet-wide endpoint id the node serves at (0 when not deployed
  /// behind a transport).
  std::uint64_t endpoint = 0;
  /// Open-container seal threshold the data was written with
  /// (informational; safe to change across restarts).
  std::uint64_t container_capacity_bytes = 0;

  /// Wire-codec encoding with magic and trailing checksum.
  Buffer encode() const;
  /// Throws net::WireError on truncation, corruption or bad magic.
  static NodeManifest decode(ByteView blob);

  friend bool operator==(const NodeManifest&, const NodeManifest&) = default;
};

/// Reads and decodes the manifest; std::nullopt when none is stored.
/// Decoding errors propagate (a corrupt manifest must refuse startup, not
/// silently re-initialize the directory).
std::optional<NodeManifest> load_manifest(StorageBackend& backend);

/// Writes the manifest (atomic + durable with a fsyncing FileBackend).
void store_manifest(StorageBackend& backend, const NodeManifest& manifest);

/// Validates a loaded manifest against the identity a daemon is starting
/// with; throws std::runtime_error naming the mismatched field.
void check_manifest(const NodeManifest& stored, std::uint64_t node_id,
                    std::uint64_t endpoint);

}  // namespace sigma
