// Self-describing containers (paper Section 3.3, after [Zhu08/DDFS]):
// the on-disk unit of locality. A container has a data section holding
// chunk payloads and a metadata section holding per-chunk (fingerprint,
// offset, length). Dedup-path disk accesses happen at container
// granularity — a similarity-index hit prefetches the whole metadata
// section, read out of the sealed blob's self-verifying prefix, into the
// chunk-fingerprint cache — while a restore read uses a chunk's recorded
// offset and length to fetch only that chunk.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/fingerprint.h"

namespace sigma {

using ContainerId = std::uint64_t;
inline constexpr ContainerId kInvalidContainer = ~0ull;

/// Metadata-section entry for one chunk.
struct ChunkMeta {
  Fingerprint fp;
  std::uint64_t offset = 0;  // within the data section
  std::uint32_t length = 0;

  friend bool operator==(const ChunkMeta&, const ChunkMeta&) = default;
};

/// An in-memory container being filled (the "open container" of a stream)
/// or loaded back from the backend.
///
/// Payload storage is optional: trace-driven simulations append metadata
/// only (`append_meta`), which keeps the physical-usage accounting and the
/// locality structure identical while avoiding payload memory.
class Container {
 public:
  explicit Container(ContainerId id) : id_(id) {}

  ContainerId id() const { return id_; }

  /// Append a chunk payload. Returns the chunk's offset in the data
  /// section.
  std::uint64_t append(const Fingerprint& fp, ByteView data);

  /// Append metadata for a chunk whose payload is not materialized.
  void append_meta(const Fingerprint& fp, std::uint32_t length);

  /// Bytes accounted to this container (payload lengths, whether or not
  /// the payload is materialized).
  std::uint64_t data_size() const { return data_size_; }

  std::size_t chunk_count() const { return metadata_.size(); }
  const std::vector<ChunkMeta>& metadata() const { return metadata_; }

  /// Payload of the i-th chunk. Throws if payloads were not materialized.
  ByteView chunk_data(std::size_t index) const;

  /// True if append() was used (payload bytes available).
  bool has_payloads() const { return data_.size() == data_size_; }

  /// Serialize to a flat blob: header, metadata section and its checksum,
  /// data section, then a checksum over the whole blob.
  Buffer serialize() const;
  static Container deserialize(ByteView blob);

  /// Size of a serialized container's fixed header (magic, version, id,
  /// payload flag, chunk count) — the first ranged read of a sealed blob.
  static constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 1 + 4;

  /// Validates the first kHeaderBytes of a serialized container — magic,
  /// format version, id == `id` — and returns the length of its
  /// self-verifying prefix: header, metadata section and the checksum
  /// over both. Throws net::WireError otherwise.
  static std::uint64_t metadata_prefix_bytes(ByteView header, ContainerId id);

  /// Parses a container's metadata from exactly that prefix after the same
  /// header checks and its checksum. Throws net::WireError otherwise.
  static std::vector<ChunkMeta> parse_metadata_prefix(ByteView prefix,
                                                      ContainerId id);

  /// The header checks of metadata_prefix_bytes(), plus payloads present;
  /// returns the blob offset where the data section starts (chunk
  /// `offset`s are relative to it). Neither checksum is checked: a ranged
  /// chunk read never sees them.
  static std::uint64_t data_section_start(ByteView header, ContainerId id);

 private:
  ContainerId id_;
  std::vector<ChunkMeta> metadata_;
  Buffer data_;
  std::uint64_t data_size_ = 0;
};

}  // namespace sigma
