#include "storage/container.h"

#include <stdexcept>

#include "net/wire.h"
#include "storage/durable_frame.h"

namespace sigma {
namespace {

// On-disk framing (format version 2): both the container file and its
// metadata sidecar are encoded with the bounds-checked wire codec and end
// in an FNV-1a checksum over everything before it, so recovery can tell a
// torn, truncated or bit-flipped file from a good one deterministically.
constexpr std::uint32_t kContainerMagic = 0x53444332;  // "SDC2"
constexpr std::uint32_t kMetadataMagic = 0x53444D32;   // "SDM2"
constexpr std::uint32_t kFormatVersion = 2;

/// Serialized size of one ChunkMeta entry.
constexpr std::size_t kMetaEntryBytes = Fingerprint::kSize + 8 + 4;

void write_meta_section(const std::vector<ChunkMeta>& metadata,
                        net::WireWriter& w) {
  w.u32(static_cast<std::uint32_t>(metadata.size()));
  for (const auto& m : metadata) {
    w.fingerprint(m.fp);
    w.u64(m.offset);
    w.u32(m.length);
  }
}

/// Reads and structurally validates a metadata section: entry offsets must
/// tile the data section contiguously from zero (the only layout append()
/// and append_meta() ever produce), so a decoded section is either exactly
/// a container's metadata or an error — never a partially plausible one.
std::vector<ChunkMeta> read_meta_section(net::WireReader& r) {
  const std::uint32_t count = r.count(kMetaEntryBytes);
  std::vector<ChunkMeta> metadata;
  metadata.reserve(count);
  std::uint64_t expected_offset = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    ChunkMeta m;
    m.fp = r.fingerprint();
    m.offset = r.u64();
    m.length = r.u32();
    if (m.offset != expected_offset) {
      throw net::WireError("container: non-contiguous chunk offsets");
    }
    expected_offset += m.length;
    metadata.push_back(m);
  }
  return metadata;
}

/// The fields before a container's metadata section.
struct Header {
  ContainerId id;
  bool has_payloads;
};

/// Reads and checks magic and format version, then id and payload flag.
Header read_header(net::WireReader& r) {
  if (r.u32() != kContainerMagic) {
    throw net::WireError("Container: bad magic");
  }
  if (const std::uint32_t v = r.u32(); v != kFormatVersion) {
    throw net::WireError("Container: unsupported format version " +
                         std::to_string(v));
  }
  const ContainerId id = r.u64();
  return {id, r.u8() != 0};
}

}  // namespace

std::uint64_t Container::append(const Fingerprint& fp, ByteView data) {
  if (!metadata_.empty() && !has_payloads()) {
    throw std::logic_error("Container: mixing append() and append_meta()");
  }
  const std::uint64_t offset = data_size_;
  metadata_.push_back(
      {fp, offset, static_cast<std::uint32_t>(data.size())});
  data_.insert(data_.end(), data.begin(), data.end());
  data_size_ += data.size();
  return offset;
}

void Container::append_meta(const Fingerprint& fp, std::uint32_t length) {
  if (!data_.empty()) {
    throw std::logic_error("Container: mixing append_meta() and append()");
  }
  metadata_.push_back({fp, data_size_, length});
  data_size_ += length;
}

ByteView Container::chunk_data(std::size_t index) const {
  if (index >= metadata_.size()) {
    throw std::out_of_range("Container: chunk index out of range");
  }
  if (!has_payloads()) {
    throw std::logic_error("Container: payloads not materialized");
  }
  const ChunkMeta& m = metadata_[index];
  return ByteView{data_.data() + m.offset, m.length};
}

Buffer Container::serialize() const {
  net::WireWriter w(64 + metadata_.size() * kMetaEntryBytes + data_.size());
  w.u32(kContainerMagic);
  w.u32(kFormatVersion);
  w.u64(id_);
  w.u8(has_payloads() ? 1 : 0);
  write_meta_section(metadata_, w);
  w.u64(data_size_);
  w.bytes(ByteView{data_.data(), data_.size()});
  return seal_frame(w);
}

Container Container::deserialize(ByteView blob) {
  net::WireReader r = open_frame(blob, "Container");
  const Header h = read_header(r);
  Container c(h.id);
  c.metadata_ = read_meta_section(r);
  c.data_size_ = r.u64();
  const ByteView data = r.bytes();
  r.expect_done();
  if (!c.metadata_.empty() &&
      c.metadata_.back().offset + c.metadata_.back().length != c.data_size_) {
    throw net::WireError("Container: metadata does not cover data section");
  }
  if (h.has_payloads) {
    if (data.size() != c.data_size_) {
      throw net::WireError("Container: payload section size mismatch");
    }
    c.data_.assign(data.begin(), data.end());
  } else if (!data.empty()) {
    throw net::WireError("Container: payload bytes in meta-only container");
  }
  return c;
}

std::uint64_t Container::data_section_start(ByteView header, ContainerId id) {
  net::WireReader r(header);
  const Header h = read_header(r);
  if (h.id != id) {
    throw net::WireError("Container: id does not match");
  }
  if (!h.has_payloads) {
    throw net::WireError("Container: payloads not materialized");
  }
  const std::uint64_t count = r.u32();
  // Header, metadata section, data-section size (u64) and the payload's
  // length prefix (u32) — the layout serialize() writes.
  return kHeaderBytes + count * kMetaEntryBytes + 8 + 4;
}

Buffer Container::serialize_metadata() const {
  net::WireWriter w(16 + metadata_.size() * kMetaEntryBytes);
  w.u32(kMetadataMagic);
  w.u32(kFormatVersion);
  write_meta_section(metadata_, w);
  return seal_frame(w);
}

std::vector<ChunkMeta> Container::deserialize_metadata(ByteView blob) {
  net::WireReader r = open_frame(blob, "Container metadata");
  if (r.u32() != kMetadataMagic) {
    throw net::WireError("Container metadata: bad magic");
  }
  if (const std::uint32_t v = r.u32(); v != kFormatVersion) {
    throw net::WireError("Container metadata: unsupported format version " +
                         std::to_string(v));
  }
  auto metadata = read_meta_section(r);
  r.expect_done();
  return metadata;
}

}  // namespace sigma
