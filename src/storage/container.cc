#include "storage/container.h"

#include <stdexcept>

#include "common/hash_util.h"
#include "net/wire.h"
#include "storage/durable_frame.h"

namespace sigma {
namespace {

// On-disk framing (format version 3), encoded with the bounds-checked
// wire codec: header, metadata section, an FNV-1a checksum over those two,
// data section, and a checksum over everything before it. The first
// checksum makes the metadata prefix a ranged read can verify on its own;
// the second lets recovery tell a torn, truncated or bit-flipped file from
// a good one deterministically.
constexpr std::uint32_t kContainerMagic = 0x53444332;  // "SDC2"
constexpr std::uint32_t kFormatVersion = 3;

/// Serialized size of one ChunkMeta entry.
constexpr std::size_t kMetaEntryBytes = Fingerprint::kSize + 8 + 4;

/// Header, metadata section and the checksum over both.
std::uint64_t prefix_bytes(std::uint32_t count) {
  return Container::kHeaderBytes + count * std::uint64_t{kMetaEntryBytes} + 8;
}

/// The fields before a container's metadata section.
struct Header {
  ContainerId id;
  bool has_payloads;
  std::uint32_t count;
};

/// Reads and checks magic and format version, then id, payload flag and
/// chunk count.
Header read_header(net::WireReader& r) {
  if (r.u32() != kContainerMagic) {
    throw net::WireError("Container: bad magic");
  }
  if (const std::uint32_t v = r.u32(); v != kFormatVersion) {
    throw net::WireError("Container: unsupported format version " +
                         std::to_string(v));
  }
  const ContainerId id = r.u64();
  const bool has_payloads = r.u8() != 0;
  return {id, has_payloads, r.u32()};
}

/// read_header() that also requires the id a caller asked for.
Header read_header(net::WireReader& r, ContainerId id) {
  const Header h = read_header(r);
  if (h.id != id) {
    throw net::WireError("Container: id does not match");
  }
  return h;
}

/// Reads and structurally validates the metadata section that follows the
/// header at the start of `blob`, then its checksum: entry offsets must
/// tile the data section contiguously from zero (the only layout append()
/// and append_meta() ever produce), so a decoded section is either exactly
/// a container's metadata or an error — never a partially plausible one.
std::vector<ChunkMeta> read_meta_section(net::WireReader& r,
                                         std::uint32_t count, ByteView blob) {
  if (r.remaining() / kMetaEntryBytes < count) {
    throw net::WireError("Container: chunk count exceeds blob");
  }
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
  if (r.u64() != fnv1a64(blob.subspan(0, prefix_bytes(count) - 8))) {
    throw net::WireError("Container: metadata checksum mismatch");
  }
  return metadata;
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
  w.u32(static_cast<std::uint32_t>(metadata_.size()));
  for (const auto& m : metadata_) {
    w.fingerprint(m.fp);
    w.u64(m.offset);
    w.u32(m.length);
  }
  w.u64(fnv1a64(w.view()));
  w.u64(data_size_);
  w.bytes(ByteView{data_.data(), data_.size()});
  return seal_frame(w);
}

Container Container::deserialize(ByteView blob) {
  net::WireReader r = open_frame(blob, "Container");
  const Header h = read_header(r);
  Container c(h.id);
  c.metadata_ = read_meta_section(r, h.count, blob);
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

std::uint64_t Container::metadata_prefix_bytes(ByteView header,
                                               ContainerId id) {
  net::WireReader r(header);
  return prefix_bytes(read_header(r, id).count);
}

std::vector<ChunkMeta> Container::parse_metadata_prefix(ByteView prefix,
                                                        ContainerId id) {
  net::WireReader r(prefix);
  const Header h = read_header(r, id);
  auto metadata = read_meta_section(r, h.count, prefix);
  r.expect_done();
  return metadata;
}

std::uint64_t Container::data_section_start(ByteView header, ContainerId id) {
  net::WireReader r(header);
  const Header h = read_header(r, id);
  if (!h.has_payloads) {
    throw net::WireError("Container: payloads not materialized");
  }
  // The metadata prefix, the data-section size (u64) and the payload's
  // length prefix (u32) — the layout serialize() writes.
  return prefix_bytes(h.count) + 8 + 4;
}

}  // namespace sigma
