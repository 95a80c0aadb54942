#include "chunking/chunker.h"

#include <algorithm>
#include <bit>
#include <sstream>
#include <stdexcept>

#include "chunking/rabin.h"

namespace sigma {
namespace {

void check_power_of_two(std::uint32_t v, const char* what) {
  if (v == 0 || !std::has_single_bit(v)) {
    throw std::invalid_argument(std::string(what) +
                                " must be a power of two");
  }
}

// The boundary condition compares the masked hash to a fixed magic value;
// any constant works, but a non-zero magic avoids degenerate behaviour on
// all-zero data (where the rolling hash stays 0).
constexpr std::uint64_t kMagic = 0x78;

// Finds one chunk's cut in d[0, end) by rolling the Rabin hash over the
// bytes in place: the window ending at d[i] drops d[i - kWindowSize].
// Calls cut(h, len) with the hash of the window ending at d[len - 1], for
// every len in [min_size, end], and returns the first len it accepts, or
// 0 if it accepts none.
//
// A full window's hash depends only on the bytes in it, and no cut is
// tested below min_size, so the roll starts kWindowSize bytes before the
// first tested position (or at d[0], if that is closer): the bytes before
// it never affect a boundary. The hashes equal those of a RabinHash reset
// at d[0] and rolled over every byte.
template <typename Cut>
std::size_t scan_chunk(const RabinTables& t, const std::uint8_t* d,
                       std::size_t end, std::uint32_t min_size, Cut&& cut) {
  constexpr std::size_t kWindow = RabinHash::kWindowSize;
  if (min_size >= end) return 0;
  const std::size_t from = min_size > kWindow ? min_size - kWindow : 0;
  std::uint64_t h = 0;
  std::size_t i = from;
  for (; i < from + kWindow && i < end; ++i) {  // the window fills
    h = t.append_byte(h, d[i]);
    if (i + 1 >= min_size && cut(h, i + 1)) return i + 1;
  }
  for (; i < end; ++i) {
    h = t.slide(h, d[i - kWindow], d[i]);
    if (cut(h, i + 1)) return i + 1;
  }
  return 0;
}

std::string size_label(std::uint32_t bytes) {
  std::ostringstream os;
  if (bytes % 1024 == 0) {
    os << bytes / 1024 << "KB";
  } else {
    os << bytes << "B";
  }
  return os.str();
}

}  // namespace

FixedChunker::FixedChunker(std::uint32_t chunk_size)
    : chunk_size_(chunk_size) {
  if (chunk_size_ == 0) {
    throw std::invalid_argument("FixedChunker: chunk size must be > 0");
  }
}

std::vector<ChunkBoundary> FixedChunker::chunk(ByteView data) const {
  std::vector<ChunkBoundary> out;
  out.reserve(data.size() / chunk_size_ + 1);
  std::uint64_t offset = 0;
  while (offset < data.size()) {
    const std::uint32_t size = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(chunk_size_, data.size() - offset));
    out.push_back({offset, size});
    offset += size;
  }
  return out;
}

std::string FixedChunker::name() const {
  return "SC-" + size_label(chunk_size_);
}

CdcChunker::CdcChunker(std::uint32_t min_size, std::uint32_t avg_size,
                       std::uint32_t max_size)
    : min_size_(min_size), avg_size_(avg_size), max_size_(max_size) {
  check_power_of_two(avg_size, "CdcChunker: avg size");
  if (min_size == 0 || min_size > avg_size || avg_size > max_size) {
    throw std::invalid_argument("CdcChunker: need 0 < min <= avg <= max");
  }
  mask_ = avg_size_ - 1;
}

CdcChunker CdcChunker::with_average(std::uint32_t avg_size) {
  return CdcChunker(avg_size / 4, avg_size, avg_size * 4);
}

std::vector<ChunkBoundary> CdcChunker::chunk(ByteView data) const {
  const RabinTables& t = RabinTables::get();
  const std::uint64_t magic = kMagic & mask_;
  std::vector<ChunkBoundary> out;
  out.reserve(data.size() / avg_size_ + 1);

  std::size_t start = 0;
  while (start < data.size()) {
    const std::size_t end =
        std::min<std::size_t>(data.size() - start, max_size_);
    std::size_t len =
        scan_chunk(t, data.data() + start, end, min_size_,
                   [&](std::uint64_t h, std::size_t) {
                     return (h & mask_) == magic;
                   });
    if (len == 0) len = end;
    out.push_back({start, static_cast<std::uint32_t>(len)});
    start += len;
  }
  return out;
}

std::string CdcChunker::name() const {
  return "CDC-" + size_label(avg_size_);
}

TttdChunker::TttdChunker(std::uint32_t min_size, std::uint32_t minor_mean,
                         std::uint32_t major_mean, std::uint32_t max_size)
    : min_size_(min_size), max_size_(max_size) {
  check_power_of_two(minor_mean, "TttdChunker: minor mean");
  check_power_of_two(major_mean, "TttdChunker: major mean");
  if (!(min_size > 0 && min_size <= minor_mean && minor_mean <= major_mean &&
        major_mean <= max_size)) {
    throw std::invalid_argument(
        "TttdChunker: need 0 < min <= minor <= major <= max");
  }
  major_mask_ = major_mean - 1;
  minor_mask_ = minor_mean - 1;
}

TttdChunker TttdChunker::paper_default() {
  return TttdChunker(1024, 2048, 4096, 32768);
}

std::vector<ChunkBoundary> TttdChunker::chunk(ByteView data) const {
  const RabinTables& t = RabinTables::get();
  const std::uint64_t major_magic = kMagic & major_mask_;
  const std::uint64_t minor_magic = kMagic & minor_mask_;
  std::vector<ChunkBoundary> out;
  out.reserve(data.size() / (minor_mask_ + 1) + 1);

  std::size_t start = 0;
  while (start < data.size()) {
    const std::size_t remaining = data.size() - start;
    const std::size_t end = std::min<std::size_t>(remaining, max_size_);
    std::size_t backup_len = 0;  // last minor-divisor match in this chunk
    std::size_t len =
        scan_chunk(t, data.data() + start, end, min_size_,
                   [&](std::uint64_t h, std::size_t n) {
                     if ((h & major_mask_) == major_magic) return true;
                     if ((h & minor_mask_) == minor_magic) backup_len = n;
                     return false;
                   });
    // No major match by max: cut at the last minor match (the next chunk
    // rescans from there), failing that at max. Running out of data first
    // just ends the chunk.
    if (len == 0 && remaining >= max_size_) len = backup_len;
    if (len == 0) len = end;
    out.push_back({start, static_cast<std::uint32_t>(len)});
    start += len;
  }
  return out;
}

std::string TttdChunker::name() const { return "TTTD"; }

std::unique_ptr<Chunker> make_chunker(ChunkingScheme scheme,
                                      std::uint32_t avg_chunk_size) {
  switch (scheme) {
    case ChunkingScheme::kStatic:
      return std::make_unique<FixedChunker>(avg_chunk_size);
    case ChunkingScheme::kCdc:
      return std::make_unique<CdcChunker>(
          CdcChunker::with_average(avg_chunk_size));
    case ChunkingScheme::kTttd:
      return std::make_unique<TttdChunker>(TttdChunker::paper_default());
  }
  throw std::invalid_argument("make_chunker: unknown scheme");
}

const char* to_string(ChunkingScheme scheme) {
  switch (scheme) {
    case ChunkingScheme::kStatic:
      return "SC";
    case ChunkingScheme::kCdc:
      return "CDC";
    case ChunkingScheme::kTttd:
      return "TTTD";
  }
  return "?";
}

}  // namespace sigma
