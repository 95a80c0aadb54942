// Bounds-checked binary serialization for message bodies. Fixed-width
// little-endian integers and length-prefixed byte strings — the minimal
// self-describing encoding a socket peer could parse without sharing
// process memory. Decoding errors throw WireError (which the service layer
// turns into error responses, never crashes).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/bytes.h"
#include "common/fingerprint.h"

namespace sigma::net {

class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// Appends typed values to a growing buffer.
class WireWriter {
 public:
  WireWriter() = default;
  explicit WireWriter(std::size_t reserve) { out_.reserve(reserve); }

  void u8(std::uint8_t v) { out_.push_back(v); }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  /// Length-prefixed byte string.
  void bytes(ByteView v) {
    u32(static_cast<std::uint32_t>(v.size()));
    out_.insert(out_.end(), v.begin(), v.end());
  }

  /// Raw fixed-width fingerprint (no length prefix).
  void fingerprint(const Fingerprint& fp) {
    out_.insert(out_.end(), fp.bytes().begin(), fp.bytes().end());
  }

  Buffer take() { return std::move(out_); }
  /// Everything written so far; invalidated by the next write.
  ByteView view() const { return ByteView{out_.data(), out_.size()}; }
  std::size_t size() const { return out_.size(); }

 private:
  Buffer out_;
};

/// Consumes typed values from a byte view, throwing WireError on underrun.
class WireReader {
 public:
  explicit WireReader(ByteView data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  /// Length-prefixed byte string; the view aliases the input buffer.
  ByteView bytes() {
    const std::uint32_t n = u32();
    need(n);
    ByteView v = data_.subspan(pos_, n);
    pos_ += n;
    return v;
  }

  Fingerprint fingerprint() {
    need(Fingerprint::kSize);
    Fingerprint fp =
        Fingerprint::from_bytes(data_.subspan(pos_, Fingerprint::kSize));
    pos_ += Fingerprint::kSize;
    return fp;
  }

  /// Read an element count and validate it against the bytes actually
  /// remaining (each element needs at least `min_element_bytes`), so a
  /// corrupt count raises WireError instead of sizing a huge container.
  std::uint32_t count(std::size_t min_element_bytes) {
    const std::uint32_t n = u32();
    if (min_element_bytes > 0 &&
        remaining() / min_element_bytes < static_cast<std::size_t>(n)) {
      throw WireError("wire: count " + std::to_string(n) +
                      " exceeds message body");
    }
    return n;
  }

  bool done() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

  /// Asserts the whole body was consumed — catches peer encoding drift.
  void expect_done() const {
    if (!done()) {
      throw WireError("wire: " + std::to_string(remaining()) +
                      " trailing bytes");
    }
  }

 private:
  void need(std::size_t n) const {
    if (data_.size() - pos_ < n) {
      throw WireError("wire: truncated message body");
    }
  }

  ByteView data_;
  std::size_t pos_ = 0;
};

}  // namespace sigma::net
