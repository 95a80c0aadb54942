#include "chunking/rabin.h"

namespace sigma {
namespace {

constexpr int kDegree = RabinHash::kDegree;

// Reduce a polynomial of degree <= 60 modulo kPolynomial.
constexpr std::uint64_t reduce(std::uint64_t v) {
  for (int bit = 60; bit >= kDegree; --bit) {
    if (v & (1ull << bit)) {
      v ^= RabinHash::kPolynomial << (bit - kDegree);
    }
  }
  return v;
}

}  // namespace

namespace rabin_detail {

std::uint64_t append_byte_reference(std::uint64_t hash, std::uint8_t byte) {
  for (int i = 7; i >= 0; --i) {
    hash = (hash << 1) | ((byte >> i) & 1u);
    if (hash & (1ull << kDegree)) hash ^= RabinHash::kPolynomial;
  }
  return hash;
}

}  // namespace rabin_detail

RabinTables::RabinTables() {
  for (int t = 0; t < 256; ++t) {
    append[static_cast<std::size_t>(t)] =
        reduce(static_cast<std::uint64_t>(t) << kDegree);
  }
  for (int b = 0; b < 256; ++b) {
    std::uint64_t h = static_cast<std::uint64_t>(b);
    for (std::size_t i = 0; i + 1 < RabinHash::kWindowSize; ++i) {
      h = rabin_detail::append_byte_reference(h, 0);
    }
    out[static_cast<std::size_t>(b)] = h;
    slide_out[static_cast<std::size_t>(b)] =
        rabin_detail::append_byte_reference(h, 0);
  }
}

const RabinTables& RabinTables::get() {
  static const RabinTables t;
  return t;
}

RabinHash::RabinHash() {
  (void)RabinTables::get();  // force table construction before first roll
}

void RabinHash::reset() {
  hash_ = 0;
  window_.fill(0);
  pos_ = 0;
  filled_ = 0;
}

std::uint64_t RabinHash::roll(std::uint8_t in) {
  const RabinTables& t = RabinTables::get();
  if (filled_ == kWindowSize) {
    const std::uint8_t out = window_[pos_];
    hash_ ^= t.out[out];
  } else {
    ++filled_;
  }
  window_[pos_] = in;
  pos_ = (pos_ + 1) % kWindowSize;
  hash_ = t.append_byte(hash_, in);
  return hash_;
}

std::uint64_t RabinHash::hash_bytes(ByteView data) {
  std::uint64_t h = 0;
  for (std::uint8_t b : data) {
    h = rabin_detail::append_byte_reference(h, b);
  }
  return h;
}

}  // namespace sigma
