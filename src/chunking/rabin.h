// Rabin fingerprinting over GF(2): the rolling hash that drives content-
// defined chunking (CDC and TTTD). The paper's prototype bases its CDC on
// the Rabin-hash chunker from Cumulus; this is an independent from-scratch
// implementation of the same classic scheme (irreducible polynomial, sliding
// window, table-driven update).
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace sigma {

/// Rolling Rabin hash over a fixed-size byte window.
///
/// The hash value is the residue of the window's polynomial (bytes as
/// coefficients of x^8k) modulo an irreducible degree-53 polynomial, so the
/// value always fits in 53 bits. Once the window is full the value depends
/// only on the last kWindowSize bytes; before that, on all bytes rolled in.
///
/// The chunkers do not use this class: they roll RabinTables straight over
/// their input (chunker.cc). It is the reference their tests compare to.
class RabinHash {
 public:
  /// Sliding window width in bytes. 48 is the classic LBFS choice.
  static constexpr std::size_t kWindowSize = 48;

  /// Irreducible polynomial of degree 53 (LBFS poly).
  static constexpr std::uint64_t kPolynomial = 0x3DA3358B4DC173ull;
  static constexpr int kDegree = 53;

  RabinHash();

  /// Slide one byte into the window (and the oldest byte out once the
  /// window is full). Returns the updated hash value.
  std::uint64_t roll(std::uint8_t in);

  std::uint64_t value() const { return hash_; }

  /// Clear the window, e.g. at a chunk boundary. Resetting at boundaries
  /// makes chunking decisions independent across chunks, which is what
  /// TTTD expects.
  void reset();

  /// Hash an entire buffer in one shot (non-rolling); used by tests to
  /// cross-check the table-driven path against the reference path.
  static std::uint64_t hash_bytes(ByteView data);

 private:
  std::uint64_t hash_ = 0;
  std::array<std::uint8_t, kWindowSize> window_{};
  std::size_t pos_ = 0;
  std::size_t filled_ = 0;
};

/// The lookup tables behind the table-driven update, built once per
/// process. A caller that rolls over a buffer of its own fetches them once
/// and passes `data[pos - kWindowSize]` as the outgoing byte.
struct RabinTables {
  static constexpr std::uint64_t kMask = (1ull << RabinHash::kDegree) - 1;

  // append[t] = (t * x^53) mod P, for the 8 bits shifted past the modulus
  // on a one-byte append.
  std::array<std::uint64_t, 256> append;
  // out[b] = (b * x^{8*(W-1)}) mod P: the residue contributed by the
  // window's oldest byte, XORed out before the shift.
  std::array<std::uint64_t, 256> out;
  // slide_out[b] = (b * x^{8*W}) mod P: out[b] carried through the shift.
  std::array<std::uint64_t, 256> slide_out;

  static const RabinTables& get();

  /// Append one byte to a hash h < 2^53 (the window is not yet full).
  std::uint64_t append_byte(std::uint64_t h, std::uint8_t in) const {
    const std::uint64_t shifted = (h << 8) | in;
    return (shifted & kMask) ^ append[shifted >> RabinHash::kDegree];
  }

  /// Slide a full window one byte: drop `oldest`, append `in`. The update
  /// is linear, so `oldest` is XORed out after the shift rather than
  /// before; that leaves one shift, one load and one XOR between
  /// successive hashes.
  std::uint64_t slide(std::uint64_t h, std::uint8_t oldest,
                      std::uint8_t in) const {
    const std::uint64_t low = (((h << 8) & kMask) | in) ^ slide_out[oldest];
    return low ^ append[h >> (RabinHash::kDegree - 8)];
  }

 private:
  RabinTables();
};

namespace rabin_detail {

/// Reference (bitwise) polynomial append of one byte; exposed for tests.
std::uint64_t append_byte_reference(std::uint64_t hash, std::uint8_t byte);

}  // namespace rabin_detail

}  // namespace sigma
