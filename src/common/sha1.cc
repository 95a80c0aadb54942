#include "common/sha1.h"

#include <bit>
#include <cstring>
#include <stdexcept>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#define SIGMA_SHA1_X86 1
#endif

namespace sigma {
namespace {

constexpr std::uint32_t rotl(std::uint32_t x, int n) {
  return std::rotl(x, n);
}

// The reference kernel (RFC 3174 §6.1), one 64-byte block at a time. It is
// the fallback on CPUs without SHA-NI and the oracle the tests hold the
// SHA-NI kernel to.
void compress_scalar(std::uint32_t* state, const std::uint8_t* blocks,
                     std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, blocks += Sha1::kBlockSize) {
    const std::uint8_t* block = blocks;
    std::uint32_t w[80];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
             (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(block[4 * i + 3]);
    }
    for (int i = 16; i < 80; ++i) {
      w[i] = rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
                  e = state[4];

    for (int i = 0; i < 80; ++i) {
      std::uint32_t f, k;
      if (i < 20) {
        f = (b & c) | (~b & d);
        k = 0x5A827999u;
      } else if (i < 40) {
        f = b ^ c ^ d;
        k = 0x6ED9EBA1u;
      } else if (i < 60) {
        f = (b & c) | (b & d) | (c & d);
        k = 0x8F1BBCDCu;
      } else {
        f = b ^ c ^ d;
        k = 0xCA62C1D6u;
      }
      const std::uint32_t tmp = rotl(a, 5) + f + e + k + w[i];
      e = d;
      d = c;
      c = rotl(b, 30);
      b = a;
      a = tmp;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
  }
}

#ifdef SIGMA_SHA1_X86

// SHA-NI kernel (Gulley et al., "Intel SHA Extensions", 2013). The 80
// rounds run as 20 groups of four: group g consumes message words
// W[4g, 4g+4), held in w[g % 4], with round function g / 5. Each group's
// E input is derived by sha1nexte from the ABCD the group before started
// from (`prev`).
#define SIGMA_SHA_TARGET __attribute__((target("sha,sse4.1"), always_inline))

// W[4g..4g+3] from the four message quads before it.
SIGMA_SHA_TARGET inline __m128i next_message(__m128i w4, __m128i w3,
                                             __m128i w2, __m128i w1) {
  return _mm_sha1msg2_epu32(_mm_xor_si128(_mm_sha1msg1_epu32(w4, w3), w2),
                            w1);
}

template <int G>
SIGMA_SHA_TARGET inline void round_group(__m128i& abcd, __m128i& prev,
                                         __m128i (&w)[4]) {
  if constexpr (G >= 4) {
    w[G % 4] = next_message(w[G % 4], w[(G + 1) % 4], w[(G + 2) % 4],
                            w[(G + 3) % 4]);
  }
  const __m128i e = _mm_sha1nexte_epu32(prev, w[G % 4]);
  prev = abcd;
  abcd = _mm_sha1rnds4_epu32(abcd, e, G / 5);
}

template <int... G>
SIGMA_SHA_TARGET inline void round_groups(__m128i& abcd, __m128i& prev,
                                          __m128i (&w)[4],
                                          std::integer_sequence<int, G...>) {
  (round_group<G + 1>(abcd, prev, w), ...);
}

__attribute__((target("sha,sse4.1"))) void compress_shani(
    std::uint32_t* state, const std::uint8_t* blocks, std::size_t nblocks) {
  // Byte-swaps each 32-bit word and reverses the word order, so lane 3
  // holds the block's first big-endian word.
  const __m128i kBswap = _mm_set_epi64x(0x0001020304050607ll,
                                        0x08090a0b0c0d0e0fll);
  __m128i abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0x1B);
  __m128i e0 = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);

  for (; nblocks > 0; --nblocks, blocks += Sha1::kBlockSize) {
    const __m128i abcd_save = abcd;
    const __m128i e_save = e0;
    __m128i w[4];
    for (int i = 0; i < 4; ++i) {
      w[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)),
          kBswap);
    }
    // Group 0 takes E straight from the chaining value.
    __m128i prev = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, _mm_add_epi32(e0, w[0]), 0);
    round_groups(abcd, prev, w, std::make_integer_sequence<int, 19>{});
    // E after the last group, plus the chaining value's E.
    e0 = _mm_sha1nexte_epu32(prev, e_save);
    abcd = _mm_add_epi32(abcd, abcd_save);
  }

  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_shuffle_epi32(abcd, 0x1B));
  state[4] = static_cast<std::uint32_t>(_mm_extract_epi32(e0, 3));
}

#undef SIGMA_SHA_TARGET

// Reads cpuid directly rather than __builtin_cpu_supports, whose CPU model
// is filled in by a libgcc constructor that may not have run yet when a
// static initialiser hashes something.
bool cpu_has_shani() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool ssse3 = (ecx & bit_SSSE3) != 0;
  const bool sse41 = (ecx & bit_SSE4_1) != 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  const bool sha = (ebx & (1u << 29)) != 0;
  return sha && ssse3 && sse41;
}

#else

bool cpu_has_shani() { return false; }

#endif  // SIGMA_SHA1_X86

}  // namespace

Sha1::Kernel Sha1::detected_kernel() {
  static const Kernel kernel =
      cpu_has_shani() ? Kernel::kShaNi : Kernel::kScalar;
  return kernel;
}

Sha1::Sha1(Kernel kernel) : kernel_(kernel), compress_(compress_scalar) {
  if (kernel == Kernel::kShaNi && detected_kernel() != Kernel::kShaNi) {
    throw std::invalid_argument("Sha1: this CPU has no SHA-NI");
  }
#ifdef SIGMA_SHA1_X86
  if (kernel == Kernel::kShaNi) compress_ = compress_shani;
#endif
  reset();
}

void Sha1::reset() {
  state_ = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};
  length_ = 0;
  buffered_ = 0;
}

void Sha1::update(ByteView data) {
  length_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();

  if (buffered_ > 0 && n > 0) {
    const std::size_t take = std::min(n, kBlockSize - buffered_);
    std::memcpy(buffer_.data() + buffered_, p, take);
    buffered_ += take;
    p += take;
    n -= take;
    if (buffered_ == kBlockSize) {
      compress_(state_.data(), buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  if (n >= kBlockSize) {
    const std::size_t nblocks = n / kBlockSize;
    compress_(state_.data(), p, nblocks);
    p += nblocks * kBlockSize;
    n -= nblocks * kBlockSize;
  }
  if (n > 0) {
    std::memcpy(buffer_.data(), p, n);
    buffered_ = n;
  }
}

Sha1::Digest Sha1::finish() {
  const std::uint64_t bit_length = length_ * 8;

  // Pad in place: 0x80, zeros, then the 64-bit big-endian bit length in
  // the last 8 bytes. A tail past byte 55 leaves no room for the length,
  // so it spills into a second block.
  buffer_[buffered_++] = 0x80;
  if (buffered_ > kBlockSize - 8) {
    std::memset(buffer_.data() + buffered_, 0, kBlockSize - buffered_);
    compress_(state_.data(), buffer_.data(), 1);
    buffered_ = 0;
  }
  std::memset(buffer_.data() + buffered_, 0, kBlockSize - 8 - buffered_);
  for (int i = 0; i < 8; ++i) {
    buffer_[kBlockSize - 8 + i] =
        static_cast<std::uint8_t>(bit_length >> (56 - 8 * i));
  }
  compress_(state_.data(), buffer_.data(), 1);

  Digest out;
  for (int i = 0; i < 5; ++i) {
    out[4 * i + 0] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

const char* to_string(Sha1::Kernel kernel) {
  switch (kernel) {
    case Sha1::Kernel::kScalar:
      return "scalar";
    case Sha1::Kernel::kShaNi:
      return "shani";
  }
  return "?";
}

}  // namespace sigma
