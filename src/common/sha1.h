// SHA-1 implementation (RFC 3174). Built from scratch: the paper's
// prototype fingerprints chunks with SHA-1 via OpenSSL; we provide our own
// so the library has no external crypto dependency.
//
// Two block-compression kernels compute the same function: a portable
// scalar one and one on the x86 SHA extensions (SHA-NI). The hasher uses
// SHA-NI when cpuid reports SHA, SSSE3 and SSE4.1, and the scalar kernel
// otherwise; the choice is made once per process.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/bytes.h"

namespace sigma {

/// Incremental SHA-1 hasher.
///
/// Usage:
///   Sha1 h;
///   h.update(data);
///   auto digest = h.finish();   // 20 bytes
///
/// After finish() the object must be reset() before reuse.
class Sha1 {
 public:
  static constexpr std::size_t kDigestSize = 20;
  static constexpr std::size_t kBlockSize = 64;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  /// Block-compression kernel.
  enum class Kernel { kScalar, kShaNi };

  /// The kernel this CPU runs: kShaNi when cpuid reports SHA, SSSE3 and
  /// SSE4.1 (and the build targets x86), else kScalar.
  static Kernel detected_kernel();

  Sha1() : Sha1(detected_kernel()) {}

  /// Hash with a specific kernel; tests compare the kernels against each
  /// other. Throws std::invalid_argument for kShaNi on a CPU without it.
  explicit Sha1(Kernel kernel);

  Kernel kernel() const { return kernel_; }

  /// Absorb more input.
  void update(ByteView data);

  /// Finalize and return the digest. Invalidates the stream state.
  Digest finish();

  /// Restore the initial state so the hasher can be reused.
  void reset();

  /// One-shot convenience.
  static Digest hash(ByteView data) {
    Sha1 h;
    h.update(data);
    return h.finish();
  }

 private:
  using CompressFn = void (*)(std::uint32_t* state, const std::uint8_t* blocks,
                              std::size_t nblocks);

  Kernel kernel_;
  CompressFn compress_;
  std::array<std::uint32_t, 5> state_{};
  std::uint64_t length_ = 0;  // total input bytes
  std::array<std::uint8_t, kBlockSize> buffer_{};
  std::size_t buffered_ = 0;
};

const char* to_string(Sha1::Kernel kernel);

}  // namespace sigma
