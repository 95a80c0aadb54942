// SHA-1 (RFC 3174) and MD5 (RFC 1321) against official test vectors, plus
// incremental-update and reuse semantics, and the SHA-NI SHA-1 kernel
// against the scalar one.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/md5.h"
#include "common/random.h"
#include "common/sha1.h"

namespace sigma {
namespace {

std::string hex(const std::uint8_t* data, std::size_t n) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(kHex[data[i] >> 4]);
    out.push_back(kHex[data[i] & 0xF]);
  }
  return out;
}

std::string sha1_hex(const std::string& input) {
  const auto d = Sha1::hash(as_bytes(input));
  return hex(d.data(), d.size());
}

std::string sha1_hex(Sha1::Kernel kernel, ByteView input) {
  Sha1 h(kernel);
  h.update(input);
  const auto d = h.finish();
  return hex(d.data(), d.size());
}

std::string md5_hex(const std::string& input) {
  const auto d = Md5::hash(as_bytes(input));
  return hex(d.data(), d.size());
}

// --- SHA-1 test vectors (FIPS 180 / RFC 3174) ------------------------------

TEST(Sha1Test, EmptyString) {
  EXPECT_EQ(sha1_hex(""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1Test, Abc) {
  EXPECT_EQ(sha1_hex("abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1Test, TwoBlockMessage) {
  EXPECT_EQ(
      sha1_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1Test, QuickBrownFox) {
  EXPECT_EQ(sha1_hex("The quick brown fox jumps over the lazy dog"),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
}

TEST(Sha1Test, MillionAs) {
  Sha1 h;
  const std::string block(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(as_bytes(block));
  const auto d = h.finish();
  EXPECT_EQ(hex(d.data(), d.size()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1Test, ExactBlockSizeInput) {
  // 64 bytes: padding must spill into a second block.
  const std::string input(64, 'x');
  EXPECT_EQ(sha1_hex(input).size(), 40u);
  // Cross-check split vs one-shot.
  Sha1 h;
  h.update(as_bytes(input));
  const auto d = h.finish();
  EXPECT_EQ(hex(d.data(), d.size()), sha1_hex(input));
}

TEST(Sha1Test, IncrementalMatchesOneShot) {
  const std::string input =
      "incremental hashing must be equivalent to one-shot hashing";
  for (std::size_t split = 0; split <= input.size(); ++split) {
    Sha1 h;
    h.update(as_bytes(input.substr(0, split)));
    h.update(as_bytes(input.substr(split)));
    const auto d = h.finish();
    EXPECT_EQ(hex(d.data(), d.size()), sha1_hex(input)) << "split=" << split;
  }
}

TEST(Sha1Test, ResetAllowsReuse) {
  Sha1 h;
  h.update(as_bytes(std::string("first")));
  (void)h.finish();
  h.reset();
  h.update(as_bytes(std::string("abc")));
  const auto d = h.finish();
  EXPECT_EQ(hex(d.data(), d.size()),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1Test, DistinctInputsDistinctDigests) {
  EXPECT_NE(sha1_hex("a"), sha1_hex("b"));
  EXPECT_NE(sha1_hex("abc"), sha1_hex("abd"));
  EXPECT_NE(sha1_hex("abc"), sha1_hex("abc "));
}

// --- SHA-1 kernels: SHA-NI against the scalar oracle ------------------------

// The kernel a default hasher picks during static initialisation, before
// main() and before libgcc's own CPU-model constructor is guaranteed to
// have run. Picking it from __builtin_cpu_supports without
// __builtin_cpu_init() would silently read kScalar here.
const Sha1::Kernel kKernelAtStaticInit = Sha1().kernel();

Buffer random_bytes(std::size_t n, std::uint64_t seed) {
  Buffer out(n);
  Rng rng(seed);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

#if defined(__x86_64__) || defined(__i386__)
bool cpu_reports_shani() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("ssse3") &&
         __builtin_cpu_supports("sse4.1");
}
#else
bool cpu_reports_shani() { return false; }
#endif

TEST(Sha1DispatchTest, PicksShaNiWhenCpuReportsSha) {
  if (!cpu_reports_shani()) {
    EXPECT_EQ(Sha1::detected_kernel(), Sha1::Kernel::kScalar);
    GTEST_SKIP() << "CPU lacks SHA-NI";
  }
  EXPECT_EQ(Sha1::detected_kernel(), Sha1::Kernel::kShaNi);
  EXPECT_EQ(Sha1().kernel(), Sha1::Kernel::kShaNi);
  EXPECT_EQ(kKernelAtStaticInit, Sha1::Kernel::kShaNi);
}

TEST(Sha1DispatchTest, ScalarAlwaysSupported) {
  EXPECT_EQ(Sha1(Sha1::Kernel::kScalar).kernel(), Sha1::Kernel::kScalar);
  EXPECT_STREQ(to_string(Sha1::Kernel::kScalar), "scalar");
  EXPECT_STREQ(to_string(Sha1::Kernel::kShaNi), "shani");
}

TEST(Sha1DispatchTest, ShaNiConstructsOnlyWhereSupported) {
  if (Sha1::detected_kernel() == Sha1::Kernel::kShaNi) {
    EXPECT_EQ(Sha1(Sha1::Kernel::kShaNi).kernel(), Sha1::Kernel::kShaNi);
  } else {
    EXPECT_THROW(Sha1(Sha1::Kernel::kShaNi), std::invalid_argument);
  }
}

TEST(Sha1DispatchTest, ShaNiMatchesScalarEveryLengthUnaligned) {
  if (Sha1::detected_kernel() != Sha1::Kernel::kShaNi) {
    GTEST_SKIP() << "CPU lacks SHA-NI";
  }
  constexpr std::size_t kMaxLen = 4160;
  const Buffer data = random_bytes(kMaxLen + 16, 1);
  for (std::size_t offset : {0u, 1u, 13u}) {
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      const ByteView in{data.data() + offset, len};
      ASSERT_EQ(sha1_hex(Sha1::Kernel::kShaNi, in),
                sha1_hex(Sha1::Kernel::kScalar, in))
          << "offset=" << offset << " len=" << len;
    }
  }
}

class Sha1KernelTest : public ::testing::TestWithParam<Sha1::Kernel> {
 protected:
  void SetUp() override {
    if (GetParam() == Sha1::Kernel::kShaNi &&
        Sha1::detected_kernel() != Sha1::Kernel::kShaNi) {
      GTEST_SKIP() << "CPU lacks SHA-NI";
    }
  }
  std::string hash_hex(const std::string& input) const {
    return sha1_hex(GetParam(), as_bytes(input));
  }
};

TEST_P(Sha1KernelTest, FipsVectors) {
  EXPECT_EQ(hash_hex(""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(hash_hex("abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(
      hash_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
  EXPECT_EQ(hash_hex("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                     "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
            "a49b2446a02c645bf419f995b67091253a04a259");
  EXPECT_EQ(hash_hex(std::string(1000000, 'a')),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST_P(Sha1KernelTest, SplitUpdatesAcrossBlockBoundaries) {
  // Two and three pieces, cut at every position of a three-block message:
  // pieces that end mid-block, on a block edge and span whole blocks must
  // all give the one-shot digest.
  const Buffer data = random_bytes(3 * Sha1::kBlockSize + 17, 2);
  const ByteView all{data.data(), data.size()};
  const std::string want = sha1_hex(GetParam(), all);
  for (std::size_t a = 0; a <= data.size(); ++a) {
    for (std::size_t b = a; b <= data.size(); b += 7) {
      Sha1 h(GetParam());
      h.update(all.subspan(0, a));
      h.update(all.subspan(a, b - a));
      h.update(all.subspan(b));
      const auto d = h.finish();
      ASSERT_EQ(hex(d.data(), d.size()), want) << "a=" << a << " b=" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, Sha1KernelTest,
                         ::testing::Values(Sha1::Kernel::kScalar,
                                           Sha1::Kernel::kShaNi),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// --- MD5 test vectors (RFC 1321 appendix A.5) ------------------------------

TEST(Md5Test, EmptyString) {
  EXPECT_EQ(md5_hex(""), "d41d8cd98f00b204e9800998ecf8427e");
}

TEST(Md5Test, A) {
  EXPECT_EQ(md5_hex("a"), "0cc175b9c0f1b6a831c399e269772661");
}

TEST(Md5Test, Abc) {
  EXPECT_EQ(md5_hex("abc"), "900150983cd24fb0d6963f7d28e17f72");
}

TEST(Md5Test, MessageDigest) {
  EXPECT_EQ(md5_hex("message digest"), "f96b697d7cb7938d525a2f31aaf161d0");
}

TEST(Md5Test, Alphabet) {
  EXPECT_EQ(md5_hex("abcdefghijklmnopqrstuvwxyz"),
            "c3fcd3d76192e4007dfb496cca67e13b");
}

TEST(Md5Test, AlphaNumeric) {
  EXPECT_EQ(
      md5_hex(
          "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"),
      "d174ab98d277d9f5a5611c2c9f419d9f");
}

TEST(Md5Test, Digits) {
  EXPECT_EQ(md5_hex("12345678901234567890123456789012345678901234567890"
                    "123456789012345678901234567890"),
            "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5Test, IncrementalMatchesOneShot) {
  const std::string input = "md5 streaming equivalence check";
  for (std::size_t split = 0; split <= input.size(); ++split) {
    Md5 h;
    h.update(as_bytes(input.substr(0, split)));
    h.update(as_bytes(input.substr(split)));
    const auto d = h.finish();
    EXPECT_EQ(hex(d.data(), d.size()), md5_hex(input)) << "split=" << split;
  }
}

TEST(Md5Test, ResetAllowsReuse) {
  Md5 h;
  h.update(as_bytes(std::string("junk")));
  (void)h.finish();
  h.reset();
  h.update(as_bytes(std::string("abc")));
  const auto d = h.finish();
  EXPECT_EQ(hex(d.data(), d.size()), "900150983cd24fb0d6963f7d28e17f72");
}

// --- Parameterized length sweep: both hashers handle every length mod 64 ---

class HashLengthTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HashLengthTest, Sha1AndMd5StableAcrossChunkedUpdates) {
  const std::size_t len = GetParam();
  std::string input(len, '\0');
  for (std::size_t i = 0; i < len; ++i) {
    input[i] = static_cast<char>('A' + (i * 7 + len) % 26);
  }
  // One-shot.
  const std::string s1 = sha1_hex(input);
  const std::string m1 = md5_hex(input);
  // Byte-at-a-time.
  Sha1 sh;
  Md5 mh;
  for (char c : input) {
    const std::uint8_t b = static_cast<std::uint8_t>(c);
    sh.update(ByteView{&b, 1});
    mh.update(ByteView{&b, 1});
  }
  const auto sd = sh.finish();
  const auto md = mh.finish();
  EXPECT_EQ(hex(sd.data(), sd.size()), s1);
  EXPECT_EQ(hex(md.data(), md.size()), m1);
}

INSTANTIATE_TEST_SUITE_P(PaddingBoundaries, HashLengthTest,
                         ::testing::Values(1, 55, 56, 57, 63, 64, 65, 119,
                                           120, 127, 128, 129, 255, 256,
                                           1000));

}  // namespace
}  // namespace sigma
