// Chunkers: coverage invariants (every byte covered exactly once), size
// bounds, content-defined shift tolerance, Rabin rolling-hash correctness,
// and boundary identity of the in-place CDC and TTTD scans with the
// RabinHash-driven reference loops.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "chunking/chunker.h"
#include "chunking/rabin.h"
#include "common/random.h"

namespace sigma {
namespace {

Buffer random_data(std::size_t n, std::uint64_t seed) {
  Buffer out;
  out.reserve(n);
  Rng rng(seed);
  while (out.size() < n) {
    const std::uint64_t v = rng.next();
    for (int i = 0; i < 8 && out.size() < n; ++i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  return out;
}

void expect_covers(const std::vector<ChunkBoundary>& chunks,
                   std::size_t total) {
  std::uint64_t offset = 0;
  for (const auto& c : chunks) {
    EXPECT_EQ(c.offset, offset);
    EXPECT_GT(c.size, 0u);
    offset += c.size;
  }
  EXPECT_EQ(offset, total);
}

// --- Rabin ------------------------------------------------------------------

TEST(RabinTest, TableDrivenMatchesReferenceAppend) {
  // Rolling over fewer bytes than the window is a pure polynomial append:
  // compare against the bitwise reference implementation.
  const Buffer data = random_data(RabinHash::kWindowSize - 1, 1);
  RabinHash rolling;
  std::uint64_t h = 0;
  for (std::uint8_t b : data) {
    rolling.roll(b);
    h = rabin_detail::append_byte_reference(h, b);
  }
  EXPECT_EQ(rolling.value(), h);
}

TEST(RabinTest, WindowedHashDependsOnlyOnWindowContents) {
  // After rolling through different prefixes, identical final windows must
  // produce identical hashes.
  const Buffer prefix_a = random_data(1000, 2);
  const Buffer prefix_b = random_data(500, 3);
  const Buffer window = random_data(RabinHash::kWindowSize, 4);

  RabinHash a, b;
  for (std::uint8_t x : prefix_a) a.roll(x);
  for (std::uint8_t x : prefix_b) b.roll(x);
  for (std::uint8_t x : window) {
    a.roll(x);
    b.roll(x);
  }
  EXPECT_EQ(a.value(), b.value());
}

TEST(RabinTest, SlideMatchesReferenceHashOfWindow) {
  // The in-place update the chunkers use: after kWindowSize appends, every
  // slide must equal the bitwise hash of exactly the current window.
  const RabinTables& t = RabinTables::get();
  const Buffer data = random_data(2000, 9);
  constexpr std::size_t kW = RabinHash::kWindowSize;
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < kW; ++i) h = t.append_byte(h, data[i]);
  for (std::size_t i = kW; i < data.size(); ++i) {
    h = t.slide(h, data[i - kW], data[i]);
    ASSERT_EQ(h, RabinHash::hash_bytes(ByteView{data.data() + i + 1 - kW, kW}))
        << "i=" << i;
  }
}

TEST(RabinTest, HashFitsInDegreeBits) {
  RabinHash h;
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = h.roll(static_cast<std::uint8_t>(rng.next()));
    EXPECT_LT(v, 1ull << 53);
  }
}

TEST(RabinTest, ResetClearsState) {
  RabinHash h;
  for (std::uint8_t b : random_data(100, 6)) h.roll(b);
  h.reset();
  EXPECT_EQ(h.value(), 0u);
  RabinHash fresh;
  const Buffer data = random_data(64, 7);
  std::uint64_t hv = 0, fv = 0;
  for (std::uint8_t b : data) {
    hv = h.roll(b);
    fv = fresh.roll(b);
  }
  EXPECT_EQ(hv, fv);
}

TEST(RabinTest, HashBytesMatchesIncrementalReference) {
  const Buffer data = random_data(123, 8);
  std::uint64_t h = 0;
  for (std::uint8_t b : data) h = rabin_detail::append_byte_reference(h, b);
  EXPECT_EQ(RabinHash::hash_bytes(ByteView{data.data(), data.size()}), h);
}

// --- Reference chunkers -----------------------------------------------------
//
// The CDC and TTTD loops as first written: one RabinHash rolled over every
// byte and reset at each cut. The shipped chunkers skip the bytes that
// cannot affect a boundary and must still cut at exactly these offsets.

constexpr std::uint64_t kMagic = 0x78;

std::vector<ChunkBoundary> reference_cdc(ByteView data, std::uint32_t min_size,
                                         std::uint32_t avg_size,
                                         std::uint32_t max_size) {
  const std::uint64_t mask = avg_size - 1;
  std::vector<ChunkBoundary> out;
  RabinHash rabin;
  std::uint64_t start = 0;
  std::uint64_t pos = 0;
  while (pos < data.size()) {
    const std::uint64_t h = rabin.roll(data[pos]);
    ++pos;
    const std::uint64_t len = pos - start;
    const bool at_boundary = len >= min_size && (h & mask) == (kMagic & mask);
    if (at_boundary || len >= max_size) {
      out.push_back({start, static_cast<std::uint32_t>(len)});
      start = pos;
      rabin.reset();
    }
  }
  if (start < data.size()) {
    out.push_back({start, static_cast<std::uint32_t>(data.size() - start)});
  }
  return out;
}

std::vector<ChunkBoundary> reference_tttd(ByteView data,
                                          std::uint32_t min_size,
                                          std::uint32_t minor_mean,
                                          std::uint32_t major_mean,
                                          std::uint32_t max_size) {
  const std::uint64_t major_mask = major_mean - 1;
  const std::uint64_t minor_mask = minor_mean - 1;
  std::vector<ChunkBoundary> out;
  RabinHash rabin;
  std::uint64_t start = 0;
  std::uint64_t pos = 0;
  std::uint64_t backup_len = 0;
  while (pos < data.size()) {
    const std::uint64_t h = rabin.roll(data[pos]);
    ++pos;
    const std::uint64_t len = pos - start;
    if (len < min_size) continue;
    if ((h & major_mask) == (kMagic & major_mask)) {
      out.push_back({start, static_cast<std::uint32_t>(len)});
      start = pos;
      backup_len = 0;
      rabin.reset();
      continue;
    }
    if ((h & minor_mask) == (kMagic & minor_mask)) backup_len = len;
    if (len >= max_size) {
      const std::uint64_t cut = backup_len > 0 ? backup_len : len;
      out.push_back({start, static_cast<std::uint32_t>(cut)});
      start += cut;
      pos = start;
      backup_len = 0;
      rabin.reset();
    }
  }
  if (start < data.size()) {
    out.push_back({start, static_cast<std::uint32_t>(data.size() - start)});
  }
  return out;
}

// Period-`period` repetition of random bytes: every window recurs, so a
// boundary pattern either repeats or never fires.
Buffer periodic_data(std::size_t n, std::size_t period, std::uint64_t seed) {
  const Buffer unit = random_data(period, seed);
  Buffer out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = unit[i % period];
  return out;
}

struct CdcParams {
  std::uint32_t min, avg, max;
};
struct TttdParams {
  std::uint32_t min, minor, major, max;
};

// min < window, min == window, the paper's shapes, and tight clamps that
// force many max-size and fallback cuts.
const CdcParams kCdcParams[] = {{16, 32, 128},     {48, 64, 256},
                                {1024, 4096, 16384}, {2048, 8192, 32768},
                                {100, 128, 200},   {64, 64, 64}};
const TttdParams kTttdParams[] = {{1024, 2048, 4096, 32768},
                                  {16, 32, 64, 128},
                                  {48, 64, 128, 256},
                                  {200, 256, 4096, 4096},
                                  {64, 64, 64, 64}};

void expect_matches_references(const Buffer& data, const std::string& what) {
  const ByteView view{data.data(), data.size()};
  for (const auto& p : kCdcParams) {
    EXPECT_EQ(CdcChunker(p.min, p.avg, p.max).chunk(view),
              reference_cdc(view, p.min, p.avg, p.max))
        << what << " CDC(" << p.min << "," << p.avg << "," << p.max << ")";
  }
  for (const auto& p : kTttdParams) {
    EXPECT_EQ(TttdChunker(p.min, p.minor, p.major, p.max).chunk(view),
              reference_tttd(view, p.min, p.minor, p.major, p.max))
        << what << " TTTD(" << p.min << "," << p.minor << "," << p.major
        << "," << p.max << ")";
  }
}

TEST(ChunkerReferenceTest, RandomData) {
  expect_matches_references(random_data(2 << 20, 30), "random");
}

TEST(ChunkerReferenceTest, AllZeroData) {
  expect_matches_references(Buffer(1 << 20, 0), "zeros");
}

TEST(ChunkerReferenceTest, PeriodicData) {
  for (std::size_t period : {1u, 7u, 48u, 49u, 1000u, 5000u}) {
    expect_matches_references(periodic_data(1 << 19, period, 31 + period),
                              "period " + std::to_string(period));
  }
}

TEST(ChunkerReferenceTest, LengthsAroundMinAndMax) {
  // Every length within 3 bytes of the window size and of each config's
  // min, max and twice its max, where the skipped prefix and the clamps
  // meet the end of the input. Every edge is at least 16.
  std::vector<std::uint32_t> edges = {RabinHash::kWindowSize};
  for (const auto& p : kCdcParams) {
    edges.insert(edges.end(), {p.min, p.max, 2 * p.max});
  }
  for (const auto& p : kTttdParams) {
    edges.insert(edges.end(), {p.min, p.max, 2 * p.max});
  }
  const Buffer data =
      random_data(*std::max_element(edges.begin(), edges.end()) + 3, 32);
  std::vector<std::size_t> lengths = {0, 1};
  for (std::uint32_t edge : edges) {
    for (std::size_t len = edge - 3; len <= edge + 3; ++len) {
      lengths.push_back(len);
    }
  }
  for (std::size_t len : lengths) {
    expect_matches_references(Buffer(data.begin(), data.begin() + len),
                              "length " + std::to_string(len));
  }
}

TEST(ChunkerReferenceTest, TttdFallbackCutRescans) {
  // A major divisor as wide as max often finds no match in time, so those
  // chunks are cut at their last minor match and the next chunk rescans
  // from there.
  constexpr std::uint32_t kMin = 64, kMinor = 128, kMajor = 32768;
  const Buffer data = random_data(2 << 20, 33);
  const ByteView view{data.data(), data.size()};
  const auto chunks = TttdChunker(kMin, kMinor, kMajor, kMajor).chunk(view);
  EXPECT_EQ(chunks, reference_tttd(view, kMin, kMinor, kMajor, kMajor));
  expect_covers(chunks, data.size());
  // A fallback cut ends on a window that matches the minor divisor only.
  std::size_t fallbacks = 0;
  for (std::size_t i = 0; i + 1 < chunks.size(); ++i) {
    RabinHash rabin;
    for (std::uint8_t b : view.subspan(chunks[i].offset, chunks[i].size)) {
      rabin.roll(b);
    }
    if ((rabin.value() & (kMajor - 1)) != (kMagic & (kMajor - 1))) {
      EXPECT_EQ(rabin.value() & (kMinor - 1), kMagic & (kMinor - 1));
      ++fallbacks;
    }
  }
  EXPECT_GT(fallbacks, 0u);
}

// --- FixedChunker -----------------------------------------------------------

TEST(FixedChunkerTest, ExactMultiple) {
  FixedChunker c(4096);
  const Buffer data = random_data(4096 * 4, 10);
  const auto chunks = c.chunk(ByteView{data.data(), data.size()});
  ASSERT_EQ(chunks.size(), 4u);
  for (const auto& ch : chunks) EXPECT_EQ(ch.size, 4096u);
  expect_covers(chunks, data.size());
}

TEST(FixedChunkerTest, TailChunkSmaller) {
  FixedChunker c(4096);
  const Buffer data = random_data(10000, 11);
  const auto chunks = c.chunk(ByteView{data.data(), data.size()});
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks.back().size, 10000u - 2 * 4096u);
  expect_covers(chunks, data.size());
}

TEST(FixedChunkerTest, EmptyInput) {
  FixedChunker c(4096);
  EXPECT_TRUE(c.chunk({}).empty());
}

TEST(FixedChunkerTest, InputSmallerThanChunk) {
  FixedChunker c(4096);
  const Buffer data = random_data(100, 12);
  const auto chunks = c.chunk(ByteView{data.data(), data.size()});
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].size, 100u);
}

TEST(FixedChunkerTest, RejectsZeroSize) {
  EXPECT_THROW(FixedChunker(0), std::invalid_argument);
}

TEST(FixedChunkerTest, Name) {
  EXPECT_EQ(FixedChunker(4096).name(), "SC-4KB");
  EXPECT_EQ(FixedChunker(100).name(), "SC-100B");
}

// --- CdcChunker -------------------------------------------------------------

TEST(CdcChunkerTest, CoversInput) {
  const auto c = CdcChunker::with_average(4096);
  const Buffer data = random_data(1 << 20, 13);
  const auto chunks = c.chunk(ByteView{data.data(), data.size()});
  expect_covers(chunks, data.size());
}

TEST(CdcChunkerTest, RespectsSizeBounds) {
  CdcChunker c(1024, 4096, 16384);
  const Buffer data = random_data(1 << 20, 14);
  const auto chunks = c.chunk(ByteView{data.data(), data.size()});
  for (std::size_t i = 0; i + 1 < chunks.size(); ++i) {
    EXPECT_GE(chunks[i].size, 1024u);
    EXPECT_LE(chunks[i].size, 16384u);
  }
}

TEST(CdcChunkerTest, AverageRoughlyMatches) {
  const auto c = CdcChunker::with_average(4096);
  const Buffer data = random_data(4 << 20, 15);
  const auto chunks = c.chunk(ByteView{data.data(), data.size()});
  const double avg = static_cast<double>(data.size()) /
                     static_cast<double>(chunks.size());
  EXPECT_GT(avg, 4096.0 * 0.5);
  EXPECT_LT(avg, 4096.0 * 2.0);
}

TEST(CdcChunkerTest, DeterministicAcrossCalls) {
  const auto c = CdcChunker::with_average(4096);
  const Buffer data = random_data(256 * 1024, 16);
  const auto a = c.chunk(ByteView{data.data(), data.size()});
  const auto b = c.chunk(ByteView{data.data(), data.size()});
  EXPECT_EQ(a, b);
}

TEST(CdcChunkerTest, BoundariesSurviveShift) {
  // Prepend bytes: after the modification point, most boundaries must
  // realign — the property that gives CDC its dedup advantage.
  const Buffer data = random_data(512 * 1024, 17);
  Buffer shifted;
  shifted.push_back(0xAB);
  shifted.insert(shifted.end(), data.begin(), data.end());

  const auto c = CdcChunker::with_average(4096);
  const auto base = c.chunk(ByteView{data.data(), data.size()});
  const auto moved = c.chunk(ByteView{shifted.data(), shifted.size()});

  // Collect absolute end offsets of chunks (cut points) in content terms.
  std::vector<std::uint64_t> cuts_base, cuts_moved;
  for (const auto& ch : base) cuts_base.push_back(ch.offset + ch.size);
  for (const auto& ch : moved) {
    if (ch.offset + ch.size > 1) cuts_moved.push_back(ch.offset + ch.size - 1);
  }
  std::size_t common = 0;
  std::size_t j = 0;
  for (std::uint64_t cut : cuts_base) {
    while (j < cuts_moved.size() && cuts_moved[j] < cut) ++j;
    if (j < cuts_moved.size() && cuts_moved[j] == cut) ++common;
  }
  EXPECT_GT(common, cuts_base.size() * 8 / 10);
}

TEST(CdcChunkerTest, RejectsNonPowerOfTwoAverage) {
  EXPECT_THROW(CdcChunker(100, 3000, 10000), std::invalid_argument);
}

TEST(CdcChunkerTest, RejectsBadOrdering) {
  EXPECT_THROW(CdcChunker(8192, 4096, 16384), std::invalid_argument);
  EXPECT_THROW(CdcChunker(0, 4096, 16384), std::invalid_argument);
}

TEST(CdcChunkerTest, AllZeroDataStillBounded) {
  const auto c = CdcChunker::with_average(4096);
  Buffer zeros(1 << 20, 0);
  const auto chunks = c.chunk(ByteView{zeros.data(), zeros.size()});
  expect_covers(chunks, zeros.size());
  for (std::size_t i = 0; i + 1 < chunks.size(); ++i) {
    EXPECT_LE(chunks[i].size, 4096u * 4);
  }
}

// --- TttdChunker ------------------------------------------------------------

TEST(TttdChunkerTest, CoversInput) {
  const auto c = TttdChunker::paper_default();
  const Buffer data = random_data(1 << 20, 18);
  expect_covers(c.chunk(ByteView{data.data(), data.size()}), data.size());
}

TEST(TttdChunkerTest, RespectsPaperThresholds) {
  const auto c = TttdChunker::paper_default();
  const Buffer data = random_data(2 << 20, 19);
  const auto chunks = c.chunk(ByteView{data.data(), data.size()});
  for (std::size_t i = 0; i + 1 < chunks.size(); ++i) {
    EXPECT_GE(chunks[i].size, 1024u);
    EXPECT_LE(chunks[i].size, 32768u);
  }
}

TEST(TttdChunkerTest, MeanBetweenMinorAndMax) {
  const auto c = TttdChunker::paper_default();
  const Buffer data = random_data(4 << 20, 20);
  const auto chunks = c.chunk(ByteView{data.data(), data.size()});
  const double avg = static_cast<double>(data.size()) /
                     static_cast<double>(chunks.size());
  EXPECT_GT(avg, 2048.0);
  EXPECT_LT(avg, 8192.0);
}

TEST(TttdChunkerTest, Deterministic) {
  const auto c = TttdChunker::paper_default();
  const Buffer data = random_data(512 * 1024, 21);
  EXPECT_EQ(c.chunk(ByteView{data.data(), data.size()}),
            c.chunk(ByteView{data.data(), data.size()}));
}

TEST(TttdChunkerTest, RejectsBadConfig) {
  EXPECT_THROW(TttdChunker(0, 2048, 4096, 32768), std::invalid_argument);
  EXPECT_THROW(TttdChunker(1024, 4096, 2048, 32768), std::invalid_argument);
  EXPECT_THROW(TttdChunker(1024, 2048, 4096, 2048), std::invalid_argument);
}

// --- Factory ----------------------------------------------------------------

TEST(ChunkerFactoryTest, MakesAllSchemes) {
  EXPECT_EQ(make_chunker(ChunkingScheme::kStatic, 4096)->name(), "SC-4KB");
  EXPECT_EQ(make_chunker(ChunkingScheme::kCdc, 4096)->name(), "CDC-4KB");
  EXPECT_EQ(make_chunker(ChunkingScheme::kTttd, 4096)->name(), "TTTD");
}

TEST(ChunkerFactoryTest, ToString) {
  EXPECT_STREQ(to_string(ChunkingScheme::kStatic), "SC");
  EXPECT_STREQ(to_string(ChunkingScheme::kCdc), "CDC");
  EXPECT_STREQ(to_string(ChunkingScheme::kTttd), "TTTD");
}

// --- Parameterized coverage sweep over schemes and sizes --------------------

struct ChunkerCase {
  ChunkingScheme scheme;
  std::uint32_t avg;
  std::size_t data_size;
};

class ChunkerCoverageTest : public ::testing::TestWithParam<ChunkerCase> {};

TEST_P(ChunkerCoverageTest, EveryByteCoveredExactlyOnce) {
  const auto& p = GetParam();
  const auto chunker = make_chunker(p.scheme, p.avg);
  const Buffer data = random_data(p.data_size, 1000 + p.data_size);
  expect_covers(chunker->chunk(ByteView{data.data(), data.size()}),
                data.size());
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndSizes, ChunkerCoverageTest,
    ::testing::Values(
        ChunkerCase{ChunkingScheme::kStatic, 2048, 100000},
        ChunkerCase{ChunkingScheme::kStatic, 4096, 1},
        ChunkerCase{ChunkingScheme::kStatic, 8192, 8192},
        ChunkerCase{ChunkingScheme::kCdc, 2048, 300000},
        ChunkerCase{ChunkingScheme::kCdc, 4096, 65536},
        ChunkerCase{ChunkingScheme::kCdc, 8192, 1000},
        ChunkerCase{ChunkingScheme::kCdc, 16384, 500000},
        ChunkerCase{ChunkingScheme::kTttd, 4096, 250000},
        ChunkerCase{ChunkingScheme::kTttd, 4096, 100}));

}  // namespace
}  // namespace sigma
