// On-disk chunk index model: exact mapping, first-writer-wins semantics,
// RAM estimate, concurrent access.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "storage/chunk_index.h"

namespace sigma {
namespace {

Fingerprint fp(std::uint64_t id) { return Fingerprint::from_uint64(id); }

TEST(ChunkIndexTest, InsertLookup) {
  ChunkIndex idx;
  idx.insert(fp(1), {10, 3});
  const auto got = idx.lookup(fp(1));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->container, 10u);
  EXPECT_EQ(got->index, 3u);
}

TEST(ChunkIndexTest, LookupMissing) {
  ChunkIndex idx;
  EXPECT_FALSE(idx.lookup(fp(404)).has_value());
}

TEST(ChunkIndexTest, FirstLocationWins) {
  ChunkIndex idx;
  idx.insert(fp(1), {10, 0});
  idx.insert(fp(1), {20, 5});  // duplicate insert ignored
  EXPECT_EQ(idx.lookup(fp(1))->container, 10u);
  EXPECT_EQ(idx.size(), 1u);
}

TEST(ChunkIndexTest, Contains) {
  ChunkIndex idx;
  idx.insert(fp(7), {0, 0});
  EXPECT_TRUE(idx.contains(fp(7)));
  EXPECT_FALSE(idx.contains(fp(8)));
}

TEST(ChunkIndexTest, RamEstimate40BytesPerEntry) {
  ChunkIndex idx;
  for (std::uint64_t i = 0; i < 100; ++i) idx.insert(fp(i), {i, 0});
  EXPECT_EQ(idx.estimated_ram_bytes(), 4000u);
}

TEST(ChunkIndexTest, ConcurrentInsertsAndLookups) {
  ChunkIndex idx;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 5000;
  std::atomic<std::uint64_t> hits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&idx, &hits, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const std::uint64_t id =
            static_cast<std::uint64_t>(t) * kPerThread + i;
        idx.insert(fp(id), {id, 0});
        if (idx.lookup(fp(id))) hits.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(idx.size(), kThreads * kPerThread);
  EXPECT_EQ(hits.load(), kThreads * kPerThread);
}

}  // namespace
}  // namespace sigma
