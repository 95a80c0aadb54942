// Deduplication node: the full Section 3.3 intra-node pipeline — exact
// dedup via similarity index + cache + disk-index backstop, approximate
// similarity-only mode, prefetching, restore, and probe interfaces.
#include <gtest/gtest.h>

#include "common/hash_util.h"
#include "node/dedup_node.h"

namespace sigma {
namespace {

ChunkRecord rec(std::uint64_t id, std::uint32_t size = 4096) {
  return {Fingerprint::from_uint64(mix64(id)), size};
}

SuperChunk make_sc(std::uint64_t first, std::size_t n) {
  SuperChunk sc;
  for (std::size_t i = 0; i < n; ++i) sc.chunks.push_back(rec(first + i));
  return sc;
}

DedupNodeConfig small_config() {
  DedupNodeConfig cfg;
  cfg.container_capacity_bytes = 64 * 4096;  // 64 chunks per container
  cfg.cache_capacity_containers = 8;
  cfg.handprint_size = 8;
  return cfg;
}

TEST(DedupNodeTest, FirstWriteAllUnique) {
  DedupNode node(0, small_config());
  const auto sc = make_sc(0, 32);
  const auto r = node.write_super_chunk(0, sc);
  EXPECT_EQ(r.unique_chunks, 32u);
  EXPECT_EQ(r.duplicate_chunks, 0u);
  EXPECT_EQ(r.unique_bytes, 32u * 4096);
  EXPECT_EQ(node.stored_bytes(), 32u * 4096);
}

TEST(DedupNodeTest, RewriteAllDuplicate) {
  DedupNode node(0, small_config());
  const auto sc = make_sc(0, 32);
  node.write_super_chunk(0, sc);
  const auto r = node.write_super_chunk(0, sc);
  EXPECT_EQ(r.unique_chunks, 0u);
  EXPECT_EQ(r.duplicate_chunks, 32u);
  EXPECT_EQ(node.stored_bytes(), 32u * 4096);  // unchanged
}

TEST(DedupNodeTest, SecondWriteUsesSimilarityPrefetchNotDiskIndex) {
  DedupNode node(0, small_config());
  const auto sc = make_sc(0, 32);
  node.write_super_chunk(0, sc);
  const auto r = node.write_super_chunk(0, sc);
  // The handprint matches the similarity index; the container fingerprints
  // are prefetched; every chunk resolves from cache — zero disk lookups.
  EXPECT_EQ(r.disk_index_lookups, 0u);
  EXPECT_EQ(r.cache_hits, 32u);
  EXPECT_GE(r.container_prefetches, 1u);
}

TEST(DedupNodeTest, PartialOverlapDetected) {
  DedupNode node(0, small_config());
  node.write_super_chunk(0, make_sc(0, 32));
  SuperChunk sc2 = make_sc(16, 32);  // shares ids 16..31
  const auto r = node.write_super_chunk(0, sc2);
  EXPECT_EQ(r.duplicate_chunks, 16u);
  EXPECT_EQ(r.unique_chunks, 16u);
}

TEST(DedupNodeTest, IntraSuperChunkDuplicates) {
  DedupNode node(0, small_config());
  SuperChunk sc;
  for (int i = 0; i < 10; ++i) sc.chunks.push_back(rec(42));  // same chunk
  const auto r = node.write_super_chunk(0, sc);
  EXPECT_EQ(r.unique_chunks, 1u);
  EXPECT_EQ(r.duplicate_chunks, 9u);
}

TEST(DedupNodeTest, ResemblanceCountProbe) {
  DedupNode node(0, small_config());
  const auto sc = make_sc(0, 64);
  EXPECT_EQ(node.resemblance_count(compute_handprint(sc.chunks, 8)), 0u);
  node.write_super_chunk(0, sc);
  EXPECT_EQ(node.resemblance_count(compute_handprint(sc.chunks, 8)), 8u);
  // A disjoint super-chunk resembles nothing.
  const auto other = make_sc(100000, 64);
  EXPECT_EQ(node.resemblance_count(compute_handprint(other.chunks, 8)), 0u);
}

TEST(DedupNodeTest, ChunkMatchCountProbe) {
  DedupNode node(0, small_config());
  node.write_super_chunk(0, make_sc(0, 16));
  std::vector<Fingerprint> sample{rec(0).fp, rec(1).fp, rec(999).fp};
  EXPECT_EQ(node.chunk_match_count(sample), 2u);
}

TEST(DedupNodeTest, ApproximateModeSkipsDiskIndex) {
  DedupNodeConfig cfg = small_config();
  cfg.use_disk_index = false;
  DedupNode node(0, cfg);
  const auto sc = make_sc(0, 32);
  node.write_super_chunk(0, sc);
  const auto r = node.write_super_chunk(0, sc);
  EXPECT_EQ(r.disk_index_lookups, 0u);
  // Similarity index + prefetch still finds the duplicates.
  EXPECT_EQ(r.duplicate_chunks, 32u);
  EXPECT_EQ(node.chunk_index().size(), 0u);
}

TEST(DedupNodeTest, ApproximateModeCanMissWithoutHandprintMatch) {
  DedupNodeConfig cfg = small_config();
  cfg.use_disk_index = false;
  cfg.handprint_size = 1;
  cfg.cache_capacity_containers = 1;
  DedupNode node(0, cfg);
  // Write two distinct super-chunks; then a third sharing chunks with the
  // first but whose handprint points elsewhere may re-store duplicates.
  node.write_super_chunk(0, make_sc(0, 64));
  node.write_super_chunk(0, make_sc(1000, 64));
  const std::uint64_t before = node.stored_bytes();
  // Rewrite of first super-chunk: either found (dup) or re-stored; in
  // approximate mode stored_bytes can grow but never shrink.
  node.write_super_chunk(0, make_sc(0, 64));
  EXPECT_GE(node.stored_bytes(), before);
}

TEST(DedupNodeTest, StatsAccumulate) {
  DedupNode node(0, small_config());
  node.write_super_chunk(0, make_sc(0, 32));
  node.write_super_chunk(0, make_sc(0, 32));
  const auto stats = node.stats();
  EXPECT_EQ(stats.super_chunks, 2u);
  EXPECT_EQ(stats.logical_bytes, 2u * 32 * 4096);
  EXPECT_EQ(stats.physical_bytes, 32u * 4096);
  EXPECT_NEAR(stats.dedup_ratio(), 2.0, 1e-9);
}

TEST(DedupNodeTest, PayloadWriteAndRestore) {
  DedupNode node(0, small_config());
  // Build a super-chunk with real payloads.
  std::vector<Buffer> payloads;
  SuperChunk sc;
  for (int i = 0; i < 8; ++i) {
    Buffer data(4096, static_cast<std::uint8_t>(i + 1));
    sc.chunks.push_back(
        {Fingerprint::of(ByteView{data.data(), data.size()}), 4096});
    payloads.push_back(std::move(data));
  }
  node.write_super_chunk(0, sc, [&payloads](std::size_t i) {
    return ByteView{payloads[i].data(), payloads[i].size()};
  });
  for (int i = 0; i < 8; ++i) {
    const auto got = node.read_chunk(sc.chunks[static_cast<std::size_t>(i)].fp);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, payloads[static_cast<std::size_t>(i)]);
  }
  EXPECT_FALSE(node.read_chunk(rec(12345).fp).has_value());
}

TEST(DedupNodeTest, FlushSealsContainers) {
  DedupNode node(0, small_config());
  node.write_super_chunk(0, make_sc(0, 8));
  EXPECT_GT(node.container_store().open_container_count(), 0u);
  node.flush();
  EXPECT_EQ(node.container_store().open_container_count(), 0u);
}

TEST(DedupNodeTest, DiskIndexBackstopCatchesColdDuplicates) {
  DedupNodeConfig cfg = small_config();
  cfg.cache_capacity_containers = 1;  // room for one prefetched container
  cfg.prefetch_on_disk_hit = false;
  DedupNode node(0, cfg);
  // Two distinct super-chunks land in two containers.
  node.write_super_chunk(0, make_sc(0, 64));
  node.write_super_chunk(0, make_sc(1000, 64));
  // A merged super-chunk spanning both: the similarity index maps its
  // handprint to both containers, but the single-slot cache can hold only
  // one, so the other container's chunks must be resolved by the on-disk
  // chunk index — and still recognized as duplicates.
  SuperChunk merged = make_sc(0, 64);
  const SuperChunk other = make_sc(1000, 64);
  merged.chunks.insert(merged.chunks.end(), other.chunks.begin(),
                       other.chunks.end());
  const auto r = node.write_super_chunk(0, merged);
  EXPECT_EQ(r.unique_chunks, 0u);
  EXPECT_EQ(r.duplicate_chunks, 128u);
  EXPECT_GT(r.disk_index_lookups, 0u);
}

TEST(DedupNodeTest, ProbesAndReadsDoNotCountDiskIndexLookups) {
  // node.<n>.disk_index_lookups counts only the write path's backstop
  // lookups; probes and restores model RAM-resident access.
  DedupNode node(0, small_config());
  const SuperChunk sc = make_sc(0, 16);
  node.write_super_chunk(0, sc);
  const std::uint64_t before = node.stats().disk_index_lookups;
  std::vector<Fingerprint> fps;
  for (const auto& chunk : sc.chunks) fps.push_back(chunk.fp);
  fps.push_back(rec(999).fp);
  EXPECT_EQ(node.chunk_match_count(fps), 16u);
  EXPECT_FALSE(node.test_duplicates(fps).back());
  EXPECT_FALSE(node.read_chunk(rec(999).fp).has_value());
  EXPECT_EQ(node.stats().disk_index_lookups, before);
}

TEST(DedupNodeTest, MultiStreamWritesIsolateOpenContainers) {
  DedupNode node(0, small_config());
  node.write_super_chunk(0, make_sc(0, 8));
  node.write_super_chunk(1, make_sc(100, 8));
  EXPECT_EQ(node.container_store().open_container_count(), 2u);
}

// Parameterized: dedup correctness across handprint sizes and container
// capacities — exact mode must find every duplicate regardless.
class NodeExactSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(NodeExactSweep, ExactModeFindsAllDuplicates) {
  const auto [k, cap_chunks] = GetParam();
  DedupNodeConfig cfg;
  cfg.handprint_size = k;
  cfg.container_capacity_bytes = cap_chunks * 4096;
  cfg.cache_capacity_containers = 4;
  DedupNode node(0, cfg);
  node.write_super_chunk(0, make_sc(0, 128));
  const auto r = node.write_super_chunk(0, make_sc(0, 128));
  EXPECT_EQ(r.duplicate_chunks, 128u);
  EXPECT_EQ(r.unique_chunks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NodeExactSweep,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 8, 32),
                       ::testing::Values<std::uint64_t>(8, 64, 1024)));

TEST(DedupNodeTest, BinWriteDedupsAgainstItsBinOnly) {
  DedupNode node(0, small_config());
  SuperChunk file = make_sc(0, 16);
  file.chunks.push_back(file.chunks[3]);  // repeated within the file
  const auto first = node.write_super_chunk(0, file, {}, 7);
  EXPECT_EQ(first.unique_chunks, 16u);
  EXPECT_EQ(first.duplicate_chunks, 1u);
  // The same bin: all duplicates. Another bin: every chunk stored again.
  EXPECT_EQ(node.write_super_chunk(0, file, {}, 7).duplicate_chunks, 17u);
  EXPECT_EQ(node.write_super_chunk(0, file, {}, 8).unique_chunks, 16u);
  EXPECT_EQ(node.stored_bytes(), 2u * 16 * 4096);
  // Bin writes bypass the similarity index and the cache.
  EXPECT_EQ(node.similarity_index().size(), 0u);
  EXPECT_EQ(node.stats().container_prefetches, 0u);
  EXPECT_EQ(node.stats().super_chunks, 3u);
}

TEST(DedupNodeTest, BinScopedDuplicateTest) {
  DedupNode node(0, small_config());
  const SuperChunk file = make_sc(0, 8);
  node.write_super_chunk(0, file, {}, 1);
  std::vector<Fingerprint> fps;
  for (const auto& c : file.chunks) fps.push_back(c.fp);
  fps.push_back(rec(500).fp);
  const auto in_bin = node.test_duplicates(fps, 1);
  const auto other_bin = node.test_duplicates(fps, 2);
  const auto anywhere = node.test_duplicates(fps);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(in_bin[i]);
    EXPECT_FALSE(other_bin[i]);
    EXPECT_TRUE(anywhere[i]);  // indexed for reads
  }
  EXPECT_FALSE(in_bin[8]);
  EXPECT_FALSE(anywhere[8]);
}

}  // namespace
}  // namespace sigma
