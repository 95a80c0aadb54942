// Container store: per-stream open containers, sealing at capacity,
// metadata reads from open and sealed containers, restore reads.
#include <gtest/gtest.h>

#include "storage/container_store.h"

namespace sigma {
namespace {

Buffer bytes(std::size_t n, std::uint8_t fill) { return Buffer(n, fill); }

Fingerprint fp(std::uint64_t id) { return Fingerprint::from_uint64(id); }

TEST(ContainerStoreTest, AppendReturnsLocations) {
  MemoryBackend backend;
  ContainerStore store(backend, 1 << 20);
  const Buffer a = bytes(100, 1);
  const auto loc0 = store.append(0, fp(1), ByteView{a.data(), a.size()});
  const auto loc1 = store.append(0, fp(2), ByteView{a.data(), a.size()});
  EXPECT_EQ(loc0.container, loc1.container);
  EXPECT_EQ(loc0.index, 0u);
  EXPECT_EQ(loc1.index, 1u);
  EXPECT_EQ(store.stored_bytes(), 200u);
}

TEST(ContainerStoreTest, SealsWhenFull) {
  MemoryBackend backend;
  ContainerStore store(backend, 1000);
  const Buffer a = bytes(400, 2);
  const auto l0 = store.append(0, fp(1), ByteView{a.data(), a.size()});
  const auto l1 = store.append(0, fp(2), ByteView{a.data(), a.size()});
  // Third 400-byte chunk exceeds 1000: previous container seals.
  const auto l2 = store.append(0, fp(3), ByteView{a.data(), a.size()});
  EXPECT_EQ(l0.container, l1.container);
  EXPECT_NE(l1.container, l2.container);
  // The sealed container is persisted as one blob, in one write.
  EXPECT_EQ(backend.keys(),
            std::vector<std::string>{"container-" +
                                     std::to_string(l0.container)});
  EXPECT_EQ(backend.stats().writes, 1u);
}

TEST(ContainerStoreTest, PerStreamOpenContainers) {
  MemoryBackend backend;
  ContainerStore store(backend, 1 << 20);
  const Buffer a = bytes(10, 3);
  const auto s0 = store.append(0, fp(1), ByteView{a.data(), a.size()});
  const auto s1 = store.append(1, fp(2), ByteView{a.data(), a.size()});
  EXPECT_NE(s0.container, s1.container);
  EXPECT_EQ(store.open_container_count(), 2u);
}

TEST(ContainerStoreTest, ReadMetadataFromOpenContainer) {
  MemoryBackend backend;
  ContainerStore store(backend, 1 << 20);
  const Buffer a = bytes(64, 4);
  const auto loc = store.append(0, fp(9), ByteView{a.data(), a.size()});
  const auto meta = store.read_metadata(loc.container);
  ASSERT_EQ(meta.size(), 1u);
  EXPECT_EQ(meta[0].fp, fp(9));
  EXPECT_EQ(meta[0].length, 64u);
}

TEST(ContainerStoreTest, ReadMetadataFromSealedContainer) {
  MemoryBackend backend;
  ContainerStore store(backend, 100);
  const Buffer a = bytes(80, 5);
  const auto loc = store.append(0, fp(1), ByteView{a.data(), a.size()});
  store.flush();
  const auto meta = store.read_metadata(loc.container);
  ASSERT_EQ(meta.size(), 1u);
  EXPECT_EQ(meta[0].fp, fp(1));
}

TEST(ContainerStoreTest, ReadMetadataUnknownThrows) {
  MemoryBackend backend;
  ContainerStore store(backend, 1 << 20);
  EXPECT_THROW(store.read_metadata(12345), std::runtime_error);
}

TEST(ContainerStoreTest, ReadChunkFromOpenAndSealed) {
  MemoryBackend backend;
  ContainerStore store(backend, 1 << 20);
  Buffer a = bytes(32, 6);
  a[0] = 0xAA;
  const auto loc = store.append(0, fp(1), ByteView{a.data(), a.size()});
  EXPECT_EQ(store.read_chunk(loc), a);  // open
  store.flush();
  EXPECT_EQ(store.read_chunk(loc), a);  // sealed
}

TEST(ContainerStoreTest, MetaOnlyAppendAccountsBytes) {
  MemoryBackend backend;
  ContainerStore store(backend, 1 << 20);
  store.append_meta(0, fp(1), 4096);
  store.append_meta(0, fp(2), 4096);
  EXPECT_EQ(store.stored_bytes(), 8192u);
}

TEST(ContainerStoreTest, FlushSealsEverything) {
  MemoryBackend backend;
  ContainerStore store(backend, 1 << 20);
  const Buffer a = bytes(10, 7);
  store.append(0, fp(1), ByteView{a.data(), a.size()});
  store.append(1, fp(2), ByteView{a.data(), a.size()});
  store.flush();
  EXPECT_EQ(store.open_container_count(), 0u);
  EXPECT_EQ(store.container_count(), 2u);
}

TEST(ContainerStoreTest, FlushEmptyStoreIsNoop) {
  MemoryBackend backend;
  ContainerStore store(backend, 1 << 20);
  store.flush();
  EXPECT_EQ(store.container_count(), 0u);
}

TEST(ContainerStoreTest, ContainerIdsMonotonic) {
  MemoryBackend backend;
  ContainerStore store(backend, 100);
  const Buffer a = bytes(90, 8);
  const auto l0 = store.append(0, fp(1), ByteView{a.data(), a.size()});
  const auto l1 = store.append(0, fp(2), ByteView{a.data(), a.size()});
  const auto l2 = store.append(0, fp(3), ByteView{a.data(), a.size()});
  EXPECT_LT(l0.container, l1.container);
  EXPECT_LT(l1.container, l2.container);
}

TEST(ContainerStoreTest, RejectsZeroCapacity) {
  MemoryBackend backend;
  EXPECT_THROW(ContainerStore(backend, 0), std::invalid_argument);
}

TEST(ContainerStoreTest, OversizedChunkGetsOwnContainer) {
  MemoryBackend backend;
  ContainerStore store(backend, 1000);
  const Buffer small = bytes(10, 9);
  const Buffer big = bytes(5000, 10);
  const auto l0 = store.append(0, fp(1), ByteView{small.data(), small.size()});
  const auto l1 = store.append(0, fp(2), ByteView{big.data(), big.size()});
  EXPECT_NE(l0.container, l1.container);
  EXPECT_EQ(store.read_chunk(l1), big);
}

}  // namespace
}  // namespace sigma
