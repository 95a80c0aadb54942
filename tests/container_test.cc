// Container structure: payload/meta append modes, serialization round
// trips, metadata-only section reads.
#include <gtest/gtest.h>

#include "common/hash_util.h"
#include "storage/container.h"

namespace sigma {
namespace {

Buffer bytes(const std::string& s) { return Buffer(s.begin(), s.end()); }

Fingerprint fp_of(const std::string& s) {
  return Fingerprint::of(as_bytes(s));
}

TEST(ContainerTest, AppendTracksOffsetsAndSizes) {
  Container c(7);
  const Buffer a = bytes("aaaa"), b = bytes("bbbbbb");
  EXPECT_EQ(c.append(fp_of("a"), ByteView{a.data(), a.size()}), 0u);
  EXPECT_EQ(c.append(fp_of("b"), ByteView{b.data(), b.size()}), 4u);
  EXPECT_EQ(c.id(), 7u);
  EXPECT_EQ(c.chunk_count(), 2u);
  EXPECT_EQ(c.data_size(), 10u);
  ASSERT_EQ(c.metadata().size(), 2u);
  EXPECT_EQ(c.metadata()[0].fp, fp_of("a"));
  EXPECT_EQ(c.metadata()[1].offset, 4u);
  EXPECT_EQ(c.metadata()[1].length, 6u);
}

TEST(ContainerTest, ChunkDataReturnsPayload) {
  Container c(1);
  const Buffer a = bytes("hello"), b = bytes("world!");
  c.append(fp_of("a"), ByteView{a.data(), a.size()});
  c.append(fp_of("b"), ByteView{b.data(), b.size()});
  const ByteView v = c.chunk_data(1);
  EXPECT_EQ(Buffer(v.begin(), v.end()), b);
}

TEST(ContainerTest, ChunkDataOutOfRangeThrows) {
  Container c(1);
  EXPECT_THROW(c.chunk_data(0), std::out_of_range);
}

TEST(ContainerTest, MetaOnlyAppend) {
  Container c(2);
  c.append_meta(fp_of("x"), 4096);
  c.append_meta(fp_of("y"), 100);
  EXPECT_EQ(c.data_size(), 4196u);
  EXPECT_FALSE(c.has_payloads());
  EXPECT_THROW(c.chunk_data(0), std::logic_error);
}

TEST(ContainerTest, MixingModesThrows) {
  Container c(3);
  const Buffer a = bytes("a");
  c.append(fp_of("a"), ByteView{a.data(), a.size()});
  EXPECT_THROW(c.append_meta(fp_of("b"), 10), std::logic_error);

  Container d(4);
  d.append_meta(fp_of("a"), 10);
  EXPECT_THROW(d.append(fp_of("b"), ByteView{a.data(), a.size()}),
               std::logic_error);
}

TEST(ContainerTest, SerializeRoundTripWithPayloads) {
  Container c(42);
  const Buffer a = bytes("payload-one"), b = bytes("payload-two-longer");
  c.append(fp_of("1"), ByteView{a.data(), a.size()});
  c.append(fp_of("2"), ByteView{b.data(), b.size()});

  const Buffer blob = c.serialize();
  const Container d =
      Container::deserialize(ByteView{blob.data(), blob.size()});
  EXPECT_EQ(d.id(), 42u);
  EXPECT_EQ(d.chunk_count(), 2u);
  EXPECT_EQ(d.metadata(), c.metadata());
  ASSERT_TRUE(d.has_payloads());
  const ByteView v = d.chunk_data(0);
  EXPECT_EQ(Buffer(v.begin(), v.end()), a);
}

TEST(ContainerTest, SerializeRoundTripMetaOnly) {
  Container c(43);
  c.append_meta(fp_of("1"), 4096);
  c.append_meta(fp_of("2"), 1024);
  const Buffer blob = c.serialize();
  const Container d =
      Container::deserialize(ByteView{blob.data(), blob.size()});
  EXPECT_EQ(d.id(), 43u);
  EXPECT_EQ(d.metadata(), c.metadata());
  EXPECT_EQ(d.data_size(), 5120u);
  EXPECT_FALSE(d.has_payloads());
}

TEST(ContainerTest, EmptyContainerRoundTrip) {
  Container c(0);
  const Buffer blob = c.serialize();
  const Container d =
      Container::deserialize(ByteView{blob.data(), blob.size()});
  EXPECT_EQ(d.chunk_count(), 0u);
  EXPECT_EQ(d.data_size(), 0u);
}

TEST(ContainerTest, MetadataSectionRoundTrip) {
  Container c(9);
  const Buffer a = bytes("zzz");
  c.append(fp_of("m1"), ByteView{a.data(), a.size()});
  c.append(fp_of("m2"), ByteView{a.data(), a.size()});
  const Buffer blob = c.serialize();
  const std::uint64_t len = Container::metadata_prefix_bytes(
      ByteView{blob.data(), Container::kHeaderBytes}, 9);
  // The metadata prefix must not include payload bytes.
  EXPECT_EQ(len, Container::data_section_start(
                     ByteView{blob.data(), Container::kHeaderBytes}, 9) -
                     8 - 4);
  const auto parsed =
      Container::parse_metadata_prefix(ByteView{blob.data(), len}, 9);
  EXPECT_EQ(parsed, c.metadata());
  EXPECT_THROW((void)Container::parse_metadata_prefix(
                   ByteView{blob.data(), len}, 8),
               std::runtime_error);
  EXPECT_THROW((void)Container::parse_metadata_prefix(
                   ByteView{blob.data(), len + 1}, 9),
               std::runtime_error);
}

TEST(ContainerTest, DeserializeRejectsBadMagic) {
  Buffer junk(64, 0xFF);
  EXPECT_THROW(Container::deserialize(ByteView{junk.data(), junk.size()}),
               std::runtime_error);
}

TEST(ContainerTest, DeserializeRejectsTruncated) {
  Container c(5);
  const Buffer a = bytes("data");
  c.append(fp_of("t"), ByteView{a.data(), a.size()});
  Buffer blob = c.serialize();
  blob.resize(blob.size() / 2);
  EXPECT_THROW(Container::deserialize(ByteView{blob.data(), blob.size()}),
               std::runtime_error);
}

TEST(ContainerTest, ChecksumDetectsAnySingleByteCorruption) {
  // The on-disk frame ends in a checksum over the whole body: flipping
  // any byte anywhere — header, metadata, payload or the checksum itself
  // — must be detected, not silently decoded into plausible state.
  Container c(11);
  const Buffer a = bytes("payload-abc"), b = bytes("payload-def");
  c.append(fp_of("a"), ByteView{a.data(), a.size()});
  c.append(fp_of("b"), ByteView{b.data(), b.size()});
  const Buffer blob = c.serialize();
  for (std::size_t i = 0; i < blob.size(); ++i) {
    Buffer bad = blob;
    bad[i] ^= 0xFF;
    EXPECT_THROW((void)Container::deserialize(ByteView{bad.data(),
                                                       bad.size()}),
                 std::runtime_error)
        << "byte " << i;
  }
}

TEST(ContainerTest, MetadataChecksumDetectsAnySingleByteCorruption) {
  // The metadata prefix (header, metadata section, checksum) verifies on
  // its own: a flipped byte anywhere in it is detected without the rest
  // of the blob.
  Container c(12);
  c.append_meta(fp_of("m"), 4096);
  c.append_meta(fp_of("n"), 512);
  const Buffer blob = c.serialize();
  const std::uint64_t len = Container::metadata_prefix_bytes(
      ByteView{blob.data(), Container::kHeaderBytes}, 12);
  ASSERT_EQ(Container::parse_metadata_prefix(ByteView{blob.data(), len}, 12),
            c.metadata());
  for (std::size_t i = 0; i < len; ++i) {
    Buffer bad(blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(len));
    bad[i] ^= 0xFF;
    EXPECT_THROW(
        (void)Container::parse_metadata_prefix(ByteView{bad.data(),
                                                        bad.size()},
                                               12),
        std::runtime_error)
        << "byte " << i;
  }
}

TEST(ContainerTest, TruncationAtEveryLengthRejected) {
  Container c(13);
  const Buffer a = bytes("0123456789abcdef");
  c.append(fp_of("t"), ByteView{a.data(), a.size()});
  const Buffer blob = c.serialize();
  for (std::size_t len = 0; len < blob.size(); ++len) {
    EXPECT_THROW((void)Container::deserialize(ByteView{blob.data(), len}),
                 std::runtime_error)
        << "length " << len;
  }
}

TEST(ContainerTest, TrailingBytesRejected) {
  Container c(14);
  c.append_meta(fp_of("x"), 64);
  Buffer blob = c.serialize();
  blob.push_back(0x00);
  EXPECT_THROW((void)Container::deserialize(ByteView{blob.data(),
                                                     blob.size()}),
               std::runtime_error);
}

TEST(ContainerTest, OversizedChunkCountRejectedBeforeAllocation) {
  // A corrupt chunk count far beyond the bytes actually present must be
  // refused by the codec's count validation — it must not size a huge
  // metadata vector first. Craft a blob with count = 2^30 and nothing
  // behind it (checksummed, so only the count lies).
  Container c(15);
  c.append_meta(fp_of("y"), 32);
  Buffer blob = c.serialize();
  // Layout: u32 magic, u32 version, u64 id, u8 payload flag, u32 count.
  const std::size_t count_at = 4 + 4 + 8 + 1;
  blob[count_at + 0] = 0x00;
  blob[count_at + 1] = 0x00;
  blob[count_at + 2] = 0x00;
  blob[count_at + 3] = 0x40;  // little-endian 2^30
  // Re-stamp the trailing checksum so the lying count itself — not the
  // checksum — is what the decoder has to refuse.
  const std::uint64_t sum = fnv1a64(ByteView{blob.data(), blob.size() - 8});
  for (int i = 0; i < 8; ++i) {
    blob[blob.size() - 8 + i] = static_cast<std::uint8_t>(sum >> (8 * i));
  }
  EXPECT_THROW((void)Container::deserialize(ByteView{blob.data(),
                                                     blob.size()}),
               std::runtime_error);
}

TEST(ContainerTest, EmptyPayloadChunkAllowed) {
  Container c(6);
  c.append(fp_of("empty"), {});
  EXPECT_EQ(c.chunk_count(), 1u);
  EXPECT_EQ(c.data_size(), 0u);
  const Buffer blob = c.serialize();
  const Container d =
      Container::deserialize(ByteView{blob.data(), blob.size()});
  EXPECT_EQ(d.metadata()[0].length, 0u);
}

}  // namespace
}  // namespace sigma
