// Crash recovery: indexes are soft state rebuilt from self-describing
// containers in the persistent backend.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/hash_util.h"
#include "node/dedup_node.h"

namespace sigma {
namespace {

ChunkRecord rec(std::uint64_t id) {
  return {Fingerprint::from_uint64(mix64(id)), 4096};
}

SuperChunk make_sc(std::uint64_t first, std::size_t n) {
  SuperChunk sc;
  for (std::size_t i = 0; i < n; ++i) sc.chunks.push_back(rec(first + i));
  return sc;
}

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("sigma-recovery-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  DedupNodeConfig config() {
    DedupNodeConfig cfg;
    cfg.container_capacity_bytes = 32 * 4096;
    return cfg;
  }

  std::filesystem::path dir_;
};

TEST_F(RecoveryTest, RebuildRecoversSealedContainers) {
  {
    DedupNode node(0, config(), std::make_unique<FileBackend>(dir_));
    node.write_super_chunk(0, make_sc(0, 128));  // 4 containers
    node.flush();
  }
  DedupNode node(0, config(), std::make_unique<FileBackend>(dir_));
  EXPECT_EQ(node.rebuild_indexes(), 4u);
  EXPECT_EQ(node.chunk_index().size(), 128u);
  EXPECT_EQ(node.stored_bytes(), 128u * 4096);
}

TEST_F(RecoveryTest, DuplicatesDetectedAfterRecovery) {
  const SuperChunk sc = make_sc(0, 128);
  {
    DedupNode node(0, config(), std::make_unique<FileBackend>(dir_));
    node.write_super_chunk(0, sc);
    node.flush();
  }
  DedupNode node(0, config(), std::make_unique<FileBackend>(dir_));
  node.rebuild_indexes();
  const auto r = node.write_super_chunk(0, sc);
  EXPECT_EQ(r.duplicate_chunks, 128u);
  EXPECT_EQ(r.unique_chunks, 0u);
  EXPECT_EQ(node.stored_bytes(), 128u * 4096);  // nothing re-stored
}

TEST_F(RecoveryTest, SimilarityIndexServesRoutingProbesAfterRecovery) {
  const SuperChunk sc = make_sc(500, 64);
  {
    DedupNode node(0, config(), std::make_unique<FileBackend>(dir_));
    node.write_super_chunk(0, sc);
    node.flush();
  }
  DedupNode node(0, config(), std::make_unique<FileBackend>(dir_));
  node.rebuild_indexes();
  // Container-level handprints overlap super-chunk handprints enough for
  // resemblance probes to find the data again.
  const Handprint hp = compute_handprint(sc.chunks, 8);
  EXPECT_GT(node.resemblance_count(hp), 0u);
}

TEST_F(RecoveryTest, NewContainersDoNotCollideAfterRecovery) {
  {
    DedupNode node(0, config(), std::make_unique<FileBackend>(dir_));
    node.write_super_chunk(0, make_sc(0, 64));
    node.flush();
  }
  DedupNode node(0, config(), std::make_unique<FileBackend>(dir_));
  node.rebuild_indexes();
  node.write_super_chunk(0, make_sc(10000, 64));
  node.flush();
  // Old chunks must still resolve (no container id was overwritten).
  DedupNode verify(0, config(), std::make_unique<FileBackend>(dir_));
  verify.rebuild_indexes();
  const auto r = verify.write_super_chunk(0, make_sc(0, 64));
  EXPECT_EQ(r.duplicate_chunks, 64u);
}

TEST_F(RecoveryTest, PayloadsRestorableAfterRecovery) {
  std::vector<Buffer> payloads;
  SuperChunk sc;
  for (int i = 0; i < 40; ++i) {
    Buffer data(4096, static_cast<std::uint8_t>(i + 1));
    sc.chunks.push_back(
        {Fingerprint::of(ByteView{data.data(), data.size()}), 4096});
    payloads.push_back(std::move(data));
  }
  {
    DedupNode node(0, config(), std::make_unique<FileBackend>(dir_));
    node.write_super_chunk(0, sc, [&payloads](std::size_t i) {
      return ByteView{payloads[i].data(), payloads[i].size()};
    });
    node.flush();
  }
  DedupNode node(0, config(), std::make_unique<FileBackend>(dir_));
  node.rebuild_indexes();
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    const auto got = node.read_chunk(sc.chunks[i].fp);
    ASSERT_TRUE(got.has_value()) << i;
    EXPECT_EQ(*got, payloads[i]);
  }
}

TEST_F(RecoveryTest, EmptyBackendRecoversNothing) {
  DedupNode node(0, config(), std::make_unique<FileBackend>(dir_));
  EXPECT_EQ(node.rebuild_indexes(), 0u);
  EXPECT_EQ(node.stored_bytes(), 0u);
}

// ---- Corruption / truncation corpus ------------------------------------
// Recovery must refuse a damaged container deterministically: skip it
// whole (counted in the report), index nothing from it, never crash —
// mirroring the wire/frame robustness tests at the storage layer.

class RecoveryCorruptionTest : public RecoveryTest {
 protected:
  /// Seals one payload container and returns its on-disk blob.
  Buffer seal_one_container() {
    DedupNode node(0, config(), std::make_unique<FileBackend>(dir_));
    SuperChunk sc;
    payloads_.clear();
    for (int i = 0; i < 8; ++i) {
      Buffer data(64, static_cast<std::uint8_t>(i + 1));
      sc.chunks.push_back(
          {Fingerprint::of(ByteView{data.data(), data.size()}), 64});
      payloads_.push_back(std::move(data));
    }
    node.write_super_chunk(0, sc, [this](std::size_t i) {
      return ByteView{payloads_[i].data(), payloads_[i].size()};
    });
    node.flush();
    std::ifstream in(dir_ / "container-0", std::ios::binary | std::ios::ate);
    Buffer blob(static_cast<std::size_t>(in.tellg()));
    in.seekg(0);
    in.read(reinterpret_cast<char*>(blob.data()),
            static_cast<std::streamsize>(blob.size()));
    return blob;
  }

  void write_container_file(const std::string& name, ByteView blob) {
    std::ofstream out(dir_ / name, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
  }

  /// Fresh node over the (possibly tampered) directory.
  RecoveryReport recover() {
    DedupNode node(0, config(), std::make_unique<FileBackend>(dir_));
    node.rebuild_indexes();
    report_chunk_index_size_ = node.chunk_index().size();
    return node.last_recovery();
  }

  std::vector<Buffer> payloads_;
  std::size_t report_chunk_index_size_ = 0;
};

TEST_F(RecoveryCorruptionTest, TruncationAtEveryByteSkipsContainer) {
  const Buffer blob = seal_one_container();
  for (std::size_t len = 0; len < blob.size(); ++len) {
    write_container_file("container-0", ByteView{blob.data(), len});
    const RecoveryReport r = recover();
    EXPECT_EQ(r.containers_recovered, 0u) << "length " << len;
    EXPECT_EQ(r.containers_skipped, 1u) << "length " << len;
    // No silent partial index: nothing from the bad container leaks in.
    EXPECT_EQ(report_chunk_index_size_, 0u) << "length " << len;
  }
}

TEST_F(RecoveryCorruptionTest, FlippedBytesSkipContainer) {
  // Flip every byte of the container file one at a time (header bytes,
  // metadata, payload, checksum): the checksum refuses each variant.
  const Buffer blob = seal_one_container();
  for (std::size_t i = 0; i < blob.size(); ++i) {
    Buffer bad = blob;
    bad[i] ^= 0xFF;
    write_container_file("container-0", ByteView{bad.data(), bad.size()});
    const RecoveryReport r = recover();
    EXPECT_EQ(r.containers_recovered, 0u) << "byte " << i;
    EXPECT_EQ(r.containers_skipped, 1u) << "byte " << i;
    EXPECT_EQ(report_chunk_index_size_, 0u) << "byte " << i;
  }
}

TEST_F(RecoveryCorruptionTest, OversizedLengthPrefixRefused) {
  // A chunk count far beyond the file's bytes must be refused by the
  // bounds-checked codec, not allocate a huge index. Stamp a valid
  // checksum so the count itself is what recovery has to catch.
  Buffer blob = seal_one_container();
  const std::size_t count_at = 4 + 4 + 8 + 1;  // magic, version, id, flag
  blob[count_at + 0] = 0xFF;
  blob[count_at + 1] = 0xFF;
  blob[count_at + 2] = 0xFF;
  blob[count_at + 3] = 0xFF;
  const std::uint64_t sum = fnv1a64(ByteView{blob.data(), blob.size() - 8});
  for (int i = 0; i < 8; ++i) {
    blob[blob.size() - 8 + i] = static_cast<std::uint8_t>(sum >> (8 * i));
  }
  write_container_file("container-0", ByteView{blob.data(), blob.size()});
  const RecoveryReport r = recover();
  EXPECT_EQ(r.containers_recovered, 0u);
  EXPECT_EQ(r.containers_skipped, 1u);
  EXPECT_EQ(report_chunk_index_size_, 0u);
}

TEST_F(RecoveryCorruptionTest, MisnamedContainerRefused) {
  // A valid blob under the wrong id ("container-9" holding container 0)
  // would poison the chunk index with wrong locations; refuse it.
  const Buffer blob = seal_one_container();
  std::filesystem::rename(dir_ / "container-0", dir_ / "container-9");
  write_container_file("container-9", ByteView{blob.data(), blob.size()});
  const RecoveryReport r = recover();
  EXPECT_EQ(r.containers_recovered, 0u);
  EXPECT_EQ(r.containers_skipped, 1u);
}

TEST_F(RecoveryCorruptionTest, GoodContainersSurviveBadNeighbours) {
  // Two sealed containers; corrupt one. Recovery keeps the good one's
  // chunks fully indexed and drops the bad one whole.
  {
    DedupNode node(0, config(), std::make_unique<FileBackend>(dir_));
    node.write_super_chunk(0, make_sc(0, 64));  // 2 containers at 32/ea
    node.flush();
    ASSERT_TRUE(std::filesystem::exists(dir_ / "container-1"));
  }
  // Truncate container 0 mid-file.
  const auto bad_path = dir_ / "container-0";
  const auto size = std::filesystem::file_size(bad_path);
  std::filesystem::resize_file(bad_path, size / 2);

  DedupNode node(0, config(), std::make_unique<FileBackend>(dir_));
  node.rebuild_indexes();
  const RecoveryReport r = node.last_recovery();
  EXPECT_EQ(r.containers_recovered, 1u);
  EXPECT_EQ(r.containers_skipped, 1u);
  EXPECT_EQ(r.chunks_recovered, 32u);
  EXPECT_EQ(node.chunk_index().size(), 32u);
  // New ids keep clearing the recovered range (no overwrite of good data).
  node.write_super_chunk(0, make_sc(5000, 8));
  node.flush();
  EXPECT_TRUE(std::filesystem::exists(dir_ / "container-2"));
}

TEST_F(RecoveryCorruptionTest, SkippedContainersStillFenceTheIdSpace) {
  // The only container on disk is corrupt. Recovery refuses it — but its
  // id must stay fenced off, so post-recovery writes never overwrite the
  // damaged blob (which an operator or repair tool may still salvage).
  Buffer bad = seal_one_container();
  bad[10] ^= 0xFF;
  write_container_file("container-0", ByteView{bad.data(), bad.size()});

  DedupNode node(0, config(), std::make_unique<FileBackend>(dir_));
  node.rebuild_indexes();
  EXPECT_EQ(node.last_recovery().containers_recovered, 0u);
  EXPECT_EQ(node.last_recovery().containers_skipped, 1u);
  node.write_super_chunk(0, make_sc(100, 8));
  node.flush();
  // New data sealed under the next free id; the refused blob untouched.
  EXPECT_TRUE(std::filesystem::exists(dir_ / "container-1"));
  std::ifstream in(dir_ / "container-0", std::ios::binary | std::ios::ate);
  ASSERT_EQ(static_cast<std::size_t>(in.tellg()), bad.size());
  in.seekg(0);
  Buffer still(bad.size());
  in.read(reinterpret_cast<char*>(still.data()),
          static_cast<std::streamsize>(still.size()));
  EXPECT_EQ(still, bad);
}

TEST_F(RecoveryCorruptionTest, ForeignFilesIgnoredNotSkipped) {
  seal_one_container();
  write_container_file("README.txt", as_bytes(std::string("notes")));
  write_container_file("container-junk", as_bytes(std::string("x")));
  write_container_file("container-12.meta.bak", as_bytes(std::string("y")));
  write_container_file("container-", as_bytes(std::string("z")));
  // The sentinel id is not allocatable: a blob squatting on it is
  // foreign, not a container (indexing it would wrap the id space).
  write_container_file("container-18446744073709551615",
                       as_bytes(std::string("w")));
  const RecoveryReport r = recover();
  // Foreign files are not containers: neither recovered nor "skipped" —
  // skipped is reserved for real containers that failed validation.
  EXPECT_EQ(r.containers_recovered, 1u);
  EXPECT_EQ(r.containers_skipped, 0u);
  EXPECT_EQ(report_chunk_index_size_, 8u);
}

TEST_F(RecoveryCorruptionTest, RecoveryReportCountsChunksAndBytes) {
  seal_one_container();
  DedupNode node(0, config(), std::make_unique<FileBackend>(dir_));
  node.rebuild_indexes();
  const RecoveryReport r = node.last_recovery();
  EXPECT_EQ(r.containers_recovered, 1u);
  EXPECT_EQ(r.chunks_recovered, 8u);
  EXPECT_EQ(r.bytes_recovered, 8u * 64);
  EXPECT_EQ(r.containers_skipped, 0u);
  // Cache prefetch reads the recovered container's metadata prefix.
  EXPECT_EQ(node.container_store().read_metadata(0).size(), 8u);
  // Payloads are readable after recovery.
  for (const auto& p : payloads_) {
    const auto got =
        node.read_chunk(Fingerprint::of(ByteView{p.data(), p.size()}));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, p);
  }
}

TEST_F(RecoveryTest, UnflushedOpenContainersAreLost) {
  // Crash semantics: open containers never reached the backend; recovery
  // sees only sealed state.
  {
    DedupNode node(0, config(), std::make_unique<FileBackend>(dir_));
    node.write_super_chunk(0, make_sc(0, 16));  // fits one open container
    // no flush -> "crash"
  }
  DedupNode node(0, config(), std::make_unique<FileBackend>(dir_));
  EXPECT_EQ(node.rebuild_indexes(), 0u);
}

}  // namespace
}  // namespace sigma
