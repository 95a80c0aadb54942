// The restore read path end to end: a sealed chunk is read with one
// ranged read of its container (header, then exactly the chunk's bytes),
// the locations behind it survive recovery, hostile container headers
// fail cleanly on chunk and metadata reads alike, a damaged metadata
// section fails prefetch and recovery, the client holds every restored
// chunk to its recipe
// fingerprint, and pipelined reads keep read-after-write and stay
// bit-exact under concurrent restores and backups over TCP.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

#include "cluster/backup_client.h"
#include "common/random.h"
#include "node/dedup_node.h"
#include "server/node_server.h"
#include "storage/container_store.h"

namespace sigma {
namespace {

Buffer random_data(std::size_t n, std::uint64_t seed) {
  Buffer out(n);
  Rng rng(seed);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

ContentBackup make_session(const std::string& name, std::uint64_t seed,
                           int files, std::size_t file_size) {
  ContentBackup b;
  b.session = name;
  for (int f = 0; f < files; ++f) {
    b.files.push_back({"dir/f" + std::to_string(f),
                       random_data(file_size, seed + f)});
  }
  return b;
}

class TempDir {
 public:
  TempDir()
      : path_(std::filesystem::temp_directory_path() /
              ("sigma-restore-read-" + std::to_string(::getpid()) + "-" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name())) {
    std::filesystem::remove_all(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

/// Sealed payload container blobs in `backend`, by id.
std::map<ContainerId, Container> sealed_containers(StorageBackend& backend) {
  std::map<ContainerId, Container> out;
  for (const std::string& key : backend.keys()) {
    if (const auto id = ContainerStore::parse_container_key(key)) {
      const Buffer blob = *backend.get(key);
      out.emplace(*id, Container::deserialize(ByteView{blob.data(),
                                                       blob.size()}));
    }
  }
  return out;
}

TEST(RangedReadTest, SealedReadsMatchDeserializedContainers) {
  TempDir dir;
  FileBackend backend(dir.path());
  ContainerStore store(backend, 64 * 1024);
  std::vector<ChunkLocation> locs;
  for (std::uint64_t i = 0; i < 90; ++i) {
    // Varied sizes, so chunk offsets are not a multiple of one length.
    const Buffer data = random_data(1000 + (i * 397) % 3000, i);
    locs.push_back(store.append(static_cast<StreamId>(i % 2),
                                Fingerprint::from_uint64(i),
                                ByteView{data.data(), data.size()}));
  }
  store.flush();
  const auto containers = sealed_containers(backend);
  ASSERT_GE(containers.size(), 4u);
  for (const ChunkLocation& loc : locs) {
    const Container& c = containers.at(loc.container);
    const ChunkMeta& m = c.metadata().at(loc.index);
    EXPECT_EQ(loc.offset, m.offset);
    EXPECT_EQ(loc.length, m.length);
    const ByteView want = c.chunk_data(loc.index);
    EXPECT_EQ(store.read_chunk(loc), Buffer(want.begin(), want.end()));
  }
}

TEST(RangedReadTest, RecoveredLocationsReadTheSameBytes) {
  TempDir dir;
  DedupNodeConfig cfg;
  cfg.container_capacity_bytes = 48 * 1024;
  std::vector<Buffer> payloads;
  SuperChunk sc;
  for (std::uint64_t i = 0; i < 60; ++i) {
    payloads.push_back(random_data(512 + (i * 211) % 4000, 100 + i));
    sc.chunks.push_back(
        {Fingerprint::of(ByteView{payloads[i].data(), payloads[i].size()}),
         static_cast<std::uint32_t>(payloads[i].size())});
  }
  {
    DedupNode node(0, cfg, std::make_unique<FileBackend>(dir.path()));
    node.write_super_chunk(0, sc, [&payloads](std::size_t i) {
      return ByteView{payloads[i].data(), payloads[i].size()};
    });
    node.flush();
  }
  DedupNode node(0, cfg, std::make_unique<FileBackend>(dir.path()));
  FileBackend view(dir.path());
  const auto containers = sealed_containers(view);
  ASSERT_GE(containers.size(), 3u);
  ASSERT_EQ(node.rebuild_indexes(), containers.size());
  std::size_t chunks = 0;
  for (const auto& [id, c] : containers) {
    for (std::uint32_t i = 0; i < c.chunk_count(); ++i, ++chunks) {
      const ChunkMeta& m = c.metadata()[i];
      const auto loc = node.chunk_index().lookup(m.fp);
      ASSERT_TRUE(loc.has_value());
      EXPECT_EQ(loc->container, id);
      EXPECT_EQ(loc->index, i);
      EXPECT_EQ(loc->offset, m.offset);
      EXPECT_EQ(loc->length, m.length);
      const ByteView want = c.chunk_data(i);
      EXPECT_EQ(node.read_chunk(m.fp), Buffer(want.begin(), want.end()));
    }
  }
  EXPECT_EQ(chunks, payloads.size());
}

/// One sealed two-chunk payload container (id 0) in a FileBackend, with
/// the location of its second chunk.
struct SealedFixture {
  TempDir dir;
  FileBackend backend{dir.path()};
  ContainerStore store{backend, 1 << 20};
  Buffer blob;
  ChunkLocation loc;

  SealedFixture() {
    const Buffer a = random_data(3000, 1), b = random_data(5000, 2);
    store.append(0, Fingerprint::from_uint64(1), ByteView{a.data(), a.size()});
    loc = store.append(0, Fingerprint::from_uint64(2),
                       ByteView{b.data(), b.size()});
    store.flush();
    blob = *backend.get(ContainerStore::container_key(loc.container));
  }

  /// Replace the container blob, then read the chunk back.
  Buffer read_with(const Buffer& replacement) {
    backend.put(ContainerStore::container_key(loc.container),
                ByteView{replacement.data(), replacement.size()});
    return store.read_chunk(loc);
  }

  /// Replace the container blob, then read its metadata back.
  std::vector<ChunkMeta> metadata_with(const Buffer& replacement) {
    backend.put(ContainerStore::container_key(loc.container),
                ByteView{replacement.data(), replacement.size()});
    return store.read_metadata(loc.container);
  }
};

TEST(RangedReadTest, HostileHeadersThrowCleanly) {
  SealedFixture f;
  ASSERT_EQ(f.store.read_chunk(f.loc).size(), 5000u);
  ASSERT_EQ(f.store.read_metadata(f.loc.container).size(), 2u);

  // Chunk reads and metadata reads share the header check.
  Buffer bad_magic = f.blob;
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW(f.read_with(bad_magic), net::WireError);
  EXPECT_THROW(f.metadata_with(bad_magic), net::WireError);

  Buffer bad_version = f.blob;
  bad_version[4] = 9;
  EXPECT_THROW(f.read_with(bad_version), net::WireError);
  EXPECT_THROW(f.metadata_with(bad_version), net::WireError);

  // A well-formed container under the wrong key.
  Container other(f.loc.container + 7);
  const Buffer x = random_data(8000, 3);
  other.append(Fingerprint::from_uint64(3), ByteView{x.data(), x.size()});
  EXPECT_THROW(f.read_with(other.serialize()), net::WireError);
  EXPECT_THROW(f.metadata_with(other.serialize()), net::WireError);

  // No payloads: refused for a chunk read, still fine for prefetch.
  Container meta_only(f.loc.container);
  meta_only.append_meta(Fingerprint::from_uint64(1), 3000);
  meta_only.append_meta(Fingerprint::from_uint64(2), 5000);
  EXPECT_THROW(f.read_with(meta_only.serialize()), net::WireError);
  EXPECT_EQ(f.metadata_with(meta_only.serialize()), meta_only.metadata());

  const Buffer torn_header(f.blob.begin(),
                           f.blob.begin() + Container::kHeaderBytes - 3);
  EXPECT_THROW(f.read_with(torn_header), std::out_of_range);
  EXPECT_THROW(f.metadata_with(torn_header), std::out_of_range);

  // Cut inside the metadata section (two 32-byte entries, then the
  // section checksum).
  const Buffer torn_meta(f.blob.begin(),
                         f.blob.begin() + Container::kHeaderBytes + 40);
  EXPECT_THROW(f.metadata_with(torn_meta), std::out_of_range);

  const std::uint64_t start = Container::data_section_start(
      ByteView{f.blob.data(), f.blob.size()}, f.loc.container);
  const Buffer torn_chunk(
      f.blob.begin(),
      f.blob.begin() + static_cast<std::ptrdiff_t>(start + f.loc.offset +
                                                   f.loc.length / 2));
  EXPECT_THROW(f.read_with(torn_chunk), std::out_of_range);

  EXPECT_THROW(
      (void)Container::data_section_start(
          ByteView{f.blob.data(), Container::kHeaderBytes - 1},
          f.loc.container),
      net::WireError);
}

TEST(RangedReadTest, FlippedMetadataByteFailsPrefetchAndRecovery) {
  SealedFixture f;
  const std::uint64_t len = Container::metadata_prefix_bytes(
      ByteView{f.blob.data(), Container::kHeaderBytes}, f.loc.container);
  for (std::uint64_t i = 0; i < len; ++i) {
    Buffer bad = f.blob;
    bad[i] ^= 0x5A;
    EXPECT_THROW(f.metadata_with(bad), std::exception) << "byte " << i;
  }

  // One flipped byte in the second entry's fingerprint: recovery refuses
  // the container whole, so neither chunk is indexed.
  Buffer bad = f.blob;
  bad[Container::kHeaderBytes + 32 + 3] ^= 0x5A;
  f.backend.put(ContainerStore::container_key(f.loc.container),
                ByteView{bad.data(), bad.size()});
  DedupNode node(0, DedupNodeConfig{},
                 std::make_unique<FileBackend>(f.dir.path()));
  EXPECT_EQ(node.rebuild_indexes(), 0u);
  EXPECT_EQ(node.last_recovery().containers_skipped, 1u);
  EXPECT_EQ(node.chunk_index().size(), 0u);
}

TEST(RangedReadTest, ReadCountsTheChunkNotTheContainer) {
  SealedFixture f;
  const IoStats before = f.backend.stats();
  ASSERT_EQ(f.store.read_chunk(f.loc).size(), 5000u);
  const IoStats after = f.backend.stats();
  EXPECT_EQ(after.bytes_read - before.bytes_read,
            Container::kHeaderBytes + 5000u);
  // A metadata read fetches the header, then the rest of the metadata
  // prefix: no payload bytes.
  ASSERT_EQ(f.store.read_metadata(f.loc.container).size(), 2u);
  EXPECT_EQ(f.backend.stats().bytes_read - after.bytes_read,
            Container::metadata_prefix_bytes(
                ByteView{f.blob.data(), Container::kHeaderBytes},
                f.loc.container));
}

TEST(RestoreIntegrityTest, FlippedPayloadByteOnDiskFailsRestore) {
  TempDir dir;
  ClusterConfig cc;
  cc.num_nodes = 2;
  cc.super_chunk_bytes = 64 * 1024;
  cc.node.container_capacity_bytes = 64 * 1024;
  cc.backend_factory = [&dir](NodeId i) {
    return std::make_unique<FileBackend>(dir.path() / std::to_string(i));
  };
  Cluster cluster(cc);
  Director director;
  BackupClientConfig bc;
  bc.super_chunk_bytes = 64 * 1024;
  BackupClient client(bc, cluster, director);
  const ContentBackup session = make_session("s", 77, 1, 256 * 1024);
  client.backup(session);
  cluster.flush();
  ASSERT_EQ(client.restore("s", "dir/f0"), session.files[0].data);

  // Flip one byte in the middle of a stored chunk, under the running
  // node: recovery never runs, so only the client's check can notice.
  bool flipped = false;
  for (NodeId n = 0; n < cc.num_nodes && !flipped; ++n) {
    FileBackend view(dir.path() / std::to_string(n));
    for (const auto& [id, c] : sealed_containers(view)) {
      const Buffer blob = *view.get(ContainerStore::container_key(id));
      const ChunkMeta& m = c.metadata().front();
      const std::uint64_t at =
          Container::data_section_start(ByteView{blob.data(), blob.size()},
                                        id) +
          m.offset + m.length / 2;
      std::fstream file(view.dir() / ContainerStore::container_key(id),
                        std::ios::in | std::ios::out | std::ios::binary);
      file.seekg(static_cast<std::streamoff>(at));
      const char byte = static_cast<char>(file.get() ^ 0x5A);
      file.seekp(static_cast<std::streamoff>(at));
      file.put(byte);
      flipped = true;
      break;
    }
  }
  ASSERT_TRUE(flipped);
  try {
    (void)client.restore("s", "dir/f0");
    FAIL() << "restore returned despite a corrupted chunk";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("content mismatch"),
              std::string::npos)
        << e.what();
  }
}

/// Four nodes in one embedded NodeServer, dialed over TCP at pipeline
/// depth 4.
struct TcpRig {
  server::NodeServer server{[] {
    server::NodeServerConfig cfg;
    cfg.listen = {"127.0.0.1", 0};
    cfg.num_nodes = 4;
    return cfg;
  }()};
  Cluster cluster{[this] {
    ClusterConfig cc;
    cc.num_nodes = 4;
    cc.super_chunk_bytes = 64 * 1024;
    cc.transport.mode = TransportMode::kTcp;
    cc.transport.pipeline_depth = 4;
    cc.transport.rpc_timeout_ms = 20000;
    cc.transport.tcp_nodes = server.node_map();
    return cc;
  }()};
  Director director;
  BackupClientConfig bc = [] {
    BackupClientConfig c;
    c.super_chunk_bytes = 64 * 1024;
    c.hash_threads = 2;
    return c;
  }();
};

TEST(PipelinedRestoreTest, ReadsObserveInFlightWrites) {
  TcpRig rig;
  BackupClient client(rig.bc, rig.cluster, rig.director);
  const ContentBackup session = make_session("s", 5, 3, 300 * 1024);
  client.backup(session);
  for (const auto& file : session.files) {
    EXPECT_EQ(client.restore("s", file.path), file.data);
  }

  // Straight after placement, with writes still in the pipeline: the
  // read's drain is the only barrier between them.
  std::vector<Buffer> payloads;
  SuperChunk sc;
  for (std::uint64_t i = 0; i < 16; ++i) {
    payloads.push_back(random_data(4096, 900 + i));
    sc.chunks.push_back(
        {Fingerprint::of(ByteView{payloads[i].data(), 4096}), 4096});
  }
  std::vector<std::pair<NodeId, Fingerprint>> reads;
  for (int round = 0; round < 4; ++round) {
    SuperChunk part;
    part.chunks.assign(sc.chunks.begin() + round * 4,
                       sc.chunks.begin() + round * 4 + 4);
    const NodeId node = rig.cluster.place_super_chunk(
        part, 0, [&payloads, round](std::size_t i) {
          const Buffer& p = payloads[static_cast<std::size_t>(round) * 4 + i];
          return ByteView{p.data(), p.size()};
        });
    for (const auto& c : part.chunks) reads.emplace_back(node, c.fp);
  }
  const auto got = rig.cluster.read_chunks(reads);
  ASSERT_EQ(got.size(), payloads.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i].has_value()) << i;
    EXPECT_EQ(*got[i], payloads[i]) << i;
  }
}

TEST(PipelinedRestoreTest, ConcurrentRestoresBesideABackupStayBitExact) {
  TcpRig rig;
  const ContentBackup base = make_session("base", 11, 4, 200 * 1024);
  {
    BackupClient client(rig.bc, rig.cluster, rig.director);
    client.backup(base);
  }
  rig.cluster.flush();

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      BackupClient client(rig.bc, rig.cluster, rig.director);
      for (int round = 0; round < 3; ++round) {
        for (std::size_t f = 0; f < base.files.size(); ++f) {
          const auto& file = base.files[(f + t) % base.files.size()];
          if (client.restore("base", file.path) != file.data) ++mismatches;
        }
      }
    });
  }
  std::vector<ContentBackup> fresh;
  for (int g = 0; g < 3; ++g) {
    fresh.push_back(make_session("gen" + std::to_string(g), 50 + 10 * g, 2,
                                 150 * 1024));
  }
  threads.emplace_back([&] {
    BackupClient client(rig.bc, rig.cluster, rig.director);
    for (std::size_t g = 0; g < fresh.size(); ++g) {
      client.backup(fresh[g], /*stream=*/1);
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  BackupClient client(rig.bc, rig.cluster, rig.director);
  for (const auto& session : fresh) {
    for (const auto& file : session.files) {
      EXPECT_EQ(client.restore(session.session, file.path), file.data);
    }
  }
}

}  // namespace
}  // namespace sigma
