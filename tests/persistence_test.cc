// Durable node state, end to end: file-backed nodes must change nothing
// about dedup behavior (bit-identical reports vs the in-memory backend,
// direct and TCP modes, all five routing schemes), and a killed
// file-backed daemon restarted on the same data directory must serve
// every chunk sealed before the kill after rebuild_indexes() — the
// paper's fleet only makes sense if node state survives restarts.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/random.h"
#include "server/node_server.h"
#include "storage/manifest.h"
#include "workload/generators.h"

namespace sigma {
namespace {

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A parameterised test's name holds a '/': flatten it, so the dir is
    // one level under the temp dir and TearDown removes all of it.
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '-');
    dir_ = std::filesystem::temp_directory_path() /
           ("sigma-persist-" + std::to_string(::getpid()) + "-" + name);
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

/// A fleet of in-process file-backed node daemons that can be killed and
/// restarted on the same data directories (fresh ephemeral ports, same
/// endpoints — exactly what a supervisor restart does).
class PersistentFleet {
 public:
  PersistentFleet(std::filesystem::path root, std::size_t daemons,
                  std::size_t nodes_each, std::uint64_t container_capacity)
      : root_(std::move(root)),
        daemons_(daemons),
        nodes_each_(nodes_each),
        container_capacity_(container_capacity) {
    start_all();
  }

  void kill_all() { servers_.clear(); }
  void restart_all() {
    kill_all();
    start_all();
  }

  server::NodeServer& server(std::size_t d) { return *servers_.at(d); }
  std::size_t num_nodes() const { return daemons_ * nodes_each_; }

  std::size_t total_recovered_containers() const {
    std::size_t n = 0;
    for (const auto& s : servers_) {
      for (std::size_t i = 0; i < s->num_nodes(); ++i) {
        n += s->recovery(i).containers_recovered;
      }
    }
    return n;
  }

  /// Sealed container files currently on disk, across all nodes.
  std::size_t on_disk_container_files() const {
    std::size_t n = 0;
    for (std::size_t d = 0; d < daemons_; ++d) {
      const auto daemon_dir = root_ / ("daemon-" + std::to_string(d));
      if (!std::filesystem::exists(daemon_dir)) continue;
      for (const auto& entry :
           std::filesystem::recursive_directory_iterator(daemon_dir)) {
        if (!entry.is_regular_file()) continue;
        if (ContainerStore::parse_container_key(
                entry.path().filename().string())) {
          ++n;
        }
      }
    }
    return n;
  }

  TransportConfig transport(std::size_t pipeline_depth = 1) const {
    TransportConfig t;
    t.mode = TransportMode::kTcp;
    t.pipeline_depth = pipeline_depth;
    t.rpc_timeout_ms = 20000;
    for (const auto& server : servers_) {
      for (const auto& node : server->node_map()) t.tcp_nodes.push_back(node);
    }
    return t;
  }

 private:
  void start_all() {
    net::EndpointId next_endpoint = net::kServiceEndpointBase;
    for (std::size_t d = 0; d < daemons_; ++d) {
      server::NodeServerConfig cfg;
      cfg.listen = {"127.0.0.1", 0};
      cfg.num_nodes = nodes_each_;
      cfg.first_endpoint = next_endpoint;
      next_endpoint += static_cast<net::EndpointId>(nodes_each_);
      cfg.backend = server::BackendKind::kFile;
      cfg.data_dir = root_ / ("daemon-" + std::to_string(d));
      cfg.fsync = false;  // survive kills; power loss is not under test
      cfg.node.container_capacity_bytes = container_capacity_;
      servers_.push_back(std::make_unique<server::NodeServer>(cfg));
    }
  }

  std::filesystem::path root_;
  std::size_t daemons_;
  std::size_t nodes_each_;
  std::uint64_t container_capacity_;
  std::vector<std::unique_ptr<server::NodeServer>> servers_;
};

Dataset small_linux_trace() {
  LinuxWorkloadConfig cfg = LinuxWorkloadConfig::scaled(0.04);
  cfg.versions = 2;
  LinuxGenerator gen(cfg);
  const auto chunker = make_chunker(ChunkingScheme::kStatic, 4096);
  return materialize_dataset("linux-small", gen.content(), *chunker);
}

void expect_same_report(const ClusterReport& a, const ClusterReport& b) {
  EXPECT_EQ(a.logical_bytes, b.logical_bytes);
  EXPECT_EQ(a.physical_bytes, b.physical_bytes);
  EXPECT_EQ(a.node_usage, b.node_usage);
  EXPECT_EQ(a.messages.pre_routing, b.messages.pre_routing);
  EXPECT_EQ(a.messages.after_routing, b.messages.after_routing);
  EXPECT_DOUBLE_EQ(a.dedup_ratio(), b.dedup_ratio());
}

class FileBackendIdentity
    : public PersistenceTest,
      public ::testing::WithParamInterface<RoutingScheme> {};

TEST_P(FileBackendIdentity, FileReportsEqualMemoryReportsEverywhere) {
  // The storage backend must be invisible to routing and dedup: the same
  // trace through (1) in-memory direct nodes, (2) file-backed direct
  // nodes and (3) a TCP fleet of file-backed daemons produces the same
  // Fig. 7 report, bit for bit.
  const RoutingScheme scheme = GetParam();
  const Dataset trace = small_linux_trace();

  ClusterConfig base;
  base.num_nodes = 4;
  base.scheme = scheme;
  base.super_chunk_bytes = 64 * 1024;

  Cluster memory_direct(base);
  memory_direct.backup_dataset(trace);
  memory_direct.flush();
  const auto m = memory_direct.report();

  {
    ClusterConfig cfg = base;
    const auto root = dir_ / "direct";
    cfg.backend_factory = [&root](NodeId id) {
      return std::make_unique<FileBackend>(root /
                                           ("node-" + std::to_string(id)));
    };
    Cluster file_direct(cfg);
    file_direct.backup_dataset(trace);
    file_direct.flush();
    expect_same_report(m, file_direct.report());
    // The data really went to disk.
    EXPECT_TRUE(
        std::filesystem::exists(root / "node-0"));
  }

  {
    PersistentFleet fleet(dir_ / "tcp", 2, 2, 4ull << 20);
    ClusterConfig cfg = base;
    cfg.transport = fleet.transport();
    Cluster file_tcp(cfg);
    file_tcp.backup_dataset(trace);
    file_tcp.flush();
    expect_same_report(m, file_tcp.report());
    EXPECT_GT(file_tcp.net_stats().messages_sent, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, FileBackendIdentity,
                         ::testing::Values(RoutingScheme::kSigma,
                                           RoutingScheme::kStateless,
                                           RoutingScheme::kStateful,
                                           RoutingScheme::kExtremeBinning,
                                           RoutingScheme::kChunkDht));

/// One random 4 KB chunk per id, plus where it was routed.
struct StoredChunk {
  Fingerprint fp;
  Buffer payload;
  NodeId node = 0;
};

std::vector<StoredChunk> store_chunks(Cluster& cluster, Rng& rng,
                                      std::size_t count,
                                      std::size_t per_super_chunk) {
  std::vector<StoredChunk> stored;
  stored.reserve(count);
  for (std::size_t base = 0; base < count; base += per_super_chunk) {
    SuperChunk sc;
    std::vector<Buffer> payloads;
    const std::size_t n = std::min(per_super_chunk, count - base);
    for (std::size_t i = 0; i < n; ++i) {
      Buffer data(4096);
      for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
      sc.chunks.push_back(
          {Fingerprint::of(ByteView{data.data(), data.size()}),
           static_cast<std::uint32_t>(data.size())});
      payloads.push_back(std::move(data));
    }
    const NodeId target = cluster.place_super_chunk(
        sc, /*stream=*/0, [&payloads](std::size_t i) {
          return ByteView{payloads[i].data(), payloads[i].size()};
        });
    for (std::size_t i = 0; i < n; ++i) {
      stored.push_back({sc.chunks[i].fp, std::move(payloads[i]), target});
    }
  }
  return stored;
}

TEST_F(PersistenceTest, KilledFleetServesEveryPreKillChunkAfterRestart) {
  // The ISSUE's acceptance crash drill: store against file-backed
  // daemons, kill them, restart on the same data dirs, and every chunk
  // sealed before the kill is readable — with rebuild_indexes()
  // reporting exactly the containers found on disk.
  PersistentFleet fleet(dir_, /*daemons=*/2, /*nodes_each=*/1,
                        /*container_capacity=*/32 * 1024);
  Rng rng(20260731);

  std::vector<StoredChunk> sealed;
  {
    ClusterConfig cfg;
    cfg.num_nodes = fleet.num_nodes();
    cfg.scheme = RoutingScheme::kSigma;
    cfg.super_chunk_bytes = 64 * 1024;
    cfg.transport = fleet.transport(/*pipeline_depth=*/4);
    Cluster cluster(cfg);

    sealed = store_chunks(cluster, rng, /*count=*/48, /*per_super_chunk=*/8);
    cluster.flush();  // seal everything stored so far

    // A mid-backlog tail the kill will interrupt: stored but never
    // flushed, so open containers are legitimately lost (crash
    // semantics), while everything sealed above must survive.
    (void)store_chunks(cluster, rng, /*count=*/8, /*per_super_chunk=*/8);
    (void)cluster.read_chunk(sealed.front().node, sealed.front().fp);
  }

  fleet.kill_all();
  const std::size_t containers_on_disk = fleet.on_disk_container_files();
  ASSERT_GT(containers_on_disk, 0u);

  fleet.restart_all();
  // rebuild_indexes() reports exactly the sealed containers on disk.
  EXPECT_EQ(fleet.total_recovered_containers(), containers_on_disk);

  ClusterConfig cfg;
  cfg.num_nodes = fleet.num_nodes();
  cfg.scheme = RoutingScheme::kSigma;
  cfg.super_chunk_bytes = 64 * 1024;
  cfg.transport = fleet.transport();
  Cluster restarted(cfg);
  for (const auto& chunk : sealed) {
    const auto got = restarted.read_chunk(chunk.node, chunk.fp);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, chunk.payload);
  }
}

TEST_F(PersistenceTest, DaemonFlushSealsAcceptedChunks) {
  // The SIGTERM path: the daemon seals its open containers on shutdown,
  // so chunks accepted but not client-flushed still survive the restart.
  PersistentFleet fleet(dir_, 1, 2, 4ull << 20);
  Rng rng(99);

  std::vector<StoredChunk> stored;
  {
    ClusterConfig cfg;
    cfg.num_nodes = fleet.num_nodes();
    cfg.scheme = RoutingScheme::kStateless;
    cfg.super_chunk_bytes = 64 * 1024;
    cfg.transport = fleet.transport();
    Cluster cluster(cfg);
    stored = store_chunks(cluster, rng, 16, 8);
    // Drain the pipeline without sealing anything client-side.
    (void)cluster.read_chunk(stored.front().node, stored.front().fp);
  }

  fleet.server(0).flush();  // what the daemon does on SIGTERM
  fleet.restart_all();
  EXPECT_GT(fleet.total_recovered_containers(), 0u);

  ClusterConfig cfg;
  cfg.num_nodes = fleet.num_nodes();
  cfg.scheme = RoutingScheme::kStateless;
  cfg.super_chunk_bytes = 64 * 1024;
  cfg.transport = fleet.transport();
  Cluster restarted(cfg);
  for (const auto& chunk : stored) {
    const auto got = restarted.read_chunk(chunk.node, chunk.fp);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, chunk.payload);
  }
}

TEST_F(PersistenceTest, SecondGenerationDeduplicatesAgainstRecoveredState) {
  // Restart, then back up the same content again: the recovered indexes
  // must recognize every chunk as a duplicate (no re-store, no growth in
  // physical usage) — crash recovery preserves dedup, not just bytes.
  PersistentFleet fleet(dir_, 1, 1, 32 * 1024);
  Rng rng(7);
  std::vector<StoredChunk> stored;
  {
    ClusterConfig cfg;
    cfg.num_nodes = 1;
    cfg.scheme = RoutingScheme::kStateless;
    cfg.transport = fleet.transport();
    Cluster cluster(cfg);
    stored = store_chunks(cluster, rng, 32, 8);
    cluster.flush();
  }
  fleet.restart_all();
  ASSERT_GT(fleet.total_recovered_containers(), 0u);

  ClusterConfig cfg;
  cfg.num_nodes = 1;
  cfg.scheme = RoutingScheme::kStateless;
  cfg.transport = fleet.transport();
  Cluster cluster(cfg);
  const std::uint64_t before = cluster.report().physical_bytes;
  for (std::size_t base = 0; base < stored.size(); base += 8) {
    SuperChunk sc;
    for (std::size_t i = base; i < std::min(base + 8, stored.size()); ++i) {
      sc.chunks.push_back(
          {stored[i].fp, static_cast<std::uint32_t>(stored[i].payload.size())});
    }
    cluster.place_super_chunk(sc, 0, [&](std::size_t i) {
      const Buffer& p = stored[base + i].payload;
      return ByteView{p.data(), p.size()};
    });
  }
  cluster.flush();
  EXPECT_EQ(cluster.report().physical_bytes, before);  // all duplicates
}

// ---- Manifest: a data directory is pinned to one node identity ---------

server::NodeServerConfig file_server_config(
    const std::filesystem::path& data_dir,
    net::EndpointId first_endpoint = net::kServiceEndpointBase) {
  server::NodeServerConfig cfg;
  cfg.listen = {"127.0.0.1", 0};
  cfg.num_nodes = 1;
  cfg.first_endpoint = first_endpoint;
  cfg.backend = server::BackendKind::kFile;
  cfg.data_dir = data_dir;
  cfg.fsync = false;
  return cfg;
}

TEST_F(PersistenceTest, ManifestRefusesRemappedEndpoint) {
  { server::NodeServer server(file_server_config(dir_, 100)); }
  // Same endpoint: fine.
  { server::NodeServer server(file_server_config(dir_, 100)); }
  // Remapped endpoint over existing data: refused before serving.
  EXPECT_THROW(server::NodeServer server(file_server_config(dir_, 200)),
               std::runtime_error);
}

TEST_F(PersistenceTest, ManifestRefusesVersionSkew) {
  // A newer format and the previous one are both refused.
  for (const std::uint32_t version :
       {NodeManifest::kVersion + 1, NodeManifest::kVersion - 1}) {
    std::filesystem::remove_all(dir_);
    { server::NodeServer server(file_server_config(dir_)); }
    {
      FileBackend backend(dir_ / "node-0");
      auto manifest = load_manifest(backend);
      ASSERT_TRUE(manifest.has_value());
      manifest->version = version;
      store_manifest(backend, *manifest);
    }
    EXPECT_THROW(server::NodeServer server(file_server_config(dir_)),
                 std::runtime_error)
        << "version " << version;
  }
}

TEST_F(PersistenceTest, CorruptManifestRefusedNotReinitialized) {
  { server::NodeServer server(file_server_config(dir_)); }
  {
    FileBackend backend(dir_ / "node-0");
    const Buffer junk{0xDE, 0xAD, 0xBE, 0xEF};
    backend.put(kManifestKey, ByteView{junk.data(), junk.size()});
  }
  // A corrupt manifest must refuse startup — silently re-initializing
  // would sever the directory from its identity checks.
  EXPECT_THROW(server::NodeServer server(file_server_config(dir_)),
               std::runtime_error);
}

TEST_F(PersistenceTest, ManifestRoundTrips) {
  NodeManifest m;
  m.node_id = 3;
  m.endpoint = 103;
  m.container_capacity_bytes = 4ull << 20;
  const Buffer blob = m.encode();
  EXPECT_EQ(NodeManifest::decode(ByteView{blob.data(), blob.size()}), m);
  for (std::size_t i = 0; i < blob.size(); ++i) {
    Buffer bad = blob;
    bad[i] ^= 0xFF;
    EXPECT_THROW(
        (void)NodeManifest::decode(ByteView{bad.data(), bad.size()}),
        std::runtime_error)
        << "byte " << i;
  }
}

TEST_F(PersistenceTest, FileBackendRequiresDataDir) {
  server::NodeServerConfig cfg;
  cfg.backend = server::BackendKind::kFile;  // data_dir left empty
  EXPECT_THROW(server::NodeServer server(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace sigma
