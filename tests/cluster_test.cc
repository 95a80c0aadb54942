// Cluster simulator: trace-driven backups for every scheme, dedup ratio
// and message accounting, EB bin semantics, report metrics.
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "common/hash_util.h"

namespace sigma {
namespace {

ChunkRecord rec(std::uint64_t id, std::uint32_t size = 4096) {
  return {Fingerprint::from_uint64(mix64(id)), size};
}

TraceBackup make_backup(const std::string& session, std::uint64_t first,
                        std::size_t files, std::size_t chunks_per_file) {
  TraceBackup b;
  b.session = session;
  for (std::size_t f = 0; f < files; ++f) {
    TraceFile tf;
    tf.path = "file-" + std::to_string(f);
    for (std::size_t c = 0; c < chunks_per_file; ++c) {
      tf.chunks.push_back(rec(first + f * chunks_per_file + c));
    }
    b.files.push_back(std::move(tf));
  }
  return b;
}

/// A small fixed trace with the shapes every unit cutter must get right:
/// files larger than a super-chunk, empty and one-chunk files, a chunk
/// repeated within a file, files kept, edited, renamed, copied and mixed
/// across generations, and chunk sizes that vary.
std::vector<TraceBackup> golden_trace() {
  auto file = [](const std::string& path, std::uint64_t first,
                 std::size_t n) {
    TraceFile f;
    f.path = path;
    for (std::uint64_t id = first; id < first + n; ++id) {
      f.chunks.push_back(rec(id, 1024 + static_cast<std::uint32_t>(id % 7) * 1024));
    }
    return f;
  };
  TraceBackup g0;
  g0.session = "g0";
  g0.files = {file("big", 0, 60),    file("small", 100, 3),
              file("empty", 0, 0),   file("one", 200, 1),
              file("mid", 300, 20),  file("tail", 400, 33)};
  g0.files[4].chunks.push_back(g0.files[4].chunks[2]);

  TraceBackup g1 = g0;
  g1.session = "g1";
  g1.files[0].chunks[10] = rec(1000);
  g1.files[5].chunks.push_back(rec(1001, 512));
  g1.files.push_back(g0.files[1]);
  g1.files.back().path = "copy";
  std::swap(g1.files[1], g1.files[4]);
  g1.files.push_back(file("new", 500, 12));

  TraceBackup g2 = g1;
  g2.session = "g2";
  TraceFile mix = file("mix", 2000, 2);
  for (std::size_t c = 0; c < 10; ++c) {
    mix.chunks.push_back(g0.files[4].chunks[c]);
    mix.chunks.push_back(g0.files[5].chunks[c]);
  }
  g2.files.insert(g2.files.begin() + 2, mix);
  g2.files.erase(g2.files.begin() + 3);
  g2.files.push_back(file("big2", 0, 45));
  return {g0, g1, g2};
}

ClusterConfig config_for(RoutingScheme scheme, std::size_t nodes) {
  ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.scheme = scheme;
  cfg.super_chunk_bytes = 16 * 4096;  // small super-chunks for tests
  return cfg;
}

TEST(ClusterTest, RejectsZeroNodes) {
  EXPECT_THROW(Cluster(config_for(RoutingScheme::kSigma, 0)),
               std::invalid_argument);
}

TEST(ClusterTest, SingleBackupStoresEverythingOnce) {
  Cluster cluster(config_for(RoutingScheme::kSigma, 4));
  cluster.backup(make_backup("b1", 0, 4, 64));
  const auto r = cluster.report();
  EXPECT_EQ(r.logical_bytes, 4u * 64 * 4096);
  EXPECT_EQ(r.physical_bytes, r.logical_bytes);  // no redundancy yet
  EXPECT_NEAR(r.dedup_ratio(), 1.0, 1e-9);
}

TEST(ClusterTest, RepeatedBackupDeduplicates) {
  Cluster cluster(config_for(RoutingScheme::kSigma, 4));
  const auto b = make_backup("b", 0, 4, 64);
  cluster.backup(b);
  cluster.backup(b);
  cluster.backup(b);
  const auto r = cluster.report();
  EXPECT_EQ(r.logical_bytes, 3u * 4 * 64 * 4096);
  // Sigma routes identical super-chunks to the same node: exact dedup.
  EXPECT_EQ(r.physical_bytes, 4u * 64 * 4096);
  EXPECT_NEAR(r.dedup_ratio(), 3.0, 1e-9);
}

TEST(ClusterTest, StatefulAlsoReachesExactDedupOnRepeats) {
  Cluster cluster(config_for(RoutingScheme::kStateful, 4));
  const auto b = make_backup("b", 0, 4, 64);
  cluster.backup(b);
  cluster.backup(b);
  EXPECT_NEAR(cluster.report().dedup_ratio(), 2.0, 1e-9);
}

TEST(ClusterTest, StatelessDeduplicatesIdenticalSuperChunks) {
  Cluster cluster(config_for(RoutingScheme::kStateless, 4));
  const auto b = make_backup("b", 0, 4, 64);
  cluster.backup(b);
  cluster.backup(b);
  // Identical stream => identical super-chunks => identical representative
  // fingerprints => same nodes: full dedup.
  EXPECT_NEAR(cluster.report().dedup_ratio(), 2.0, 1e-9);
}

TEST(ClusterTest, ChunkDhtGlobalDedupAcrossAnyPlacement) {
  Cluster cluster(config_for(RoutingScheme::kChunkDht, 4));
  cluster.backup(make_backup("b1", 0, 4, 64));
  // Same chunks, different file arrangement: DHT still finds every
  // duplicate because placement is by fingerprint.
  cluster.backup(make_backup("b2", 0, 8, 32));
  EXPECT_NEAR(cluster.report().dedup_ratio(), 2.0, 1e-9);
}

TEST(ClusterTest, ExtremeBinningBinDedup) {
  Cluster cluster(config_for(RoutingScheme::kExtremeBinning, 4));
  const auto b = make_backup("b", 0, 8, 32);
  cluster.backup(b);
  cluster.backup(b);
  const auto r = cluster.report();
  // Identical files hit identical bins: full dedup of the second backup.
  EXPECT_NEAR(r.dedup_ratio(), 2.0, 1e-9);
}

TEST(ClusterTest, ExtremeBinningCrossBinRedundancyNotFound) {
  Cluster cluster(config_for(RoutingScheme::kExtremeBinning, 4));
  // Two files with identical chunk contents except their minimum
  // fingerprint, forcing them into different bins.
  TraceBackup b;
  b.session = "cross-bin";
  TraceFile f1;
  f1.path = "f1";
  f1.chunks.push_back({Fingerprint::from_uint64(1), 4096});  // tiny min fp
  for (std::uint64_t i = 0; i < 31; ++i) f1.chunks.push_back(rec(500 + i));
  TraceFile f2;
  f2.path = "f2";
  f2.chunks.push_back({Fingerprint::from_uint64(2), 4096});  // different min
  for (std::uint64_t i = 0; i < 31; ++i) f2.chunks.push_back(rec(500 + i));
  b.files = {f1, f2};
  cluster.backup(b);
  const auto r = cluster.report();
  // If the two bins landed on different locations (bin key differs), the
  // shared 31 chunks are stored twice => physical close to logical.
  EXPECT_GT(r.physical_bytes, 32u * 4096);
}

TEST(ClusterTest, MessageAccountingAfterRoutingEqualsChunkCount) {
  for (RoutingScheme scheme :
       {RoutingScheme::kSigma, RoutingScheme::kStateless,
        RoutingScheme::kStateful, RoutingScheme::kExtremeBinning,
        RoutingScheme::kChunkDht}) {
    Cluster cluster(config_for(scheme, 4));
    cluster.backup(make_backup("b", 0, 4, 64));
    EXPECT_EQ(cluster.report().messages.after_routing, 4u * 64)
        << to_string(scheme);
  }
}

TEST(ClusterTest, PreRoutingMessagesOnlyForStatefulSchemes) {
  const auto backup = make_backup("b", 0, 4, 64);
  for (RoutingScheme scheme :
       {RoutingScheme::kStateless, RoutingScheme::kExtremeBinning,
        RoutingScheme::kChunkDht}) {
    Cluster cluster(config_for(scheme, 4));
    cluster.backup(backup);
    EXPECT_EQ(cluster.report().messages.pre_routing, 0u) << to_string(scheme);
  }
  for (RoutingScheme scheme :
       {RoutingScheme::kSigma, RoutingScheme::kStateful}) {
    Cluster cluster(config_for(scheme, 4));
    cluster.backup(backup);
    EXPECT_GT(cluster.report().messages.pre_routing, 0u) << to_string(scheme);
  }
}

TEST(ClusterTest, StatefulMessagesGrowWithClusterSize) {
  const auto backup = make_backup("b", 0, 8, 64);
  std::uint64_t prev = 0;
  for (std::size_t n : {2, 8, 32}) {
    Cluster cluster(config_for(RoutingScheme::kStateful, n));
    cluster.backup(backup);
    const auto msgs = cluster.report().messages.pre_routing;
    EXPECT_GT(msgs, prev);
    prev = msgs;
  }
}

TEST(ClusterTest, SigmaMessagesFlatInClusterSize) {
  const auto backup = make_backup("b", 0, 8, 64);
  std::vector<std::uint64_t> counts;
  for (std::size_t n : {8, 32, 128}) {
    Cluster cluster(config_for(RoutingScheme::kSigma, n));
    cluster.backup(backup);
    counts.push_back(cluster.report().messages.pre_routing);
  }
  // Bounded by k*k per super-chunk regardless of N.
  EXPECT_LE(counts.back(),
            counts.front() * 2);  // flat up to candidate-collision noise
}

TEST(ClusterTest, BackupDatasetProcessesAllGenerations) {
  Dataset ds;
  ds.name = "mini";
  ds.backups.push_back(make_backup("g1", 0, 2, 32));
  ds.backups.push_back(make_backup("g2", 0, 2, 32));
  Cluster cluster(config_for(RoutingScheme::kSigma, 2));
  cluster.backup_dataset(ds);
  EXPECT_NEAR(cluster.report().dedup_ratio(), 2.0, 1e-9);
}

TEST(ClusterTest, FileRoutingRejectsTracesWithoutFiles) {
  Dataset ds;
  ds.name = "raw";
  ds.has_file_metadata = false;
  ds.backups.push_back(make_backup("g1", 0, 1, 32));
  Cluster cluster(config_for(RoutingScheme::kExtremeBinning, 2));
  EXPECT_THROW(cluster.backup_dataset(ds), std::invalid_argument);
}

TEST(ClusterTest, ReportSkewMetrics) {
  Cluster cluster(config_for(RoutingScheme::kSigma, 4));
  cluster.backup(make_backup("b", 0, 8, 64));
  const auto r = cluster.report();
  EXPECT_EQ(r.node_usage.size(), 4u);
  EXPECT_GT(r.usage_mean(), 0.0);
  EXPECT_GE(r.usage_stddev(), 0.0);
  EXPECT_LE(r.effective_dedup_ratio(), r.dedup_ratio() + 1e-12);
}

TEST(ClusterTest, EffectiveRatioPenalizesImbalance) {
  // Construct perfectly balanced vs imbalanced reports directly.
  ClusterReport balanced;
  balanced.logical_bytes = 4000;
  balanced.physical_bytes = 2000;
  balanced.node_usage = {500, 500, 500, 500};
  ClusterReport skewed = balanced;
  skewed.node_usage = {2000, 0, 0, 0};
  EXPECT_GT(balanced.effective_dedup_ratio(),
            skewed.effective_dedup_ratio());
  EXPECT_DOUBLE_EQ(balanced.effective_dedup_ratio(),
                   balanced.dedup_ratio());
}

TEST(ClusterTest, PlaceSuperChunkRejectsEmpty) {
  Cluster cluster(config_for(RoutingScheme::kSigma, 2));
  EXPECT_THROW(cluster.place_super_chunk(SuperChunk{}, 0),
               std::invalid_argument);
}

TEST(ClusterTest, FlushSealsAllNodes) {
  Cluster cluster(config_for(RoutingScheme::kSigma, 3));
  cluster.backup(make_backup("b", 0, 4, 64));
  cluster.flush();
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_EQ(cluster.node(i).container_store().open_container_count(), 0u);
  }
}

struct GoldenReport {
  RoutingScheme scheme;
  std::uint64_t physical_bytes;
  std::vector<std::uint64_t> node_usage;
  std::uint64_t pre_routing;
};

TEST(ClusterTest, GoldenDirectReportsPerScheme) {
  // Pinned before every scheme moved onto one placement path (Extreme
  // Binning's bins then lived in the client): the direct-mode numbers of
  // the evaluation must not move with the refactor.
  const std::vector<GoldenReport> golden = {
      {RoutingScheme::kSigma, 790016, {231424, 187392, 268800, 102400}, 765},
      {RoutingScheme::kStateless, 1032704, {264192, 292352, 229376, 246784}, 0},
      {RoutingScheme::kStateful, 865792, {166912, 300544, 178176, 220160}, 116},
      {RoutingScheme::kExtremeBinning, 797184, {238080, 57344, 0, 501760}, 0},
      {RoutingScheme::kChunkDht, 542208, {141824, 122880, 145408, 132096}, 0},
  };
  for (const GoldenReport& g : golden) {
    Cluster cluster(config_for(g.scheme, 4));
    for (const TraceBackup& gen : golden_trace()) cluster.backup(gen);
    const auto r = cluster.report();
    EXPECT_EQ(r.logical_bytes, 1820672u) << to_string(g.scheme);
    EXPECT_EQ(r.physical_bytes, g.physical_bytes) << to_string(g.scheme);
    EXPECT_EQ(r.node_usage, g.node_usage) << to_string(g.scheme);
    EXPECT_EQ(r.messages.pre_routing, g.pre_routing) << to_string(g.scheme);
    EXPECT_EQ(r.messages.after_routing, 453u) << to_string(g.scheme);
  }
}

// Theorem 2 sanity: with uniformly random data, Sigma's local balancing
// approaches global balance — max node usage within a small factor of min.
TEST(ClusterTest, SigmaGlobalBalanceOnRandomData) {
  Cluster cluster(config_for(RoutingScheme::kSigma, 8));
  for (int g = 0; g < 8; ++g) {
    cluster.backup(
        make_backup("g" + std::to_string(g),
                    static_cast<std::uint64_t>(g) * 1000000, 16, 64));
  }
  const auto r = cluster.report();
  std::uint64_t lo = ~0ull, hi = 0;
  for (auto u : r.node_usage) {
    lo = std::min(lo, u);
    hi = std::max(hi, u);
  }
  EXPECT_GT(lo, 0u);
  EXPECT_LT(static_cast<double>(hi),
            3.0 * static_cast<double>(lo));  // loose but meaningful
}

}  // namespace
}  // namespace sigma
