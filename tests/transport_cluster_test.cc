// The acceptance seam of the transport subsystem: a message-passing
// (transport-backed) cluster must produce exactly the report a
// direct-call cluster produces — same dedup ratio, same per-node usage,
// same pre-/after-routing message counts (the Fig. 7 metric) — on a
// generated workload, for every routing scheme, at pipeline depth 1; and
// stay correct (restores, totals) at deeper pipelines.
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "common/random.h"
#include "core/sigma_dedupe.h"
#include "workload/generators.h"

namespace sigma {
namespace {

ClusterConfig cluster_config(RoutingScheme scheme, std::size_t nodes,
                             TransportMode mode,
                             std::size_t pipeline_depth = 1) {
  ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.scheme = scheme;
  cfg.super_chunk_bytes = 64 * 1024;
  cfg.transport.mode = mode;
  cfg.transport.pipeline_depth = pipeline_depth;
  return cfg;
}

Dataset small_linux_trace() {
  LinuxWorkloadConfig cfg = LinuxWorkloadConfig::scaled(0.05);
  cfg.versions = 4;
  LinuxGenerator gen(cfg);
  const auto chunker = make_chunker(ChunkingScheme::kStatic, 4096);
  return materialize_dataset("linux-small", gen.content(), *chunker);
}

void expect_identical_reports(const ClusterReport& direct,
                              const ClusterReport& transport) {
  EXPECT_EQ(direct.logical_bytes, transport.logical_bytes);
  EXPECT_EQ(direct.physical_bytes, transport.physical_bytes);
  EXPECT_EQ(direct.node_usage, transport.node_usage);
  EXPECT_EQ(direct.messages.pre_routing, transport.messages.pre_routing);
  EXPECT_EQ(direct.messages.after_routing, transport.messages.after_routing);
  EXPECT_DOUBLE_EQ(direct.dedup_ratio(), transport.dedup_ratio());
}

class SchemeIdentity : public ::testing::TestWithParam<RoutingScheme> {};

TEST_P(SchemeIdentity, TransportReportEqualsDirectReport) {
  const RoutingScheme scheme = GetParam();
  const Dataset trace = small_linux_trace();

  Cluster direct(cluster_config(scheme, 4, TransportMode::kDirect));
  direct.backup_dataset(trace);
  direct.flush();

  Cluster transported(cluster_config(scheme, 4, TransportMode::kLoopback));
  transported.backup_dataset(trace);
  transported.flush();

  EXPECT_TRUE(transported.transport_backed());
  EXPECT_FALSE(direct.transport_backed());
  expect_identical_reports(direct.report(), transported.report());

  // The transport actually carried the traffic.
  const auto net = transported.net_stats();
  EXPECT_GT(net.messages_sent, 0u);
  EXPECT_GT(net.bytes_sent, 0u);
  EXPECT_EQ(direct.net_stats().messages_sent, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeIdentity,
                         ::testing::Values(RoutingScheme::kSigma,
                                           RoutingScheme::kStateless,
                                           RoutingScheme::kStateful,
                                           RoutingScheme::kExtremeBinning,
                                           RoutingScheme::kChunkDht));

TEST(TransportClusterTest, DeepPipelinePreservesTotalsAndDedup) {
  // At depth > 1 probe/write interleaving may shift individual routing
  // decisions, but the totals the client accounts for — logical bytes,
  // after-routing messages (one per chunk), chunk conservation — are
  // invariant, and no data may be lost.
  const Dataset trace = small_linux_trace();

  Cluster direct(cluster_config(RoutingScheme::kSigma, 4,
                                TransportMode::kDirect));
  direct.backup_dataset(trace);

  Cluster deep(cluster_config(RoutingScheme::kSigma, 4,
                              TransportMode::kLoopback, 8));
  deep.backup_dataset(trace);

  const auto d = direct.report();
  const auto p = deep.report();
  EXPECT_EQ(d.logical_bytes, p.logical_bytes);
  EXPECT_EQ(d.messages.after_routing, p.messages.after_routing);
  // Every chunk is stored somewhere: physical bytes within 5% of the
  // depth-1 placement's.
  EXPECT_NEAR(static_cast<double>(p.physical_bytes),
              static_cast<double>(d.physical_bytes),
              0.05 * static_cast<double>(d.physical_bytes));
}

}  // namespace
}  // namespace sigma
