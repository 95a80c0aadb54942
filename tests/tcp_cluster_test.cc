// Acceptance seam of the TCP deployment: a cluster whose nodes live
// behind real sockets (in-process NodeServer harnesses — the same core
// the node_server daemon runs) must produce exactly the report a
// direct-call cluster produces, for every routing scheme, at pipeline
// depth 1, whether the nodes are spread over several daemons or hosted
// by one; and stay correct (restores, totals) at deeper pipelines. Plus
// the failure path: a killed node daemon surfaces as an RPC/connection
// error within bounded time, never a hang.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <optional>
#include <string>
#include <thread>

#include "cluster/backup_client.h"
#include "cluster/cluster.h"
#include "common/random.h"
#include "net/rpc.h"
#include "net/tcp/tcp_transport.h"
#include "core/sigma_dedupe.h"
#include "server/node_server.h"
#include "workload/generators.h"

namespace sigma {
namespace {

using namespace std::chrono_literals;

/// A fleet of in-process node daemons (2 TCP servers x 2 nodes each by
/// default) and the TransportConfig describing it.
class TcpFleet {
 public:
  explicit TcpFleet(std::size_t daemons = 2, std::size_t nodes_each = 2) {
    net::EndpointId next_endpoint = net::kServiceEndpointBase;
    for (std::size_t d = 0; d < daemons; ++d) {
      server::NodeServerConfig cfg;
      cfg.listen = {"127.0.0.1", 0};
      cfg.num_nodes = nodes_each;
      cfg.first_endpoint = next_endpoint;  // fleet-wide unique ids
      next_endpoint += static_cast<net::EndpointId>(nodes_each);
      servers_.push_back(std::make_unique<server::NodeServer>(cfg));
    }
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

  std::size_t num_nodes() const {
    std::size_t n = 0;
    for (const auto& s : servers_) n += s->num_nodes();
    return n;
  }

  void kill(std::size_t daemon) { servers_.at(daemon).reset(); }

 private:
  std::vector<std::unique_ptr<server::NodeServer>> servers_;
};

ClusterConfig direct_config(RoutingScheme scheme, std::size_t nodes) {
  ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.scheme = scheme;
  cfg.super_chunk_bytes = 64 * 1024;
  return cfg;
}

ClusterConfig tcp_config(RoutingScheme scheme, const TcpFleet& fleet,
                         std::size_t pipeline_depth = 1) {
  ClusterConfig cfg;
  cfg.num_nodes = fleet.num_nodes();
  cfg.scheme = scheme;
  cfg.super_chunk_bytes = 64 * 1024;
  cfg.transport = fleet.transport(pipeline_depth);
  return cfg;
}

Dataset small_linux_trace() {
  LinuxWorkloadConfig cfg = LinuxWorkloadConfig::scaled(0.04);
  cfg.versions = 3;
  LinuxGenerator gen(cfg);
  const auto chunker = make_chunker(ChunkingScheme::kStatic, 4096);
  return materialize_dataset("linux-small", gen.content(), *chunker);
}

/// Backs the trace up through a direct cluster and through `fleet` over
/// TCP; the two reports must be bit-identical, Fig. 7 probe counts
/// included.
void expect_tcp_report_equals_direct(RoutingScheme scheme,
                                     const TcpFleet& fleet) {
  const Dataset trace = small_linux_trace();

  Cluster direct(direct_config(scheme, 4));
  direct.backup_dataset(trace);
  direct.flush();
  const auto d = direct.report();

  Cluster over_tcp(tcp_config(scheme, fleet));
  over_tcp.backup_dataset(trace);
  over_tcp.flush();

  const auto t = over_tcp.report();
  EXPECT_EQ(d.logical_bytes, t.logical_bytes);
  EXPECT_EQ(d.physical_bytes, t.physical_bytes);
  EXPECT_EQ(d.node_usage, t.node_usage);
  EXPECT_EQ(d.messages.pre_routing, t.messages.pre_routing);
  EXPECT_EQ(d.messages.after_routing, t.messages.after_routing);
  EXPECT_DOUBLE_EQ(d.dedup_ratio(), t.dedup_ratio());

  // The traffic really crossed sockets, and direct mode sent nothing.
  const auto net = over_tcp.net_stats();
  EXPECT_GT(net.messages_sent, 0u);
  EXPECT_GT(net.bytes_sent, 0u);
  EXPECT_EQ(direct.net_stats().messages_sent, 0u);
}

class TcpSchemeIdentity : public ::testing::TestWithParam<RoutingScheme> {};

TEST_P(TcpSchemeIdentity, TcpReportEqualsDirectReport) {
  // Two daemons x two nodes: the client's one connection per daemon must
  // never reorder, drop or duplicate a frame.
  TcpFleet fleet(2, 2);
  expect_tcp_report_equals_direct(GetParam(), fleet);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, TcpSchemeIdentity,
                         ::testing::Values(RoutingScheme::kSigma,
                                           RoutingScheme::kStateless,
                                           RoutingScheme::kStateful,
                                           RoutingScheme::kExtremeBinning,
                                           RoutingScheme::kChunkDht));

class SchemeIdentity : public ::testing::TestWithParam<RoutingScheme> {};

TEST_P(SchemeIdentity, TransportReportEqualsDirectReport) {
  // One daemon hosting all four nodes: one listener, one service pool
  // shared by every node's drain lanes, one client connection carrying
  // all four nodes' probes and writes.
  TcpFleet fleet(1, 4);
  expect_tcp_report_equals_direct(GetParam(), fleet);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeIdentity,
                         ::testing::Values(RoutingScheme::kSigma,
                                           RoutingScheme::kStateless,
                                           RoutingScheme::kStateful,
                                           RoutingScheme::kExtremeBinning,
                                           RoutingScheme::kChunkDht));

class SharedClientEndpointIdentity
    : public ::testing::TestWithParam<RoutingScheme> {};

TEST_P(SharedClientEndpointIdentity, ConcurrentClustersOnOneDaemonMatchDirect) {
  // Two clusters back up at the same time through one 8-node daemon, both
  // on the default client endpoint base: A uses nodes 100-103, B uses
  // 104-107, so the daemon's transport sees two connections carrying the
  // same source endpoint id. Each reply rides the connection of its
  // request, so both reports are bit-identical to a direct-mode run.
  const RoutingScheme scheme = GetParam();
  const Dataset trace = small_linux_trace();

  Cluster direct(direct_config(scheme, 4));
  direct.backup_dataset(trace);
  direct.flush();
  const auto d = direct.report();

  TcpFleet fleet(1, 8);
  const TransportConfig all = fleet.transport();
  ASSERT_EQ(all.tcp_nodes.size(), 8u);
  auto half = [&](std::size_t first) {
    ClusterConfig cfg = tcp_config(scheme, fleet);
    cfg.num_nodes = 4;
    cfg.transport.tcp_nodes.assign(all.tcp_nodes.begin() + first,
                                   all.tcp_nodes.begin() + first + 4);
    return cfg;
  };
  const ClusterConfig cfg_a = half(0);
  const ClusterConfig cfg_b = half(4);
  ASSERT_EQ(cfg_a.transport.tcp_nodes.front().endpoint,
            net::kServiceEndpointBase);
  ASSERT_EQ(cfg_b.transport.tcp_nodes.front().endpoint,
            net::kServiceEndpointBase + 4);
  Cluster a(cfg_a);
  Cluster b(cfg_b);

  auto run = [&](Cluster& cluster, std::string& error) {
    try {
      cluster.backup_dataset(trace);
      cluster.flush();
    } catch (const std::exception& e) {
      error = e.what();
    }
  };
  std::string error_a;
  std::string error_b;
  std::thread ta([&] { run(a, error_a); });
  std::thread tb([&] { run(b, error_b); });
  ta.join();
  tb.join();
  ASSERT_EQ(error_a, "");
  ASSERT_EQ(error_b, "");

  for (const Cluster* c : {&a, &b}) {
    const auto t = c->report();
    EXPECT_EQ(d.logical_bytes, t.logical_bytes);
    EXPECT_EQ(d.physical_bytes, t.physical_bytes);
    EXPECT_EQ(d.node_usage, t.node_usage);
    EXPECT_EQ(d.messages.pre_routing, t.messages.pre_routing);
    EXPECT_EQ(d.messages.after_routing, t.messages.after_routing);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SharedClientEndpointIdentity,
                         ::testing::Values(RoutingScheme::kSigma,
                                           RoutingScheme::kStateless,
                                           RoutingScheme::kStateful,
                                           RoutingScheme::kExtremeBinning,
                                           RoutingScheme::kChunkDht));

ContentBackup random_session(const std::string& name, std::uint64_t seed,
                             int files, std::size_t file_size) {
  Rng rng(seed);
  ContentBackup b;
  b.session = name;
  for (int f = 0; f < files; ++f) {
    ContentFile file;
    file.path = "dir/f" + std::to_string(f);
    file.data.resize(file_size);
    for (auto& byte : file.data) byte = static_cast<std::uint8_t>(rng.next());
    b.files.push_back(std::move(file));
  }
  return b;
}

/// Three payload-mode generations: fresh data, then edits that keep most
/// chunks (so later sessions dedup across and within generations).
std::vector<ContentBackup> payload_generations() {
  std::vector<ContentBackup> gens;
  gens.push_back(random_session("gen0", 91, 4, 96 * 1024));
  ContentBackup gen1 = gens.back();
  gen1.session = "gen1";
  gen1.files[1].data.resize(140 * 1024, 0x5A);  // grown
  gen1.files.push_back(gen1.files[0]);          // copied under a new name
  gen1.files.back().path = "dir/copy";
  gens.push_back(gen1);
  ContentBackup gen2 = random_session("gen2", 92, 2, 64 * 1024);
  for (auto& file : gen2.files) file.path = "new/" + file.path;
  gen2.files.insert(gen2.files.end(), gen1.files.begin(), gen1.files.end());
  gens.push_back(gen2);
  return gens;
}

class PayloadSchemeIdentity : public ::testing::TestWithParam<RoutingScheme> {
};

TEST_P(PayloadSchemeIdentity, BackupClientMatchesDirectModeOverTcp) {
  // The payload path end to end, direct mode against TCP at depth 1: the
  // same sessions give the same summaries (elapsed time aside), the same
  // reports after every session, and bit-exact restores. Schemes that
  // probe (Sigma, stateful) fold the duplicate test into the routing
  // probe and send no kDuplicateTest; the others send one per
  // super-chunk.
  const RoutingScheme scheme = GetParam();
  BackupClientConfig bc;
  bc.super_chunk_bytes = 64 * 1024;

  Cluster direct(direct_config(scheme, 4));
  Director direct_director;
  BackupClient direct_client(bc, direct, direct_director);

  TcpFleet fleet(2, 2);
  obs::Registry metrics;
  ClusterConfig cfg = tcp_config(scheme, fleet);
  cfg.metrics = &metrics;
  Cluster over_tcp(cfg);
  Director tcp_director;
  BackupClient tcp_client(bc, over_tcp, tcp_director);

  const std::vector<ContentBackup> gens = payload_generations();
  std::uint64_t super_chunks = 0;
  std::vector<BackupSummary> summaries;
  for (const ContentBackup& gen : gens) {
    const BackupSummary d = direct_client.backup(gen);
    const BackupSummary t = tcp_client.backup(gen);
    summaries.push_back(t);
    EXPECT_EQ(d.logical_bytes, t.logical_bytes) << gen.session;
    EXPECT_EQ(d.transferred_bytes, t.transferred_bytes) << gen.session;
    EXPECT_EQ(d.chunk_count, t.chunk_count) << gen.session;
    EXPECT_EQ(d.super_chunk_count, t.super_chunk_count) << gen.session;
    super_chunks += t.super_chunk_count;

    const ClusterReport dr = direct.report();
    const ClusterReport tr = over_tcp.report();
    EXPECT_EQ(dr.logical_bytes, tr.logical_bytes) << gen.session;
    EXPECT_EQ(dr.physical_bytes, tr.physical_bytes) << gen.session;
    EXPECT_EQ(dr.node_usage, tr.node_usage) << gen.session;
    EXPECT_EQ(dr.messages.pre_routing, tr.messages.pre_routing)
        << gen.session;
    EXPECT_EQ(dr.messages.after_routing, tr.messages.after_routing)
        << gen.session;
  }
  // The first generation is all new, the second mostly old.
  EXPECT_EQ(summaries[0].transferred_bytes, summaries[0].logical_bytes);
  EXPECT_LT(summaries[1].transferred_bytes, summaries[1].logical_bytes / 2);

  for (const ContentBackup& gen : gens) {
    for (const ContentFile& file : gen.files) {
      EXPECT_EQ(direct_client.restore(gen.session, file.path), file.data)
          << gen.session << "/" << file.path;
      EXPECT_EQ(tcp_client.restore(gen.session, file.path), file.data)
          << gen.session << "/" << file.path;
    }
  }

  const obs::MetricsSnapshot snap = metrics.snapshot();
  const auto* dup_tests = snap.find_histogram("tcp.rpc_us.DuplicateTest");
  ASSERT_NE(dup_tests, nullptr);
  const bool probes = scheme == RoutingScheme::kSigma ||
                      scheme == RoutingScheme::kStateful;
  EXPECT_EQ(dup_tests->count, probes ? 0u : super_chunks);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, PayloadSchemeIdentity,
                         ::testing::Values(RoutingScheme::kSigma,
                                           RoutingScheme::kStateless,
                                           RoutingScheme::kStateful,
                                           RoutingScheme::kExtremeBinning,
                                           RoutingScheme::kChunkDht));

TEST(TcpClusterTest, ConcurrentStreamsCountOnlyTheirOwnTransfer) {
  // Two streams share one cluster at depth 1. B re-backs-up data it
  // stored earlier while A writes new data: B shipped nothing, so it
  // reports nothing, however many bytes A stored meanwhile.
  TcpFleet fleet(1, 4);
  Cluster cluster(tcp_config(RoutingScheme::kSigma, fleet));
  Director director;
  BackupClientConfig bc;
  bc.super_chunk_bytes = 64 * 1024;
  bc.hash_threads = 1;
  BackupClient a(bc, cluster, director);
  BackupClient b(bc, cluster, director);

  const ContentBackup old_data = random_session("b0", 5, 8, 128 * 1024);
  ASSERT_EQ(b.backup(old_data, 1).transferred_bytes, 8u * 128 * 1024);
  ContentBackup again = old_data;
  again.session = "b1";
  // A's session is the smaller one, so its writes land while B's session
  // is still under way.
  const ContentBackup new_data = random_session("a0", 6, 4, 128 * 1024);

  BackupSummary sa;
  BackupSummary sb;
  std::latch start(2);
  std::thread ta([&] {
    start.arrive_and_wait();
    sa = a.backup(new_data, 0);
  });
  std::thread tb([&] {
    start.arrive_and_wait();
    sb = b.backup(again, 1);
  });
  ta.join();
  tb.join();

  EXPECT_EQ(sb.transferred_bytes, 0u);
  EXPECT_EQ(sa.transferred_bytes, sa.logical_bytes);
  EXPECT_EQ(cluster.report().physical_bytes,
            sa.logical_bytes + 8u * 128 * 1024);
  for (const ContentFile& file : again.files) {
    EXPECT_EQ(b.restore("b1", file.path), file.data);
  }
  for (const ContentFile& file : new_data.files) {
    EXPECT_EQ(a.restore("a0", file.path), file.data);
  }
}

TEST(TcpClusterTest, BackupRestoreRoundTripsOverSockets) {
  // Full payload path through the facade: chunking, fingerprinting,
  // routing, source dedup and restore, all against remote node services.
  TcpFleet fleet(2, 2);
  MiddlewareConfig cfg;
  cfg.num_nodes = fleet.num_nodes();
  cfg.client.super_chunk_bytes = 64 * 1024;
  cfg.transport = fleet.transport(/*pipeline_depth=*/4);
  SigmaDedupe dedupe(cfg);

  Rng rng(4242);
  std::vector<ContentFile> files;
  for (int f = 0; f < 3; ++f) {
    ContentFile file;
    file.path = "file-" + std::to_string(f);
    file.data.resize(200 * 1024);
    for (auto& b : file.data) b = static_cast<std::uint8_t>(rng.next());
    files.push_back(std::move(file));
  }

  const auto s1 = dedupe.backup("gen1", files);
  EXPECT_EQ(s1.transferred_bytes, s1.logical_bytes);  // all unique

  // Second generation: identical content — source dedup keeps payload
  // bytes off the wire entirely.
  const auto s2 = dedupe.backup("gen2", files);
  EXPECT_EQ(s2.transferred_bytes, 0u);
  dedupe.flush();

  for (const auto& file : files) {
    EXPECT_EQ(dedupe.restore("gen1", file.path), file.data);
    EXPECT_EQ(dedupe.restore("gen2", file.path), file.data);
  }
}

TEST(TcpClusterTest, DeepPipelineMatchesTotalsOverTcp) {
  const Dataset trace = small_linux_trace();
  Cluster direct(direct_config(RoutingScheme::kSigma, 4));
  direct.backup_dataset(trace);

  TcpFleet fleet(2, 2);
  Cluster deep(tcp_config(RoutingScheme::kSigma, fleet,
                          /*pipeline_depth=*/8));
  deep.backup_dataset(trace);

  const auto d = direct.report();
  const auto p = deep.report();
  EXPECT_EQ(d.logical_bytes, p.logical_bytes);
  EXPECT_EQ(d.messages.after_routing, p.messages.after_routing);
  EXPECT_NEAR(static_cast<double>(p.physical_bytes),
              static_cast<double>(d.physical_bytes),
              0.05 * static_cast<double>(d.physical_bytes));
}

TEST(TcpClusterTest, KilledDaemonSurfacesAsErrorNotHang) {
  TcpFleet fleet(2, 1);
  auto transport = fleet.transport();
  transport.rpc_timeout_ms = 15000;
  ClusterConfig cfg;
  cfg.num_nodes = fleet.num_nodes();
  cfg.scheme = RoutingScheme::kSigma;  // probes every node per unit
  cfg.super_chunk_bytes = 64 * 1024;
  cfg.transport = transport;
  Cluster cluster(cfg);

  fleet.kill(1);

  TraceBackup backup;
  TraceFile file;
  for (std::uint64_t i = 0; i < 64; ++i) {
    file.chunks.push_back({Fingerprint::from_uint64(i * 7919 + 1), 4096});
  }
  backup.files.push_back(std::move(file));

  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(cluster.backup(backup), net::RpcError);
  // Connection refused is bounced after the dial retry budget — well
  // inside the 15 s RPC timeout, nowhere near a hang.
  EXPECT_LT(std::chrono::steady_clock::now() - start, 10s);
}

TEST(TcpClusterTest, ManyPeerTortureScrapesAndKills) {
  // 16 daemon endpoints behind 4 OS-socket servers, one client transport
  // (one event loop), 4 producer threads hammering kStatsSnapshot scrapes
  // across every endpoint while one daemon is killed mid-flight.
  // Contract: calls to dead endpoints fail as RpcErrors (never hang),
  // calls to survivors keep succeeding after the kill, and the whole
  // storm stays inside a bounded wall clock.
  TcpFleet fleet(4, 4);
  const TransportConfig fleet_cfg = fleet.transport();

  net::TcpTransportConfig cfg;
  for (const auto& node : fleet_cfg.tcp_nodes) {
    cfg.remote_endpoints[node.endpoint] = node.address;
  }
  net::TcpTransport transport(std::move(cfg));

  std::vector<net::EndpointId> endpoints;
  for (const auto& node : fleet_cfg.tcp_nodes) {
    endpoints.push_back(node.endpoint);
  }
  ASSERT_EQ(endpoints.size(), 16u);
  // Endpoints of the daemon that will be killed (daemon 2: ids 8..11 of
  // the list — 4 nodes per daemon, in registration order).
  const auto doomed = [&](net::EndpointId id) {
    return id >= endpoints[8] && id <= endpoints[11];
  };

  constexpr int kRounds = 8;
  constexpr int kKillAfterRound = 2;
  std::atomic<int> rounds_done{0};
  std::atomic<bool> killed{false};
  std::atomic<std::uint64_t> ok_after_kill{0};
  std::atomic<std::uint64_t> dead_errors{0};

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> scrapers;
  for (int w = 0; w < 4; ++w) {
    scrapers.emplace_back([&] {
      net::RpcEndpoint rpc(transport);
      for (int round = 0; round < kRounds; ++round) {
        for (const net::EndpointId dst : endpoints) {
          try {
            const Buffer snap = rpc.call_sync(
                dst, net::MessageType::kStatsSnapshot, Buffer{}, 15s);
            EXPECT_FALSE(snap.empty());
            if (killed.load() && !doomed(dst)) ++ok_after_kill;
            // A scrape of a dead daemon may still succeed if it raced
            // the kill; that is fine — only hangs are a failure.
          } catch (const net::RpcError&) {
            // Tolerated only once the kill has happened (or raced us).
            ++dead_errors;
          }
        }
        ++rounds_done;
      }
    });
  }

  // Kill daemon 2 once the storm is under way.
  while (rounds_done.load() < 4 * kKillAfterRound) {
    std::this_thread::sleep_for(5ms);
  }
  fleet.kill(2);
  killed.store(true);

  for (auto& t : scrapers) t.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;

  // Survivors answered after the kill, dead endpoints errored instead of
  // hanging, and nothing wedged the clock.
  EXPECT_GT(ok_after_kill.load(), 0u);
  EXPECT_GT(dead_errors.load(), 0u);
  EXPECT_LT(elapsed, 120s);

  // Post-storm: every surviving endpoint still answers from this thread.
  net::RpcEndpoint rpc(transport);
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    if (i >= 8 && i <= 11) continue;  // the killed daemon
    EXPECT_FALSE(rpc.call_sync(endpoints[i],
                               net::MessageType::kStatsSnapshot, Buffer{},
                               15s)
                     .empty());
  }
  const auto tcp = transport.tcp_stats();
  EXPECT_GT(tcp.frames_received, 0u);
  EXPECT_GT(tcp.wakeups, 0u);
}

TEST(TcpClusterTest, DuplicateEndpointIdsRejected) {
  TcpFleet fleet(1, 1);
  TransportConfig t = fleet.transport();
  t.tcp_nodes.push_back(t.tcp_nodes.front());  // same endpoint twice
  ClusterConfig cfg;
  cfg.num_nodes = 2;
  cfg.scheme = RoutingScheme::kStateless;
  cfg.transport = t;
  EXPECT_THROW(Cluster cluster(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace sigma
