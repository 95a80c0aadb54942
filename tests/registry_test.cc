// Fleet registry acceptance: daemons register endpoint ranges (overlaps
// refused at the source), clients fetch the fleet view and pull
// membership changes within one pull interval (ttl/3), and the data
// plane wired through the registry is bit-identical to the hand-written
// static map. The registry runs on its transport's one thread and
// expires leases lazily. Plus the failure modes: a dead registry
// degrades the fleet gracefully (cached view, backups keep verifying),
// and a heartbeat lapse expires the lease and the pulled view drops it.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "ctrl/registry_client.h"
#include "ctrl/registry_server.h"
#include "net/rpc.h"
#include "net/tcp/tcp_transport.h"
#include "server/node_server.h"
#include "thread_count.h"
#include "workload/generators.h"

namespace sigma {
namespace {

using namespace std::chrono_literals;
using test::await_thread_count;
using test::thread_count;

ctrl::RegistryClientConfig client_config(const ctrl::RegistryServer& reg) {
  ctrl::RegistryClientConfig cfg;
  cfg.registry = {"127.0.0.1", reg.port()};
  return cfg;
}

/// Spin until `pred` holds or `timeout` elapses; returns the verdict.
template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds timeout = 10s) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(10ms);
  }
  return true;
}

TEST(RegistryTest, RegisterLeaseFetchRoundTrip) {
  ctrl::RegistryServer reg({});

  ctrl::RegistryClient daemon(client_config(reg));
  const auto grant = daemon.register_node({"127.0.0.1", 7001}, 100, 2);
  EXPECT_GT(grant.lease_id, 0u);
  EXPECT_GT(grant.ttl_ms, 0u);
  EXPECT_EQ(reg.node_lease_count(), 1u);

  // The view expands the range into per-endpoint entries.
  const auto view = reg.fleet_view();
  ASSERT_EQ(view.nodes.size(), 2u);
  EXPECT_EQ(view.nodes[0].endpoint, 100u);
  EXPECT_EQ(view.nodes[1].endpoint, 101u);
  EXPECT_EQ(view.nodes[0].address.port, 7001u);
  EXPECT_GT(view.version, 0u);

  // A client watches the same view, with the TTL it pulls at, and holds
  // no lease of its own.
  ctrl::RegistryClient client(client_config(reg));
  const auto watched = client.watch_fleet();
  EXPECT_EQ(watched.version, view.version);
  EXPECT_EQ(watched.nodes.size(), 2u);
  EXPECT_EQ(watched.ttl_ms, grant.ttl_ms);
  EXPECT_EQ(client.lease_id(), 0u);
  EXPECT_EQ(reg.node_lease_count(), 1u);

  const auto fetched = client.fetch_fleet();
  EXPECT_EQ(fetched.version, view.version);
  EXPECT_EQ(fetched.nodes.size(), view.nodes.size());
}

TEST(RegistryTest, OverlappingRegistrationRefusedIdenticalReplaces) {
  ctrl::RegistryServer reg({});

  ctrl::RegistryClient a(client_config(reg));
  a.register_node({"127.0.0.1", 7001}, 100, 4);  // [100..103]
  const auto v1 = reg.fleet_view().version;

  // A different daemon claiming an overlapping range is refused up
  // front — this is the whole point of the registry.
  ctrl::RegistryClient b(client_config(reg));
  try {
    b.register_node({"127.0.0.1", 7002}, 102, 4);  // [102..105] overlaps
    FAIL() << "expected overlap refusal";
  } catch (const net::RpcError& e) {
    EXPECT_NE(std::string(e.what()).find("overlaps"), std::string::npos);
  }
  EXPECT_EQ(reg.node_lease_count(), 1u);
  EXPECT_EQ(reg.fleet_view().version, v1);  // refusal does not churn

  // Identical re-registration is a daemon restart: the lease is replaced
  // in place, the fleet membership did not change.
  ctrl::RegistryClient a2(client_config(reg));
  a2.register_node({"127.0.0.1", 7001}, 100, 4);
  EXPECT_EQ(reg.node_lease_count(), 1u);
  EXPECT_EQ(reg.fleet_view().version, v1);

  // A disjoint range joins fine and bumps the view.
  b.register_node({"127.0.0.1", 7002}, 104, 4);  // [104..107]
  EXPECT_EQ(reg.node_lease_count(), 2u);
  EXPECT_GT(reg.fleet_view().version, v1);
  EXPECT_EQ(reg.fleet_view().nodes.size(), 8u);
}

TEST(RegistryTest, BadRangesRefused) {
  ctrl::RegistryServer reg({});
  ctrl::RegistryClient daemon(client_config(reg));
  // Shadowing the registry's own endpoint id.
  EXPECT_THROW(daemon.register_node({"127.0.0.1", 7001}, 0, 4),
               net::RpcError);
  // Reaching into the client band.
  EXPECT_THROW(daemon.register_node({"127.0.0.1", 7001},
                                    net::kClientEndpointBase - 1, 2),
               net::RpcError);
  EXPECT_EQ(reg.node_lease_count(), 0u);
}

TEST(RegistryTest, OneRegistryIsOneThread) {
  // The registry answers on its transport's loop: constructing one adds
  // exactly that thread, and destroying it takes it away again.
  { ctrl::RegistryServer warm_up({}); }  // sanitizer runtimes start a
                                          // helper on the first thread
  const std::size_t before = thread_count();
  {
    ctrl::RegistryServer reg({});
    EXPECT_EQ(await_thread_count(before + 1), before + 1);
  }
  EXPECT_EQ(await_thread_count(before), before);
}

TEST(RegistryTest, LapsedLeaseIsNeverSeenLive) {
  ctrl::RegistryServerConfig cfg;
  cfg.lease_ttl_ms = 100;
  ctrl::RegistryServer reg(cfg);

  // The daemon never heartbeats (cadence far past the test's horizon).
  ctrl::RegistryClientConfig daemon_cfg = client_config(reg);
  daemon_cfg.heartbeat_interval_ms = 3'600'000;
  ctrl::RegistryClient daemon(daemon_cfg);
  const auto grant = daemon.register_node({"127.0.0.1", 7001}, 100, 2);
  ASSERT_EQ(reg.node_lease_count(), 1u);

  // No traffic at all while the lease lapses: expiry needs no timer, the
  // first read after the deadline already finds the lease gone.
  std::this_thread::sleep_for(150ms);
  EXPECT_EQ(reg.node_lease_count(), 0u);
  EXPECT_TRUE(reg.fleet_view().nodes.empty());

  // A heartbeat that arrives late cannot revive it.
  net::TcpTransportConfig tcp;
  tcp.remote_endpoints[net::kRegistryEndpoint] = {"127.0.0.1", reg.port()};
  net::TcpTransport transport(std::move(tcp));
  net::RpcEndpoint rpc(transport);
  try {
    rpc.call_sync(net::kRegistryEndpoint,
                  net::MessageType::kRegistryHeartbeat,
                  service::encode_u64(grant.lease_id), 5000ms);
    FAIL() << "expected the lapsed lease to be refused";
  } catch (const net::RpcError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown lease"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(reg.node_lease_count(), 0u);
}

TEST(RegistryTest, HeartbeatLapseExpiresLeaseAndClientsPullUpdatedView) {
  ctrl::RegistryServerConfig cfg;
  cfg.lease_ttl_ms = 300;
  ctrl::RegistryServer reg(cfg);

  // The daemon never heartbeats (cadence far past the test's horizon):
  // its lease must lapse on its own.
  ctrl::RegistryClientConfig daemon_cfg = client_config(reg);
  daemon_cfg.heartbeat_interval_ms = 3'600'000;
  ctrl::RegistryClient daemon(daemon_cfg);
  daemon.register_node({"127.0.0.1", 7001}, 100, 2);
  EXPECT_EQ(reg.node_lease_count(), 1u);

  // Two clients pull the view at the default cadence, ttl/3 = 100 ms.
  ctrl::RegistryClient a(client_config(reg));
  ctrl::RegistryClient b(client_config(reg));
  EXPECT_EQ(a.watch_fleet().nodes.size(), 2u);
  EXPECT_EQ(b.watch_fleet().nodes.size(), 2u);

  // The lease lapses at 300 ms; a client's next pull (<= 100 ms later)
  // expires it and brings back the shrunken view.
  const auto heartbeat_plus_slack = 300ms + 100ms + 1000ms;
  EXPECT_TRUE(eventually([&] { return a.latest_view().nodes.empty(); },
                         heartbeat_plus_slack));
  EXPECT_TRUE(eventually([&] { return b.latest_view().nodes.empty(); },
                         heartbeat_plus_slack));
  EXPECT_EQ(reg.node_lease_count(), 0u);
  const obs::MetricsSnapshot snap = reg.metrics_snapshot();
  const auto* expiries = snap.find_counter("registry.lease_expiries");
  ASSERT_NE(expiries, nullptr);
  EXPECT_GE(*expiries, 1u);
}

TEST(RegistryTest, CleanLeaveReachesClientsWithinOneHeartbeat) {
  ctrl::RegistryServerConfig cfg;
  cfg.lease_ttl_ms = 300;  // clients pull every 100 ms
  ctrl::RegistryServer reg(cfg);

  auto daemon = std::make_unique<ctrl::RegistryClient>(client_config(reg));
  daemon->register_node({"127.0.0.1", 7001}, 100, 2);

  ctrl::RegistryClient a(client_config(reg));
  ctrl::RegistryClient b(client_config(reg));
  a.watch_fleet();
  b.watch_fleet();
  ASSERT_EQ(a.latest_view().nodes.size(), 2u);

  daemon.reset();  // destructor leaves cleanly
  EXPECT_EQ(reg.node_lease_count(), 0u);
  const auto heartbeat_plus_slack = 100ms + 1000ms;
  EXPECT_TRUE(eventually([&] { return a.latest_view().nodes.empty(); },
                         heartbeat_plus_slack));
  EXPECT_TRUE(eventually([&] { return b.latest_view().nodes.empty(); },
                         heartbeat_plus_slack));
  EXPECT_EQ(a.latest_view().version, reg.fleet_view().version);
}

TEST(RegistryTest, RestartedRegistryViewReachesClientsWithinOnePull) {
  // A restarted registry numbers its views from 0 again. A watching
  // client must take the new registry's view even though its version is
  // below the one it cached from the old registry.
  ctrl::RegistryServerConfig cfg;
  cfg.lease_ttl_ms = 300;  // daemons heartbeat, clients pull, every 100 ms
  auto reg = std::make_unique<ctrl::RegistryServer>(cfg);
  cfg.listen.port = reg->port();

  auto daemon = [&](net::EndpointId first) {
    auto d = std::make_unique<ctrl::RegistryClient>(client_config(*reg));
    d->register_node({"127.0.0.1", static_cast<std::uint16_t>(first)},
                     first, 2);
    return d;
  };
  auto a = daemon(100);
  auto b = daemon(102);
  daemon(104).reset();  // joins and leaves cleanly: two more versions

  ctrl::RegistryClient client(client_config(*reg));
  client.watch_fleet();
  const service::FleetView old_view = client.latest_view();
  ASSERT_EQ(old_view.nodes.size(), 4u);
  ASSERT_EQ(old_view.version, 4u);

  reg.reset();
  reg = std::make_unique<ctrl::RegistryServer>(cfg);
  // The survivors' heartbeats hear "unknown lease" and re-register; a
  // new daemon joins. Three joins: the new registry stops at version 3.
  ASSERT_TRUE(eventually([&] { return reg->node_lease_count() == 2; }));
  auto c = daemon(106);
  const service::FleetView new_view = reg->fleet_view();
  ASSERT_EQ(new_view.nodes.size(), 6u);
  ASSERT_LT(new_view.version, old_view.version);

  const auto pull_plus_slack = 100ms + 1000ms;
  EXPECT_TRUE(eventually(
      [&] { return client.latest_view().nodes == new_view.nodes; },
      pull_plus_slack))
      << "client still holds v" << client.latest_view().version << " with "
      << client.latest_view().nodes.size() << " nodes";
  EXPECT_EQ(client.latest_view().version, new_view.version);
  EXPECT_TRUE(client.healthy());
}

TEST(RegistryTest, NodeServerRegistersOnStartupAndLeavesOnShutdown) {
  ctrl::RegistryServer reg({});

  server::NodeServerConfig cfg;
  cfg.num_nodes = 2;
  cfg.registry = net::TcpAddress{"127.0.0.1", reg.port()};
  auto server = std::make_unique<server::NodeServer>(cfg);
  ASSERT_NE(server->registry_client(), nullptr);
  EXPECT_GT(server->registry_client()->lease_id(), 0u);
  EXPECT_EQ(reg.node_lease_count(), 1u);
  const auto view = reg.fleet_view();
  ASSERT_EQ(view.nodes.size(), 2u);
  EXPECT_EQ(view.nodes[0].endpoint, net::kServiceEndpointBase);
  EXPECT_EQ(view.nodes[0].address.port, server->port());

  server.reset();
  EXPECT_EQ(reg.node_lease_count(), 0u);
}

TEST(RegistryTest, NodeServerRefusesBadEndpointRangesAtConstruction) {
  {
    server::NodeServerConfig cfg;
    cfg.first_endpoint = net::kRegistryEndpoint;  // shadows the registry
    EXPECT_THROW(server::NodeServer{cfg}, std::invalid_argument);
  }
  {
    server::NodeServerConfig cfg;
    cfg.first_endpoint = net::kClientEndpointBase - 1;
    cfg.num_nodes = 2;  // [base-1 .. base] reaches the client band
    EXPECT_THROW(server::NodeServer{cfg}, std::invalid_argument);
  }
}

TEST(RegistryTest, ClusterRefusesNodeEndpointInsideClientRange) {
  // The mirror-image collision: a wired node map whose service id lands
  // at (or above) this client's endpoint base.
  ClusterConfig cfg;
  cfg.num_nodes = 1;
  cfg.transport.mode = TransportMode::kTcp;
  cfg.transport.tcp_nodes = {
      {{"127.0.0.1", 7001}, net::kClientEndpointBase}};
  EXPECT_THROW(Cluster{cfg}, std::invalid_argument);
}

/// A fleet whose daemons found each other through a registry: the
/// registry, two 2-node daemons registered with it, and a ClusterConfig
/// that discovers everything via --registry (no tcp_nodes).
class RegistryFleet {
 public:
  explicit RegistryFleet(std::uint32_t lease_ttl_ms = 5000) {
    ctrl::RegistryServerConfig rc;
    rc.lease_ttl_ms = lease_ttl_ms;
    registry_ = std::make_unique<ctrl::RegistryServer>(rc);
    for (std::size_t d = 0; d < 2; ++d) {
      server::NodeServerConfig cfg;
      cfg.num_nodes = 2;
      cfg.first_endpoint =
          net::kServiceEndpointBase + static_cast<net::EndpointId>(2 * d);
      cfg.registry = net::TcpAddress{"127.0.0.1", registry_->port()};
      servers_.push_back(std::make_unique<server::NodeServer>(cfg));
    }
  }

  ClusterConfig cluster_config(RoutingScheme scheme) const {
    ClusterConfig cfg;
    cfg.num_nodes = 4;  // overwritten from the fleet view
    cfg.scheme = scheme;
    cfg.super_chunk_bytes = 64 * 1024;
    cfg.transport.mode = TransportMode::kTcp;
    cfg.transport.rpc_timeout_ms = 20000;
    cfg.transport.registry = net::TcpAddress{"127.0.0.1", registry_->port()};
    return cfg;
  }

  ctrl::RegistryServer& registry() { return *registry_; }
  void kill_registry() { registry_.reset(); }

 private:
  std::unique_ptr<ctrl::RegistryServer> registry_;
  std::vector<std::unique_ptr<server::NodeServer>> servers_;
};

Dataset small_linux_trace() {
  LinuxWorkloadConfig cfg = LinuxWorkloadConfig::scaled(0.04);
  cfg.versions = 3;
  LinuxGenerator gen(cfg);
  const auto chunker = make_chunker(ChunkingScheme::kStatic, 4096);
  return materialize_dataset("linux-small", gen.content(), *chunker);
}

class RegistrySchemeIdentity
    : public ::testing::TestWithParam<RoutingScheme> {};

TEST_P(RegistrySchemeIdentity, RegistryWiringMatchesDirectReport) {
  // The control plane must be invisible to the data plane: a cluster
  // wired through the registry (discovered node map) produces exactly
  // the report of a direct-call cluster — same bytes, same Fig. 7 probe
  // counts — for every routing scheme.
  const RoutingScheme scheme = GetParam();
  const Dataset trace = small_linux_trace();

  ClusterConfig direct_cfg;
  direct_cfg.num_nodes = 4;
  direct_cfg.scheme = scheme;
  direct_cfg.super_chunk_bytes = 64 * 1024;
  Cluster direct(direct_cfg);
  direct.backup_dataset(trace);
  direct.flush();
  const auto d = direct.report();

  RegistryFleet fleet;
  Cluster discovered(fleet.cluster_config(scheme));
  EXPECT_EQ(discovered.size(), 4u);
  ASSERT_TRUE(discovered.fleet_view().has_value());
  EXPECT_EQ(discovered.fleet_view()->nodes.size(), 4u);
  discovered.backup_dataset(trace);
  discovered.flush();

  const auto t = discovered.report();
  EXPECT_EQ(d.logical_bytes, t.logical_bytes);
  EXPECT_EQ(d.physical_bytes, t.physical_bytes);
  EXPECT_EQ(d.node_usage, t.node_usage);
  EXPECT_EQ(d.messages.pre_routing, t.messages.pre_routing);
  EXPECT_EQ(d.messages.after_routing, t.messages.after_routing);
  EXPECT_DOUBLE_EQ(d.dedup_ratio(), t.dedup_ratio());
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, RegistrySchemeIdentity,
    ::testing::Values(RoutingScheme::kSigma, RoutingScheme::kStateless,
                      RoutingScheme::kStateful,
                      RoutingScheme::kExtremeBinning,
                      RoutingScheme::kChunkDht));

TEST(RegistryTest, RegistryDeathMidBackupDegradesGracefully) {
  // The registry is a discovery service, not a dependency: killing it
  // after the cluster is wired must not perturb a single byte of the
  // backup — and the cluster must REPORT the degradation.
  const Dataset trace = small_linux_trace();

  ClusterConfig direct_cfg;
  direct_cfg.num_nodes = 4;
  direct_cfg.scheme = RoutingScheme::kSigma;
  direct_cfg.super_chunk_bytes = 64 * 1024;
  Cluster direct(direct_cfg);
  direct.backup_dataset(trace);
  direct.flush();
  const auto d = direct.report();

  RegistryFleet fleet(/*lease_ttl_ms=*/300);  // fast heartbeats
  Cluster discovered(fleet.cluster_config(RoutingScheme::kSigma));
  EXPECT_TRUE(discovered.registry_healthy());
  const auto cached = discovered.fleet_view();
  ASSERT_TRUE(cached.has_value());

  fleet.kill_registry();

  // The cached view survives, heartbeats flag the outage...
  EXPECT_TRUE(eventually([&] { return !discovered.registry_healthy(); }));
  EXPECT_EQ(discovered.fleet_view()->version, cached->version);

  // ...and the data plane never noticed: bit-identical report.
  discovered.backup_dataset(trace);
  discovered.flush();
  const auto t = discovered.report();
  EXPECT_EQ(d.logical_bytes, t.logical_bytes);
  EXPECT_EQ(d.physical_bytes, t.physical_bytes);
  EXPECT_EQ(d.node_usage, t.node_usage);
  EXPECT_EQ(d.messages.pre_routing, t.messages.pre_routing);
  EXPECT_EQ(d.messages.after_routing, t.messages.after_routing);
}

}  // namespace
}  // namespace sigma
