// The node daemon's core: one TCP-listening transport hosting one or more
// deduplication node services. `tools/node_server.cc` wraps this in a CLI
// binary; tests embed it in-process to drive a real multi-socket fleet
// from one test body. Each node is served by its own NodeService thread,
// so a daemon hosting N nodes runs N service threads beside its one
// transport event-loop thread.
//
// Endpoint layout is the deployment contract: node i of this daemon is
// registered at `first_endpoint + i` (default net::kServiceEndpointBase),
// which is what a client puts in its TransportConfig node map.
//
// With the file backend every node owns a subdirectory of `data_dir`
// (`node-<i>`, pinned to its identity by a versioned manifest). The
// constructor recovers each node from its sealed containers via
// DedupNode::rebuild_indexes() BEFORE the listening socket is created, so
// a restarted daemon never serves a request against half-built indexes —
// callers print READY only after construction returns.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <vector>

#include "ctrl/registry_client.h"
#include "net/tcp/tcp_transport.h"
#include "node/dedup_node.h"
#include "obs/metrics.h"
#include "service/node_service.h"

namespace sigma::server {

/// Where node state lives.
enum class BackendKind {
  kMemory,  // state dies with the process (benchmarks, identity tests)
  kFile,    // durable containers under data_dir, recovered on restart
};

struct NodeServerConfig {
  net::TcpAddress listen{"127.0.0.1", 0};  // port 0 = ephemeral
  std::size_t num_nodes = 1;
  net::EndpointId first_endpoint = net::kServiceEndpointBase;
  DedupNodeConfig node;
  std::size_t max_body_bytes = 64ull << 20;

  /// Node state storage. kFile requires data_dir.
  BackendKind backend = BackendKind::kMemory;
  /// File-backend root; node i stores under data_dir/node-<i>.
  std::filesystem::path data_dir;
  /// File backend: fsync blobs and the directory on every put, so a
  /// sealed container survives power loss, not just a killed process.
  bool fsync = true;

  /// Fleet registry to register this daemon's endpoint range with
  /// (`--registry host:port`). Registration happens at the end of
  /// construction — after recovery and the listen bind, so the daemon is
  /// servable the moment it appears in the fleet view — and an overlap
  /// refusal fails construction. Unset = static wiring, no registration.
  std::optional<net::TcpAddress> registry;
  std::uint32_t registry_timeout_ms = 5000;
  /// Heartbeat cadence override; 0 = a third of the granted TTL.
  std::uint32_t registry_heartbeat_ms = 0;
};

class NodeServer {
 public:
  /// Brings every node up — for the file backend: opens (or initializes)
  /// its data directory, validates the manifest and rebuilds the indexes
  /// from sealed containers — then binds the listen address and starts
  /// the node services. Throws SocketError when the address cannot be
  /// bound and std::runtime_error when a data directory is refused
  /// (manifest mismatch).
  explicit NodeServer(const NodeServerConfig& config);
  ~NodeServer();

  NodeServer(const NodeServer&) = delete;
  NodeServer& operator=(const NodeServer&) = delete;

  /// The actual listening port (resolves an ephemeral bind).
  std::uint16_t port() const { return transport_->listen_port(); }
  const net::TcpAddress& listen_address() const { return config_.listen; }

  std::size_t num_nodes() const { return nodes_.size(); }
  net::EndpointId endpoint(std::size_t i) const {
    return config_.first_endpoint + static_cast<net::EndpointId>(i);
  }
  /// The TransportConfig::tcp_nodes entries that reach this server's
  /// nodes: {listen host, port()} at endpoint(i), in node order.
  std::vector<net::TcpNodeAddress> node_map() const;

  DedupNode& node(std::size_t i) { return *nodes_.at(i); }
  const service::NodeService& service(std::size_t i) const {
    return *services_.at(i);
  }

  /// Startup recovery outcome of node i (all zeros for kMemory — there is
  /// nothing to recover).
  const RecoveryReport& recovery(std::size_t i) const {
    return nodes_.at(i)->last_recovery();
  }

  /// SIGTERM-clean shutdown: stop serving (unbind every node service,
  /// which answers what it already queued — later requests bounce as
  /// transport errors),
  /// THEN seal every node's open containers to the backend. The order
  /// matters: sealing first would let still-arriving stores land in
  /// fresh open containers that die with the process. Irreversible —
  /// the server cannot serve again afterwards.
  void flush();

  net::NetStats net_stats() const { return transport_->stats(); }
  net::TcpTransportStats tcp_stats() const { return transport_->tcp_stats(); }

  /// The daemon-wide metrics registry (transport, services, nodes,
  /// backends all record into it).
  obs::Registry& metrics() { return registry_; }

  /// Daemon-wide observability readout: the registry plus the process's
  /// tracer counters. This is what a kStatsSnapshot request — and
  /// SIGUSR1 / shutdown dumps — report.
  obs::MetricsSnapshot metrics_snapshot() const;

  /// The registry stub when config.registry is set (lease id, health);
  /// null under static wiring.
  const ctrl::RegistryClient* registry_client() const {
    return registry_client_.get();
  }

 private:
  /// Best-effort clean leave (flush() and the destructor both run it;
  /// idempotent). A dead registry downgrades this to a warning — the
  /// lease then expires on its own.
  void leave_registry() noexcept;

  NodeServerConfig config_;
  /// Declared before everything that records into it: instruments must
  /// outlive the transport loop, services and backends.
  obs::Registry registry_;
  // Teardown order (reverse of declaration): services unbind and join
  // their node threads first, then the transport stops its event loop.
  std::unique_ptr<net::TcpTransport> transport_;
  std::vector<std::unique_ptr<DedupNode>> nodes_;
  std::vector<std::unique_ptr<service::NodeService>> services_;
  /// Declared last: destroyed first, so the daemon leaves the fleet
  /// before it stops serving.
  std::unique_ptr<ctrl::RegistryClient> registry_client_;
};

}  // namespace sigma::server
