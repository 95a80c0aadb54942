// Fleet registry: the control-plane daemon that replaces hand-wired node
// maps. Daemons REGISTER their endpoint range here; clients FETCH the
// fleet view instead of carrying a static node-map string:
//
//   node_server --registry H:P   ->  kRegisterNode {host, port, range}
//                                    (overlapping ranges refused up front)
//                                ->  kRegistryHeartbeat every ttl/3
//                                    (a lapsed lease expires: the range is
//                                    freed and the fleet view drops it)
//   Cluster    {--registry H:P}  ->  kFleetFetch once, then every ttl/3
//                                    -> the fleet view + the lease TTL
//
// Clients hold no lease and need no endpoint ids of their own: a daemon
// answers each request over the connection that carried it. Membership
// changes — a daemon joining, a lease expiring, a clean kRegistryLeave —
// bump the view version. The registry never calls a client, so a change
// reaches every client with its next pull, within ttl/3.
//
// The server runs on its transport's event loop: handle() is the
// endpoint handler, so requests are serialized by the loop itself and the
// registry adds no thread of its own. Leases expire lazily — every
// handled request and every accessor first drops the leases past their
// deadline, so a lapsed lease is never observed as live.
//
// The registry speaks the existing framed wire protocol on the well-known
// endpoint kRegistryEndpoint, so the protocol-version handshake, metrics
// scrape (kStatsSnapshot answers with registry.* instruments) and all
// transport hardening apply unchanged. State is deliberately in-memory
// only: a restarted registry repopulates from daemon re-registration
// (heartbeat "unknown lease" -> re-register), and a *dead* registry
// degrades the fleet gracefully — leases stop being enforced, clients keep
// serving from their cached view and log the degradation.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "net/message.h"
#include "net/tcp/tcp_transport.h"
#include "obs/metrics.h"
#include "service/wire_protocol.h"

namespace sigma::ctrl {

struct RegistryServerConfig {
  net::TcpAddress listen{"127.0.0.1", 0};

  /// Lease TTL granted to every daemon. Daemons heartbeat and clients
  /// pull the fleet view at ttl/3; a lease with no heartbeat for a full
  /// TTL expires.
  std::uint32_t lease_ttl_ms = 5000;

  std::size_t max_body_bytes = 4u << 20;
};

class RegistryServer {
 public:
  /// Binds the listener and starts serving. Throws SocketError if the
  /// listen address cannot be bound.
  explicit RegistryServer(const RegistryServerConfig& config);

  /// Stops the transport. Leases are not persisted — a restart starts
  /// empty and daemons re-register via their heartbeat's "unknown lease"
  /// error.
  ~RegistryServer();

  RegistryServer(const RegistryServer&) = delete;
  RegistryServer& operator=(const RegistryServer&) = delete;

  /// Actual listening port (resolves port 0).
  std::uint16_t port() const { return transport_->listen_port(); }

  /// The current fleet view (tests and CLIs; peers use kFleetFetch).
  /// Like every accessor below, expires lapsed leases first.
  service::FleetView fleet_view() SIGMA_EXCLUDES(mu_);

  std::size_t node_lease_count() SIGMA_EXCLUDES(mu_);

  obs::MetricsSnapshot metrics_snapshot() SIGMA_EXCLUDES(mu_);

 private:
  struct Lease {
    std::uint64_t id = 0;
    /// The daemon's advertised dial address.
    net::TcpAddress address;
    net::EndpointId base = 0;
    std::uint32_t count = 0;
    std::chrono::steady_clock::time_point expires_at;
  };

  /// The endpoint handler, on the transport's loop thread: expires due
  /// leases, then answers `request` with answer()'s body or its error.
  void handle(const net::Message& request) SIGMA_EXCLUDES(mu_);
  Buffer answer(const net::Message& request) SIGMA_REQUIRES(mu_);
  Buffer handle_register_node(const net::Message& request)
      SIGMA_REQUIRES(mu_);

  /// The registry.* instruments plus the process's trace counters.
  obs::MetricsSnapshot scrape() const;

  /// Drop leases past their TTL; rebuilds the view if any lapsed.
  void expire_due() SIGMA_REQUIRES(mu_);

  /// Rebuild the view from the node leases and bump its version.
  void rebuild_view() SIGMA_REQUIRES(mu_);

  RegistryServerConfig config_;
  obs::Registry registry_;
  obs::Counter* m_registrations_;
  obs::Counter* m_register_refusals_;
  obs::Counter* m_heartbeats_;
  obs::Counter* m_unknown_leases_;
  obs::Counter* m_lease_expiries_;
  obs::Counter* m_leaves_;
  obs::Gauge* m_nodes_;

  /// The loop serializes handle(); mu_ is for the accessors, which
  /// tests and CLIs call from other threads.
  Mutex mu_{LockRank::kRegistryCtrl};
  std::map<std::uint64_t, Lease> leases_ SIGMA_GUARDED_BY(mu_);
  std::uint64_t next_lease_id_ SIGMA_GUARDED_BY(mu_) = 1;
  service::FleetView view_ SIGMA_GUARDED_BY(mu_);

  /// Declared last: destroyed first, so the loop stops before the state
  /// its handler touches.
  std::unique_ptr<net::TcpTransport> transport_;
  net::EndpointId endpoint_ = 0;
};

}  // namespace sigma::ctrl
