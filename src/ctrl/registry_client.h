// Client stub for the fleet registry (see registry_server.h): owns a
// private transport dialing the registry's well-known endpoint, speaks
// the control-plane ops, and runs the heartbeat that keeps the granted
// lease alive.
//
// Two roles share this class:
//
//   * a node daemon calls register_node() with its advertised address and
//     endpoint range (refused up front on overlap — the id-collision bug
//     class dies here, at registration, not at runtime route conflicts);
//   * a backup client calls lease_endpoints() and wires its Cluster from
//     the returned endpoint base + fleet view. Each heartbeat reply
//     carries the registry's view version; when it is newer than the
//     client's view, the client pulls the new view with kFleetFetch, so
//     latest_view() trails a membership change by at most one heartbeat
//     interval. A daemon ignores the version.
//
// Degraded mode: if the registry dies, heartbeats fail — the client logs
// ONE warning per transition, keeps its lease state (the data plane is
// untouched: daemons keep serving, clients keep their cached view) and
// keeps probing at the heartbeat cadence. A daemon whose heartbeat is
// answered with "unknown lease" (registry restarted, or the lease
// expired during a partition) re-registers automatically.
//
// Bootstrap endpoint ids: this transport never listens, but its outgoing
// endpoint id must not collide with another client's in the registry's
// learned routes *before* any lease exists. It therefore self-assigns a
// random id in the reserved kRegistryBootstrapBase band (collision odds
// ~2^-30 per pair; a collision degrades to one refused message, never to
// cross-delivery).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "net/rpc.h"
#include "net/tcp/tcp_transport.h"
#include "obs/metrics.h"
#include "service/wire_protocol.h"

namespace sigma::ctrl {

struct RegistryClientConfig {
  /// Where the registry_server listens.
  net::TcpAddress registry;

  /// Per-RPC timeout against the registry.
  std::uint32_t rpc_timeout_ms = 5000;

  /// Heartbeat cadence; 0 = a third of the granted lease TTL.
  std::uint32_t heartbeat_interval_ms = 0;

  /// Metrics plane (must outlive the client): registry_client.*
  /// heartbeat / failure / update counters and the stub's rpc.* series
  /// (registry_client.updates counts the newer views pulled after a
  /// heartbeat).
  /// Null = a private registry.
  obs::Registry* metrics = nullptr;
};

class RegistryClient {
 public:
  explicit RegistryClient(const RegistryClientConfig& config);

  /// Leaves (best effort) and stops the heartbeat.
  ~RegistryClient();

  RegistryClient(const RegistryClient&) = delete;
  RegistryClient& operator=(const RegistryClient&) = delete;

  /// Daemon role: announce `advertise` as the dial address for the
  /// endpoint range [first_endpoint, first_endpoint + num_endpoints).
  /// Starts the heartbeat on success. Throws net::RpcError if the
  /// registry refuses (range overlap) or is unreachable.
  service::LeaseGrant register_node(const net::TcpAddress& advertise,
                                    net::EndpointId first_endpoint,
                                    std::uint32_t num_endpoints)
      SIGMA_EXCLUDES(mu_);

  /// Client role: lease `num_endpoints` ids. Starts the heartbeat, which
  /// keeps latest_view() current.
  service::LeaseEndpointsReply lease_endpoints(std::uint32_t num_endpoints)
      SIGMA_EXCLUDES(mu_);

  /// One-shot fleet view fetch (no lease needed — fleet CLIs use this).
  service::FleetView fetch_fleet();

  /// Release the lease cleanly and stop the heartbeat. Idempotent; a
  /// dead registry makes this a no-op (logged, not thrown).
  void leave() SIGMA_EXCLUDES(mu_);

  /// False while the registry is unreachable (heartbeats failing). The
  /// fleet keeps serving from cached state — this is the degraded-mode
  /// probe for operators and tests.
  bool healthy() const SIGMA_EXCLUDES(mu_);

  std::uint64_t lease_id() const SIGMA_EXCLUDES(mu_);
  std::uint32_t ttl_ms() const SIGMA_EXCLUDES(mu_);

  /// Client role: the lease-time view, or the newest one pulled since.
  service::FleetView latest_view() const SIGMA_EXCLUDES(mu_);

 private:
  void start_heartbeat() SIGMA_EXCLUDES(mu_);
  void heartbeat_loop() SIGMA_EXCLUDES(mu_);
  void note_heartbeat_result(bool ok, const std::string& error)
      SIGMA_EXCLUDES(mu_);
  /// Client role: pull the view when `version` is newer than ours.
  void refresh_view(std::uint64_t version) SIGMA_EXCLUDES(mu_);

  RegistryClientConfig config_;
  obs::RegistryRef metrics_;
  obs::Counter& m_heartbeats_;
  obs::Counter& m_heartbeat_failures_;
  obs::Counter& m_updates_;
  obs::Counter& m_reregisters_;

  std::unique_ptr<net::TcpTransport> transport_;
  std::unique_ptr<net::RpcEndpoint> rpc_;

  mutable Mutex mu_{LockRank::kRegistryCtrl};
  CondVar cv_;
  bool stop_ SIGMA_GUARDED_BY(mu_) = false;
  bool healthy_ SIGMA_GUARDED_BY(mu_) = true;
  std::uint64_t lease_id_ SIGMA_GUARDED_BY(mu_) = 0;
  std::uint32_t ttl_ms_ SIGMA_GUARDED_BY(mu_) = 0;
  /// Daemon role's registration, kept for automatic re-register.
  bool is_node_ SIGMA_GUARDED_BY(mu_) = false;
  net::TcpAddress advertise_ SIGMA_GUARDED_BY(mu_);
  net::EndpointId first_endpoint_ SIGMA_GUARDED_BY(mu_) = 0;
  std::uint32_t num_endpoints_ SIGMA_GUARDED_BY(mu_) = 0;
  service::FleetView latest_view_ SIGMA_GUARDED_BY(mu_);

  std::thread heartbeat_;
};

}  // namespace sigma::ctrl
