// Client stub for the fleet registry (see registry_server.h): owns a
// private transport dialing the registry's well-known endpoint, speaks
// the control-plane ops, and runs one background thread at ttl/3.
//
// Two roles share this class:
//
//   * a node daemon calls register_node() with its advertised address and
//     endpoint range (refused up front on overlap), and the thread
//     heartbeats the granted lease;
//   * a backup client calls watch_fleet() and wires its Cluster from the
//     returned fleet view; the thread then pulls the view with kFleetFetch
//     every ttl/3 (the TTL the view carries), so latest_view() trails a
//     membership change by at most one pull interval. A client holds no
//     lease.
//
// Degraded mode: if the registry dies, heartbeats and pulls fail — the
// stub logs ONE warning per transition, keeps its state (the data plane
// is untouched: daemons keep serving, clients keep their cached view) and
// keeps probing at the same cadence. A daemon whose heartbeat is answered
// with "unknown lease" (registry restarted, or the lease expired during a
// partition) re-registers automatically.
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

  /// Heartbeat (daemon) or view-pull (client) cadence; 0 = a third of
  /// the registry's lease TTL.
  std::uint32_t heartbeat_interval_ms = 0;

  /// Metrics plane (must outlive the client): registry_client.*
  /// heartbeat / failure / update counters and the stub's rpc.* series
  /// (a client's periodic pulls count as heartbeats; registry_client.updates
  /// counts the pulls that brought a changed view).
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

  /// Client role: fetch the fleet view and start pulling it every ttl/3,
  /// which keeps latest_view() current. Throws net::RpcError if the
  /// registry is unreachable.
  service::FleetView watch_fleet() SIGMA_EXCLUDES(mu_);

  /// One-shot fleet view fetch (fleet CLIs use this).
  service::FleetView fetch_fleet();

  /// Stop the background thread and release a daemon's lease cleanly.
  /// Idempotent; a dead registry makes this a no-op (logged, not thrown).
  void leave() SIGMA_EXCLUDES(mu_);

  /// False while the registry is unreachable (heartbeats or pulls
  /// failing). The fleet keeps serving from cached state — this is the
  /// degraded-mode probe for operators and tests.
  bool healthy() const SIGMA_EXCLUDES(mu_);

  std::uint64_t lease_id() const SIGMA_EXCLUDES(mu_);
  std::uint32_t ttl_ms() const SIGMA_EXCLUDES(mu_);

  /// Client role: the view watch_fleet() returned, or the latest one
  /// pulled since.
  service::FleetView latest_view() const SIGMA_EXCLUDES(mu_);

 private:
  void start_heartbeat() SIGMA_EXCLUDES(mu_);
  void heartbeat_loop() SIGMA_EXCLUDES(mu_);
  /// Daemon role: extend lease `id`, re-registering if the registry
  /// forgot it.
  void heartbeat(std::uint64_t id) SIGMA_EXCLUDES(mu_);
  /// Client role: pull the view and keep it if it differs from ours in
  /// version or nodes (a restarted registry counts versions from 0).
  void pull_view() SIGMA_EXCLUDES(mu_);
  void note_heartbeat_result(bool ok, const std::string& error)
      SIGMA_EXCLUDES(mu_);

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
