#include "ctrl/registry_client.h"

#include <utility>

#include "common/logging.h"

namespace sigma::ctrl {

RegistryClient::RegistryClient(const RegistryClientConfig& config)
    : config_(config),
      metrics_(config_.metrics),
      m_heartbeats_(metrics_->counter("registry_client.heartbeats")),
      m_heartbeat_failures_(
          metrics_->counter("registry_client.heartbeat_failures")),
      m_updates_(metrics_->counter("registry_client.updates")),
      m_reregisters_(metrics_->counter("registry_client.reregisters")) {
  net::TcpTransportConfig tcp;
  tcp.remote_endpoints[net::kRegistryEndpoint] = config_.registry;
  transport_ = std::make_unique<net::TcpTransport>(std::move(tcp));
  rpc_ = std::make_unique<net::RpcEndpoint>(*transport_, metrics_.get());
}

RegistryClient::~RegistryClient() {
  try {
    leave();
  } catch (const std::exception& e) {
    SIGMA_LOG_WARN << "registry client: leave on shutdown failed: "
                   << e.what();
  }
}

service::LeaseGrant RegistryClient::register_node(
    const net::TcpAddress& advertise, net::EndpointId first_endpoint,
    std::uint32_t num_endpoints) {
  service::RegisterNodeRequest req;
  req.host = advertise.host;
  req.port = advertise.port;
  req.first_endpoint = first_endpoint;
  req.num_endpoints = num_endpoints;
  const Buffer reply = rpc_->call_sync(
      net::kRegistryEndpoint, net::MessageType::kRegisterNode,
      service::encode_register_node_request(req),
      std::chrono::milliseconds(config_.rpc_timeout_ms));
  const service::LeaseGrant grant =
      service::decode_lease_grant(ByteView{reply.data(), reply.size()});
  {
    MutexLock lock(mu_);
    lease_id_ = grant.lease_id;
    ttl_ms_ = grant.ttl_ms;
    is_node_ = true;
    advertise_ = advertise;
    first_endpoint_ = first_endpoint;
    num_endpoints_ = num_endpoints;
    healthy_ = true;
  }
  start_heartbeat();
  return grant;
}

service::FleetView RegistryClient::watch_fleet() {
  const service::FleetView view = fetch_fleet();
  {
    MutexLock lock(mu_);
    ttl_ms_ = view.ttl_ms;
    is_node_ = false;
    healthy_ = true;
    latest_view_ = view;
  }
  start_heartbeat();
  return view;
}

service::FleetView RegistryClient::fetch_fleet() {
  const Buffer body = rpc_->call_sync(
      net::kRegistryEndpoint, net::MessageType::kFleetFetch, Buffer{},
      std::chrono::milliseconds(config_.rpc_timeout_ms));
  return service::decode_fleet_view(ByteView{body.data(), body.size()});
}

void RegistryClient::leave() {
  std::uint64_t id = 0;
  {
    MutexLock lock(mu_);
    stop_ = true;
    std::swap(id, lease_id_);
  }
  cv_.notify_all();
  if (heartbeat_.joinable()) heartbeat_.join();
  if (id == 0) return;
  try {
    rpc_->call_sync(net::kRegistryEndpoint,
                    net::MessageType::kRegistryLeave, service::encode_u64(id),
                    std::chrono::milliseconds(config_.rpc_timeout_ms));
  } catch (const net::RpcError& e) {
    // A dead registry cannot un-lease us; the lease expires instead.
    SIGMA_LOG_WARN << "registry client: clean leave failed (" << e.what()
                   << ") — the lease will expire on its own";
  }
}

bool RegistryClient::healthy() const {
  MutexLock lock(mu_);
  return healthy_;
}

std::uint64_t RegistryClient::lease_id() const {
  MutexLock lock(mu_);
  return lease_id_;
}

std::uint32_t RegistryClient::ttl_ms() const {
  MutexLock lock(mu_);
  return ttl_ms_;
}

service::FleetView RegistryClient::latest_view() const {
  MutexLock lock(mu_);
  return latest_view_;
}

void RegistryClient::start_heartbeat() {
  if (heartbeat_.joinable()) return;  // re-register reuses the first thread
  heartbeat_ = std::thread([this] { heartbeat_loop(); });
}

void RegistryClient::heartbeat_loop() {
  for (;;) {
    std::uint64_t id = 0;
    bool is_node = false;
    {
      MutexLock lock(mu_);
      const std::uint32_t interval_ms =
          config_.heartbeat_interval_ms > 0
              ? config_.heartbeat_interval_ms
              : std::max<std::uint32_t>(ttl_ms_ / 3, 1);
      // A leave() that ran before this thread first got here has already
      // notified: check before waiting, or the stop sleeps a whole interval.
      if (!stop_) cv_.wait_for(mu_, std::chrono::milliseconds(interval_ms));
      if (stop_) return;
      id = lease_id_;
      is_node = is_node_;
    }
    if (is_node) {
      heartbeat(id);
    } else {
      pull_view();
    }
  }
}

void RegistryClient::heartbeat(std::uint64_t id) {
  try {
    rpc_->call_sync(net::kRegistryEndpoint,
                    net::MessageType::kRegistryHeartbeat,
                    service::encode_u64(id),
                    std::chrono::milliseconds(config_.rpc_timeout_ms));
    m_heartbeats_.inc();
    note_heartbeat_result(true, {});
    return;
  } catch (const std::exception& e) {
    m_heartbeat_failures_.inc();
    note_heartbeat_result(false, e.what());
    if (std::string(e.what()).find("unknown lease") == std::string::npos) {
      return;
    }
  }
  // The registry forgot us (restart / expiry): a daemon's range is its
  // identity, so re-registering is always safe — identical
  // re-registration replaces, anything else is refused loudly.
  service::RegisterNodeRequest req;
  {
    MutexLock lock(mu_);
    req.host = advertise_.host;
    req.port = advertise_.port;
    req.first_endpoint = first_endpoint_;
    req.num_endpoints = num_endpoints_;
  }
  try {
    const Buffer reply = rpc_->call_sync(
        net::kRegistryEndpoint, net::MessageType::kRegisterNode,
        service::encode_register_node_request(req),
        std::chrono::milliseconds(config_.rpc_timeout_ms));
    const service::LeaseGrant grant =
        service::decode_lease_grant(ByteView{reply.data(), reply.size()});
    {
      MutexLock lock(mu_);
      lease_id_ = grant.lease_id;
      ttl_ms_ = grant.ttl_ms;
    }
    m_reregisters_.inc();
    note_heartbeat_result(true, {});
    SIGMA_LOG_INFO << "registry client: re-registered "
                   << net::TcpAddress{req.host, req.port}.to_string()
                   << " after lease loss";
  } catch (const std::exception& e) {
    // An RpcError, or a grant that does not decode.
    SIGMA_LOG_WARN << "registry client: re-register failed: " << e.what();
  }
}

void RegistryClient::pull_view() {
  service::FleetView view;
  try {
    view = fetch_fleet();
  } catch (const std::exception& e) {
    // An RpcError, or a reply that does not decode.
    m_heartbeat_failures_.inc();
    note_heartbeat_result(false, e.what());
    return;
  }
  m_heartbeats_.inc();
  note_heartbeat_result(true, {});
  {
    MutexLock lock(mu_);
    ttl_ms_ = view.ttl_ms;
    if (view.version <= latest_view_.version) return;
    latest_view_ = view;
  }
  m_updates_.inc();
  SIGMA_LOG_WARN << "registry client: fleet view v" << view.version
                 << " now has " << view.nodes.size() << " nodes";
}

void RegistryClient::note_heartbeat_result(bool ok,
                                           const std::string& error) {
  bool transitioned = false;
  {
    MutexLock lock(mu_);
    transitioned = healthy_ != ok;
    healthy_ = ok;
  }
  if (!transitioned) return;
  if (ok) {
    SIGMA_LOG_INFO << "registry client: registry at "
                   << config_.registry.to_string() << " is reachable again";
  } else {
    SIGMA_LOG_WARN << "registry client: registry at "
                   << config_.registry.to_string()
                   << " is unreachable (" << error
                   << ") — continuing on cached fleet state";
  }
}

}  // namespace sigma::ctrl
