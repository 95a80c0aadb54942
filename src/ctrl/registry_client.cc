#include "ctrl/registry_client.h"

#include <random>
#include <utility>

#include "common/logging.h"

namespace sigma::ctrl {
namespace {

/// Random endpoint id in the bootstrap band (see the header comment).
net::EndpointId random_bootstrap_base() {
  std::random_device rd;
  std::uniform_int_distribution<net::EndpointId> dist(
      net::kRegistryBootstrapBase, 0xFFFFFF00u);
  return dist(rd);
}

}  // namespace

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
  tcp.endpoint_base = random_bootstrap_base();
  transport_ = std::make_unique<net::TcpTransport>(std::move(tcp));
  rpc_ = std::make_unique<net::RpcEndpoint>(*transport_, metrics_.get());
  rpc_->set_request_handler(
      [this](const net::Message& m) { return on_request(m); });
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

service::LeaseEndpointsReply RegistryClient::lease_endpoints(
    std::uint32_t num_endpoints, UpdateCallback on_update) {
  {
    // Install before the RPC: a membership change racing the lease reply
    // must find the callback in place.
    MutexLock lock(mu_);
    on_update_ = std::move(on_update);
  }
  service::LeaseEndpointsRequest req;
  req.num_endpoints = num_endpoints;
  {
    MutexLock lock(mu_);
    req.subscribe = static_cast<bool>(on_update_);
  }
  const Buffer body = rpc_->call_sync(
      net::kRegistryEndpoint, net::MessageType::kLeaseEndpoints,
      service::encode_lease_endpoints_request(req),
      std::chrono::milliseconds(config_.rpc_timeout_ms));
  service::LeaseEndpointsReply reply =
      service::decode_lease_endpoints_reply(
          ByteView{body.data(), body.size()});
  {
    MutexLock lock(mu_);
    lease_id_ = reply.grant.lease_id;
    ttl_ms_ = reply.grant.ttl_ms;
    is_node_ = false;
    healthy_ = true;
    // A push may already have advanced past the lease-time view.
    if (latest_view_.version < reply.view.version) {
      latest_view_ = reply.view;
    }
  }
  start_heartbeat();
  return reply;
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
    // A dead registry cannot un-lease us; its expiry sweep will.
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

std::uint64_t RegistryClient::updates_received() const {
  MutexLock lock(mu_);
  return updates_received_;
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
    std::uint32_t interval_ms = 0;
    {
      MutexLock lock(mu_);
      interval_ms = config_.heartbeat_interval_ms > 0
                        ? config_.heartbeat_interval_ms
                        : std::max<std::uint32_t>(ttl_ms_ / 3, 1);
      cv_.wait_for(mu_, std::chrono::milliseconds(interval_ms));
      if (stop_) return;
      id = lease_id_;
    }
    if (id == 0) continue;
    try {
      rpc_->call_sync(net::kRegistryEndpoint,
                      net::MessageType::kRegistryHeartbeat,
                      service::encode_u64(id),
                      std::chrono::milliseconds(config_.rpc_timeout_ms));
      m_heartbeats_.inc();
      note_heartbeat_result(true, {});
    } catch (const net::RpcError& e) {
      m_heartbeat_failures_.inc();
      const std::string what = e.what();
      const bool unknown_lease =
          what.find("unknown lease") != std::string::npos;
      bool try_reregister = false;
      {
        MutexLock lock(mu_);
        try_reregister = unknown_lease && is_node_;
        if (unknown_lease && !is_node_) {
          // A client's lease is gone (partition outlived the TTL, or the
          // registry restarted): its leased range may be re-issued. Keep
          // serving from the cached view — re-leasing would hand back a
          // different endpoint base mid-flight — but say so.
          lease_id_ = 0;
        }
      }
      note_heartbeat_result(false, what);
      if (try_reregister) {
        // The registry forgot us (restart / expiry): a daemon's range is
        // its identity, so re-registering is always safe — identical
        // re-registration replaces, anything else is refused loudly.
        net::TcpAddress advertise;
        net::EndpointId first = 0;
        std::uint32_t count = 0;
        {
          MutexLock lock(mu_);
          advertise = advertise_;
          first = first_endpoint_;
          count = num_endpoints_;
        }
        try {
          service::RegisterNodeRequest req;
          req.host = advertise.host;
          req.port = advertise.port;
          req.first_endpoint = first;
          req.num_endpoints = count;
          const Buffer reply = rpc_->call_sync(
              net::kRegistryEndpoint, net::MessageType::kRegisterNode,
              service::encode_register_node_request(req),
              std::chrono::milliseconds(config_.rpc_timeout_ms));
          const service::LeaseGrant grant = service::decode_lease_grant(
              ByteView{reply.data(), reply.size()});
          {
            MutexLock lock(mu_);
            lease_id_ = grant.lease_id;
            ttl_ms_ = grant.ttl_ms;
          }
          m_reregisters_.inc();
          note_heartbeat_result(true, {});
          SIGMA_LOG_INFO << "registry client: re-registered "
                         << advertise.to_string() << " after lease loss";
        } catch (const net::RpcError& re) {
          SIGMA_LOG_WARN << "registry client: re-register failed: "
                         << re.what();
        }
      }
    }
  }
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

Buffer RegistryClient::on_request(const net::Message& m) {
  if (m.type != net::MessageType::kFleetUpdate) {
    throw std::runtime_error("registry client: unexpected request op " +
                             std::string(net::to_string(m.type)));
  }
  const service::FleetView view =
      service::decode_fleet_view(ByteView{m.body.data(), m.body.size()});
  UpdateCallback callback;
  {
    MutexLock lock(mu_);
    ++updates_received_;
    if (latest_view_.version < view.version) latest_view_ = view;
    callback = on_update_;
  }
  m_updates_.inc();
  if (callback) callback(view);
  return Buffer{};
}

}  // namespace sigma::ctrl
