#include "ctrl/registry_server.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/logging.h"
#include "obs/metrics_wire.h"
#include "obs/trace.h"

namespace sigma::ctrl {
namespace {

std::string range_string(net::EndpointId base, std::uint32_t count) {
  return "[" + std::to_string(base) + ".." +
         std::to_string(static_cast<std::uint64_t>(base) + count - 1) + "]";
}

bool ranges_overlap(net::EndpointId a, std::uint32_t an, net::EndpointId b,
                    std::uint32_t bn) {
  const std::uint64_t a0 = a, a1 = a0 + an;
  const std::uint64_t b0 = b, b1 = b0 + bn;
  return a0 < b1 && b0 < a1;
}

}  // namespace

RegistryServer::RegistryServer(const RegistryServerConfig& config)
    : config_(config) {
  m_registrations_ = &registry_.counter("registry.registrations");
  m_register_refusals_ = &registry_.counter("registry.register_refusals");
  m_heartbeats_ = &registry_.counter("registry.heartbeats");
  m_unknown_leases_ = &registry_.counter("registry.unknown_leases");
  m_lease_expiries_ = &registry_.counter("registry.lease_expiries");
  m_leaves_ = &registry_.counter("registry.leaves");
  m_nodes_ = &registry_.gauge("registry.nodes");
  view_.ttl_ms = config_.lease_ttl_ms;

  net::TcpTransportConfig tcp;
  tcp.listen = config_.listen;
  tcp.endpoint_base = net::kRegistryEndpoint;
  tcp.max_body_bytes = config_.max_body_bytes;
  tcp.metrics = &registry_;
  transport_ = std::make_unique<net::TcpTransport>(std::move(tcp));
  endpoint_ = transport_->register_endpoint(
      [this](net::Message&& m) { handle(m); });
}

RegistryServer::~RegistryServer() = default;

service::FleetView RegistryServer::fleet_view() {
  MutexLock lock(mu_);
  expire_due();
  return view_;
}

std::size_t RegistryServer::node_lease_count() {
  MutexLock lock(mu_);
  expire_due();
  return leases_.size();
}

obs::MetricsSnapshot RegistryServer::metrics_snapshot() {
  MutexLock lock(mu_);
  expire_due();
  return scrape();
}

obs::MetricsSnapshot RegistryServer::scrape() const {
  obs::MetricsSnapshot snap = registry_.snapshot();
  obs::fold_trace_stats(snap);
  return snap;
}

void RegistryServer::handle(const net::Message& request) {
  if (request.kind != net::MessageKind::kRequest) return;
  net::Message reply;
  try {
    MutexLock lock(mu_);
    expire_due();
    reply = net::Message::response_to(request, answer(request));
  } catch (const std::exception& e) {
    reply = net::Message::error_to(request, e.what());
  }
  transport_->send(std::move(reply));
}

Buffer RegistryServer::answer(const net::Message& request) {
  using net::MessageType;
  switch (request.type) {
    case MessageType::kRegisterNode:
      return handle_register_node(request);
    case MessageType::kRegistryHeartbeat: {
      const std::uint64_t id = service::decode_u64(
          ByteView{request.body.data(), request.body.size()});
      auto it = leases_.find(id);
      if (it == leases_.end()) {
        m_unknown_leases_->inc();
        throw std::runtime_error(
            "registry: unknown lease " + std::to_string(id) +
            " (expired, or the registry restarted) — re-register");
      }
      it->second.expires_at = std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(config_.lease_ttl_ms);
      m_heartbeats_->inc();
      return Buffer{};
    }
    case MessageType::kRegistryLeave: {
      const std::uint64_t id = service::decode_u64(
          ByteView{request.body.data(), request.body.size()});
      auto it = leases_.find(id);
      if (it != leases_.end()) {
        leases_.erase(it);
        m_leaves_->inc();
        rebuild_view();
      }
      // Leaving twice (or after expiry) is not an error: the desired
      // state — no lease — already holds.
      return Buffer{};
    }
    case MessageType::kFleetFetch:
      return service::encode_fleet_view(view_);
    case MessageType::kStatsSnapshot:
      return obs::encode_metrics_snapshot(scrape());
    default:
      throw std::runtime_error(
          "registry: unsupported operation " +
          std::string(net::to_string(request.type)) +
          " (this endpoint only serves control-plane ops)");
  }
}

Buffer RegistryServer::handle_register_node(const net::Message& request) {
  const auto req = service::decode_register_node_request(
      ByteView{request.body.data(), request.body.size()});
  if (req.num_endpoints == 0) {
    m_register_refusals_->inc();
    throw std::runtime_error("registry: daemon registered an empty range");
  }
  if (req.first_endpoint <= net::kRegistryEndpoint) {
    m_register_refusals_->inc();
    throw std::runtime_error(
        "registry: daemon range " +
        range_string(req.first_endpoint, req.num_endpoints) +
        " overlaps the registry's own endpoint id " +
        std::to_string(net::kRegistryEndpoint));
  }
  if (static_cast<std::uint64_t>(req.first_endpoint) + req.num_endpoints >
      net::kClientEndpointBase) {
    m_register_refusals_->inc();
    throw std::runtime_error(
        "registry: daemon range " +
        range_string(req.first_endpoint, req.num_endpoints) +
        " reaches the client endpoint range (base " +
        std::to_string(net::kClientEndpointBase) + ")");
  }
  const net::TcpAddress address{req.host, req.port};
  bool replaced = false;
  for (auto it = leases_.begin(); it != leases_.end(); ++it) {
    const Lease& held = it->second;
    if (held.address == address && held.base == req.first_endpoint &&
        held.count == req.num_endpoints) {
      // The same daemon re-registering (restart, or a heartbeat that hit
      // a restarted registry): replace its lease. The view's content is
      // unchanged, so its version stays and no client refetches it.
      leases_.erase(it);
      replaced = true;
      break;
    }
    if (ranges_overlap(held.base, held.count, req.first_endpoint,
                       req.num_endpoints)) {
      m_register_refusals_->inc();
      throw std::runtime_error(
          "registry: endpoint range " +
          range_string(req.first_endpoint, req.num_endpoints) +
          " overlaps " + range_string(held.base, held.count) +
          " held by daemon " + held.address.to_string());
    }
  }

  Lease lease;
  lease.id = next_lease_id_++;
  lease.address = address;
  lease.base = req.first_endpoint;
  lease.count = req.num_endpoints;
  lease.expires_at = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(config_.lease_ttl_ms);
  leases_.emplace(lease.id, lease);
  m_registrations_->inc();
  if (!replaced) {
    rebuild_view();
    SIGMA_LOG_INFO << "registry: daemon " << address.to_string()
                   << " registered endpoints "
                   << range_string(lease.base, lease.count) << " (view v"
                   << view_.version << ", " << view_.nodes.size()
                   << " nodes)";
  }
  return service::encode_lease_grant({lease.id, config_.lease_ttl_ms});
}

void RegistryServer::expire_due() {
  bool membership_changed = false;
  const auto now = std::chrono::steady_clock::now();
  for (auto it = leases_.begin(); it != leases_.end();) {
    if (it->second.expires_at <= now) {
      m_lease_expiries_->inc();
      SIGMA_LOG_WARN << "registry: lease " << it->second.id << " (daemon "
                     << it->second.address.to_string() << ", endpoints "
                     << range_string(it->second.base, it->second.count)
                     << ") expired without a heartbeat";
      membership_changed = true;
      it = leases_.erase(it);
    } else {
      ++it;
    }
  }
  if (membership_changed) rebuild_view();
}

void RegistryServer::rebuild_view() {
  view_.nodes.clear();
  for (const auto& [id, lease] : leases_) {
    for (std::uint32_t i = 0; i < lease.count; ++i) {
      view_.nodes.push_back({lease.address, lease.base + i});
    }
  }
  std::sort(view_.nodes.begin(), view_.nodes.end(),
            [](const net::TcpNodeAddress& a, const net::TcpNodeAddress& b) {
              return a.endpoint < b.endpoint;
            });
  ++view_.version;
  m_nodes_->set(static_cast<std::int64_t>(leases_.size()));
}

}  // namespace sigma::ctrl
