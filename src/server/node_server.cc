#include "server/node_server.h"

#include <stdexcept>

#include "common/logging.h"
#include "obs/trace.h"
#include "storage/manifest.h"

namespace sigma::server {
namespace {

/// Opens (or initializes) one node's durable directory: validates the
/// manifest against the node's identity — refusing a directory written by
/// another node, endpoint or format version — and (re)writes it.
std::unique_ptr<StorageBackend> open_file_backend(
    const NodeServerConfig& config, std::size_t i, obs::Registry* metrics) {
  if (config.data_dir.empty()) {
    throw std::invalid_argument(
        "NodeServer: file backend requires a data directory");
  }
  auto backend = std::make_unique<FileBackend>(
      config.data_dir / ("node-" + std::to_string(i)), config.fsync, metrics,
      "node" + std::to_string(i));
  const std::uint64_t endpoint =
      config.first_endpoint + static_cast<net::EndpointId>(i);
  if (const auto stored = load_manifest(*backend)) {
    check_manifest(*stored, i, endpoint);
  }
  NodeManifest manifest;
  manifest.node_id = i;
  manifest.endpoint = endpoint;
  manifest.container_capacity_bytes = config.node.container_capacity_bytes;
  store_manifest(*backend, manifest);
  return backend;
}

}  // namespace

NodeServer::NodeServer(const NodeServerConfig& config) : config_(config) {
  if (config_.num_nodes == 0) {
    throw std::invalid_argument("NodeServer: need at least one node");
  }
  // Refuse a bad endpoint range at construction: the daemon's service ids
  // must stay clear of the registry's well-known endpoint below and of
  // the client band above.
  if (config_.first_endpoint <= net::kRegistryEndpoint) {
    throw std::invalid_argument(
        "NodeServer: first endpoint " +
        std::to_string(config_.first_endpoint) +
        " collides with the registry endpoint id " +
        std::to_string(net::kRegistryEndpoint) +
        " — use a base of at least " +
        std::to_string(net::kServiceEndpointBase));
  }
  if (config_.first_endpoint >= net::kClientEndpointBase ||
      static_cast<std::uint64_t>(config_.first_endpoint) + config_.num_nodes >
          net::kClientEndpointBase) {
    throw std::invalid_argument(
        "NodeServer: endpoint range [" +
        std::to_string(config_.first_endpoint) + ".." +
        std::to_string(static_cast<std::uint64_t>(config_.first_endpoint) +
                       config_.num_nodes - 1) +
        "] reaches the client endpoint range (base " +
        std::to_string(net::kClientEndpointBase) +
        ") — lower --first-endpoint or --nodes");
  }

  // Recover node state BEFORE any socket exists: until every index is
  // rebuilt from the sealed containers, the daemon is unreachable.
  nodes_.reserve(config_.num_nodes);
  for (std::size_t i = 0; i < config_.num_nodes; ++i) {
    const bool durable = config_.backend == BackendKind::kFile;
    nodes_.push_back(std::make_unique<DedupNode>(
        static_cast<NodeId>(i), config_.node,
        durable ? open_file_backend(config_, i, &registry_) : nullptr,
        &registry_));
    if (durable) nodes_.back()->rebuild_indexes();
  }

  net::TcpTransportConfig tcp;
  tcp.listen = config_.listen;
  tcp.endpoint_base = config_.first_endpoint;
  tcp.max_body_bytes = config_.max_body_bytes;
  tcp.metrics = &registry_;
  transport_ = std::make_unique<net::TcpTransport>(std::move(tcp));
  config_.listen.port = transport_->listen_port();

  // Every endpoint of this daemon answers a stats scrape with the same
  // daemon-wide view (fleet_stats dedupes daemons by address).
  services_.reserve(config_.num_nodes);
  for (auto& node : nodes_) {
    services_.push_back(std::make_unique<service::NodeService>(
        *node, *transport_, &registry_,
        "node" + std::to_string(services_.size())));
    services_.back()->set_snapshot_provider(
        [this] { return metrics_snapshot(); });
  }

  // Register with the fleet registry LAST: the daemon is fully servable
  // (recovered, listening, services bound) the moment it appears in the
  // fleet view. A range overlap is refused here and fails construction.
  if (config_.registry) {
    ctrl::RegistryClientConfig rc;
    rc.registry = *config_.registry;
    rc.rpc_timeout_ms = config_.registry_timeout_ms;
    rc.heartbeat_interval_ms = config_.registry_heartbeat_ms;
    rc.metrics = &registry_;
    registry_client_ = std::make_unique<ctrl::RegistryClient>(rc);
    registry_client_->register_node(
        {config_.listen.host, config_.listen.port}, config_.first_endpoint,
        static_cast<std::uint32_t>(config_.num_nodes));
  }
}

void NodeServer::leave_registry() noexcept {
  if (!registry_client_) return;
  try {
    registry_client_->leave();
  } catch (const std::exception& e) {
    SIGMA_LOG_WARN << "node_server: registry leave failed: " << e.what();
  }
}

std::vector<net::TcpNodeAddress> NodeServer::node_map() const {
  std::vector<net::TcpNodeAddress> map;
  map.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    map.push_back({config_.listen, endpoint(i)});
  }
  return map;
}

obs::MetricsSnapshot NodeServer::metrics_snapshot() const {
  obs::MetricsSnapshot snap = registry_.snapshot();
  obs::fold_trace_stats(snap);
  return snap;
}

void NodeServer::flush() {
  // Leave the fleet before going dark, so clients see the membership
  // change at their next heartbeat instead of discovering dead endpoints.
  leave_registry();
  // Destroying a service unbinds it and joins its node thread: once
  // every one is gone no request can reach a node again — only then is
  // sealing the open containers the complete final state.
  services_.clear();
  for (auto& node : nodes_) node->flush();
}

NodeServer::~NodeServer() {
  // Leave the fleet, then let the members destroy in reverse declaration
  // order (services unbind before their nodes die).
  leave_registry();
}

}  // namespace sigma::server
