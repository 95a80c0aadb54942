#include "cluster/cluster.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>
#include <thread>

#include "common/logging.h"
#include "common/stats.h"
#include "ctrl/registry_client.h"
#include "net/rpc.h"
#include "net/tcp/tcp_transport.h"
#include "node/probe_set.h"
#include "obs/trace.h"
#include "service/node_client.h"
#include "service/probe_set.h"
#include "service/wire_protocol.h"

namespace sigma {

/// Everything the TCP deployment adds on the client side: the transport,
/// the shared client endpoint with its stubs dialed at the node map, and
/// the super-chunk write pipeline. The node services live in
/// server::NodeServer daemons. Declaration order is teardown order in
/// reverse: the stubs and endpoint go before the transport.
struct Cluster::TransportRuntime {
  std::unique_ptr<net::Transport> transport;
  std::unique_ptr<net::RpcEndpoint> rpc;
  std::vector<std::unique_ptr<service::NodeClient>> clients;
  std::chrono::milliseconds timeout;
  std::size_t pipeline_depth;
  std::deque<net::PendingCall> in_flight;

  TransportRuntime(const TransportConfig& config, obs::Registry& metrics)
      : timeout(config.rpc_timeout_ms),
        pipeline_depth(std::max<std::size_t>(1, config.pipeline_depth)) {
    net::TcpTransportConfig tcp;
    tcp.metrics = &metrics;
    for (const auto& node : config.tcp_nodes) {
      tcp.remote_endpoints.emplace(node.endpoint, node.address);
    }
    transport = std::make_unique<net::TcpTransport>(std::move(tcp));
    rpc = std::make_unique<net::RpcEndpoint>(*transport, &metrics);
    clients.reserve(config.tcp_nodes.size());
    for (const auto& node : config.tcp_nodes) {
      clients.push_back(std::make_unique<service::NodeClient>(
          *rpc, node.endpoint, timeout));
    }
  }

  ~TransportRuntime() { drain_quietly(); }

  /// Block until fewer than `limit` writes are outstanding. Entries are
  /// removed from the pipeline before their results are inspected, so a
  /// failed write surfaces once and never wedges subsequent calls.
  void wait_capacity(std::size_t limit) {
    // Reap writes already complete, in any order.
    for (auto it = in_flight.begin(); it != in_flight.end();) {
      if (it->done()) {
        net::PendingCall call = std::move(*it);
        it = in_flight.erase(it);
        call.get(timeout);
      } else {
        ++it;
      }
    }
    if (in_flight.size() < limit) return;
    // At capacity: a completion on *any* node frees the slot, so poll the
    // set rather than blocking on the oldest entry (one slow node must
    // not stall routing while other writes finish). Past the deadline,
    // fall through to the oldest entry's get() to surface its timeout.
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (in_flight.size() >= limit &&
           std::chrono::steady_clock::now() < deadline) {
      bool reaped = false;
      for (auto it = in_flight.begin(); it != in_flight.end(); ++it) {
        if (it->done()) {
          net::PendingCall call = std::move(*it);
          in_flight.erase(it);
          call.get(timeout);
          reaped = true;
          break;
        }
      }
      if (!reaped) std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    while (in_flight.size() >= limit) {
      net::PendingCall call = std::move(in_flight.front());
      in_flight.pop_front();
      call.get(std::chrono::milliseconds(0));
    }
  }

  /// Block until every outstanding write has completed.
  void drain() { wait_capacity(1); }

  void drain_quietly() noexcept {
    try {
      drain();
    } catch (...) {
      // Teardown path: a failed in-flight write has nowhere to report.
    }
  }
};

double ClusterReport::usage_mean() const {
  if (node_usage.empty()) return 0.0;
  RunningStats stats;
  for (std::uint64_t u : node_usage) stats.add(static_cast<double>(u));
  return stats.mean();
}

double ClusterReport::usage_stddev() const {
  if (node_usage.empty()) return 0.0;
  RunningStats stats;
  for (std::uint64_t u : node_usage) stats.add(static_cast<double>(u));
  return stats.stddev();
}

double ClusterReport::effective_dedup_ratio() const {
  const double alpha = usage_mean();
  const double sigma = usage_stddev();
  if (alpha <= 0.0) return dedup_ratio();
  return dedup_ratio() * alpha / (alpha + sigma);
}

Cluster::Cluster(const ClusterConfig& config)
    : config_(config),
      metrics_(config.metrics),
      router_(make_router(config.scheme, config.router)),
      route_us_(metrics_->histogram("route.decision_us")),
      route_probe_rounds_(metrics_->counter("route.probe_rounds")),
      route_probe_msgs_(metrics_->counter("route.probe_messages")) {
  if (config_.num_nodes == 0) {
    throw std::invalid_argument("Cluster: need at least one node");
  }
  if (config_.transport.registry &&
      config_.transport.mode == TransportMode::kTcp) {
    // Registry mode: take the node map from the fleet view instead of
    // trusting hand-wired values. Must run before anything sized from
    // num_nodes.
    ctrl::RegistryClientConfig rc;
    rc.registry = *config_.transport.registry;
    rc.rpc_timeout_ms = config_.transport.registry_timeout_ms;
    rc.metrics = metrics_.get();
    registry_client_ = std::make_unique<ctrl::RegistryClient>(rc);
    const service::FleetView view = registry_client_->watch_fleet();
    if (view.nodes.empty()) {
      throw std::runtime_error(
          "Cluster: registry at " + config_.transport.registry->to_string() +
          " has no registered node daemons");
    }
    config_.transport.tcp_nodes = view.nodes;
    config_.num_nodes = view.nodes.size();
    SIGMA_LOG_INFO << "cluster: fleet view v" << view.version << " with "
                   << config_.num_nodes << " nodes";
  }
  if (config_.transport.mode == TransportMode::kTcp) {
    // The nodes live in node_server daemons; only client stubs exist here.
    if (config_.transport.tcp_nodes.size() != config_.num_nodes) {
      throw std::invalid_argument(
          "Cluster: num_nodes (" + std::to_string(config_.num_nodes) +
          ") != tcp_nodes entries (" +
          std::to_string(config_.transport.tcp_nodes.size()) + ")");
    }
    // Endpoint ids are the fleet-wide node addresses: a collision would
    // silently alias two cluster nodes to one service (daemons must be
    // started with distinct --first-endpoint ranges).
    std::unordered_set<net::EndpointId> seen;
    for (const auto& node : config_.transport.tcp_nodes) {
      if (!seen.insert(node.endpoint).second) {
        throw std::invalid_argument(
            "Cluster: duplicate endpoint id " +
            std::to_string(node.endpoint) +
            " in tcp_nodes (give each daemon a distinct --first-endpoint)");
      }
      // A service id in the client range would alias this client's own
      // endpoint ids to a node service — refuse at construction.
      if (node.endpoint >= net::kClientEndpointBase) {
        throw std::invalid_argument(
            "Cluster: node endpoint " + std::to_string(node.endpoint) +
            " overlaps the client endpoint range (base " +
            std::to_string(net::kClientEndpointBase) +
            ") — daemon service ids must stay below it");
      }
    }
    runtime_ = std::make_unique<TransportRuntime>(config_.transport, *metrics_);
  } else {
    nodes_.reserve(config_.num_nodes);
    for (std::size_t i = 0; i < config_.num_nodes; ++i) {
      const NodeId id = static_cast<NodeId>(i);
      // A backend factory swaps the node state store (e.g. FileBackend
      // for durable on-disk containers) without touching dedup behavior:
      // reports must stay bit-identical to the in-memory default.
      nodes_.push_back(std::make_unique<DedupNode>(
          id, config_.node,
          config_.backend_factory ? config_.backend_factory(id) : nullptr,
          metrics_.get()));
    }
  }
  if (config_.scheme == RoutingScheme::kExtremeBinning) {
    eb_state_.resize(config_.num_nodes);
  }
  // The probe plane the routers gather through. kTcp issues the round as
  // concurrent pending calls (one fused probe per candidate); direct mode
  // loops over the nodes in the caller's thread.
  if (runtime_) {
    std::vector<const service::NodeClient*> stubs;
    stubs.reserve(runtime_->clients.size());
    for (const auto& c : runtime_->clients) stubs.push_back(c.get());
    probe_plane_ = std::make_unique<service::ClientProbeSet>(
        std::move(stubs), runtime_->timeout);
  } else {
    views_.reserve(nodes_.size());
    for (const auto& n : nodes_) views_.push_back(n.get());
    probe_plane_ = std::make_unique<DirectProbeSet>(views_);
  }
}

Cluster::~Cluster() = default;

NodeId Cluster::route_unit(const std::vector<ChunkRecord>& unit,
                           RouteContext& ctx) {
  if (runtime_) runtime_->wait_capacity(runtime_->pipeline_depth);
  // The timer covers only the decision itself — pipeline capacity waits
  // (write backpressure) are excluded so the histogram reads as routing
  // cost, not node write latency.
  NodeId target;
  {
    // Child of the placement root span (no-op on unsampled placements):
    // the probe gather and every probe RPC nest under this decision.
    obs::SpanScope span("route.decision");
    obs::ScopedTimer timer(route_us_);
    target = router_->route(unit, *probe_plane_, ctx);
  }
  if (ctx.pre_routing_messages > 0) {
    route_probe_rounds_.inc();
    route_probe_msgs_.inc(ctx.pre_routing_messages);
  }
  return target;
}

void Cluster::submit_write(NodeId target, StreamId stream,
                           const SuperChunk& sc,
                           const DedupNode::PayloadProvider& payloads) {
  if (runtime_) {
    // The stub serializes the request (running the wire duplicate test in
    // payload mode) synchronously, then the store travels asynchronously:
    // the pipeline slot frees when the node's response arrives.
    runtime_->in_flight.push_back(
        runtime_->clients[target]->write_super_chunk_async(stream, sc,
                                                           payloads));
  } else {
    nodes_[target]->write_super_chunk(stream, sc, payloads);
  }
}

void Cluster::backup(const TraceBackup& backup, StreamId stream) {
  MutexLock lock(route_mu_);
  switch (router_->granularity()) {
    case RoutingGranularity::kSuperChunk:
      backup_super_chunk_stream(backup, stream);
      break;
    case RoutingGranularity::kFile:
      backup_files_extreme_binning(backup);
      break;
    case RoutingGranularity::kChunk:
      backup_chunk_dht(backup, stream);
      break;
  }
}

void Cluster::backup_dataset(const Dataset& dataset, StreamId stream) {
  if (router_->granularity() == RoutingGranularity::kFile &&
      !dataset.has_file_metadata) {
    throw std::invalid_argument(
        "Cluster: file-granularity routing needs file metadata (dataset '" +
        dataset.name + "' is a raw chunk trace)");
  }
  for (const auto& generation : dataset.backups) backup(generation, stream);
}

void Cluster::backup_super_chunk_stream(const TraceBackup& backup,
                                        StreamId stream) {
  // The backup session is one data stream: files are concatenated in
  // stream order and cut into super-chunks irrespective of file
  // boundaries, preserving stream locality (Section 3.2).
  SuperChunkBuilder builder(config_.super_chunk_bytes);

  auto dispatch = [&](SuperChunk&& sc) {
    if (sc.chunks.empty()) return;
    // Root sampling decision: one trace per super-chunk placement, from
    // the routing decision through the write RPC to the daemon's store.
    obs::SpanScope trace(obs::SpanScope::Root{}, "sc.place");
    RouteContext ctx;
    const NodeId target = route_unit(sc.chunks, ctx);
    messages_.pre_routing += ctx.pre_routing_messages;
    messages_.after_routing += sc.chunks.size();
    logical_bytes_ += sc.logical_size();
    submit_write(target, stream, sc);
  };

  for (const auto& file : backup.files) {
    for (const auto& chunk : file.chunks) {
      if (builder.add(chunk)) dispatch(builder.take());
    }
  }
  dispatch(builder.flush());
}

void Cluster::backup_files_extreme_binning(const TraceBackup& backup) {
  for (const auto& file : backup.files) {
    if (file.chunks.empty()) continue;
    obs::SpanScope trace(obs::SpanScope::Root{}, "sc.place");
    RouteContext ctx;
    const NodeId target = route_unit(file.chunks, ctx);
    messages_.pre_routing += ctx.pre_routing_messages;
    messages_.after_routing += file.chunks.size();
    logical_bytes_ += file.logical_bytes();

    // Published Extreme Binning: the file deduplicates only against the
    // bin keyed by its representative fingerprint.
    const std::uint64_t rep =
        compute_handprint(file.chunks, 1).front().prefix64();
    auto& bin = eb_state_[target].bins[rep];
    for (const auto& chunk : file.chunks) {
      if (bin.insert(chunk.fp).second) {
        eb_state_[target].stored_bytes += chunk.size;
      }
    }
  }
}

void Cluster::backup_chunk_dht(const TraceBackup& backup, StreamId stream) {
  // Per-chunk DHT placement; chunks headed to the same node are batched
  // into write units so container locality reflects arrival order.
  std::vector<SuperChunk> pending(size());
  std::vector<std::uint64_t> pending_bytes(size(), 0);

  auto flush_node = [&](std::size_t i) {
    if (pending[i].chunks.empty()) return;
    submit_write(static_cast<NodeId>(i), stream, pending[i]);
    pending[i] = SuperChunk{};
    pending_bytes[i] = 0;
  };

  for (const auto& file : backup.files) {
    for (const auto& chunk : file.chunks) {
      RouteContext ctx;
      NodeId target;
      {
        // DHT mode batches writes outside the decision, so the root
        // covers just the per-chunk routing hop.
        obs::SpanScope trace(obs::SpanScope::Root{}, "chunk.route");
        target = route_unit({chunk}, ctx);
      }
      messages_.pre_routing += ctx.pre_routing_messages;
      messages_.after_routing += 1;
      logical_bytes_ += chunk.size;
      pending[target].chunks.push_back(chunk);
      pending_bytes[target] += chunk.size;
      if (pending_bytes[target] >= config_.super_chunk_bytes) {
        flush_node(target);
      }
    }
  }
  for (std::size_t i = 0; i < size(); ++i) flush_node(i);
}

NodeId Cluster::place_super_chunk(const SuperChunk& super_chunk,
                                  StreamId stream,
                                  const DedupNode::PayloadProvider& payloads) {
  if (super_chunk.chunks.empty()) {
    throw std::invalid_argument("Cluster: empty super-chunk");
  }
  // One routing decision + its ledger update is atomic; concurrent
  // BackupClients interleave at super-chunk granularity (writes still
  // overlap downstream through the pipeline).
  MutexLock lock(route_mu_);
  // Root sampling decision: one trace per super-chunk placement. The
  // route decision, probe gather, probe RPCs and the write RPC (and,
  // through the wire context, the daemon's service + storage spans) all
  // descend from this span.
  obs::SpanScope trace(obs::SpanScope::Root{}, "sc.place");
  RouteContext ctx;
  const NodeId target = route_unit(super_chunk.chunks, ctx);
  messages_.pre_routing += ctx.pre_routing_messages;
  messages_.after_routing += super_chunk.chunks.size();
  logical_bytes_ += super_chunk.logical_size();
  submit_write(target, stream, super_chunk, payloads);
  return target;
}

std::vector<std::optional<Buffer>> Cluster::read_chunks(
    const std::vector<std::pair<NodeId, Fingerprint>>& reads) const {
  for (const auto& [node, fp] : reads) {
    if (node >= size()) {
      throw std::invalid_argument("Cluster: bad node id");
    }
  }
  std::vector<std::optional<Buffer>> out;
  out.reserve(reads.size());
  if (!runtime_) {
    MutexLock lock(route_mu_);
    for (const auto& [node, fp] : reads) {
      out.push_back(nodes_[node]->read_chunk(fp));
    }
    return out;
  }
  {
    // The drain is the read-after-write barrier: reads must observe every
    // in-flight write. No RPC is issued under the lock.
    MutexLock lock(route_mu_);
    runtime_->drain();
  }
  std::vector<net::PendingCall> calls;
  calls.reserve(reads.size());
  for (const auto& [node, fp] : reads) {
    calls.push_back(runtime_->clients[node]->read_chunk_async(fp));
  }
  for (const Buffer& body :
       net::RpcEndpoint::wait_all(calls, runtime_->timeout)) {
    out.push_back(
        service::decode_read_response(ByteView{body.data(), body.size()}));
  }
  return out;
}

std::optional<Buffer> Cluster::read_chunk(NodeId node,
                                          const Fingerprint& fp) const {
  return std::move(read_chunks({{node, fp}}).front());
}

void Cluster::flush() {
  MutexLock lock(route_mu_);
  if (runtime_) {
    runtime_->drain();
    // Batched async flush: seal every node's containers concurrently.
    std::vector<net::PendingCall> calls;
    calls.reserve(runtime_->clients.size());
    for (auto& c : runtime_->clients) calls.push_back(c->flush_async());
    net::RpcEndpoint::wait_all(calls, runtime_->timeout);
    return;
  }
  for (auto& n : nodes_) n->flush();
}

std::optional<service::FleetView> Cluster::fleet_view() const {
  if (!registry_client_) return std::nullopt;
  return registry_client_->latest_view();
}

bool Cluster::registry_healthy() const {
  return registry_client_ ? registry_client_->healthy() : true;
}

net::NetStats Cluster::net_stats() const {
  return runtime_ ? runtime_->transport->stats() : net::NetStats{};
}

obs::MetricsSnapshot Cluster::stats_snapshot(NodeId node) const {
  if (!runtime_) {
    throw std::logic_error("Cluster: stats_snapshot needs a transport");
  }
  return runtime_->clients.at(node)->stats_snapshot();
}

ClusterReport Cluster::report() const {
  // In kTcp mode, settle the write pipeline so usage counters reflect
  // every accepted super-chunk — the report is then identical to the
  // direct-call mode's at pipeline depth 1.
  MutexLock lock(route_mu_);
  if (runtime_) runtime_->drain();
  ClusterReport report;
  report.logical_bytes = logical_bytes_;
  report.messages = messages_;
  report.node_usage.reserve(size());
  const bool eb_bins = !eb_state_.empty();
  // Usage comes from the EB bin ledger (client-side), the local nodes,
  // or — in TCP mode — batched stored-bytes RPCs to the node daemons
  // (one fleet round-trip, not one per node).
  std::vector<std::uint64_t> remote_usage;
  if (!eb_bins && runtime_) {
    std::vector<net::PendingCall> calls;
    calls.reserve(runtime_->clients.size());
    for (const auto& c : runtime_->clients) {
      calls.push_back(c->stored_bytes_async());
    }
    const auto bodies = net::RpcEndpoint::wait_all(calls, runtime_->timeout);
    remote_usage.reserve(bodies.size());
    for (const auto& body : bodies) {
      remote_usage.push_back(
          service::decode_u64(ByteView{body.data(), body.size()}));
    }
  }
  for (std::size_t i = 0; i < size(); ++i) {
    const std::uint64_t usage = eb_bins    ? eb_state_[i].stored_bytes
                                : runtime_ ? remote_usage[i]
                                           : nodes_[i]->stored_bytes();
    report.node_usage.push_back(usage);
    report.physical_bytes += usage;
  }
  return report;
}

}  // namespace sigma
