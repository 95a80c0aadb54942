// Deduplication server cluster (paper Section 3.1) and the trace-driven
// cluster simulator used for the evaluation (Section 4.4).
//
// The cluster owns N deduplication nodes and a routing scheme. Backups are
// processed exactly as the paper describes: place_stream() cuts the
// client-side stream into routing units (super-chunks, files, or chunks
// depending on the scheme), each unit is routed, the unit's chunk
// fingerprints are tested at the target node as one batched
// duplicate-test query, and only unique chunks are stored. Over a
// transport in payload mode, a scheme that probes (Sigma, EMC stateful)
// sends that query inside the routing probe, so a placement costs one
// round trip before its write. Extreme Binning's writes carry the file's
// bin key, and the node dedups them against that bin. Trace backups and
// BackupClient take this same path, so all usage comes from the nodes.
//
// Message accounting follows Fig. 7's metric: one message = one chunk
// fingerprint looked up at one node, split into pre-routing (probe) and
// after-routing (duplicate test) messages.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "net/tcp/socket.h"
#include "net/transport.h"
#include "node/dedup_node.h"
#include "obs/metrics.h"
#include "routing/router.h"
#include "service/wire_protocol.h"
#include "workload/dataset.h"

namespace sigma::ctrl {
class RegistryClient;
}  // namespace sigma::ctrl

namespace sigma {

/// How clients reach the deduplication nodes.
enum class TransportMode {
  /// In-process method calls on cluster-owned nodes (the trace-driven
  /// simulator's mode, and the identity reference for kTcp).
  kDirect,
  /// Real sockets: the nodes live in node_server daemons (other
  /// processes, other hosts, or an in-process server::NodeServer); every
  /// operation travels as a length-prefixed frame over TCP. The fleet is
  /// described by TransportConfig::tcp_nodes.
  kTcp,
};

struct TransportConfig {
  TransportMode mode = TransportMode::kDirect;
  /// Max super-chunk writes in flight per cluster (kTcp). Routing
  /// waits until fewer than this many writes are outstanding, so depth 1
  /// reproduces direct-call semantics (and reports) exactly, while larger
  /// depths overlap client-side routing with node-side deduplication.
  std::size_t pipeline_depth = 1;
  /// Per-RPC timeout, milliseconds.
  std::uint32_t rpc_timeout_ms = 30000;
  /// kTcp only: the node map — one entry per remote node service, in node
  /// id order (cluster node i is tcp_nodes[i]). num_nodes must match
  /// tcp_nodes.size(). See net::parse_tcp_nodes for "host:port[:endpoint]"
  /// string form.
  std::vector<net::TcpNodeAddress> tcp_nodes;
  /// kTcp only: fetch the node map from a fleet registry instead of
  /// wiring tcp_nodes by hand (tcp_nodes is overwritten from the fleet
  /// view; num_nodes follows it). The static map stays the fallback when
  /// unset. If the registry later dies, the cluster degrades gracefully:
  /// the periodic view pulls log the outage and the fleet keeps serving
  /// from the view cached here at construction.
  std::optional<net::TcpAddress> registry;
  std::uint32_t registry_timeout_ms = 5000;
};

struct ClusterConfig {
  std::size_t num_nodes = 4;
  RoutingScheme scheme = RoutingScheme::kSigma;
  std::uint64_t super_chunk_bytes = 1ull << 20;
  RouterConfig router;
  DedupNodeConfig node;
  TransportConfig transport;
  /// Storage backend for the direct-mode nodes; null = in-memory. Called
  /// once per node at construction — e.g. `[&](NodeId i) { return
  /// std::make_unique<FileBackend>(dir / std::to_string(i)); }` for
  /// durable on-disk containers. Ignored in kTcp mode, where the daemons
  /// own their backends.
  std::function<std::unique_ptr<StorageBackend>(NodeId)> backend_factory;
  /// Metrics plane (must outlive the cluster). Instruments the whole
  /// client-side stack — routing decisions (latency histogram, probe
  /// rounds and probe-message volume) and, in kTcp mode, the transport
  /// and RPC endpoint; in direct mode, the local nodes and their
  /// backends. Null = a private registry.
  obs::Registry* metrics = nullptr;
};

struct MessageStats {
  std::uint64_t pre_routing = 0;
  std::uint64_t after_routing = 0;

  std::uint64_t total() const { return pre_routing + after_routing; }
};

/// Cluster-wide outcome of the backups processed so far.
struct ClusterReport {
  std::uint64_t logical_bytes = 0;
  std::uint64_t physical_bytes = 0;
  std::vector<std::uint64_t> node_usage;
  MessageStats messages;

  double dedup_ratio() const {
    return physical_bytes == 0
               ? 1.0
               : static_cast<double>(logical_bytes) /
                     static_cast<double>(physical_bytes);
  }

  /// Mean physical usage across nodes (the paper's alpha).
  double usage_mean() const;
  /// Population standard deviation of node usage (the paper's sigma).
  double usage_stddev() const;

  /// Cluster dedup ratio discounted by storage imbalance:
  /// DR * alpha / (alpha + sigma). Divide by a single-node exact DR to get
  /// the paper's normalized effective deduplication ratio (Eq. 7).
  double effective_dedup_ratio() const;
};

/// Where place_stream() put a session's chunks, and how many node writes
/// it issued.
struct StreamPlacement {
  std::vector<NodeId> chunk_nodes;  // in stream order
  std::uint64_t writes = 0;
};

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);
  ~Cluster();

  std::size_t size() const { return config_.num_nodes; }
  /// Local node access — direct mode only (in kTcp mode the nodes live
  /// behind sockets; throws std::out_of_range).
  DedupNode& node(std::size_t i) { return *nodes_.at(i); }
  const DedupNode& node(std::size_t i) const { return *nodes_.at(i); }
  Router& router() { return *router_; }
  const ClusterConfig& config() const { return config_; }

  /// The scatter-gather probe plane routing decisions run against: the
  /// nodes themselves in direct mode, RPC stubs in kTcp mode (one fused
  /// routing probe per candidate, all in flight together).
  const ProbeSet& probe_set() const { return *probe_plane_; }

  /// Wire-level traffic counters (all zero in direct mode). Distinct from
  /// MessageStats, which counts the paper's fingerprint-lookup metric.
  net::NetStats net_stats() const;

  /// Scrape node `node`'s hosting daemon over the transport
  /// (kStatsSnapshot): the daemon-wide view. Throws std::logic_error in
  /// direct mode.
  obs::MetricsSnapshot stats_snapshot(NodeId node) const;

  /// Registry mode only: the latest fleet view (the construction-time
  /// view until a periodic pull brings a changed one).
  /// Empty optional under static wiring. NOTE: the cluster keeps its
  /// wired node map until restarted — an observed change updates this
  /// view (and logs) so operators and tests see it; dynamic rewiring is
  /// future work.
  std::optional<service::FleetView> fleet_view() const;

  /// Registry mode only: false while the registry is unreachable (the
  /// degraded-mode probe). True under static wiring.
  bool registry_healthy() const;

  /// The registry stub (health, latest view); null under static wiring.
  const ctrl::RegistryClient* registry_client() const {
    return registry_client_.get();
  }

  /// Process one backup generation in trace form (no payloads).
  void backup(const TraceBackup& backup, StreamId stream = 0)
      SIGMA_EXCLUDES(route_mu_);

  /// Process every generation of a dataset in order.
  void backup_dataset(const Dataset& dataset, StreamId stream = 0)
      SIGMA_EXCLUDES(route_mu_);

  /// The one placement path: cut a session's chunk stream into the
  /// router's units and place each one. `file_ends[f]` is the stream
  /// index one past file f. Units are super-chunks of `unit_bytes`, whole
  /// files (Extreme Binning; written in pieces of `unit_bytes` under one
  /// bin key) or chunks (chunk DHT; batched per node into writes of
  /// `unit_bytes`). `payloads` supplies chunk bytes by stream index, on
  /// the calling thread. Concurrent callers interleave per unit.
  StreamPlacement place_stream(const std::vector<ChunkRecord>& chunks,
                               const std::vector<std::size_t>& file_ends,
                               StreamId stream, std::uint64_t unit_bytes,
                               const DedupNode::PayloadProvider& payloads = {})
      SIGMA_EXCLUDES(route_mu_);

  /// place_stream()'s step for one super-chunk: route it and write it.
  /// Returns the chosen node. Concurrent callers are serialized per
  /// routing decision; writes still overlap through the pipeline.
  NodeId place_super_chunk(const SuperChunk& super_chunk, StreamId stream,
                           const DedupNode::PayloadProvider& payloads = {})
      SIGMA_EXCLUDES(route_mu_);

  /// Fetch stored chunks (restore path), one (node, fingerprint) per
  /// entry; the answers come back in entry order, std::nullopt for a chunk
  /// its node does not hold. Every write issued before the call is
  /// applied first. In kTcp mode route_mu_ is held only for that drain:
  /// the reads then go out together, one pipelined kReadChunk each, and
  /// concurrent callers overlap.
  std::vector<std::optional<Buffer>> read_chunks(
      const std::vector<std::pair<NodeId, Fingerprint>>& reads) const
      SIGMA_EXCLUDES(route_mu_);

  /// A one-entry read_chunks().
  std::optional<Buffer> read_chunk(NodeId node, const Fingerprint& fp) const
      SIGMA_EXCLUDES(route_mu_);

  /// Write barrier: block until every write issued so far is
  /// acknowledged (kTcp; direct-mode writes are synchronous already).
  void drain_writes() SIGMA_EXCLUDES(route_mu_);

  /// Seal all open containers on every node.
  void flush() SIGMA_EXCLUDES(route_mu_);

  ClusterReport report() const SIGMA_EXCLUDES(route_mu_);

 private:
  /// Route one unit and book its Fig. 7 messages and logical bytes. In
  /// kTcp mode this first waits until the write pipeline has a free slot,
  /// so at depth 1 every probe observes all previous writes applied —
  /// bit-identical to direct mode.
  NodeId route_unit(const std::vector<ChunkRecord>& unit, RouteContext& ctx)
      SIGMA_REQUIRES(route_mu_);

  /// Dispatch one write to `target` (direct call, or a pipelined
  /// transport write once a slot is free). `present` is the target's
  /// duplicate bitmap, when the routing probe carried the test; `bin` is
  /// Extreme Binning's bin key.
  void submit_write(
      NodeId target, StreamId stream, const SuperChunk& sc,
      const DedupNode::PayloadProvider& payloads = {},
      const std::optional<std::vector<bool>>& present = std::nullopt,
      std::optional<std::uint64_t> bin = std::nullopt)
      SIGMA_REQUIRES(route_mu_);

  ClusterConfig config_;
  /// Declared before everything that records into it.
  obs::RegistryRef metrics_;
  /// Direct mode's nodes; empty in kTcp mode.
  std::vector<std::unique_ptr<DedupNode>> nodes_;
  /// Serializes the client-side routing plane: router_'s internal state
  /// and the Fig. 7 message ledger below. Outermost in
  /// the lock order — held across probe RPCs, write dispatch and, in
  /// direct mode, node storage access. The pointer itself is fixed at
  /// construction; its pointee state is what route_mu_ guards.
  mutable Mutex route_mu_{LockRank::kClientRoute};
  std::unique_ptr<Router> router_;

  /// kTcp machinery (transport, client stubs, write pipeline); null in
  /// direct mode. Defined in cluster.cc.
  struct TransportRuntime;
  std::unique_ptr<TransportRuntime> runtime_;
  /// Direct mode's per-node probe views (the nodes themselves); empty in
  /// kTcp mode. Fixed at construction.
  std::vector<const NodeProbe*> views_;
  /// The scatter-gather plane route_unit() hands the router — a
  /// ClientProbeSet over the client stubs in kTcp mode, a
  /// DirectProbeSet over views_ in direct mode. Fixed at construction.
  std::unique_ptr<ProbeSet> probe_plane_;

  /// Routing instruments (the histogram's count is the decision count).
  obs::Histogram& route_us_;
  obs::Counter& route_probe_rounds_;
  obs::Counter& route_probe_msgs_;

  std::uint64_t logical_bytes_ SIGMA_GUARDED_BY(route_mu_) = 0;
  MessageStats messages_ SIGMA_GUARDED_BY(route_mu_);

  std::unique_ptr<ctrl::RegistryClient> registry_client_;
};

}  // namespace sigma
