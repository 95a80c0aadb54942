// The server side of a deduplication node: an event loop that owns the
// node's request stream. Transport deliveries enqueue into an MPSC inbox;
// a drain task on the shared ThreadPool decodes each request, executes it
// against the DedupNode and sends the response. One drain task runs at a
// time per lane, so every node processes its requests in arrival order —
// the same serialization a single-threaded socket server would provide —
// while different nodes run in parallel across the pool.
//
// Two lanes: writes (super-chunk stores, flushes) take the FIFO write
// inbox; read-only requests — routing probes, duplicate tests, chunk
// reads — take a probe fast lane with its own drain task, so a probe is
// answered after at most the one write in progress rather than behind the
// whole queued write backlog. That recovers same-node pipelining for the
// payload-mode write path (whose duplicate test is a synchronous RPC
// between pipelined stores). The reordering is safe: stores only ever add
// chunks, so a probe that runs early can at worst under-report presence —
// the client ships a few extra payload bytes and the store path re-checks;
// present-at-test can never un-store. Both lanes serialize on the node
// mutex while executing, so DedupNode sees one request at a time.
//
// Drain tasks are re-armed on demand (scheduled only while their inbox is
// non-empty), so a large cluster idles without pinning pool threads.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "net/channel.h"
#include "net/message.h"
#include "net/transport.h"
#include "node/dedup_node.h"
#include "obs/metrics.h"

namespace sigma::service {

struct NodeServiceStats {
  std::uint64_t requests_served = 0;
  std::uint64_t errors_returned = 0;
  std::uint64_t drain_runs = 0;
  /// Probe-lane share of the above.
  std::uint64_t fast_requests_served = 0;
  std::uint64_t fast_drain_runs = 0;
};

class NodeService {
 public:
  /// Answers a kStatsSnapshot request. The hosting process (NodeServer,
  /// Cluster) installs one that covers the whole process — transport,
  /// every node, storage — so scraping any endpoint yields the full
  /// process view; without one the service answers with its own
  /// registry's snapshot.
  using SnapshotProvider = std::function<obs::MetricsSnapshot()>;

  /// Binds the node on `transport` and serves it from `pool`. The node,
  /// transport and pool must outlive the service (as must `metrics` when
  /// given; without one the service records into a private registry).
  /// `label` tags this service's metric names (e.g. "node0"), so per-node
  /// series survive a fleet-wide merge.
  NodeService(DedupNode& node, net::Transport& transport, ThreadPool& pool,
              obs::Registry* metrics = nullptr, const std::string& label = {});

  /// Stops serving: unbinds the endpoint (blocks until in-flight
  /// deliveries return) and waits for both lanes to run dry.
  ~NodeService();

  NodeService(const NodeService&) = delete;
  NodeService& operator=(const NodeService&) = delete;

  /// The service's transport address.
  net::EndpointId endpoint() const { return endpoint_; }

  DedupNode& node() { return node_; }

  NodeServiceStats stats() const;

  /// Install the process-wide stats provider (see SnapshotProvider).
  /// Safe while traffic is flowing (scrapes racing the install see the
  /// old provider or the new one); the provider must be thread-safe and
  /// must only read state fully constructed before this call.
  void set_snapshot_provider(SnapshotProvider provider) SIGMA_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    snapshot_provider_ = std::move(provider);
  }

 private:
  /// Read-only operations ride the probe fast lane.
  static bool is_fast_lane(net::MessageType type);

  void enqueue(net::Message&& m) SIGMA_EXCLUDES(mu_);
  void drain(bool fast) SIGMA_EXCLUDES(mu_, node_mu_);
  net::Message handle(const net::Message& request) SIGMA_REQUIRES(node_mu_)
      SIGMA_EXCLUDES(mu_);
  void observe_depth();

  DedupNode& node_;
  net::Transport& transport_;
  ThreadPool& pool_;

  /// Inbox depth across both lanes, per-op service time (decode +
  /// execute + encode), and the counters behind stats().
  obs::RegistryRef metrics_;
  std::string prefix_;  // "svc.<label>."
  obs::Gauge& depth_gauge_;
  obs::Histogram* op_time_us_[net::kMaxMessageType + 1] = {};
  obs::Counter& requests_served_;
  obs::Counter& errors_returned_;
  obs::Counter& drain_runs_;
  obs::Counter& fast_requests_served_;
  obs::Counter& fast_drain_runs_;

  net::EndpointId endpoint_ = 0;

  /// Serializes DedupNode access across the two lanes. Outermost rank:
  /// held across handle(), which reaches the service mu_ (the snapshot
  /// provider), every storage lock, and — via the kStatsSnapshot
  /// provider — the metrics registry.
  Mutex node_mu_{LockRank::kNodeSerial};

  mutable Mutex mu_{LockRank::kService};
  CondVar idle_cv_;
  net::Channel<net::Message> inbox_;       // writes + flushes, FIFO
  net::Channel<net::Message> fast_inbox_;  // probes, duplicate tests, reads
  bool draining_ SIGMA_GUARDED_BY(mu_) = false;
  bool fast_draining_ SIGMA_GUARDED_BY(mu_) = false;
  /// Copied out under mu_ and invoked unlocked: the provider reaches the
  /// registry, so it must never run while this service's mu_ is held.
  SnapshotProvider snapshot_provider_ SIGMA_GUARDED_BY(mu_);
};

}  // namespace sigma::service
