// The server side of a deduplication node: one thread that owns the node.
// Transport deliveries enqueue each request; the node thread pops them one
// at a time, decodes the request, executes it against the DedupNode and
// sends the response. Only that thread touches the node, so every node
// runs its requests one after another — the serialization a
// single-threaded socket server would provide — while different nodes
// run in parallel on their own threads.
//
// Two queues: writes (super-chunk stores, flushes) take the FIFO write
// queue; read-only requests — routing probes, duplicate tests, chunk
// reads, scrapes — take the probe queue, and the thread always pops a
// queued probe before the next write. A probe is therefore answered after
// at most the one write in progress rather than behind the whole queued
// write backlog. That recovers same-node pipelining for the payload-mode
// write path (whose duplicate test is a synchronous RPC between pipelined
// stores). The reordering is safe: stores only ever add chunks, so a
// probe that runs early can at worst under-report presence — the client
// ships a few extra payload bytes and the store path re-checks;
// present-at-test can never un-store.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <thread>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "net/message.h"
#include "net/transport.h"
#include "node/dedup_node.h"
#include "obs/metrics.h"

namespace sigma::service {

struct NodeServiceStats {
  std::uint64_t requests_served = 0;
  std::uint64_t errors_returned = 0;
  /// Probe-queue share of requests_served.
  std::uint64_t fast_requests_served = 0;
};

class NodeService {
 public:
  /// Answers a kStatsSnapshot request. The hosting process (NodeServer)
  /// installs one that covers the whole process — transport, every node,
  /// storage — so scraping any endpoint yields the full process view;
  /// without one the service answers with its own registry's snapshot.
  using SnapshotProvider = std::function<obs::MetricsSnapshot()>;

  /// Binds the node on `transport` and starts the node thread. The node
  /// and transport must outlive the service (as must `metrics` when
  /// given; without one the service records into a private registry).
  /// `label` tags this service's metric names (e.g. "node0"), so per-node
  /// series survive a fleet-wide merge.
  NodeService(DedupNode& node, net::Transport& transport,
              obs::Registry* metrics = nullptr, const std::string& label = {});

  /// Stops serving: unbinds the endpoint (blocks until in-flight
  /// deliveries return), then joins the node thread once it has answered
  /// every request already queued.
  ~NodeService();

  NodeService(const NodeService&) = delete;
  NodeService& operator=(const NodeService&) = delete;

  /// The service's transport address.
  net::EndpointId endpoint() const { return endpoint_; }

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
  /// Read-only operations take the probe queue.
  static bool is_probe(net::MessageType type);

  void enqueue(net::Message&& m) SIGMA_EXCLUDES(mu_);
  /// The node thread: pops (probes first) until closed and drained.
  void run() SIGMA_EXCLUDES(mu_);
  net::Message handle(const net::Message& request) SIGMA_EXCLUDES(mu_);

  DedupNode& node_;
  net::Transport& transport_;

  /// Queue depth across both queues, per-op service time (decode +
  /// execute + encode), and the counters behind stats().
  obs::RegistryRef metrics_;
  std::string prefix_;  // "svc.<label>."
  obs::Gauge& depth_gauge_;
  obs::Histogram* op_time_us_[net::kMaxMessageType + 1] = {};
  obs::Counter& requests_served_;
  obs::Counter& errors_returned_;
  obs::Counter& fast_requests_served_;

  net::EndpointId endpoint_ = 0;

  /// Never held while the node executes a request: the node thread holds
  /// it only to pop, and to copy the snapshot provider out.
  mutable Mutex mu_{LockRank::kService};
  CondVar cv_;
  std::deque<net::Message> writes_ SIGMA_GUARDED_BY(mu_);  // FIFO
  std::deque<net::Message> probes_ SIGMA_GUARDED_BY(mu_);  // popped first
  bool closed_ SIGMA_GUARDED_BY(mu_) = false;
  /// Copied out under mu_ and invoked unlocked, so a scrape never holds
  /// up deliveries enqueueing behind it.
  SnapshotProvider snapshot_provider_ SIGMA_GUARDED_BY(mu_);

  /// Declared last: started once every member above exists.
  std::thread thread_;
};

}  // namespace sigma::service
