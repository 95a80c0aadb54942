// TCP implementation of net::Transport: real sockets between OS
// processes, same Message semantics as the LoopbackTransport test fake.
//
// The event plane is SHARDED. The transport owns N Reactors (see
// net/tcp/reactor.h) — each a thread with its own epoll instance, its own
// eventfd wakeup and a private connection table. Connections are
// partitioned by peer hash — outbound by dial address at first send,
// inbound by peer address at accept — and never migrate between shards,
// so each reactor runs the original single-loop state machines against a
// strictly private fd set:
//
//            ┌ reactor 0 ── epoll ── conns {a, d, ...}   (+ listener)
//   send() ──┤ reactor 1 ── epoll ── conns {b, ...}
//            └ reactor N ── epoll ── conns {c, ...}
//
// This class is the layer above the shards: local endpoint registry,
// static peer map, learned return routes, and the hash that picks a
// shard. send() resolves the destination (local endpoint, learned route,
// or peer map), then queues on the owning reactor; the reactor frames,
// writev()s and dispatches without ever touching another shard.
//
// Per-peer connection state machine (outbound connections are dialed
// lazily, on the first send toward that peer's address):
//
//   kIdle -> kConnecting -> kHello -> kEstablished
//     ^          |  connect refused/timed out: retry with exponential
//     |          v  backoff up to connect_attempts, then fail
//     +------ kBackoff
//
// Failure semantics mirror LoopbackTransport's connection-refusal bounce:
// when a request cannot be delivered — no route, connect attempts
// exhausted, or the connection drops while the request is queued or
// awaiting its response — the transport synthesizes an error response to
// the local requester, so an RpcEndpoint call fails fast instead of
// burning its full timeout. (Each connection tracks locally-originated requests by
// correlation id until their response arrives.)
//
// Addressing: local endpoints get sequential ids from endpoint_base —
// node daemons use low well-known ids (kServiceEndpointBase + i), clients
// high ones (kClientEndpointBase) so the two ranges never collide. Remote
// endpoints are resolved through the static peer map (endpoint id ->
// host:port, for clients dialing node services) or through learned routes
// (a server answers a client endpoint over the connection that carried
// its request). Both the endpoint table and the route directory are
// transport-global — endpoint ids are fleet-unique regardless of which
// shard a connection hashed to — and live behind locks RANKED BELOW the
// shard mutexes (kTransportEndpoints, kTransportRoutes < kTransport), so
// a reactor consults them only with its own mutex released and no lock
// order ever crosses two shards.
//
// Backpressure: each connection's write queue is capped; send() from a
// non-reactor thread blocks once the queue passes the high watermark and
// resumes below the low watermark — a slow or stalled peer throttles its
// producers instead of ballooning memory.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "net/tcp/reactor.h"
#include "net/tcp/socket.h"
#include "net/transport.h"
#include "obs/metrics.h"

namespace sigma::net {

struct TcpTransportConfig {
  /// Bind + listen when set (node daemons). Client transports leave it
  /// empty and only dial out.
  std::optional<TcpAddress> listen;

  /// Static peer map: which remote endpoint ids live at which address.
  /// Multiple endpoints may share one address (a daemon hosting several
  /// node services); they share one connection.
  std::unordered_map<EndpointId, TcpAddress> remote_endpoints;

  /// First id handed out by register_endpoint().
  EndpointId endpoint_base = kClientEndpointBase;

  /// Event-loop shards. 0 = auto: min(hardware_concurrency, 4), at least
  /// 1. Clamped to 64. Each shard is one thread + one epoll instance;
  /// connections are hash-partitioned across them and never migrate.
  std::uint32_t reactors = 0;

  /// Largest acceptable frame body. Frames above this are a protocol
  /// error (connection dropped) — bounds memory against corrupt peers.
  std::size_t max_body_bytes = 64ull << 20;

  /// Write-queue backpressure thresholds, per connection.
  std::size_t write_high_watermark = 16ull << 20;
  std::size_t write_low_watermark = 4ull << 20;

  /// How long a producer may stay backpressured on one connection before
  /// the peer is declared stalled and the connection is failed (queued
  /// requests bounce as errors). Bounds every send() — a SIGSTOPped or
  /// wedged peer can slow this transport, never hang it (or its
  /// teardown).
  std::uint32_t write_stall_timeout_ms = 10000;

  /// Connect retry policy: attempts, base backoff (doubled per retry),
  /// backoff cap.
  std::uint32_t connect_attempts = 4;
  std::uint32_t connect_backoff_ms = 25;
  std::uint32_t connect_backoff_max_ms = 1000;

  /// How long an unanswered request stays tracked for bounce-on-
  /// connection-loss. Callers abandon calls at their own RPC timeout
  /// without telling the transport, so entries older than this are swept
  /// (set it above the longest RPC timeout in use; sweeping one early
  /// only costs the fast-fail bounce, the RPC timeout still fires).
  std::uint32_t request_track_ttl_ms = 120000;

  /// Learned-return-route takeover threshold: a route whose owning
  /// connection has received nothing for this long is considered stale
  /// and may be claimed by a different connection presenting the same
  /// endpoint id (a peer re-dialing after an asymmetric connection drop
  /// the server never saw). While the owner is fresher than this, a
  /// different claimant is a collision and is refused.
  std::uint32_t route_stale_ms = 15000;

  /// Metrics plane (must outlive the transport): the `net.*` and `tcp.*`
  /// counters behind stats()/tcp_stats(), per-op RPC latency histograms
  /// (send to response), backpressure-stall counts, a write-queue depth
  /// gauge with high-water tracking, and per-shard
  /// transport.reactor<i>.{frames,bytes_received,wakeups} counters. Null
  /// = the transport records into a private registry.
  obs::Registry* metrics = nullptr;
};

/// TCP-specific counters on top of NetStats (a view of TcpCounters).
struct TcpTransportStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_established = 0;
  std::uint64_t connect_failures = 0;
  std::uint64_t connections_lost = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t bounced_requests = 0;
  /// Event-loop wakeup pokes (eventfd writes): producers signalling a
  /// reactor that new work is queued. A wakeup is cheap but not free —
  /// this is the cross-thread chatter the shards are meant to bound.
  std::uint64_t wakeups = 0;
  /// Messages refused because their source endpoint's return route is
  /// already owned by a different, recently-active connection — two
  /// peers sharing an endpoint id (e.g. clients started with the same
  /// endpoint base).
  std::uint64_t route_conflicts = 0;
  /// Stale learned routes re-pointed to a new connection (peer re-dialed
  /// after a connection drop this side never observed).
  std::uint64_t route_takeovers = 0;
  /// Learned routes reclaimed by the periodic sweep: the owning
  /// connection sat silent past route_stale_ms and no collider ever
  /// dialed in to take the route over (a departed client). Without the
  /// sweep these would linger forever and count against lease reuse.
  std::uint64_t route_expired = 0;
};

/// The registry instruments of one transport, shared by the sharding
/// layer and every reactor: `net.*` (NetStats), `tcp.*` (TcpTransportStats
/// plus connect/handshake/backpressure counters), the write-queue gauge
/// and the per-op RPC latency histograms.
struct TcpCounters {
  explicit TcpCounters(obs::Registry& metrics);

  TcpTransportStats read() const;

  NetCounters net;
  obs::Counter& connections_accepted;
  obs::Counter& connections_established;
  obs::Counter& connect_failures;
  obs::Counter& connections_lost;
  obs::Counter& protocol_errors;
  obs::Counter& frames_received;
  obs::Counter& bytes_received;
  obs::Counter& bounced_requests;
  obs::Counter& wakeups;
  obs::Counter& route_conflicts;
  obs::Counter& route_takeovers;
  obs::Counter& route_expired;
  obs::Counter& connects;
  obs::Counter& reconnects;
  obs::Counter& handshake_failures;
  obs::Counter& backpressure_stalls;
  obs::Gauge& write_queue_bytes;
  /// `tcp.rpc_us.<op>`, indexed by MessageType.
  std::array<obs::Histogram*, kMaxMessageType + 1> rpc_us{};
};

class TcpTransport final : public Transport, private ReactorHost {
 public:
  /// Binds the listener (when configured) and starts every reactor.
  /// Throws SocketError if the listen address cannot be bound or a
  /// reactor's eventfd or epoll instance cannot be created.
  explicit TcpTransport(TcpTransportConfig config);

  /// Stops every reactor, closes every connection, unblocks senders.
  ~TcpTransport() override;

  EndpointId register_endpoint(Handler handler) override;
  void unregister_endpoint(EndpointId id) override;
  void send(Message&& m) override;
  NetStats stats() const override;

  TcpTransportStats tcp_stats() const;

  /// Actual listening port (resolves port 0); 0 when not listening.
  std::uint16_t listen_port() const { return listen_port_; }

  /// Number of event-loop shards this transport is running.
  std::size_t reactor_count() const { return reactors_.size(); }

 private:
  struct Endpoint {
    Handler handler;
    int active_deliveries = 0;
  };

  // ---- ReactorHost (called from reactor threads, no shard mutex held) ----
  bool deliver_local(Message&& m) override;
  void bounce_request(const Message& header, const std::string& text) override;
  RouteClaim learn_route(EndpointId src, const ConnPtr& conn) override;
  void forget_routes(const ConnPtr& conn) override;
  void sweep_stale_routes() override;
  void adopt_accepted(SocketFd fd) override;

  /// The shard owning connections to `host:port` (stable FNV-1a hash —
  /// every send toward one address lands on the same reactor).
  Reactor& shard_for(const std::string& host, std::uint16_t port);

  TcpTransportConfig config_;

  /// Set first in the destructor; producers observe it without any lock
  /// (send() becomes a no-op while the reactors wind down).
  std::atomic<bool> stopping_{false};

  // ---- Endpoint table (rank kTransportEndpoints, below the shards) ------
  mutable Mutex ep_mu_{LockRank::kTransportEndpoints};
  CondVar idle_cv_;  // unregister_endpoint waits here
  std::unordered_map<EndpointId, std::shared_ptr<Endpoint>> endpoints_
      SIGMA_GUARDED_BY(ep_mu_);
  EndpointId next_id_ SIGMA_GUARDED_BY(ep_mu_);

  // ---- Learned routes (rank kTransportRoutes, below the shards) ---------
  /// Remote endpoint id -> connection that carried its last message (how
  /// a daemon answers client endpoints). Transport-global: a response
  /// produced by any thread must find the route no matter which shard
  /// the inbound connection hashed to.
  mutable Mutex route_mu_{LockRank::kTransportRoutes};
  std::unordered_map<EndpointId, ConnPtr> routes_
      SIGMA_GUARDED_BY(route_mu_);
  /// Next time sweep_stale_routes() actually scans (it is called every
  /// reactor iteration; the scan runs at a quarter of the stale window).
  std::int64_t next_route_sweep_us_ SIGMA_GUARDED_BY(route_mu_) = 0;

  /// Instruments shared by local delivery and every reactor (declared
  /// before the reactors, which record into them until joined).
  obs::RegistryRef metrics_;
  TcpCounters counters_;

  SocketFd listen_fd_;  // owned here, borrowed by reactor 0
  std::uint16_t listen_port_ = 0;

  /// The shards. Sized at construction, immutable afterwards — indexing
  /// needs no lock.
  std::vector<std::unique_ptr<Reactor>> reactors_;
};

}  // namespace sigma::net
