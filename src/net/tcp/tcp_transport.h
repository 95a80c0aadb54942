// TCP implementation of net::Transport: real sockets between OS
// processes, same Message semantics as the LoopbackTransport test fake
// (Linux only: epoll and eventfd are required).
//
// Each transport is ONE event loop: a single thread owning one epoll
// instance, one eventfd wakeup, the listener (when listening) and every
// connection the transport dials or accepts:
//
//   send() ── mu_ ──> conn write queues ── eventfd ──> loop thread
//                                                        │ epoll
//                                      listener + conns {a, b, c, ...}
//
// send() resolves the destination (the request's connection for a reply,
// else a local endpoint or the peer map) and queues the frame on that
// connection's write queue; the loop writev()s the queues, reads and
// decodes inbound frames, and dispatches them to local endpoint handlers
// on its own thread.
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
// high ones (kClientEndpointBase) so the two ranges never collide. A
// request is sent to an endpoint id, resolved through the static peer
// map (endpoint id -> host:port, for clients dialing node services). A
// reply is not addressed by id at all: each request the loop delivers is
// tagged with the connection it arrived on (Message::conn), the reply
// copies the tag, and send() puts it on that connection and nowhere
// else. So any number of clients may share endpoint ids, and a reply
// whose connection has closed is dropped (its requester is gone).
//
// Locking: the loop mutex mu_ guards the producer/loop handoff — every
// connection's write queue and request tracking, and the connection
// tables — so send() picks a connection and queues on it under one
// lock. The endpoint table has its own mutex (ep_mu_). The two are never
// nested, and handlers run with neither held.
//
// Backpressure: each connection's write queue is capped; send() from a
// thread that is not a transport loop blocks once the queue passes the
// high watermark and resumes below the low watermark — a slow or stalled
// peer throttles its producers instead of ballooning memory.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
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

  /// Ignored: a transport always runs exactly one event loop. The field
  /// remains only so callers that still set it keep compiling.
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

  /// Metrics plane (must outlive the transport): the `net.*` and `tcp.*`
  /// counters behind stats()/tcp_stats(), per-op RPC latency histograms
  /// (send to response), backpressure-stall counts, a write-queue depth
  /// gauge with high-water tracking. Null = the transport records into a
  /// private registry.
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
  /// Event-loop wakeup pokes (eventfd writes): producers signalling the
  /// loop that new work is queued.
  std::uint64_t wakeups = 0;
};

/// The registry instruments of one transport: `net.*` (NetStats), `tcp.*`
/// (TcpTransportStats plus connect/handshake/backpressure counters), the
/// write-queue gauge and the per-op RPC latency histograms.
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
  obs::Counter& connects;
  obs::Counter& reconnects;
  obs::Counter& handshake_failures;
  obs::Counter& backpressure_stalls;
  obs::Gauge& write_queue_bytes;
  /// `tcp.rpc_us.<op>`, indexed by MessageType.
  std::array<obs::Histogram*, kMaxMessageType + 1> rpc_us{};
};

class TcpTransport final : public Transport {
 public:
  /// Binds the listener (when configured) and starts the event loop.
  /// Throws SocketError if the listen address cannot be bound or the
  /// eventfd or epoll instance cannot be created.
  explicit TcpTransport(TcpTransportConfig config);

  /// Stops the event loop, closes every connection, unblocks senders.
  ~TcpTransport() override;

  EndpointId register_endpoint(Handler handler) override;
  void unregister_endpoint(EndpointId id) override;
  void send(Message&& m) override;
  NetStats stats() const override;

  TcpTransportStats tcp_stats() const;

  /// Actual listening port (resolves port 0); 0 when not listening.
  std::uint16_t listen_port() const { return listen_port_; }

 private:
  struct Endpoint {
    Handler handler;
    int active_deliveries = 0;
  };

  /// Deliver to a local endpoint handler; false when the endpoint is not
  /// registered. Any thread, no lock held.
  bool deliver_local(Message&& m);
  /// Synthesize the error response for an undeliverable request and hand
  /// it to the local requester (silently drops if the requester is gone).
  void bounce_request(const Message& header, const std::string& text);

  // ---- Producer side (any thread) ---------------------------------------
  /// send() for a reply: queue it on the connection its request arrived
  /// on, or drop it if that connection has closed.
  void send_reply(Message&& m);
  /// Queue a frame on `conn`: encode, account, track our own requests.
  void push_frame(const ConnPtr& conn, Message&& m, bool track)
      SIGMA_REQUIRES(mu_);
  /// Block the producer while `conn`'s write queue is past the high
  /// watermark (never called on a loop thread).
  void backpressure_wait(const ConnPtr& conn);
  /// Poke the loop (new work queued, stop requested).
  void wake();

  // ---- Event loop (loop thread only) ------------------------------------
  void loop();
  /// One pass over shared state at the top of a loop iteration: reap dead
  /// inbound conns, sweep stale request tracking, collect stalled conns
  /// and due dials. Returns the epoll_wait timeout
  /// in ms, or -1 once stop was requested.
  int prepare_iteration(std::vector<ConnPtr>& to_dial,
                        std::vector<ConnPtr>& to_fail);
  /// Reconcile one connection's epoll registration with its desired
  /// interest set (mu_ held for the interest computation).
  void epoll_update(const ConnPtr& conn) SIGMA_REQUIRES(mu_);
  void loop_accept();
  void loop_dial(const ConnPtr& conn);
  void loop_connect_ready(const ConnPtr& conn);
  void loop_readable(const ConnPtr& conn);
  void loop_writable(const ConnPtr& conn);
  void loop_dispatch(const ConnPtr& conn, Message&& m);
  /// Answer a request that cannot be delivered here with an error frame
  /// over the connection that carried it (the remote call fails fast).
  void bounce_over_wire(const ConnPtr& conn, const Message& header,
                        const std::string& text);
  /// Handle one connection's epoll events (EPOLLIN/OUT/ERR/HUP).
  void handle_conn_events(const ConnPtr& conn, std::uint32_t events);
  /// Tear down a connection: bounce requests awaiting responses, drop the
  /// queue. Outbound conns return to kIdle (a later send re-dials);
  /// inbound conns are reaped.
  void close_conn(const ConnPtr& conn, const std::string& reason);
  /// Drop `conn`'s queued frames and take their bytes off the
  /// write-queue gauge.
  void clear_outbox(const ConnPtr& conn) SIGMA_REQUIRES(mu_);
  /// Connect attempt failed: back off and retry, or give up and bounce.
  void connect_failed(const ConnPtr& conn, const std::string& reason);
  /// Deregister a connection's fd from the epoll set (before closing it).
  void forget_fd(const ConnPtr& conn);
  void drain_wake_fd();

  TcpTransportConfig config_;

  // ---- Endpoint table ---------------------------------------------------
  mutable Mutex ep_mu_{LockRank::kTransport};
  CondVar idle_cv_;  // unregister_endpoint waits here
  std::unordered_map<EndpointId, std::shared_ptr<Endpoint>> endpoints_
      SIGMA_GUARDED_BY(ep_mu_);
  EndpointId next_id_ SIGMA_GUARDED_BY(ep_mu_);

  /// Instruments shared by local delivery and the loop (declared before
  /// the loop thread, which records into them until joined).
  obs::RegistryRef metrics_;
  TcpCounters counters_;

  // ---- Producer/loop handoff --------------------------------------------
  mutable Mutex mu_{LockRank::kTransport};
  CondVar write_cv_;  // backpressured producers wait here
  bool stop_ SIGMA_GUARDED_BY(mu_) = false;
  /// Outbound connections by dial address (persist across reconnects).
  std::map<std::pair<std::string, std::uint16_t>, ConnPtr> outbound_
      SIGMA_GUARDED_BY(mu_);
  /// Accepted connections.
  std::vector<ConnPtr> inbound_ SIGMA_GUARDED_BY(mu_);

  SocketFd listen_fd_;
  std::uint16_t listen_port_ = 0;
  SocketFd wake_fd_;   // eventfd: producers poke the loop
  SocketFd epoll_fd_;  // watches wake_fd_, the listener and every conn
  /// Registered fds -> connection, loop-thread-only. New fds are only
  /// registered at the top of an iteration (accepts, fresh dials), never
  /// while an event batch is being processed, so a stale event can never
  /// alias a recycled fd number.
  std::unordered_map<int, ConnPtr> by_fd_;

  std::thread thread_;  // started last in the constructor
};

}  // namespace sigma::net
