// One shard of the TCP transport's event plane: a Reactor is a single
// thread owning one epoll instance, its own eventfd wakeup, and a private
// connection table (Linux only: epoll and eventfd are required).
// Connections are partitioned across reactors by peer hash when they are
// dialed or accepted and never migrate, so each reactor runs the
// original single-threaded frame/handshake/backpressure state machines
// unchanged — the sharding layer (TcpTransport) only multiplies them.
//
// Locking: each reactor has exactly one mutex (LockRank::kTransport),
// guarding the producer/loop handoff for its own connections. A reactor
// never touches another reactor's mutex — cross-shard state (the local
// endpoint table, the learned-route directory) lives in the sharding
// layer behind lower-ranked locks (kTransportEndpoints, kTransportRoutes)
// and is only consulted with the shard mutex released.
//
// Write path: frames are never coalesced into a per-send allocation. A
// queued frame is an OutFrame — the wire header encoded into an inline
// array plus the message body moved verbatim — and the loop flushes the
// queue with sendmsg()/writev(), batching up to kMaxWriteIovecs iovecs
// across queued frames per syscall. Sending a frame therefore costs zero
// heap allocations and zero payload copies.
#pragma once

#include <sys/uio.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "net/tcp/frame.h"
#include "net/tcp/socket.h"
#include "net/transport.h"
#include "obs/metrics.h"

namespace sigma::net {

struct TcpTransportConfig;
struct TcpCounters;
class Reactor;

/// One frame queued for the wire: the encoded header (fixed header plus
/// optional trace block) lives in an inline array, the body is the
/// Message's buffer moved untouched. writev() sends both without ever
/// gluing them into one allocation.
struct OutFrame {
  std::array<std::uint8_t, kMaxFrameHeaderBytes> header;
  std::uint8_t header_len = 0;
  Buffer body;

  std::size_t wire_size() const { return header_len + body.size(); }
};

/// Build an OutFrame from `m`, moving the body out of the message.
OutFrame make_out_frame(Message&& m);

/// Iovec batch bound per sendmsg() call (well under IOV_MAX everywhere).
inline constexpr std::size_t kMaxWriteIovecs = 64;

/// Fill `iov` (capacity `max_iov`) from the queued frames, starting
/// `offset` bytes into the front frame's wire image. Zero-length entries
/// are never emitted. Returns the number of iovecs filled.
std::size_t build_frame_iovecs(const std::deque<OutFrame>& queue,
                               std::size_t offset, struct iovec* iov,
                               std::size_t max_iov);

/// Account `sent` bytes against the queue: pops fully-written frames and
/// leaves `offset` pointing into the (possibly new) front frame.
void consume_sent(std::deque<OutFrame>& queue, std::size_t& offset,
                  std::size_t sent);

/// One TCP connection (inbound or outbound) and its state machine. Owned
/// by exactly one Reactor for its whole life (`owner`, immutable).
///
/// Ownership of the fields is split two ways (annotations cannot express
/// a struct guarded by its owner's mutex, so the split is documented here
/// and enforced by the TSan lane):
///   * reactor-thread-only: fd, address, hello_*, decoder, attempts,
///     retry_at, was_established, epoll_events — touched exclusively by
///     the owning reactor's loop once the conn is registered;
///   * guarded by owner->mu_: state, outbox, out_offset, outbox_bytes,
///     awaiting_response, stalled, dead — the producer/loop handoff;
///   * last_frame_us is a relaxed atomic: written by the owning loop,
///     read by other reactors deciding learned-route takeovers.
struct TcpConn {
  enum class State { kIdle, kBackoff, kConnecting, kHello, kEstablished };

  TcpConn(std::size_t max_body, Reactor* owner_reactor)
      : owner(owner_reactor), decoder(max_body) {}

  Reactor* const owner;

  State state = State::kIdle;
  SocketFd fd;
  bool outbound = false;
  TcpAddress address;  // dial target (outbound only)

  // Handshake progress.
  Buffer hello_out;            // our HELLO, written before any frame
  std::size_t hello_sent = 0;  // bytes of hello_out written
  Buffer hello_in;             // peer HELLO accumulating

  FrameDecoder decoder;

  // Write queue: frames awaiting the socket; front may be partial.
  std::deque<OutFrame> outbox;
  std::size_t out_offset = 0;
  std::size_t outbox_bytes = 0;

  // Locally-originated requests routed over this connection, keyed by
  // (requesting endpoint, correlation id) — correlation ids are only
  // unique per RpcEndpoint — until their response arrives; bounced as
  // error responses if the connection dies first. Entries older than
  // request_track_ttl_ms are swept (the caller abandoned the call at
  // its RPC timeout without telling us). Headers only.
  struct TrackedRequest {
    Message header;
    std::chrono::steady_clock::time_point queued_at;
  };
  std::map<std::pair<EndpointId, std::uint64_t>, TrackedRequest>
      awaiting_response;

  // Connect retry state.
  std::uint32_t attempts = 0;
  std::chrono::steady_clock::time_point retry_at{};

  /// When this connection last received a frame (steady-clock µs) — the
  /// freshness that defends its learned routes against takeover.
  std::atomic<std::int64_t> last_frame_us{0};

  /// Whether this connection ever completed a handshake — a later dial
  /// of the same conn is a reconnect, not a first connect (metrics).
  bool was_established = false;

  /// Set by a producer whose backpressure wait timed out; the loop
  /// fails the connection (it owns the fd).
  bool stalled = false;

  bool dead = false;  // inbound conn finished; reap it

  /// Events currently registered with epoll (-1 = not registered).
  int epoll_events = -1;
};

using ConnPtr = std::shared_ptr<TcpConn>;

/// What a reactor needs from the sharding layer: local endpoint delivery,
/// request bounces, the transport-global learned-route directory, and the
/// accept handoff that assigns new inbound connections to a shard.
/// Implemented by TcpTransport; everything here is callable from any
/// reactor thread with NO shard mutex held (the host's locks rank below
/// the shard locks).
class ReactorHost {
 public:
  enum class RouteClaim { kOk, kConflict, kTakeover };

  virtual ~ReactorHost() = default;

  /// Deliver to a local endpoint handler; false when the endpoint is not
  /// registered.
  virtual bool deliver_local(Message&& m) = 0;

  /// Synthesize the error response for an undeliverable request and hand
  /// it to the local requester (silently drops if the requester is gone).
  virtual void bounce_request(const Message& header,
                              const std::string& text) = 0;

  /// Learn (or contest) the return route for remote endpoint `src` over
  /// `conn`. kConflict = the endpoint is owned by a different, fresh
  /// connection (refuse the message); kTakeover = a stale owner was
  /// displaced.
  virtual RouteClaim learn_route(EndpointId src, const ConnPtr& conn) = 0;

  /// Drop every learned route pointing at `conn` (connection closed).
  virtual void forget_routes(const ConnPtr& conn) = 0;

  /// Reclaim learned routes whose owning connection has been silent past
  /// the stale window (a departed peer whose drop this side never
  /// observed, and no collider ever dialed in to take the route over).
  /// Every reactor calls this once per loop iteration, with no shard
  /// mutex held; the host throttles the actual scan internally.
  virtual void sweep_stale_routes() = 0;

  /// Take ownership of a freshly accept()ed socket: pick the owning
  /// reactor by peer hash and hand the connection to it.
  virtual void adopt_accepted(SocketFd fd) = 0;
};

class Reactor {
 public:
  /// `config`, `host`, `metrics` and `counters` (the transport-wide
  /// instruments) must outlive the reactor. The loop thread is not
  /// started until start() — construct every shard first, so the accept
  /// handoff can target any of them from the first event on.
  /// Throws SocketError when the eventfd or the epoll instance cannot be
  /// created (e.g. the descriptor limit is reached).
  Reactor(ReactorHost& host, const TcpTransportConfig& config,
          std::size_t index, obs::Registry& metrics, TcpCounters& counters);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Borrow the listening socket (reactor 0 of a listening transport).
  /// Must precede start(); the fd stays owned by the transport.
  void attach_listener(int listen_fd) { listen_fd_ = listen_fd; }

  void start();

  /// Phase one of shutdown: flag the loop and every backpressured
  /// producer. Safe to call repeatedly.
  void request_stop();

  /// Phase two: join the loop thread (call after request_stop()).
  void join();

  std::size_t index() const { return index_; }

  /// Whether the calling thread is ANY reactor's loop thread (such a
  /// thread must never block on backpressure — it may be the one that
  /// has to drain the queue it would be waiting on).
  static bool on_reactor_thread();

  // ---- Producer API (any thread) ----------------------------------------

  /// Queue `m` on an existing connection owned by this reactor. Returns
  /// false — with `m` untouched — when the connection is already dead
  /// (the caller falls back to the static peer map or bounces).
  bool enqueue(const ConnPtr& conn, Message& m, const Message& header,
               bool track);

  /// Find-or-create the outbound connection for `key` and queue `m` on
  /// it. `dial` is the (resolved) address used if the connection is
  /// created. Returns the connection, or null when stopping.
  ConnPtr enqueue_outbound(const std::pair<std::string, std::uint16_t>& key,
                           const TcpAddress& dial, Message& m,
                           const Message& header, bool track);

  /// Whether an outbound connection for `key` already exists (used to
  /// skip DNS resolution on the send fast path).
  bool outbound_exists(const std::pair<std::string, std::uint16_t>& key);

  /// Block the producer while `conn`'s write queue is past the high
  /// watermark (never called on a reactor thread).
  void backpressure_wait(const ConnPtr& conn);

  /// Adopt an accepted connection assigned to this shard by peer hash
  /// (called on the accepting reactor's thread). The conn joins the
  /// connection table at the next loop iteration.
  void adopt_inbound(ConnPtr conn);

  /// Poke the loop (new work queued, stop requested).
  void wake();

 private:
  void loop();
  /// One pass over shared state at the top of a loop iteration: adopt
  /// pending inbound conns, reap dead ones, sweep stale request tracking,
  /// collect stalled conns and due dials. Returns the epoll_wait timeout
  /// in ms, or -1 once stop was requested.
  int prepare_iteration(std::vector<ConnPtr>& to_dial,
                        std::vector<ConnPtr>& to_fail);
  /// Reconcile one connection's epoll registration with its desired
  /// interest set (loop thread; mu_ held for the interest computation).
  void epoll_update(const ConnPtr& conn) SIGMA_REQUIRES(mu_);
  void loop_accept();
  void loop_dial(const ConnPtr& conn);
  void loop_connect_ready(const ConnPtr& conn);
  void loop_readable(const ConnPtr& conn);
  void loop_writable(const ConnPtr& conn);
  void loop_dispatch(const ConnPtr& conn, Message&& m);
  /// Handle one connection's epoll events (EPOLLIN/OUT/ERR/HUP).
  void handle_conn_events(const ConnPtr& conn, std::uint32_t events);
  /// Tear down a connection: bounce requests awaiting responses, drop the
  /// queue, forget learned routes. Outbound conns return to kIdle (a
  /// later send re-dials); inbound conns are reaped.
  void close_conn(const ConnPtr& conn, const std::string& reason);
  /// Connect attempt failed: back off and retry, or give up and bounce.
  void connect_failed(const ConnPtr& conn, const std::string& reason);
  /// Deregister a connection's fd from the epoll set (before closing it).
  void forget_fd(const ConnPtr& conn);
  /// Queue a frame on `conn` (mu_ held): encode, account, track.
  void push_frame(const ConnPtr& conn, Message&& m, const Message& header,
                  bool track) SIGMA_REQUIRES(mu_);
  void drain_wake_fd();

  ReactorHost& host_;
  const TcpTransportConfig& config_;
  const std::size_t index_;
  const std::string index_str_;
  TcpCounters& counters_;
  // This shard's share of the transport-wide frame/byte/wakeup counts.
  obs::Counter& frames_;          // transport.reactor<i>.frames
  obs::Counter& bytes_received_;  // transport.reactor<i>.bytes_received
  obs::Counter& wakeups_;         // transport.reactor<i>.wakeups

  mutable Mutex mu_{LockRank::kTransport};
  CondVar write_cv_;  // backpressured producers wait here
  bool stop_ SIGMA_GUARDED_BY(mu_) = false;

  /// Outbound connections by dial address (persist across reconnects).
  std::map<std::pair<std::string, std::uint16_t>, ConnPtr> outbound_
      SIGMA_GUARDED_BY(mu_);
  /// Accepted connections owned by this shard.
  std::vector<ConnPtr> inbound_ SIGMA_GUARDED_BY(mu_);
  /// Accepted conns handed over by the accepting reactor, adopted into
  /// inbound_ at the next loop iteration.
  std::vector<ConnPtr> pending_inbound_ SIGMA_GUARDED_BY(mu_);

  int listen_fd_ = -1;  // borrowed from the transport (reactor 0 only)

  SocketFd wake_fd_;   // eventfd: producers poke the loop
  SocketFd epoll_fd_;  // watches wake_fd_, the listener and every conn
  /// Registered fds -> connection, loop-thread-only. New fds are only
  /// registered at the top of an iteration (adopted accepts, fresh
  /// dials), never while an event batch is being processed, so a stale
  /// event can never alias a recycled fd number.
  std::unordered_map<int, ConnPtr> by_fd_;

  std::thread thread_;
};

}  // namespace sigma::net
