#include "net/tcp/tcp_transport.h"

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/hash_util.h"
#include "common/logging.h"

namespace sigma::net {
namespace {

/// Header-only copy of a message (for bounce bookkeeping).
Message header_of(const Message& m) {
  Message h;
  h.type = m.type;
  h.kind = m.kind;
  h.correlation_id = m.correlation_id;
  h.src = m.src;
  h.dst = m.dst;
  return h;
}

std::size_t resolve_reactor_count(const TcpTransportConfig& config) {
  std::uint32_t n = config.reactors;
  if (n == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    n = std::min<std::uint32_t>(hw == 0 ? 1 : hw, 4);
  }
  return std::clamp<std::uint32_t>(n, 1, 64);
}

}  // namespace

TcpCounters::TcpCounters(obs::Registry& metrics)
    : net(metrics),
      connections_accepted(metrics.counter("tcp.connections_accepted")),
      connections_established(
          metrics.counter("tcp.connections_established")),
      connect_failures(metrics.counter("tcp.connect_failures")),
      connections_lost(metrics.counter("tcp.connections_lost")),
      protocol_errors(metrics.counter("tcp.protocol_errors")),
      frames_received(metrics.counter("tcp.frames_received")),
      bytes_received(metrics.counter("tcp.bytes_received")),
      bounced_requests(metrics.counter("tcp.bounced_requests")),
      wakeups(metrics.counter("tcp.wakeups")),
      route_conflicts(metrics.counter("tcp.route_conflicts")),
      route_takeovers(metrics.counter("tcp.route_takeovers")),
      route_expired(metrics.counter("tcp.route_expired")),
      connects(metrics.counter("tcp.connects")),
      reconnects(metrics.counter("tcp.reconnects")),
      handshake_failures(metrics.counter("tcp.handshake_failures")),
      backpressure_stalls(metrics.counter("tcp.backpressure_stalls")),
      write_queue_bytes(metrics.gauge("tcp.write_queue_bytes")) {
  for (std::uint8_t op = 0; op <= kMaxMessageType; ++op) {
    rpc_us[op] = &metrics.histogram(std::string("tcp.rpc_us.") +
                                    to_string(static_cast<MessageType>(op)));
  }
}

TcpTransportStats TcpCounters::read() const {
  TcpTransportStats s;
  s.connections_accepted = connections_accepted.value();
  s.connections_established = connections_established.value();
  s.connect_failures = connect_failures.value();
  s.connections_lost = connections_lost.value();
  s.protocol_errors = protocol_errors.value();
  s.frames_received = frames_received.value();
  s.bytes_received = bytes_received.value();
  s.bounced_requests = bounced_requests.value();
  s.wakeups = wakeups.value();
  s.route_conflicts = route_conflicts.value();
  s.route_takeovers = route_takeovers.value();
  s.route_expired = route_expired.value();
  return s;
}

TcpTransport::TcpTransport(TcpTransportConfig config)
    : config_(std::move(config)),
      next_id_(config_.endpoint_base),
      metrics_(config_.metrics),
      counters_(*metrics_) {
  if (config_.listen) {
    listen_fd_ = tcp_listen(*config_.listen);
    listen_port_ = bound_port(listen_fd_.get());
  }
  const std::size_t n = resolve_reactor_count(config_);
  reactors_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ReactorHost& host = *this;  // private base: convert inside the class
    reactors_.push_back(
        std::make_unique<Reactor>(host, config_, i, *metrics_, counters_));
  }
  // Every shard exists before any thread starts: the accept handoff may
  // target any of them from the first event on.
  if (listen_fd_.valid()) reactors_[0]->attach_listener(listen_fd_.get());
  for (auto& r : reactors_) r->start();
}

TcpTransport::~TcpTransport() {
  stopping_.store(true, std::memory_order_relaxed);
  for (auto& r : reactors_) r->request_stop();
  for (auto& r : reactors_) r->join();
  // Connections, the listener and the wake fds close via RAII. No
  // deliveries can be in flight: only the (joined) reactor threads
  // delivered.
}

EndpointId TcpTransport::register_endpoint(Handler handler) {
  MutexLock lock(ep_mu_);
  const EndpointId id = next_id_++;
  auto ep = std::make_shared<Endpoint>();
  ep->handler = std::move(handler);
  endpoints_.emplace(id, std::move(ep));
  return id;
}

void TcpTransport::unregister_endpoint(EndpointId id) {
  MutexLock lock(ep_mu_);
  auto it = endpoints_.find(id);
  if (it == endpoints_.end()) return;
  auto ep = it->second;
  endpoints_.erase(it);
  // Wait out deliveries already dispatched to this endpoint so the caller
  // may tear down whatever the handler references.
  while (ep->active_deliveries != 0) idle_cv_.wait(ep_mu_);
}

bool TcpTransport::deliver_local(Message&& m) {
  std::shared_ptr<Endpoint> ep;
  {
    MutexLock lock(ep_mu_);
    auto it = endpoints_.find(m.dst);
    if (it == endpoints_.end()) return false;
    ep = it->second;
    ++ep->active_deliveries;
  }
  ep->handler(std::move(m));
  {
    MutexLock lock(ep_mu_);
    --ep->active_deliveries;
    // Notify under ep_mu_: unregister_endpoint's caller may destroy this
    // transport the instant its wait predicate holds, so the notify must
    // complete before that predicate can be re-checked.
    idle_cv_.notify_all();
  }
  return true;
}

void TcpTransport::bounce_request(const Message& header,
                                  const std::string& text) {
  counters_.bounced_requests.inc();
  counters_.net.errors.inc();
  Message bounce = Message::error_to(header, "transport: " + text);
  (void)deliver_local(std::move(bounce));  // requester gone: silent drop
}

ReactorHost::RouteClaim TcpTransport::learn_route(EndpointId src,
                                                  const ConnPtr& conn) {
  if (src == 0) return RouteClaim::kOk;
  {
    MutexLock lock(ep_mu_);
    // A local endpoint id never becomes a remote route.
    if (endpoints_.count(src) > 0) return RouteClaim::kOk;
  }
  // The first registration holds while its connection stays active: a
  // *different* connection claiming an already-routed endpoint is a
  // collision (two peers sharing an endpoint id), and silently
  // re-pointing the route would leak one peer's responses to the other —
  // the collider is refused deterministically instead. Once the owning
  // connection has been silent past route_stale_ms (a drop this side
  // never observed — close_conn erases routes on the drops it does
  // observe), the new claimant takes the route over, so a re-dialing
  // peer is locked out for at most the stale window. Freshness crosses
  // shards via TcpConn::last_frame_us (relaxed atomic, written by each
  // owning loop just before it claims).
  MutexLock lock(route_mu_);
  const auto [it, inserted] = routes_.try_emplace(src, conn);
  if (inserted || it->second == conn) return RouteClaim::kOk;
  const std::int64_t claim_us =
      conn->last_frame_us.load(std::memory_order_relaxed);
  const std::int64_t stale_cutoff_us =
      claim_us -
      static_cast<std::int64_t>(config_.route_stale_ms) * 1000;
  if (it->second->last_frame_us.load(std::memory_order_relaxed) <=
      stale_cutoff_us) {
    counters_.route_takeovers.inc();
    it->second = conn;
    return RouteClaim::kTakeover;
  }
  counters_.route_conflicts.inc();
  return RouteClaim::kConflict;
}

void TcpTransport::forget_routes(const ConnPtr& conn) {
  MutexLock lock(route_mu_);
  for (auto it = routes_.begin(); it != routes_.end();) {
    it = (it->second == conn) ? routes_.erase(it) : std::next(it);
  }
}

void TcpTransport::sweep_stale_routes() {
  const std::int64_t now_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  MutexLock lock(route_mu_);
  if (now_us < next_route_sweep_us_) return;
  // Scan at a quarter of the stale window: reclamation lags an idle
  // departure by at most ~1.25x route_stale_ms without taking route_mu_
  // on every reactor iteration. (Expiring a route is cheap to get wrong
  // in the safe direction — a live peer's next frame just re-learns it.)
  next_route_sweep_us_ =
      now_us +
      std::max<std::int64_t>(
          static_cast<std::int64_t>(config_.route_stale_ms) * 1000 / 4, 1000);
  const std::int64_t cutoff_us =
      now_us - static_cast<std::int64_t>(config_.route_stale_ms) * 1000;
  for (auto it = routes_.begin(); it != routes_.end();) {
    if (it->second->last_frame_us.load(std::memory_order_relaxed) <=
        cutoff_us) {
      counters_.route_expired.inc();
      it = routes_.erase(it);
    } else {
      ++it;
    }
  }
}

void TcpTransport::adopt_accepted(SocketFd fd) {
  try {
    set_nonblocking(fd.get());
  } catch (const SocketError&) {
    return;  // conn drops, fd closed by RAII
  }
  // Hash the peer's address to pick the owning shard; the fd lives its
  // whole life on that reactor.
  std::size_t shard = 0;
  sockaddr_storage ss;
  std::memset(&ss, 0, sizeof(ss));
  socklen_t len = sizeof(ss);
  if (::getpeername(fd.get(), reinterpret_cast<sockaddr*>(&ss), &len) == 0) {
    shard = fnv1a64(ByteView{reinterpret_cast<const std::uint8_t*>(&ss),
                             len}) %
            reactors_.size();
  }
  Reactor* owner = reactors_[shard].get();
  auto conn = std::make_shared<TcpConn>(config_.max_body_bytes, owner);
  conn->fd = std::move(fd);
  Hello hello;
  hello.role = PeerRole::kServer;
  conn->hello_out = encode_hello(hello);
  conn->state = TcpConn::State::kHello;
  owner->adopt_inbound(std::move(conn));
}

Reactor& TcpTransport::shard_for(const std::string& host,
                                 std::uint16_t port) {
  const std::uint64_t h = hash_combine64(fnv1a64(host), port);
  return *reactors_[h % reactors_.size()];
}

void TcpTransport::send(Message&& m) {
  if (stopping_.load(std::memory_order_relaxed)) return;
  const Message header = header_of(m);
  const bool is_request = m.kind == MessageKind::kRequest;
  const std::size_t body_size = m.body.size();

  bool local = false;
  bool track = false;
  {
    MutexLock lock(ep_mu_);
    local = endpoints_.count(m.dst) > 0;
    // Track our own requests until their response arrives, so a dead
    // connection fails them instead of leaving the caller to time out.
    track = is_request && endpoints_.count(m.src) > 0;
  }

  if (local) {
    counters_.net.count_sent(m.kind, m.wire_size());
    if (!deliver_local(std::move(m))) {
      counters_.net.dropped.inc();
      if (is_request) bounce_request(header, "endpoint unregistered");
    }
    return;
  }

  // Learned return route first (how a daemon answers client endpoints).
  ConnPtr route;
  {
    MutexLock lock(route_mu_);
    auto it = routes_.find(m.dst);
    if (it != routes_.end()) route = it->second;
  }
  if (route) {
    if (body_size > config_.max_body_bytes) {
      // Fail the offending message locally: shipping it would poison the
      // shared connection when the peer rejects the frame. (Both sides
      // of a deployment share one max_body_bytes.)
      counters_.net.dropped.inc();
      if (is_request) {
        bounce_request(header, "message body " + std::to_string(body_size) +
                                   " exceeds limit " +
                                   std::to_string(config_.max_body_bytes));
      }
      return;
    }
    Reactor* owner = route->owner;
    if (owner->enqueue(route, m, header, track)) {
      owner->wake();
      if (!Reactor::on_reactor_thread()) owner->backpressure_wait(route);
      return;
    }
    // The routed connection died under us (close_conn erases the route
    // momentarily): fall back to the static peer map.
  }

  const auto pit = config_.remote_endpoints.find(m.dst);
  if (pit == config_.remote_endpoints.end()) {
    counters_.net.dropped.inc();
    if (is_request) {
      bounce_request(header,
                     "no route to endpoint " + std::to_string(header.dst));
    }
    return;
  }
  if (body_size > config_.max_body_bytes) {
    counters_.net.dropped.inc();
    if (is_request) {
      bounce_request(header, "message body " + std::to_string(body_size) +
                                 " exceeds limit " +
                                 std::to_string(config_.max_body_bytes));
    }
    return;
  }

  const std::pair<std::string, std::uint16_t> key{pit->second.host,
                                                  pit->second.port};
  Reactor& shard = shard_for(key.first, key.second);
  // Resolve a first-contact peer's address before queueing: a slow DNS
  // lookup then costs only this producer, never a reactor or other
  // senders. (remote_endpoints is immutable after construction.)
  TcpAddress dial = pit->second;
  if (!shard.outbound_exists(key)) {
    try {
      dial = resolve_numeric(pit->second);
    } catch (const SocketError& e) {
      counters_.net.dropped.inc();
      if (is_request) {
        bounce_request(header, std::string("resolve failed: ") + e.what());
      }
      return;
    }
  }
  const ConnPtr conn = shard.enqueue_outbound(key, dial, m, header, track);
  if (!conn) return;  // transport stopping
  shard.wake();

  // Backpressure: block producers (never a reactor thread) while this
  // connection's queue is past the high watermark. A dying connection
  // clears its queue; a peer that stays wedged past the stall timeout is
  // failed (its reactor owns the fd), so this always unblocks.
  if (!Reactor::on_reactor_thread()) shard.backpressure_wait(conn);
}

NetStats TcpTransport::stats() const { return counters_.net.read(); }

TcpTransportStats TcpTransport::tcp_stats() const { return counters_.read(); }

}  // namespace sigma::net
