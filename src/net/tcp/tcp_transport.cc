#include "net/tcp/tcp_transport.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/trace.h"

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

/// Set on every transport's loop thread: a thread that drains write
/// queues must never block waiting for one to drain. A daemon runs more
/// than one transport (its node transport and its registry client's),
/// and a handler on one loop may send through another.
thread_local bool t_on_loop_thread = false;

/// Whether `m` carries a connection tag at all — one whose connection is
/// already gone still counts (the owner-based comparison sees the tag's
/// control block even after the TcpConn itself is destroyed).
bool has_conn_tag(const Message& m) {
  const std::weak_ptr<TcpConn> none;
  return m.conn.owner_before(none) || none.owner_before(m.conn);
}

/// The epoll events a connection wants, given its state machine position.
std::uint32_t desired_events(const TcpConn& conn) {
  switch (conn.state) {
    case TcpConn::State::kConnecting:
      return EPOLLOUT;
    case TcpConn::State::kHello:
      return EPOLLIN |
             (conn.hello_sent < conn.hello_out.size() ? EPOLLOUT : 0u);
    case TcpConn::State::kEstablished:
      return EPOLLIN | (conn.hello_sent < conn.hello_out.size() ||
                                !conn.outbox.empty()
                            ? EPOLLOUT
                            : 0u);
    default:
      return 0;
  }
}

/// Add `fd` to `epfd`'s interest set for EPOLLIN.
void epoll_add_readable(int epfd, int fd) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  (void)::epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev);
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
  wake_fd_ = SocketFd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!wake_fd_.valid()) {
    throw SocketError(std::string("eventfd: ") + std::strerror(errno));
  }
  epoll_fd_ = SocketFd(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_fd_.valid()) {
    throw SocketError(std::string("epoll_create1: ") + std::strerror(errno));
  }
  epoll_add_readable(epoll_fd_.get(), wake_fd_.get());
  if (listen_fd_.valid()) {
    epoll_add_readable(epoll_fd_.get(), listen_fd_.get());
  }
  thread_ = std::thread([this] { loop(); });
}

TcpTransport::~TcpTransport() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  wake();
  write_cv_.notify_all();
  thread_.join();
  // Connections, the listener and the wake fd close via RAII. No
  // deliveries can be in flight: only the (joined) loop thread delivered.
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

// ---- Producer side ---------------------------------------------------------

void TcpTransport::send(Message&& m) {
  if (has_conn_tag(m)) {
    send_reply(std::move(m));
    return;
  }
  const Message header = header_of(m);
  const bool is_request = m.kind == MessageKind::kRequest;

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

  if (m.body.size() > config_.max_body_bytes) {
    // Fail the offending message locally: shipping it would poison the
    // shared connection when the peer rejects the frame. (Both sides of a
    // deployment share one max_body_bytes.)
    counters_.net.dropped.inc();
    if (is_request) {
      bounce_request(header, "message body " + std::to_string(m.body.size()) +
                                 " exceeds limit " +
                                 std::to_string(config_.max_body_bytes));
    }
    return;
  }

  // The static peer map names the connection.
  const auto pit = config_.remote_endpoints.find(m.dst);
  const bool mapped = pit != config_.remote_endpoints.end();
  std::pair<std::string, std::uint16_t> key;
  if (mapped) key = {pit->second.host, pit->second.port};
  ConnPtr conn;
  {
    MutexLock lock(mu_);
    if (stop_) return;  // swallowed: the transport is shutting down
    if (mapped) {
      const auto oit = outbound_.find(key);
      if (oit != outbound_.end()) conn = oit->second;
    }
    if (conn) push_frame(conn, std::move(m), track);
  }

  if (!conn) {
    if (!mapped) {
      counters_.net.dropped.inc();
      if (is_request) {
        bounce_request(header,
                       "no route to endpoint " + std::to_string(header.dst));
      }
      return;
    }
    // First contact: resolve the peer's address before queueing, so a
    // slow DNS lookup costs only this producer, never the loop or other
    // senders. (remote_endpoints is immutable after construction.)
    TcpAddress dial;
    try {
      dial = resolve_numeric(pit->second);
    } catch (const SocketError& e) {
      counters_.net.dropped.inc();
      if (is_request) {
        bounce_request(header, std::string("resolve failed: ") + e.what());
      }
      return;
    }
    MutexLock lock(mu_);
    if (stop_) return;
    ConnPtr& slot = outbound_[key];
    if (!slot) {
      slot = std::make_shared<TcpConn>(config_.max_body_bytes);
      slot->outbound = true;
      slot->address = std::move(dial);
    }
    conn = slot;
    push_frame(conn, std::move(m), track);
  }
  wake();

  // Backpressure: block producers (never a loop thread) while this
  // connection's queue is past the high watermark. A dying connection
  // clears its queue; a peer that stays wedged past the stall timeout is
  // failed (the loop owns the fd), so this always unblocks.
  if (!t_on_loop_thread) backpressure_wait(conn);
}

void TcpTransport::send_reply(Message&& m) {
  const ConnPtr conn = m.conn.lock();
  {
    MutexLock lock(mu_);
    if (stop_) return;  // swallowed: the transport is shutting down
    // A closed inbound connection is dead; a closed outbound one has left
    // kEstablished (a later re-dial reaches the same peer address). An
    // oversized reply is dropped too: the peer would drop the connection.
    if (!conn || conn->dead || conn->state != TcpConn::State::kEstablished ||
        m.body.size() > config_.max_body_bytes) {
      counters_.net.dropped.inc();
      return;
    }
    push_frame(conn, std::move(m), /*track=*/false);
  }
  wake();
  if (!t_on_loop_thread) backpressure_wait(conn);
}

void TcpTransport::push_frame(const ConnPtr& conn, Message&& m, bool track) {
  if (track) {
    conn->awaiting_response.emplace(
        std::pair{m.src, m.correlation_id},
        TcpConn::TrackedRequest{header_of(m),
                                std::chrono::steady_clock::now()});
  }
  const MessageKind kind = m.kind;
  OutFrame frame = make_out_frame(std::move(m));
  counters_.net.count_sent(kind, frame.wire_size());
  conn->outbox_bytes += frame.wire_size();
  counters_.write_queue_bytes.add(
      static_cast<std::int64_t>(frame.wire_size()));
  conn->outbox.push_back(std::move(frame));
}

void TcpTransport::backpressure_wait(const ConnPtr& conn) {
  MutexLock lock(mu_);
  if (!stop_ && conn->outbox_bytes > config_.write_high_watermark) {
    counters_.backpressure_stalls.inc();
  }
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(config_.write_stall_timeout_ms);
  bool drained;
  for (;;) {
    drained = stop_ || conn->outbox_bytes <= config_.write_high_watermark;
    if (drained) break;
    if (write_cv_.wait_until(mu_, deadline) == std::cv_status::timeout) {
      drained = stop_ || conn->outbox_bytes <= config_.write_high_watermark;
      break;
    }
  }
  if (!drained) {
    conn->stalled = true;
    lock.unlock();
    wake();
    lock.lock();
    while (!stop_ && conn->outbox_bytes > config_.write_high_watermark) {
      write_cv_.wait(mu_);
    }
  }
}

void TcpTransport::wake() {
  counters_.wakeups.inc();
  const std::uint64_t one = 1;
  (void)!::write(wake_fd_.get(), &one, sizeof(one));
}

void TcpTransport::drain_wake_fd() {
  std::uint64_t v;
  (void)!::read(wake_fd_.get(), &v, sizeof(v));  // resets the counter
}

// ---- Event loop ------------------------------------------------------------

int TcpTransport::prepare_iteration(std::vector<ConnPtr>& to_dial,
                                    std::vector<ConnPtr>& to_fail) {
  int timeout_ms = 200;
  MutexLock lock(mu_);
  if (stop_) return -1;

  // Reap finished inbound connections.
  inbound_.erase(std::remove_if(inbound_.begin(), inbound_.end(),
                                [](const ConnPtr& c) { return c->dead; }),
                 inbound_.end());

  const auto now = std::chrono::steady_clock::now();
  // Sweep request tracking that outlived any plausible RPC timeout: the
  // caller abandoned those calls without telling us, and a response will
  // never arrive to erase them.
  const auto track_cutoff =
      now - std::chrono::milliseconds(config_.request_track_ttl_ms);
  auto sweep_tracking = [&](const ConnPtr& conn) {
    for (auto it = conn->awaiting_response.begin();
         it != conn->awaiting_response.end();) {
      it = (it->second.queued_at < track_cutoff)
               ? conn->awaiting_response.erase(it)
               : std::next(it);
    }
  };
  for (auto& conn : inbound_) {
    if (conn->stalled) to_fail.push_back(conn);
    sweep_tracking(conn);
  }
  for (auto& [key, conn] : outbound_) {
    sweep_tracking(conn);
    if (conn->stalled) {
      to_fail.push_back(conn);
      continue;
    }
    const bool has_work =
        !conn->outbox.empty() || !conn->awaiting_response.empty();
    if (!has_work) continue;
    if (conn->state == TcpConn::State::kIdle) {
      to_dial.push_back(conn);
    } else if (conn->state == TcpConn::State::kBackoff) {
      if (conn->retry_at <= now) {
        to_dial.push_back(conn);
      } else {
        const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
            conn->retry_at - now);
        timeout_ms =
            std::min<int>(timeout_ms, static_cast<int>(wait.count()) + 1);
      }
    }
  }
  return timeout_ms;
}

void TcpTransport::epoll_update(const ConnPtr& conn) {
  if (!conn->fd.valid()) return;
  const int events = static_cast<int>(desired_events(*conn));
  if (events == conn->epoll_events) return;
  epoll_event ev{};
  ev.events = static_cast<std::uint32_t>(events);
  ev.data.fd = conn->fd.get();
  if (conn->epoll_events < 0) {
    if (events == 0) return;
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, conn->fd.get(), &ev) ==
        0) {
      by_fd_[conn->fd.get()] = conn;
      conn->epoll_events = events;
    }
  } else if (events == 0) {
    (void)::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, conn->fd.get(),
                      nullptr);
    by_fd_.erase(conn->fd.get());
    conn->epoll_events = -1;
  } else if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, conn->fd.get(),
                         &ev) == 0) {
    conn->epoll_events = events;
  }
}

void TcpTransport::loop() {
  t_on_loop_thread = true;
  std::array<epoll_event, 256> events;
  while (true) {
    std::vector<ConnPtr> to_dial;
    std::vector<ConnPtr> to_fail;
    const int timeout_ms = prepare_iteration(to_dial, to_fail);
    if (timeout_ms < 0) return;

    for (const auto& conn : to_fail) {
      close_conn(conn, "write stalled past backpressure timeout");
    }
    for (const auto& conn : to_dial) loop_dial(conn);

    // Reconcile every connection's registration with its current
    // interest. New fds only enter the epoll set here — never while an
    // event batch is being processed — so a batch can never observe an
    // event for a recycled fd number it would misattribute.
    {
      MutexLock lock(mu_);
      for (auto& [key, conn] : outbound_) epoll_update(conn);
      for (auto& conn : inbound_) epoll_update(conn);
    }

    const int rc = ::epoll_wait(epoll_fd_.get(), events.data(),
                                static_cast<int>(events.size()), timeout_ms);
    if (rc < 0) continue;  // EINTR or transient failure: rebuild and retry

    for (int i = 0; i < rc; ++i) {
      const int fd = events[static_cast<std::size_t>(i)].data.fd;
      const std::uint32_t e = events[static_cast<std::size_t>(i)].events;
      if (fd == wake_fd_.get()) {
        drain_wake_fd();
        continue;
      }
      if (fd == listen_fd_.get()) {
        loop_accept();
        continue;
      }
      const auto it = by_fd_.find(fd);
      if (it == by_fd_.end()) continue;  // closed earlier in this batch
      const ConnPtr conn = it->second;   // copy: a close erases the entry
      handle_conn_events(conn, e);
    }
  }
}

void TcpTransport::forget_fd(const ConnPtr& conn) {
  if (conn->epoll_events >= 0 && conn->fd.valid()) {
    (void)::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, conn->fd.get(),
                      nullptr);
    by_fd_.erase(conn->fd.get());
  }
  conn->epoll_events = -1;
}

void TcpTransport::handle_conn_events(const ConnPtr& conn,
                                      std::uint32_t events) {
  if (events == 0 || !conn->fd.valid()) return;
  if (conn->state == TcpConn::State::kConnecting) {
    if (events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) loop_connect_ready(conn);
    return;
  }
  if (events & (EPOLLERR | EPOLLHUP)) {
    // Flush what the peer sent before it hung up, then close.
    if (events & EPOLLIN) loop_readable(conn);
    if (conn->fd.valid()) close_conn(conn, "connection reset");
    return;
  }
  if (events & EPOLLOUT) loop_writable(conn);
  if ((events & EPOLLIN) && conn->fd.valid()) loop_readable(conn);
}

void TcpTransport::loop_accept() {
  while (true) {
    SocketFd fd(::accept4(listen_fd_.get(), nullptr, nullptr,
                          SOCK_NONBLOCK | SOCK_CLOEXEC));
    if (!fd.valid()) return;  // EAGAIN or transient error: next wait retries
    auto conn = std::make_shared<TcpConn>(config_.max_body_bytes);
    conn->fd = std::move(fd);
    Hello hello;
    hello.role = PeerRole::kServer;
    conn->hello_out = encode_hello(hello);
    conn->state = TcpConn::State::kHello;
    counters_.connections_accepted.inc();
    // Registered with epoll at the top of the next iteration.
    MutexLock lock(mu_);
    inbound_.push_back(std::move(conn));
  }
}

void TcpTransport::loop_dial(const ConnPtr& conn) {
  counters_.connects.inc();
  if (conn->was_established) {
    counters_.reconnects.inc();
    conn->was_established = false;
  }
  try {
    bool in_progress = false;
    SocketFd fd = tcp_connect_start(conn->address, in_progress);
    Hello hello;
    hello.role = config_.listen ? PeerRole::kServer : PeerRole::kClient;
    MutexLock lock(mu_);
    conn->fd = std::move(fd);
    conn->hello_out = encode_hello(hello);
    conn->hello_sent = 0;
    conn->hello_in.clear();
    conn->decoder.reset();
    conn->state =
        in_progress ? TcpConn::State::kConnecting : TcpConn::State::kHello;
  } catch (const SocketError& e) {
    connect_failed(conn, e.what());
  }
}

void TcpTransport::loop_connect_ready(const ConnPtr& conn) {
  const int err = take_socket_error(conn->fd.get());
  if (err != 0) {
    connect_failed(conn, std::string("connect ") + conn->address.to_string() +
                             ": " + std::strerror(err));
    return;
  }
  MutexLock lock(mu_);
  conn->state = TcpConn::State::kHello;
}

void TcpTransport::connect_failed(const ConnPtr& conn,
                                  const std::string& reason) {
  std::vector<Message> bounces;
  {
    counters_.connect_failures.inc();
    MutexLock lock(mu_);
    forget_fd(conn);
    conn->fd.reset();
    ++conn->attempts;
    if (conn->attempts < config_.connect_attempts) {
      const std::uint32_t shift =
          std::min<std::uint32_t>(conn->attempts - 1, 10);
      const std::uint32_t backoff = std::min(
          config_.connect_backoff_max_ms, config_.connect_backoff_ms << shift);
      conn->state = TcpConn::State::kBackoff;
      conn->retry_at = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(backoff);
      return;
    }
    // Out of attempts: fail every queued request and start fresh on the
    // next send toward this peer.
    for (auto& [key, tracked] : conn->awaiting_response) {
      bounces.push_back(tracked.header);
    }
    conn->awaiting_response.clear();
    clear_outbox(conn);
    conn->attempts = 0;
    conn->state = TcpConn::State::kIdle;
    write_cv_.notify_all();
  }
  for (const auto& h : bounces) bounce_request(h, reason);
}

void TcpTransport::clear_outbox(const ConnPtr& conn) {
  counters_.write_queue_bytes.sub(
      static_cast<std::int64_t>(conn->outbox_bytes));
  conn->outbox.clear();
  conn->outbox_bytes = 0;
  conn->out_offset = 0;
}

void TcpTransport::close_conn(const ConnPtr& conn, const std::string& reason) {
  std::vector<Message> bounces;
  {
    MutexLock lock(mu_);
    if (conn->state == TcpConn::State::kEstablished) {
      counters_.connections_lost.inc();
    }
    forget_fd(conn);
    conn->fd.reset();
    for (auto& [key, tracked] : conn->awaiting_response) {
      bounces.push_back(tracked.header);
    }
    conn->awaiting_response.clear();
    clear_outbox(conn);
    conn->hello_in.clear();
    conn->hello_out.clear();
    conn->hello_sent = 0;
    conn->stalled = false;
    conn->decoder.reset();
    if (conn->outbound) {
      conn->state = TcpConn::State::kIdle;
      conn->attempts = 0;
    } else {
      conn->dead = true;
    }
    write_cv_.notify_all();
  }
  const std::string text =
      "connection to " +
      (conn->outbound ? conn->address.to_string() : std::string("peer")) +
      " lost (" + reason + ")";
  for (const auto& h : bounces) bounce_request(h, text);
}

void TcpTransport::loop_writable(const ConnPtr& conn) {
  // Handshake bytes go first, before any frame.
  while (conn->hello_sent < conn->hello_out.size()) {
    const ssize_t n = ::send(
        conn->fd.get(), conn->hello_out.data() + conn->hello_sent,
        conn->hello_out.size() - conn->hello_sent, MSG_NOSIGNAL);
    if (n > 0) {
      conn->hello_sent += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      close_conn(conn, std::string("write: ") + std::strerror(errno));
      return;
    }
  }
  if (conn->state != TcpConn::State::kEstablished) return;

  // Swap the queue out and run the sendmsg() syscalls without mu_ —
  // kernel buffer copies must not serialize producers. Frames queued
  // meanwhile land behind the leftovers we re-insert, so order is
  // preserved; outbox_bytes stays high until re-accounting, which only
  // errs on the side of backpressure.
  std::deque<OutFrame> batch;
  std::size_t offset = 0;
  {
    MutexLock lock(mu_);
    batch.swap(conn->outbox);
    offset = conn->out_offset;
    conn->out_offset = 0;
  }

  bool failed = false;
  std::string fail_reason;
  std::size_t sent_bytes = 0;
  struct iovec iov[kMaxWriteIovecs];
  while (!batch.empty()) {
    const std::size_t n_iov =
        build_frame_iovecs(batch, offset, iov, kMaxWriteIovecs);
    if (n_iov == 0) break;
    struct msghdr msg {};
    msg.msg_iov = iov;
    msg.msg_iovlen = n_iov;
    const ssize_t n = ::sendmsg(conn->fd.get(), &msg, MSG_NOSIGNAL);
    if (n > 0) {
      sent_bytes += static_cast<std::size_t>(n);
      consume_sent(batch, offset, static_cast<std::size_t>(n));
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      failed = true;
      fail_reason = std::string("write: ") + std::strerror(errno);
      break;
    }
  }

  {
    MutexLock lock(mu_);
    conn->outbox_bytes -= sent_bytes;
    counters_.write_queue_bytes.sub(static_cast<std::int64_t>(sent_bytes));
    conn->out_offset = offset;
    for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
      conn->outbox.push_front(std::move(*it));
    }
    if (conn->outbox_bytes <= config_.write_low_watermark) {
      write_cv_.notify_all();
    }
  }
  if (failed) close_conn(conn, fail_reason);
}

void TcpTransport::loop_readable(const ConnPtr& conn) {
  std::uint8_t buf[64 * 1024];
  while (conn->fd.valid()) {
    const ssize_t n = ::recv(conn->fd.get(), buf, sizeof(buf), 0);
    if (n == 0) {
      close_conn(conn, "closed by peer");
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      close_conn(conn, std::string("read: ") + std::strerror(errno));
      return;
    }
    counters_.bytes_received.inc(static_cast<std::uint64_t>(n));
    ByteView data{buf, static_cast<std::size_t>(n)};

    // Finish the handshake before framing begins.
    if (conn->state == TcpConn::State::kHello ||
        conn->state == TcpConn::State::kConnecting) {
      const std::size_t need = Hello::kWireBytes - conn->hello_in.size();
      const std::size_t take = std::min(need, data.size());
      conn->hello_in.insert(conn->hello_in.end(), data.begin(),
                            data.begin() + static_cast<long>(take));
      data = data.subspan(take);
      if (conn->hello_in.size() < Hello::kWireBytes) continue;
      try {
        (void)decode_hello(
            ByteView{conn->hello_in.data(), conn->hello_in.size()});
      } catch (const FrameError& e) {
        counters_.protocol_errors.inc();
        counters_.handshake_failures.inc();
        close_conn(conn, e.what());
        return;
      }
      MutexLock lock(mu_);
      conn->state = TcpConn::State::kEstablished;
      conn->attempts = 0;
      conn->was_established = true;
      counters_.connections_established.inc();
      // Flushing queued frames + the rest of this read happen below.
    }

    if (!data.empty()) conn->decoder.feed(data);
    try {
      while (auto m = conn->decoder.next()) {
        loop_dispatch(conn, std::move(*m));
        if (!conn->fd.valid()) return;  // dispatch closed it
      }
    } catch (const FrameError& e) {
      counters_.protocol_errors.inc();
      close_conn(conn, e.what());
      return;
    }
  }
}

void TcpTransport::loop_dispatch(const ConnPtr& conn, Message&& m) {
  const Message header = header_of(m);
  const obs::TraceContext trace_ctx = m.trace;
  const std::uint64_t dispatch_start =
      trace_ctx.sampled ? obs::unix_micros() : 0;
  counters_.frames_received.inc();
  // Kind counters cover traffic both ways (messages_sent/bytes_sent stay
  // send-only): a client's `responses` is what its fleet answered.
  counters_.net.count_kind(m.kind);
  if (m.kind != MessageKind::kRequest) {
    MutexLock lock(mu_);
    // The response's destination is the endpoint that issued the call.
    auto it = conn->awaiting_response.find({m.dst, m.correlation_id});
    if (it != conn->awaiting_response.end()) {
      // Whole-RPC latency: local send() to response frame decoded.
      counters_.rpc_us[static_cast<std::uint8_t>(m.type)]->observe_since(
          it->second.queued_at);
      conn->awaiting_response.erase(it);
    }
  } else {
    m.conn = conn;  // the reply rides back on this connection
  }

  if (deliver_local(std::move(m))) {
    if (trace_ctx.sampled) {
      // One span per delivered frame: decode to handler return on the
      // loop thread.
      obs::Tracer& tracer = obs::Tracer::instance();
      tracer.emit(tracer.child_of(trace_ctx), "tcp.rx", nullptr,
                  dispatch_start, obs::unix_micros() - dispatch_start);
    }
    return;
  }

  // Unknown destination: refuse requests over the wire (the remote
  // caller's RPC fails fast), drop stray responses.
  counters_.net.dropped.inc();
  if (header.kind == MessageKind::kRequest) {
    bounce_over_wire(conn, header,
                     "no endpoint " + std::to_string(header.dst));
  }
}

void TcpTransport::bounce_over_wire(const ConnPtr& conn,
                                    const Message& header,
                                    const std::string& text) {
  Message bounce = Message::error_to(header, "transport: " + text);
  MutexLock lock(mu_);
  push_frame(conn, std::move(bounce), /*track=*/false);
}

NetStats TcpTransport::stats() const { return counters_.net.read(); }

TcpTransportStats TcpTransport::tcp_stats() const { return counters_.read(); }

}  // namespace sigma::net
