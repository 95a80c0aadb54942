#include "net/tcp/reactor.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/logging.h"
#include "net/tcp/tcp_transport.h"
#include "obs/trace.h"

namespace sigma::net {
namespace {

/// Set on every reactor loop thread: a thread that drains write queues
/// must never block waiting for one to drain.
thread_local bool t_on_reactor_thread = false;

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

std::int64_t steady_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
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

OutFrame make_out_frame(Message&& m) {
  OutFrame f;
  f.header_len =
      static_cast<std::uint8_t>(encode_frame_header(m, f.header.data()));
  f.body = std::move(m.body);
  return f;
}

std::size_t build_frame_iovecs(const std::deque<OutFrame>& queue,
                               std::size_t offset, struct iovec* iov,
                               std::size_t max_iov) {
  std::size_t n = 0;
  for (const OutFrame& f : queue) {
    std::size_t off = offset;
    offset = 0;  // only the front frame starts mid-wire
    if (n == max_iov) break;
    if (off < f.header_len) {
      iov[n].iov_base =
          const_cast<std::uint8_t*>(f.header.data()) + off;
      iov[n].iov_len = f.header_len - off;
      ++n;
      off = 0;
    } else {
      off -= f.header_len;
    }
    if (n == max_iov) break;
    if (off < f.body.size()) {
      iov[n].iov_base = const_cast<std::uint8_t*>(f.body.data()) + off;
      iov[n].iov_len = f.body.size() - off;
      ++n;
    }
  }
  return n;
}

void consume_sent(std::deque<OutFrame>& queue, std::size_t& offset,
                  std::size_t sent) {
  while (sent > 0 && !queue.empty()) {
    const std::size_t remaining = queue.front().wire_size() - offset;
    if (sent >= remaining) {
      sent -= remaining;
      queue.pop_front();
      offset = 0;
    } else {
      offset += sent;
      sent = 0;
    }
  }
}

Reactor::Reactor(ReactorHost& host, const TcpTransportConfig& config,
                 std::size_t index, obs::Registry& metrics,
                 TcpCounters& counters)
    : host_(host),
      config_(config),
      index_(index),
      index_str_(std::to_string(index)),
      counters_(counters),
      frames_(metrics.counter("transport.reactor" + index_str_ + ".frames")),
      bytes_received_(metrics.counter("transport.reactor" + index_str_ +
                                      ".bytes_received")),
      wakeups_(
          metrics.counter("transport.reactor" + index_str_ + ".wakeups")),
      wake_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  if (!wake_fd_.valid()) {
    throw SocketError(std::string("eventfd: ") + std::strerror(errno));
  }
  epoll_fd_ = SocketFd(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_fd_.valid()) {
    throw SocketError(std::string("epoll_create1: ") + std::strerror(errno));
  }
  epoll_add_readable(epoll_fd_.get(), wake_fd_.get());
}

Reactor::~Reactor() {
  if (thread_.joinable()) {
    request_stop();
    thread_.join();
  }
}

void Reactor::start() {
  thread_ = std::thread([this] { loop(); });
}

void Reactor::request_stop() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  wake();
  write_cv_.notify_all();
}

void Reactor::join() {
  if (thread_.joinable()) thread_.join();
}

bool Reactor::on_reactor_thread() { return t_on_reactor_thread; }

void Reactor::wake() {
  counters_.wakeups.inc();
  wakeups_.inc();
  const std::uint64_t one = 1;
  (void)!::write(wake_fd_.get(), &one, sizeof(one));
}

void Reactor::drain_wake_fd() {
  std::uint64_t v;
  (void)!::read(wake_fd_.get(), &v, sizeof(v));  // resets the counter
}

// ---- Producer API ----------------------------------------------------------

void Reactor::push_frame(const ConnPtr& conn, Message&& m,
                         const Message& header, bool track) {
  OutFrame frame = make_out_frame(std::move(m));
  counters_.net.count_sent(header.kind, frame.wire_size());
  // Track our own requests until their response arrives, so a dead
  // connection fails them instead of leaving the caller to time out.
  if (track) {
    conn->awaiting_response.emplace(
        std::pair{header.src, header.correlation_id},
        TcpConn::TrackedRequest{header, std::chrono::steady_clock::now()});
  }
  conn->outbox_bytes += frame.wire_size();
  conn->outbox.push_back(std::move(frame));
  counters_.write_queue_bytes.set(
      static_cast<std::int64_t>(conn->outbox_bytes));
}

bool Reactor::enqueue(const ConnPtr& conn, Message& m, const Message& header,
                      bool track) {
  MutexLock lock(mu_);
  if (stop_) return true;  // swallowed: the transport is shutting down
  if (conn->dead) return false;
  push_frame(conn, std::move(m), header, track);
  return true;
}

ConnPtr Reactor::enqueue_outbound(
    const std::pair<std::string, std::uint16_t>& key, const TcpAddress& dial,
    Message& m, const Message& header, bool track) {
  MutexLock lock(mu_);
  if (stop_) return nullptr;
  auto& slot = outbound_[key];
  if (!slot) {
    slot = std::make_shared<TcpConn>(config_.max_body_bytes, this);
    slot->outbound = true;
    slot->address = dial;
  }
  push_frame(slot, std::move(m), header, track);
  return slot;
}

bool Reactor::outbound_exists(
    const std::pair<std::string, std::uint16_t>& key) {
  MutexLock lock(mu_);
  return outbound_.find(key) != outbound_.end();
}

void Reactor::backpressure_wait(const ConnPtr& conn) {
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

void Reactor::adopt_inbound(ConnPtr conn) {
  {
    MutexLock lock(mu_);
    if (stop_) return;  // fd closes via RAII
    counters_.connections_accepted.inc();
    pending_inbound_.push_back(std::move(conn));
  }
  wake();
}

// ---- Event loop ------------------------------------------------------------

int Reactor::prepare_iteration(std::vector<ConnPtr>& to_dial,
                               std::vector<ConnPtr>& to_fail) {
  int timeout_ms = 200;
  MutexLock lock(mu_);
  if (stop_) return -1;

  // Adopt connections handed over by the accepting reactor.
  if (!pending_inbound_.empty()) {
    for (auto& conn : pending_inbound_) inbound_.push_back(std::move(conn));
    pending_inbound_.clear();
  }

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

void Reactor::epoll_update(const ConnPtr& conn) {
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

void Reactor::loop() {
  t_on_reactor_thread = true;
  if (listen_fd_ >= 0) epoll_add_readable(epoll_fd_.get(), listen_fd_);

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

    // Outside mu_: the route directory ranks below the shard mutex.
    host_.sweep_stale_routes();

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
      if (listen_fd_ >= 0 && fd == listen_fd_) {
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

void Reactor::forget_fd(const ConnPtr& conn) {
  if (conn->epoll_events >= 0 && conn->fd.valid()) {
    (void)::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, conn->fd.get(),
                      nullptr);
    by_fd_.erase(conn->fd.get());
  }
  conn->epoll_events = -1;
}

void Reactor::handle_conn_events(const ConnPtr& conn, std::uint32_t events) {
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

void Reactor::loop_accept() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: next wait retries
    // The sharding layer hashes the peer and hands the connection to its
    // reactor (possibly this one, via the same pending queue).
    host_.adopt_accepted(SocketFd(fd));
  }
}

void Reactor::loop_dial(const ConnPtr& conn) {
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

void Reactor::loop_connect_ready(const ConnPtr& conn) {
  const int err = take_socket_error(conn->fd.get());
  if (err != 0) {
    connect_failed(conn, std::string("connect ") + conn->address.to_string() +
                             ": " + std::strerror(err));
    return;
  }
  MutexLock lock(mu_);
  conn->state = TcpConn::State::kHello;
}

void Reactor::connect_failed(const ConnPtr& conn, const std::string& reason) {
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
    conn->outbox.clear();
    conn->outbox_bytes = 0;
    conn->out_offset = 0;
    conn->attempts = 0;
    conn->state = TcpConn::State::kIdle;
    write_cv_.notify_all();
  }
  for (const auto& h : bounces) host_.bounce_request(h, reason);
}

void Reactor::close_conn(const ConnPtr& conn, const std::string& reason) {
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
    conn->outbox.clear();
    conn->outbox_bytes = 0;
    conn->out_offset = 0;
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
  // Route directory ranks below the shard mutex: consult it unlocked. A
  // producer racing this close finds the conn dead and falls back to the
  // peer map (or bounces) — frames never strand on a closed connection.
  host_.forget_routes(conn);
  const std::string text =
      "connection to " +
      (conn->outbound ? conn->address.to_string() : std::string("peer")) +
      " lost (" + reason + ")";
  for (const auto& h : bounces) host_.bounce_request(h, text);
}

void Reactor::loop_writable(const ConnPtr& conn) {
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

void Reactor::loop_readable(const ConnPtr& conn) {
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
    bytes_received_.inc(static_cast<std::uint64_t>(n));
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

void Reactor::loop_dispatch(const ConnPtr& conn, Message&& m) {
  const Message header = header_of(m);
  const obs::TraceContext trace_ctx = m.trace;
  const std::uint64_t dispatch_start =
      trace_ctx.sampled ? obs::unix_micros() : 0;
  counters_.frames_received.inc();
  frames_.inc();
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
  }

  // Learn the return route for the peer's endpoint. The directory is
  // transport-global (an endpoint id is fleet-unique regardless of which
  // shard its connection hashed to) and ranks below the shard mutex, so
  // the claim happens with mu_ released.
  conn->last_frame_us.store(steady_now_us(), std::memory_order_relaxed);
  const ReactorHost::RouteClaim claim = host_.learn_route(m.src, conn);
  if (claim == ReactorHost::RouteClaim::kTakeover) {
    SIGMA_LOG_WARN << "tcp: endpoint " << m.src
                   << " return route taken over by a new connection (old "
                      "one silent past the stale window)";
  }
  if (claim == ReactorHost::RouteClaim::kConflict) {
    SIGMA_LOG(LogLevel::kError)
        << "tcp: endpoint " << m.src
        << " re-registered by a different peer connection while its route "
           "is active — refusing the message (endpoint-id collision; give "
           "each client a distinct endpoint base)";
    counters_.net.dropped.inc();
    if (header.kind != MessageKind::kRequest) return;
    Message bounce = Message::error_to(
        header, "transport: endpoint " + std::to_string(header.src) +
                    " already routed to another peer (endpoint-id "
                    "collision)");
    counters_.net.errors.inc();
    MutexLock lock(mu_);
    OutFrame frame = make_out_frame(std::move(bounce));
    conn->outbox_bytes += frame.wire_size();
    conn->outbox.push_back(std::move(frame));
    return;
  }
  if (host_.deliver_local(std::move(m))) {
    if (trace_ctx.sampled) {
      // One span per delivered frame, named for the shard that carried
      // it — fleet_trace shows which reactor moved a traced request.
      obs::Tracer& tracer = obs::Tracer::instance();
      tracer.emit(tracer.child_of(trace_ctx), "reactor.rx.",
                  index_str_.c_str(), dispatch_start,
                  obs::unix_micros() - dispatch_start);
    }
    return;
  }

  // Unknown destination: refuse requests over the wire (the remote
  // caller's RPC fails fast), drop stray responses.
  counters_.net.dropped.inc();
  if (header.kind != MessageKind::kRequest) return;
  Message bounce = Message::error_to(
      header, "transport: no endpoint " + std::to_string(header.dst));
  counters_.net.errors.inc();
  MutexLock lock(mu_);
  OutFrame frame = make_out_frame(std::move(bounce));
  conn->outbox_bytes += frame.wire_size();
  conn->outbox.push_back(std::move(frame));
}

}  // namespace sigma::net
