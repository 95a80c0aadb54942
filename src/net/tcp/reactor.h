// The TCP transport's per-connection state and its zero-copy write path.
// TcpTransport (net/tcp/tcp_transport.h) runs the event loop that owns
// every TcpConn; this header holds the pieces the loop is built from.
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
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <utility>

#include "net/tcp/frame.h"
#include "net/tcp/socket.h"
#include "net/transport.h"

namespace sigma::net {

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

/// One TCP connection (inbound or outbound) and its state machine, owned
/// by its transport's event loop for its whole life.
///
/// Ownership of the fields is split two ways (annotations cannot express
/// a struct guarded by its transport's mutex, so the split is documented
/// here and enforced by the TSan lane):
///   * loop-thread-only: fd, address, hello_*, decoder, attempts,
///     retry_at, was_established, epoll_events — touched exclusively by
///     the loop once the conn is registered;
///   * guarded by the transport's mu_: state, outbox, out_offset,
///     outbox_bytes, awaiting_response, stalled, dead — the producer/loop
///     handoff.
struct TcpConn {
  enum class State { kIdle, kBackoff, kConnecting, kHello, kEstablished };

  explicit TcpConn(std::size_t max_body) : decoder(max_body) {}

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

}  // namespace sigma::net
