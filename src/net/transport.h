// Message transport between endpoints. The interface is socket-shaped —
// register an endpoint (a bound address with a delivery handler), send
// addressed messages, observe traffic counters — so the service and RPC
// layers run unchanged over net::TcpTransport, the one transport a
// deployment uses. The tests run them over an in-process fake,
// tests/loopback_transport.h.
#pragma once

#include <cstdint>
#include <functional>

#include "net/message.h"
#include "obs/metrics.h"

namespace sigma::net {

/// Transport-level traffic counters (wire messages, not the paper's
/// fingerprint-lookup metric — that stays in cluster::MessageStats).
struct NetStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t requests = 0;
  std::uint64_t responses = 0;
  std::uint64_t errors = 0;
  std::uint64_t dropped = 0;
};

/// The registry counters behind NetStats (`net.*`). One set per
/// transport, shared by every thread that moves its messages; stats()
/// reads them back into a NetStats.
struct NetCounters {
  explicit NetCounters(obs::Registry& metrics);

  /// Count one message of `kind` by type: requests/responses/errors.
  void count_kind(MessageKind kind);
  /// Count one message put on the wire (or handed to a local endpoint):
  /// messages_sent, bytes_sent and its kind.
  void count_sent(MessageKind kind, std::size_t wire_bytes);

  NetStats read() const;

  obs::Counter& messages_sent;
  obs::Counter& bytes_sent;
  obs::Counter& requests;
  obs::Counter& responses;
  obs::Counter& errors;
  obs::Counter& dropped;
};

class Transport {
 public:
  using Handler = std::function<void(Message&&)>;

  virtual ~Transport() = default;

  /// Bind a new endpoint; the returned id is its address. The handler is
  /// invoked once per delivered message and must be thread-safe.
  virtual EndpointId register_endpoint(Handler handler) = 0;

  /// Unbind an endpoint. Blocks until every in-flight delivery to it has
  /// returned, so the handler's captures may be destroyed afterwards.
  virtual void unregister_endpoint(EndpointId id) = 0;

  /// Deliver one message to `m.dst`. A reply (Message::response_to or
  /// error_to of a request this transport delivered) goes back to the
  /// requester: TcpTransport puts it on the connection that carried the
  /// request — dropped, and counted in `net.dropped`, if that connection
  /// has closed — and LoopbackTransport, where every endpoint is local,
  /// delivers it to `m.dst`.
  virtual void send(Message&& m) = 0;

  /// This transport's `net.*` counters.
  virtual NetStats stats() const = 0;
};

}  // namespace sigma::net
