// Message transport between endpoints. The interface is socket-shaped —
// register an endpoint (a bound address with a delivery handler), send
// addressed messages, observe traffic counters — so the service and RPC
// layers run unchanged over net::TcpTransport, the one transport a
// deployment uses.
//
// LoopbackTransport is the in-process fake the service, RPC and
// concurrency tests run on: delivery invokes the destination's handler on
// the sender's thread (the handler is expected to enqueue, not to do
// heavy work). Requests addressed to unknown endpoints bounce back to the
// sender as error responses, mirroring a connection refusal; responses to
// unknown endpoints are dropped and counted.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "common/mutex.h"
#include "common/thread_annotations.h"
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

/// In-process test fake: synchronous handler dispatch, full accounting.
class LoopbackTransport final : public Transport {
 public:
  EndpointId register_endpoint(Handler handler) override;
  void unregister_endpoint(EndpointId id) override;
  void send(Message&& m) override;
  NetStats stats() const override;

 private:
  struct Endpoint {
    Handler handler;           // immutable after registration
    int active_deliveries = 0;  // guarded by the transport's mu_
  };

  /// Deliver to a registered endpoint; returns false if unknown. The
  /// handler itself runs with mu_ released.
  bool deliver(Message&& m) SIGMA_EXCLUDES(mu_);

  mutable Mutex mu_{LockRank::kTransport};
  CondVar idle_cv_;
  std::unordered_map<EndpointId, std::shared_ptr<Endpoint>> endpoints_
      SIGMA_GUARDED_BY(mu_);
  EndpointId next_id_ SIGMA_GUARDED_BY(mu_) = 1;
  obs::Registry metrics_;  // counted privately; read through stats()
  NetCounters net_{metrics_};
};

}  // namespace sigma::net
