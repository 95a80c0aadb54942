// LoopbackTransport: the in-process net::Transport fake the service, RPC
// and concurrency tests run on. Delivery invokes the destination's handler
// on the sender's thread (the handler is expected to enqueue, not to do
// heavy work). Requests addressed to unknown endpoints bounce back to the
// sender as error responses, mirroring a connection refusal; responses to
// unknown endpoints are dropped and counted. A reply goes to `m.dst`,
// since every endpoint is local.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "net/transport.h"

namespace sigma::net {

/// In-process test fake: synchronous handler dispatch, full accounting.
class LoopbackTransport final : public Transport {
 public:
  EndpointId register_endpoint(Handler handler) override {
    MutexLock lock(mu_);
    const EndpointId id = next_id_++;
    auto ep = std::make_shared<Endpoint>();
    ep->handler = std::move(handler);
    endpoints_.emplace(id, std::move(ep));
    return id;
  }

  void unregister_endpoint(EndpointId id) override {
    MutexLock lock(mu_);
    auto it = endpoints_.find(id);
    if (it == endpoints_.end()) return;
    auto ep = it->second;
    endpoints_.erase(it);
    // Wait out deliveries already dispatched to this endpoint so the
    // caller may tear down whatever the handler references.
    while (ep->active_deliveries != 0) idle_cv_.wait(mu_);
  }

  void send(Message&& m) override {
    const bool was_request = m.kind == MessageKind::kRequest;
    Message header;  // header fields survive the move below
    header.type = m.type;
    header.correlation_id = m.correlation_id;
    header.src = m.src;
    header.dst = m.dst;
    if (deliver(std::move(m))) return;

    net_.dropped.inc();
    if (!was_request) return;  // a response to a vanished client: drop

    // Bounce a connection-refused-style error back to the requester so
    // its pending call fails fast instead of timing out. If the requester
    // is gone too, this second drop is silent.
    Message bounce = Message::error_to(
        header, "transport: no endpoint " + std::to_string(header.dst));
    (void)deliver(std::move(bounce));
  }

  NetStats stats() const override { return net_.read(); }

 private:
  struct Endpoint {
    Handler handler;            // immutable after registration
    int active_deliveries = 0;  // guarded by the transport's mu_
  };

  /// Deliver to a registered endpoint; returns false if unknown. The
  /// handler itself runs with mu_ released.
  bool deliver(Message&& m) SIGMA_EXCLUDES(mu_) {
    std::shared_ptr<Endpoint> ep;
    {
      MutexLock lock(mu_);
      auto it = endpoints_.find(m.dst);
      if (it == endpoints_.end()) return false;
      ep = it->second;
      ++ep->active_deliveries;
    }
    net_.count_sent(m.kind, m.wire_size());
    ep->handler(std::move(m));
    {
      MutexLock lock(mu_);
      --ep->active_deliveries;
      // Notify under mu_: unregister_endpoint's caller may destroy this
      // transport the instant its wait predicate holds, so the notify
      // must complete before that predicate can be re-checked.
      idle_cv_.notify_all();
    }
    return true;
  }

  mutable Mutex mu_{LockRank::kTransport};
  CondVar idle_cv_;
  std::unordered_map<EndpointId, std::shared_ptr<Endpoint>> endpoints_
      SIGMA_GUARDED_BY(mu_);
  EndpointId next_id_ SIGMA_GUARDED_BY(mu_) = 1;
  obs::Registry metrics_;  // counted privately; read through stats()
  NetCounters net_{metrics_};
};

}  // namespace sigma::net
