#include "net/transport.h"

namespace sigma::net {

NetCounters::NetCounters(obs::Registry& metrics)
    : messages_sent(metrics.counter("net.messages_sent")),
      bytes_sent(metrics.counter("net.bytes_sent")),
      requests(metrics.counter("net.requests")),
      responses(metrics.counter("net.responses")),
      errors(metrics.counter("net.errors")),
      dropped(metrics.counter("net.dropped")) {}

void NetCounters::count_kind(MessageKind kind) {
  switch (kind) {
    case MessageKind::kRequest:
      requests.inc();
      break;
    case MessageKind::kResponse:
      responses.inc();
      break;
    case MessageKind::kError:
      errors.inc();
      break;
  }
}

void NetCounters::count_sent(MessageKind kind, std::size_t wire_bytes) {
  messages_sent.inc();
  bytes_sent.inc(wire_bytes);
  count_kind(kind);
}

NetStats NetCounters::read() const {
  NetStats s;
  s.messages_sent = messages_sent.value();
  s.bytes_sent = bytes_sent.value();
  s.requests = requests.value();
  s.responses = responses.value();
  s.errors = errors.value();
  s.dropped = dropped.value();
  return s;
}

EndpointId LoopbackTransport::register_endpoint(Handler handler) {
  MutexLock lock(mu_);
  const EndpointId id = next_id_++;
  auto ep = std::make_shared<Endpoint>();
  ep->handler = std::move(handler);
  endpoints_.emplace(id, std::move(ep));
  return id;
}

void LoopbackTransport::unregister_endpoint(EndpointId id) {
  MutexLock lock(mu_);
  auto it = endpoints_.find(id);
  if (it == endpoints_.end()) return;
  auto ep = it->second;
  endpoints_.erase(it);
  // Wait out deliveries already dispatched to this endpoint so the caller
  // may tear down whatever the handler references.
  while (ep->active_deliveries != 0) idle_cv_.wait(mu_);
}

bool LoopbackTransport::deliver(Message&& m) {
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
    // transport the instant its wait predicate holds, so the notify must
    // complete before that predicate can be re-checked.
    idle_cv_.notify_all();
  }
  return true;
}

void LoopbackTransport::send(Message&& m) {
  const bool was_request = m.kind == MessageKind::kRequest;
  Message header;  // header fields survive the move below
  header.type = m.type;
  header.correlation_id = m.correlation_id;
  header.src = m.src;
  header.dst = m.dst;
  if (deliver(std::move(m))) return;

  net_.dropped.inc();
  if (!was_request) return;  // a response to a vanished client: drop

  // Bounce a connection-refused-style error back to the requester so its
  // pending call fails fast instead of timing out. If the requester is
  // gone too, this second drop is silent.
  Message bounce = Message::error_to(
      header, "transport: no endpoint " + std::to_string(header.dst));
  (void)deliver(std::move(bounce));
}

NetStats LoopbackTransport::stats() const { return net_.read(); }

}  // namespace sigma::net
