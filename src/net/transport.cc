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

}  // namespace sigma::net
