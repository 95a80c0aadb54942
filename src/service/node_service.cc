#include "service/node_service.h"

#include <unistd.h>

#include "net/wire.h"
#include "obs/metrics_wire.h"
#include "obs/trace.h"
#include "obs/trace_wire.h"
#include "service/wire_protocol.h"

namespace sigma::service {

using net::Message;
using net::MessageKind;
using net::MessageType;

NodeService::NodeService(DedupNode& node, net::Transport& transport,
                         obs::Registry* metrics, const std::string& label)
    : node_(node),
      transport_(transport),
      metrics_(metrics),
      prefix_(label.empty() ? std::string("svc.") : "svc." + label + "."),
      depth_gauge_(metrics_->gauge(prefix_ + "inbox_depth")),
      requests_served_(metrics_->counter(prefix_ + "requests_served")),
      errors_returned_(metrics_->counter(prefix_ + "errors_returned")),
      fast_requests_served_(
          metrics_->counter(prefix_ + "fast_requests_served")) {
  // Instruments are cached before the endpoint exists: a TCP peer can
  // address a fresh endpoint id the moment the listener accepts it.
  for (std::uint8_t op = 0; op <= net::kMaxMessageType; ++op) {
    op_time_us_[op] = &metrics_->histogram(
        prefix_ + "op_us." + to_string(static_cast<MessageType>(op)));
  }
  endpoint_ = transport.register_endpoint(
      [this](Message&& m) { enqueue(std::move(m)); });
  thread_ = std::thread([this] { run(); });
}

NodeService::~NodeService() {
  // Stop deliveries (blocks until in-flight enqueues return), so nothing
  // is queued once the thread is gone; it answers what is already queued.
  transport_.unregister_endpoint(endpoint_);
  {
    MutexLock lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

bool NodeService::is_probe(MessageType type) {
  switch (type) {
    case MessageType::kRoutingProbe:
    case MessageType::kDuplicateTest:
    case MessageType::kReadChunk:
    case MessageType::kStoredBytes:
    case MessageType::kStatsSnapshot:
    case MessageType::kTraceDump:
      return true;
    case MessageType::kWriteSuperChunk:
    case MessageType::kFlush:
      return false;
    case MessageType::kRegisterNode:
    case MessageType::kRegistryHeartbeat:
    case MessageType::kRegistryLeave:
    case MessageType::kFleetFetch:
      // Control-plane ops belong to the registry; a node service only
      // ever answers them with an error (the write queue is fine for that).
      return false;
  }
  return false;
}

void NodeService::enqueue(Message&& m) {
  const bool probe = m.kind == MessageKind::kRequest && is_probe(m.type);
  {
    MutexLock lock(mu_);
    if (closed_) return;  // shutting down
    (probe ? probes_ : writes_).push_back(std::move(m));
    depth_gauge_.set(
        static_cast<std::int64_t>(probes_.size() + writes_.size()));
  }
  cv_.notify_one();
}

void NodeService::run() {
  for (;;) {
    Message m;
    bool probe = false;
    {
      MutexLock lock(mu_);
      while (!closed_ && probes_.empty() && writes_.empty()) cv_.wait(mu_);
      // A queued probe always goes before the next write: it waits out
      // at most the write in progress, never the write backlog.
      probe = !probes_.empty();
      auto& queue = probe ? probes_ : writes_;
      if (queue.empty()) return;  // closed and drained
      m = std::move(queue.front());
      queue.pop_front();
      depth_gauge_.set(
          static_cast<std::int64_t>(probes_.size() + writes_.size()));
    }
    Message response;
    {
      // The op span adopts the wire context (no-op unless the request is
      // sampled): the daemon-side span is a child of the client's RPC
      // span, and storage spans under handle() nest beneath it via the
      // thread-local current context.
      obs::SpanScope span(m.trace, "svc.", to_string(m.type));
      obs::ScopedTimer timer(*op_time_us_[static_cast<std::uint8_t>(m.type)]);
      response = handle(m);
    }
    requests_served_.inc();
    if (probe) fast_requests_served_.inc();
    transport_.send(std::move(response));
  }
}

Message NodeService::handle(const Message& request) {
  if (request.kind != MessageKind::kRequest) {
    // Services only consume requests; a stray response is a protocol bug.
    return Message::error_to(request, "service: unexpected response message");
  }
  try {
    const ByteView body{request.body.data(), request.body.size()};
    switch (request.type) {
      case MessageType::kRoutingProbe: {
        const auto req = decode_routing_probe_request(body);
        RoutingProbeReply reply;
        reply.matches = req.kind == ProbeKind::kResemblance
                            ? node_.resemblance_count(req.fingerprints)
                            : node_.chunk_match_count(req.fingerprints);
        reply.stored_bytes = node_.stored_bytes();
        if (!req.duplicate_test.empty()) {
          reply.present = node_.test_duplicates(req.duplicate_test);
        }
        return Message::response_to(request,
                                    encode_routing_probe_reply(reply));
      }
      case MessageType::kDuplicateTest: {
        const auto req = decode_duplicate_test(body);
        return Message::response_to(
            request,
            encode_bitmap(node_.test_duplicates(req.fingerprints, req.bin)));
      }
      case MessageType::kWriteSuperChunk: {
        auto req = decode_write_request(body);
        SuperChunk sc;
        sc.chunks = std::move(req.chunks);
        DedupNode::PayloadProvider provider;
        std::vector<const Buffer*> by_index;
        if (!req.payloads.empty()) {
          // Sparse payload lookup: the client sent bytes only for chunks
          // its duplicate test (fused into the routing probe, or a
          // separate kDuplicateTest) reported absent; the node asks for a
          // payload only when it decides a chunk is unique, and unique-at-
          // store implies absent-at-test, so every ask is answerable.
          by_index.assign(sc.chunks.size(), nullptr);
          for (const auto& [idx, buf] : req.payloads) {
            if (idx >= by_index.size()) {
              throw net::WireError("write: payload index out of range");
            }
            by_index[idx] = &buf;
          }
          provider = [&by_index](std::size_t chunk_index) -> ByteView {
            const Buffer* buf = by_index.at(chunk_index);
            if (!buf) {
              throw std::runtime_error(
                  "write: missing payload for unique chunk #" +
                  std::to_string(chunk_index));
            }
            return ByteView{buf->data(), buf->size()};
          };
        }
        const auto result =
            node_.write_super_chunk(req.stream, sc, provider, req.bin);
        return Message::response_to(request, encode_write_result(result));
      }
      case MessageType::kReadChunk: {
        const auto fp = decode_read_request(body);
        return Message::response_to(
            request, encode_read_response(node_.read_chunk(fp)));
      }
      case MessageType::kStoredBytes: {
        return Message::response_to(request, encode_u64(node_.stored_bytes()));
      }
      case MessageType::kFlush: {
        node_.flush();
        return Message::response_to(request, Buffer{});
      }
      case MessageType::kStatsSnapshot: {
        // The provider covers the whole hosting process; every endpoint
        // of a daemon answers with the same daemon-wide snapshot. Copy it
        // out first — invoking it under mu_ would stall every delivery to
        // this node for the length of the scrape.
        SnapshotProvider provider;
        {
          MutexLock lock(mu_);
          provider = snapshot_provider_;
        }
        return Message::response_to(
            request, obs::encode_metrics_snapshot(
                         provider ? provider() : metrics_->snapshot()));
      }
      case MessageType::kTraceDump: {
        // Like kStatsSnapshot, the answer covers the whole hosting
        // process: the Tracer is process-global, so every endpoint
        // serves the same flight-recorder view. Collection is lock-free
        // against concurrent emitters.
        obs::Tracer& tracer = obs::Tracer::instance();
        obs::SpanDump dump;
        dump.pid = static_cast<std::uint64_t>(::getpid());
        dump.process = tracer.process_label();
        if (dump.process.empty()) {
          dump.process = "pid" + std::to_string(dump.pid);
        }
        dump.spans = tracer.collect();
        return Message::response_to(request, obs::encode_span_dump(dump));
      }
      case MessageType::kRegisterNode:
        case MessageType::kRegistryHeartbeat:
      case MessageType::kRegistryLeave:
      case MessageType::kFleetFetch:
        // Control-plane ops are served by a registry_server, not a node:
        // a peer that dials a data endpoint with them is misconfigured.
        return Message::error_to(
            request, "service: control-plane op sent to a data node "
                     "(dial the registry instead)");
    }
    return Message::error_to(request, "service: unknown operation");
  } catch (const std::exception& e) {
    errors_returned_.inc();
    return Message::error_to(request, e.what());
  }
}

NodeServiceStats NodeService::stats() const {
  NodeServiceStats s;
  s.requests_served = requests_served_.value();
  s.errors_returned = errors_returned_.value();
  s.fast_requests_served = fast_requests_served_.value();
  return s;
}

}  // namespace sigma::service
