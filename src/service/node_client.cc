#include "service/node_client.h"

#include <unordered_set>

#include "obs/metrics_wire.h"
#include "service/wire_protocol.h"

namespace sigma::service {

using net::MessageType;

NodeClient::NodeClient(net::RpcEndpoint& rpc, net::EndpointId service,
                       std::chrono::milliseconds timeout)
    : rpc_(rpc), service_(service), timeout_(timeout) {}

std::uint64_t NodeClient::stored_bytes() const {
  const Buffer response = stored_bytes_async().get(timeout_);
  return decode_u64(ByteView{response.data(), response.size()});
}

net::PendingCall NodeClient::stored_bytes_async() const {
  return rpc_.call(service_, MessageType::kStoredBytes, Buffer{});
}

net::PendingCall NodeClient::routing_probe_async(
    ProbeKind kind, const std::vector<Fingerprint>& fps,
    std::span<const Fingerprint> duplicate_test) const {
  return rpc_.call(service_, MessageType::kRoutingProbe,
                   encode_routing_probe_request(kind, fps, duplicate_test));
}

std::vector<bool> NodeClient::test_duplicates(
    const std::vector<Fingerprint>& fps) const {
  const Buffer response = rpc_.call_sync(
      service_, MessageType::kDuplicateTest, encode_fingerprints(fps),
      timeout_);
  return decode_bitmap(ByteView{response.data(), response.size()});
}

net::PendingCall NodeClient::write_super_chunk_async(
    StreamId stream, const SuperChunk& super_chunk,
    const DedupNode::PayloadProvider& payloads,
    const std::optional<std::vector<bool>>& present) const {
  WriteRequest req;
  req.stream = stream;
  req.chunks = super_chunk.chunks;
  if (payloads) {
    // Ship payloads only for absent chunks: duplicate data never crosses
    // the wire (source dedup, Section 3.1). The bitmap came with the
    // routing probe; a scheme that sent none pays a separate test here.
    std::vector<bool> tested;
    if (!present) {
      std::vector<Fingerprint> fps;
      fps.reserve(super_chunk.chunks.size());
      for (const auto& c : super_chunk.chunks) fps.push_back(c.fp);
      tested = test_duplicates(fps);
    }
    const std::vector<bool>& bits = present ? *present : tested;
    if (bits.size() != super_chunk.chunks.size()) {
      throw net::RpcError("duplicate test: bitmap size " +
                          std::to_string(bits.size()) + " != queried " +
                          std::to_string(super_chunk.chunks.size()));
    }
    // A fingerprint repeated within the batch ships one payload: the node
    // processes the batch in order, so only the first occurrence can be
    // judged unique — later ones dedupe against it locally.
    std::unordered_set<Fingerprint> shipped;
    for (std::size_t i = 0; i < super_chunk.chunks.size(); ++i) {
      if (!bits[i] && shipped.insert(super_chunk.chunks[i].fp).second) {
        const ByteView payload = payloads(i);
        req.payloads.emplace_back(static_cast<std::uint32_t>(i),
                                  to_buffer(payload));
      }
    }
  }
  return rpc_.call(service_, MessageType::kWriteSuperChunk,
                   encode_write_request(req));
}

SuperChunkWriteResult NodeClient::write_super_chunk(
    StreamId stream, const SuperChunk& super_chunk,
    const DedupNode::PayloadProvider& payloads) const {
  auto call = write_super_chunk_async(stream, super_chunk, payloads);
  const Buffer response = call.get(timeout_);
  return decode_write_result(ByteView{response.data(), response.size()});
}

std::optional<Buffer> NodeClient::read_chunk(const Fingerprint& fp) const {
  const Buffer response = read_chunk_async(fp).get(timeout_);
  return decode_read_response(ByteView{response.data(), response.size()});
}

net::PendingCall NodeClient::read_chunk_async(const Fingerprint& fp) const {
  return rpc_.call(service_, MessageType::kReadChunk, encode_read_request(fp));
}

net::PendingCall NodeClient::flush_async() const {
  return rpc_.call(service_, MessageType::kFlush, Buffer{});
}

void NodeClient::flush() const {
  flush_async().get(timeout_);
}

obs::MetricsSnapshot NodeClient::stats_snapshot() const {
  const Buffer response =
      rpc_.call_sync(service_, MessageType::kStatsSnapshot, {}, timeout_);
  return obs::decode_metrics_snapshot(
      ByteView{response.data(), response.size()});
}

}  // namespace sigma::service
