#include "service/wire_protocol.h"

#include "net/wire.h"

namespace sigma::service {

using net::WireReader;
using net::WireWriter;

namespace {

/// One bit per entry, LSB first, behind a u32 count — the duplicate-test
/// answer, standalone (kDuplicateTest) or at the tail of a fused probe.
void put_bitmap(WireWriter& w, const std::vector<bool>& bits) {
  w.u32(static_cast<std::uint32_t>(bits.size()));
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) acc |= static_cast<std::uint8_t>(1u << (i % 8));
    if (i % 8 == 7) {
      w.u8(acc);
      acc = 0;
    }
  }
  if (bits.size() % 8 != 0) w.u8(acc);
}

std::vector<bool> get_bitmap(WireReader& r) {
  const std::uint32_t n = r.u32();
  if (r.remaining() < (static_cast<std::size_t>(n) + 7) / 8) {
    throw net::WireError("bitmap: count exceeds message body");
  }
  std::vector<bool> bits(n, false);
  std::uint8_t acc = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (i % 8 == 0) acc = r.u8();
    bits[i] = (acc >> (i % 8)) & 1u;
  }
  return bits;
}

void put_fingerprints(WireWriter& w, std::span<const Fingerprint> fps) {
  w.u32(static_cast<std::uint32_t>(fps.size()));
  for (const auto& fp : fps) w.fingerprint(fp);
}

std::vector<Fingerprint> get_fingerprints(WireReader& r) {
  const std::uint32_t n = r.count(Fingerprint::kSize);
  std::vector<Fingerprint> fps;
  fps.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) fps.push_back(r.fingerprint());
  return fps;
}

/// An optional bin key: a presence byte (0 or 1), then the u64 key.
void put_bin(WireWriter& w, const std::optional<std::uint64_t>& bin) {
  w.u8(bin ? 1 : 0);
  if (bin) w.u64(*bin);
}

std::optional<std::uint64_t> get_bin(WireReader& r) {
  switch (r.u8()) {
    case 0: return std::nullopt;
    case 1: return r.u64();
    default: throw net::WireError("bin key: bad presence byte");
  }
}

}  // namespace

Buffer encode_duplicate_test(const DuplicateTestRequest& req) {
  WireWriter w(4 + req.fingerprints.size() * Fingerprint::kSize + 9);
  put_fingerprints(w, req.fingerprints);
  put_bin(w, req.bin);
  return w.take();
}

DuplicateTestRequest decode_duplicate_test(ByteView body) {
  WireReader r(body);
  DuplicateTestRequest req;
  req.fingerprints = get_fingerprints(r);
  req.bin = get_bin(r);
  r.expect_done();
  return req;
}

Buffer encode_u64(std::uint64_t v) {
  WireWriter w(8);
  w.u64(v);
  return w.take();
}

std::uint64_t decode_u64(ByteView body) {
  WireReader r(body);
  const std::uint64_t v = r.u64();
  r.expect_done();
  return v;
}

Buffer encode_bitmap(const std::vector<bool>& bits) {
  WireWriter w(4 + bits.size() / 8 + 1);
  put_bitmap(w, bits);
  return w.take();
}

std::vector<bool> decode_bitmap(ByteView body) {
  WireReader r(body);
  std::vector<bool> bits = get_bitmap(r);
  r.expect_done();
  return bits;
}

Buffer encode_routing_probe_request(
    ProbeKind kind, std::span<const Fingerprint> fps,
    std::span<const Fingerprint> duplicate_test) {
  WireWriter w(1 + 8 + (fps.size() + duplicate_test.size()) *
                           Fingerprint::kSize);
  w.u8(static_cast<std::uint8_t>(kind));
  put_fingerprints(w, fps);
  put_fingerprints(w, duplicate_test);
  return w.take();
}

Buffer encode_routing_probe_request(const RoutingProbeRequest& req) {
  return encode_routing_probe_request(req.kind, req.fingerprints,
                                      req.duplicate_test);
}

RoutingProbeRequest decode_routing_probe_request(ByteView body) {
  WireReader r(body);
  RoutingProbeRequest req;
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(ProbeKind::kChunkMatch)) {
    throw net::WireError("routing probe: unknown kind byte " +
                         std::to_string(kind));
  }
  req.kind = static_cast<ProbeKind>(kind);
  req.fingerprints = get_fingerprints(r);
  req.duplicate_test = get_fingerprints(r);
  r.expect_done();
  return req;
}

Buffer encode_routing_probe_reply(const RoutingProbeReply& reply) {
  WireWriter w(16 + 4 + reply.present.size() / 8 + 1);
  w.u64(reply.matches);
  w.u64(reply.stored_bytes);
  put_bitmap(w, reply.present);
  return w.take();
}

RoutingProbeReply decode_routing_probe_reply(ByteView body) {
  WireReader r(body);
  RoutingProbeReply reply;
  reply.matches = r.u64();
  reply.stored_bytes = r.u64();
  reply.present = get_bitmap(r);
  r.expect_done();
  return reply;
}

Buffer encode_write_request(const WriteRequest& req) {
  std::size_t payload_bytes = 0;
  for (const auto& [idx, buf] : req.payloads) payload_bytes += buf.size() + 8;
  WireWriter w(21 + req.chunks.size() * (Fingerprint::kSize + 4) +
               payload_bytes);
  w.u32(req.stream);
  w.u32(static_cast<std::uint32_t>(req.chunks.size()));
  for (const auto& c : req.chunks) {
    w.fingerprint(c.fp);
    w.u32(c.size);
  }
  w.u32(static_cast<std::uint32_t>(req.payloads.size()));
  for (const auto& [idx, buf] : req.payloads) {
    w.u32(idx);
    w.bytes(ByteView{buf.data(), buf.size()});
  }
  put_bin(w, req.bin);
  return w.take();
}

WriteRequest decode_write_request(ByteView body) {
  WireReader r(body);
  WriteRequest req;
  req.stream = r.u32();
  const std::uint32_t n = r.count(Fingerprint::kSize + 4);
  req.chunks.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ChunkRecord c;
    c.fp = r.fingerprint();
    c.size = r.u32();
    req.chunks.push_back(c);
  }
  const std::uint32_t p = r.count(8);  // index u32 + length prefix u32
  req.payloads.reserve(p);
  for (std::uint32_t i = 0; i < p; ++i) {
    const std::uint32_t idx = r.u32();
    req.payloads.emplace_back(idx, to_buffer(r.bytes()));
  }
  req.bin = get_bin(r);
  r.expect_done();
  return req;
}

Buffer encode_write_result(const SuperChunkWriteResult& result) {
  WireWriter w(8 * 8);
  w.u64(result.duplicate_chunks);
  w.u64(result.unique_chunks);
  w.u64(result.duplicate_bytes);
  w.u64(result.unique_bytes);
  w.u64(result.cache_hits);
  w.u64(result.disk_index_lookups);
  w.u64(result.disk_lookups_avoided_by_bloom);
  w.u64(result.container_prefetches);
  return w.take();
}

SuperChunkWriteResult decode_write_result(ByteView body) {
  WireReader r(body);
  SuperChunkWriteResult result;
  result.duplicate_chunks = r.u64();
  result.unique_chunks = r.u64();
  result.duplicate_bytes = r.u64();
  result.unique_bytes = r.u64();
  result.cache_hits = r.u64();
  result.disk_index_lookups = r.u64();
  result.disk_lookups_avoided_by_bloom = r.u64();
  result.container_prefetches = r.u64();
  r.expect_done();
  return result;
}

Buffer encode_read_request(const Fingerprint& fp) {
  WireWriter w(Fingerprint::kSize);
  w.fingerprint(fp);
  return w.take();
}

Fingerprint decode_read_request(ByteView body) {
  WireReader r(body);
  const Fingerprint fp = r.fingerprint();
  r.expect_done();
  return fp;
}

Buffer encode_read_response(const std::optional<Buffer>& payload) {
  WireWriter w(payload ? payload->size() + 5 : 1);
  w.u8(payload ? 1 : 0);
  if (payload) w.bytes(ByteView{payload->data(), payload->size()});
  return w.take();
}

std::optional<Buffer> decode_read_response(ByteView body) {
  WireReader r(body);
  const bool found = r.u8() != 0;
  std::optional<Buffer> payload;
  if (found) payload = to_buffer(r.bytes());
  r.expect_done();
  return payload;
}

namespace {

/// Minimum wire bytes of one node entry: host length prefix + port +
/// endpoint (an empty host is malformed anyway, but this only feeds the
/// count() bound).
constexpr std::size_t kMinNodeEntryBytes = 4 + 4 + 4;

}  // namespace

Buffer encode_fleet_view(const FleetView& view) {
  WireWriter w(16 + view.nodes.size() * 32);
  w.u64(view.version);
  w.u32(view.ttl_ms);
  w.u32(static_cast<std::uint32_t>(view.nodes.size()));
  for (const auto& node : view.nodes) {
    w.bytes(as_bytes(node.address.host));
    w.u32(node.address.port);
    w.u32(node.endpoint);
  }
  return w.take();
}

FleetView decode_fleet_view(ByteView body) {
  WireReader r(body);
  FleetView view;
  view.version = r.u64();
  view.ttl_ms = r.u32();
  const std::uint32_t n = r.count(kMinNodeEntryBytes);
  view.nodes.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    net::TcpNodeAddress node;
    const ByteView host = r.bytes();
    node.address.host.assign(host.begin(), host.end());
    node.address.port = static_cast<std::uint16_t>(
        r.u32() & 0xFFFF);
    node.endpoint = r.u32();
    view.nodes.push_back(std::move(node));
  }
  r.expect_done();
  return view;
}

Buffer encode_register_node_request(const RegisterNodeRequest& req) {
  WireWriter w(4 + req.host.size() + 12);
  w.bytes(as_bytes(req.host));
  w.u32(req.port);
  w.u32(req.first_endpoint);
  w.u32(req.num_endpoints);
  return w.take();
}

RegisterNodeRequest decode_register_node_request(ByteView body) {
  WireReader r(body);
  RegisterNodeRequest req;
  const ByteView host = r.bytes();
  req.host.assign(host.begin(), host.end());
  req.port = static_cast<std::uint16_t>(r.u32() & 0xFFFF);
  req.first_endpoint = r.u32();
  req.num_endpoints = r.u32();
  r.expect_done();
  return req;
}

Buffer encode_lease_grant(const LeaseGrant& grant) {
  WireWriter w(12);
  w.u64(grant.lease_id);
  w.u32(grant.ttl_ms);
  return w.take();
}

LeaseGrant decode_lease_grant(ByteView body) {
  WireReader r(body);
  LeaseGrant grant;
  grant.lease_id = r.u64();
  grant.ttl_ms = r.u32();
  r.expect_done();
  return grant;
}

}  // namespace sigma::service
