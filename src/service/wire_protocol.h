// Body codecs for the node service protocol — one encode/decode pair per
// wire operation of net::MessageType. Kept separate from the transport so
// the byte format is the single contract between NodeClient (client stubs)
// and NodeService (server dispatch); a socket peer implementing this file
// interoperates.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include <string>

#include "common/bytes.h"
#include "common/fingerprint.h"
#include "chunking/super_chunk.h"
#include "net/tcp/socket.h"
#include "node/dedup_node.h"

namespace sigma::service {

// ---- Fingerprint-list bodies (probes and duplicate tests) -----------------

Buffer encode_fingerprints(const std::vector<Fingerprint>& fps);
std::vector<Fingerprint> decode_fingerprints(ByteView body);

// ---- Scalar bodies --------------------------------------------------------

Buffer encode_u64(std::uint64_t v);
std::uint64_t decode_u64(ByteView body);

// ---- Duplicate-test response: one bit per queried fingerprint -------------

Buffer encode_bitmap(const std::vector<bool>& bits);
std::vector<bool> decode_bitmap(ByteView body);

// ---- Fused routing probe (scatter-gather probe plane) ---------------------

/// Request: which index to query (ProbeKind) plus the fingerprints, and —
/// in payload mode — the whole routing unit's chunk fingerprints for the
/// duplicate test (empty = no test). One message carries a candidate's
/// whole share of a routing decision, duplicate test included.
struct RoutingProbeRequest {
  ProbeKind kind = ProbeKind::kResemblance;
  std::vector<Fingerprint> fingerprints;
  std::vector<Fingerprint> duplicate_test;
};

/// Span overload: encodes straight from the caller's fingerprint lists —
/// the per-candidate hot path copies nothing.
Buffer encode_routing_probe_request(
    ProbeKind kind, std::span<const Fingerprint> fps,
    std::span<const Fingerprint> duplicate_test);
Buffer encode_routing_probe_request(const RoutingProbeRequest& req);
RoutingProbeRequest decode_routing_probe_request(ByteView body);

/// Response: the match count plus the node's stored bytes, so one
/// round-trip answers both the resemblance/match step and the
/// balance-discount usage step of a routing decision; plus one bit per
/// duplicate-test fingerprint (empty when none was asked), set when the
/// node already stores that chunk.
struct RoutingProbeReply {
  std::uint64_t matches = 0;
  std::uint64_t stored_bytes = 0;
  std::vector<bool> present;
};

Buffer encode_routing_probe_reply(const RoutingProbeReply& reply);
RoutingProbeReply decode_routing_probe_reply(ByteView body);

// ---- Batched super-chunk write -------------------------------------------

/// The store half of the batched duplicate-test + store operation: the
/// super-chunk's chunk records plus payload bytes for exactly the chunks
/// the duplicate test (fused into the routing probe, or a separate
/// kDuplicateTest) reported absent (sparse, by chunk index).
struct WriteRequest {
  StreamId stream = 0;
  std::vector<ChunkRecord> chunks;
  std::vector<std::pair<std::uint32_t, Buffer>> payloads;
};

Buffer encode_write_request(const WriteRequest& req);
WriteRequest decode_write_request(ByteView body);

Buffer encode_write_result(const SuperChunkWriteResult& result);
SuperChunkWriteResult decode_write_result(ByteView body);

// ---- Chunk read (restore path) -------------------------------------------

Buffer encode_read_request(const Fingerprint& fp);
Fingerprint decode_read_request(ByteView body);

Buffer encode_read_response(const std::optional<Buffer>& payload);
std::optional<Buffer> decode_read_response(ByteView body);

// ---- Fleet registry bodies (control plane, src/ctrl/) ---------------------

/// The registry's node map: every live daemon service endpoint with the
/// address of the daemon hosting it, sorted by endpoint id (so a client
/// wiring a Cluster from it gets a stable node order). `version` bumps on
/// every membership change — join, clean leave, lease expiry. `ttl_ms` is
/// the registry's lease TTL: a client pulls the view every ttl/3, the
/// cadence daemons heartbeat at.
struct FleetView {
  std::uint64_t version = 0;
  std::uint32_t ttl_ms = 0;
  std::vector<net::TcpNodeAddress> nodes;
};

Buffer encode_fleet_view(const FleetView& view);
FleetView decode_fleet_view(ByteView body);

/// kRegisterNode request: a daemon announces where it listens and which
/// endpoint range its node services occupy.
struct RegisterNodeRequest {
  std::string host;
  std::uint16_t port = 0;
  net::EndpointId first_endpoint = 0;
  std::uint32_t num_endpoints = 0;
};

Buffer encode_register_node_request(const RegisterNodeRequest& req);
RegisterNodeRequest decode_register_node_request(ByteView body);

/// Granted lease: the holder must heartbeat within `ttl_ms` or the
/// registry expires the lease and drops it from the fleet view.
struct LeaseGrant {
  std::uint64_t lease_id = 0;
  std::uint32_t ttl_ms = 0;
};

Buffer encode_lease_grant(const LeaseGrant& grant);
LeaseGrant decode_lease_grant(ByteView body);

// kRegistryHeartbeat / kRegistryLeave requests carry encode_u64(lease_id);
// their replies and kFleetFetch's request are empty bodies. kFleetFetch's
// reply is encode_fleet_view().

}  // namespace sigma::service
