// Client-side stub for one remote deduplication node: the fused routing
// probe that ClientProbeSet scatters across the fleet (so every routing
// scheme runs unmodified against remote nodes), plus the write, read and
// flush operations the cluster and backup client need.
//
// Writes are the pipelining primitive: `write_super_chunk_async` ships
// payloads only for the chunks the node's duplicate-test bitmap reports
// absent (payload mode only, so duplicate bytes never cross the wire —
// the essence of source deduplication) and returns a PendingCall for the
// store, letting the caller keep several super-chunks in flight per its
// pipeline depth. The bitmap normally arrives with the routing probe;
// schemes that send no probe get it from a separate duplicate test.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/rpc.h"
#include "node/dedup_node.h"
#include "node/node_probe.h"
#include "obs/metrics.h"

namespace sigma::service {

class NodeClient {
 public:
  /// `rpc` is the shared client endpoint, `service` the node's transport
  /// address. Both must outlive the stub.
  NodeClient(net::RpcEndpoint& rpc, net::EndpointId service,
             std::chrono::milliseconds timeout);

  // ---- Probe plane -------------------------------------------------------

  std::uint64_t stored_bytes() const;

  /// Async stored-bytes probe (decode the result with decode_u64) — lets
  /// a fleet-wide usage snapshot cost one round-trip, not one per node.
  net::PendingCall stored_bytes_async() const;

  /// Async fused routing probe: match count against the chosen index plus
  /// the node's stored bytes in one message, and the duplicate-test
  /// bitmap over `duplicate_test` when it is non-empty (decode the result
  /// with decode_routing_probe_reply). The scatter-gather primitive of
  /// the probe plane — ClientProbeSet issues one per candidate and drains
  /// them together.
  net::PendingCall routing_probe_async(
      ProbeKind kind, const std::vector<Fingerprint>& fps,
      std::span<const Fingerprint> duplicate_test = {}) const;

  // ---- Backup path ------------------------------------------------------

  /// Batched duplicate test: which of these chunks does the node hold
  /// (in bin `bin`, when set)?
  std::vector<bool> test_duplicates(
      const std::vector<Fingerprint>& fps,
      std::optional<std::uint64_t> bin = std::nullopt) const;

  /// Route one super-chunk write to the node. With payloads, ships bytes
  /// only for the chunks `present` (the node's duplicate-test bitmap from
  /// the fused routing probe, one bit per chunk) reports absent; without
  /// a bitmap it first runs a separate duplicate test (scoped to `bin`,
  /// Extreme Binning's bin key, when set). Returns the in-flight store
  /// call; get()/wait_all() yields the encoded SuperChunkWriteResult (see
  /// decode_write_result).
  net::PendingCall write_super_chunk_async(
      StreamId stream, const SuperChunk& super_chunk,
      const DedupNode::PayloadProvider& payloads = {},
      const std::optional<std::vector<bool>>& present = std::nullopt,
      std::optional<std::uint64_t> bin = std::nullopt) const;

  /// Synchronous write (duplicate test + store + wait).
  SuperChunkWriteResult write_super_chunk(
      StreamId stream, const SuperChunk& super_chunk,
      const DedupNode::PayloadProvider& payloads = {}) const;

  // ---- Restore / lifecycle ---------------------------------------------

  std::optional<Buffer> read_chunk(const Fingerprint& fp) const;

  /// Async chunk read (decode the result with decode_read_response) — the
  /// restore path keeps a recipe window of these in flight at once.
  net::PendingCall read_chunk_async(const Fingerprint& fp) const;

  net::PendingCall flush_async() const;
  void flush() const;

  /// The hosting process's metrics snapshot (kStatsSnapshot).
  obs::MetricsSnapshot stats_snapshot() const;

  net::EndpointId service_endpoint() const { return service_; }

 private:
  net::RpcEndpoint& rpc_;
  net::EndpointId service_;
  std::chrono::milliseconds timeout_;
};

}  // namespace sigma::service
