#include "service/probe_set.h"

#include "net/rpc.h"
#include "obs/trace.h"
#include "service/wire_protocol.h"

namespace sigma::service {

ProbeRound ClientProbeSet::gather(
    ProbeKind kind, std::span<const NodeId> candidates,
    const std::vector<Fingerprint>& fps,
    std::span<const Fingerprint> duplicate_test) const {
  // Child of the routing-decision span; the per-node probe RPC spans
  // issued below nest under it in turn.
  obs::SpanScope span("probe.gather");
  const std::size_t n = clients_.size();
  validate_candidates(candidates);

  // Scatter: every query of the round leaves as a pending call before any
  // response is awaited. Candidates get the fused probe; the other nodes
  // contribute only their usage to the balance discount.
  std::vector<char> is_candidate(n, 0);
  for (NodeId c : candidates) is_candidate[c] = 1;
  std::vector<net::PendingCall> calls;
  calls.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    calls.push_back(
        is_candidate[i]
            ? clients_[i]->routing_probe_async(kind, fps, duplicate_test)
            : clients_[i]->stored_bytes_async());
  }

  // Gather: one drain for the whole round (first failure rethrows after
  // every service has answered).
  const std::vector<Buffer> bodies =
      net::RpcEndpoint::wait_all(calls, timeout_);

  ProbeRound round;
  round.usage.resize(n, 0);
  std::vector<std::size_t> matches_by_node(n, 0);
  std::vector<std::vector<bool>> present_by_node(n);
  for (std::size_t i = 0; i < n; ++i) {
    const ByteView body{bodies[i].data(), bodies[i].size()};
    if (is_candidate[i]) {
      RoutingProbeReply reply = decode_routing_probe_reply(body);
      if (reply.present.size() != duplicate_test.size()) {
        throw net::RpcError("routing probe: bitmap size " +
                            std::to_string(reply.present.size()) +
                            " != queried " +
                            std::to_string(duplicate_test.size()));
      }
      matches_by_node[i] = static_cast<std::size_t>(reply.matches);
      round.usage[i] = reply.stored_bytes;
      present_by_node[i] = std::move(reply.present);
    } else {
      round.usage[i] = decode_u64(body);
    }
  }
  round.matches.reserve(candidates.size());
  for (NodeId c : candidates) round.matches.push_back(matches_by_node[c]);
  if (!duplicate_test.empty()) {
    round.present.reserve(candidates.size());
    for (NodeId c : candidates) round.present.push_back(present_by_node[c]);
  }
  return round;
}

}  // namespace sigma::service
