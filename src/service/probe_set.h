// Transport-backed implementation of the scatter-gather probe plane, and
// the only one TCP mode uses: a probe round against N nodes is
// issued as pending RPCs all at once — one fused routing probe per
// candidate, one stored-bytes call per remaining node — and drained
// together. The fused probe answers the match count and the stored bytes
// and, in payload mode, the duplicate test over the whole routing unit,
// so the winner's bitmap is in hand when the decision is made and the
// write needs no further round trip. The round completes in roughly one
// network round-trip regardless of the candidate count; over TCP the
// transport's in-flight request tracking fails the whole round fast if a
// daemon dies.
#pragma once

#include <chrono>
#include <span>
#include <vector>

#include "node/node_probe.h"
#include "service/node_client.h"

namespace sigma::service {

class ClientProbeSet final : public ProbeSet {
 public:
  /// `clients[i]` is the stub for cluster node i; stubs must outlive the
  /// set. `timeout` bounds one whole probe round.
  ClientProbeSet(std::vector<const NodeClient*> clients,
                 std::chrono::milliseconds timeout)
      : clients_(std::move(clients)), timeout_(timeout) {}

  std::size_t size() const override { return clients_.size(); }

  /// Throws net::RpcError if a candidate's bitmap does not hold one bit
  /// per `duplicate_test` fingerprint.
  ProbeRound gather(ProbeKind kind, std::span<const NodeId> candidates,
                    const std::vector<Fingerprint>& fps,
                    std::span<const Fingerprint> duplicate_test)
      const override;

 private:
  std::vector<const NodeClient*> clients_;
  std::chrono::milliseconds timeout_;
};

}  // namespace sigma::service
