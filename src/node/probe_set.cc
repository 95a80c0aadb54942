#include "node/probe_set.h"

namespace sigma {

ProbeRound DirectProbeSet::gather(ProbeKind kind,
                                  std::span<const NodeId> candidates,
                                  const std::vector<Fingerprint>& fps) const {
  validate_candidates(candidates);
  ProbeRound round;
  round.usage.reserve(nodes_.size());
  for (const NodeProbe* node : nodes_) {
    round.usage.push_back(node->stored_bytes());
  }
  round.matches.reserve(candidates.size());
  for (NodeId c : candidates) {
    const NodeProbe& node = *nodes_[c];
    round.matches.push_back(kind == ProbeKind::kResemblance
                                ? node.resemblance_count(fps)
                                : node.chunk_match_count(fps));
  }
  return round;
}

}  // namespace sigma
