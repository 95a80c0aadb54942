// In-process implementation of the scatter-gather probe plane: answers a
// probe round by calling the nodes' NodeProbe virtuals in turn, in the
// caller's thread. It is direct mode's probe plane and the reference the
// TCP identity tests compare ClientProbeSet against.
#pragma once

#include <span>

#include "node/node_probe.h"

namespace sigma {

class DirectProbeSet final : public ProbeSet {
 public:
  /// `nodes` must outlive the set. The span is referenced, not copied.
  explicit DirectProbeSet(std::span<const NodeProbe* const> nodes)
      : nodes_(nodes) {}

  std::size_t size() const override { return nodes_.size(); }

  ProbeRound gather(ProbeKind kind, std::span<const NodeId> candidates,
                    const std::vector<Fingerprint>& fps) const override;

 private:
  std::span<const NodeProbe* const> nodes_;
};

}  // namespace sigma
