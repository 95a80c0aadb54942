// The remote-probe surface of a deduplication node — the part of a node
// that data-routing schemes query before placing a routing unit (paper
// Algorithm 1 step 2 and the EMC stateful sampled probe).
//
// Routers program against ProbeSet instead of concrete nodes so the same
// routing code runs in both deployment modes. ProbeSet is the
// scatter-gather probe plane: one gather() issues every per-node query of
// a routing decision at once. The direct-call simulator answers it from
// in-process nodes (DirectProbeSet over NodeProbe, which DedupNode
// implements); the message-passing stack puts one fused kRoutingProbe
// RPC per candidate in flight together (service::ClientProbeSet), ~1
// round-trip per decision. Probe *message* accounting stays in the
// routing layer (RouteContext), so Fig. 7's metric is identical in both
// modes.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "chunking/super_chunk.h"

namespace sigma {

using NodeId = std::uint32_t;

class NodeProbe {
 public:
  virtual ~NodeProbe() = default;

  /// Algorithm 1 step 2: how many of these representative fingerprints are
  /// present in the node's similarity index?
  virtual std::size_t resemblance_count(const Handprint& handprint) const = 0;

  /// EMC-stateful probe: how many of these (sampled) chunk fingerprints
  /// does the node already store?
  virtual std::size_t chunk_match_count(
      const std::vector<Fingerprint>& fps) const = 0;

  /// Physical capacity used (for the load-balance discount).
  virtual std::uint64_t stored_bytes() const = 0;
};

/// Which per-node index a scatter-gather probe round queries.
enum class ProbeKind : std::uint8_t {
  kResemblance,  // handprint vs similarity index (Sigma, Algorithm 1)
  kChunkMatch,   // sampled fingerprints vs chunk index (EMC stateful)
};

/// Everything one routing decision learns from the fleet: per-candidate
/// match counts plus every node's storage usage (the balance-discount
/// input, Algorithm 1 step 3).
struct ProbeRound {
  /// Match counts, parallel to the `candidates` passed to gather().
  std::vector<std::size_t> matches;
  /// stored_bytes for every node in the cluster, indexed by NodeId.
  std::vector<std::uint64_t> usage;
};

/// Scatter-gather probe plane over a fleet of nodes. Implementations:
/// DirectProbeSet (in-process virtual calls in a plain loop) and
/// service::ClientProbeSet (all RPCs issued as pending
/// calls up front and drained together — one round-trip per decision over
/// TCP).
class ProbeSet {
 public:
  virtual ~ProbeSet() = default;

  /// Number of nodes behind this probe plane.
  virtual std::size_t size() const = 0;

  /// One scatter-gather round: ask each node in `candidates` for its
  /// match count against `fps` (`kind` selects the index) and every node
  /// for its stored bytes. Candidate ids must be < size(); throws
  /// std::out_of_range otherwise.
  virtual ProbeRound gather(ProbeKind kind,
                            std::span<const NodeId> candidates,
                            const std::vector<Fingerprint>& fps) const = 0;

 protected:
  /// Enforces the candidate-id precondition; implementations call this
  /// at the top of gather().
  void validate_candidates(std::span<const NodeId> candidates) const {
    for (NodeId c : candidates) {
      if (c >= size()) {
        throw std::out_of_range("ProbeSet: candidate node " +
                                std::to_string(c) + " >= cluster size " +
                                std::to_string(size()));
      }
    }
  }
};

}  // namespace sigma
