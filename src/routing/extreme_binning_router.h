// Extreme Binning [Bhagwat et al., MASCOTS'09]: file-granularity stateless
// routing. Each file's representative fingerprint (its minimum chunk
// fingerprint) selects the node — and, inside the node, the *bin* the file
// deduplicates against. Routing itself sends no pre-routing messages; the
// weaknesses the paper measures are cross-bin redundancy and the data skew
// induced by skewed file-size distributions (Fig. 8, VM dataset).
//
// The bin-level (approximate) intra-node deduplication happens on the
// node: the cluster writes each file with its representative fingerprint
// as the bin key, and DedupNode dedups the file against that bin only.
// This router only places files.
#pragma once

#include "routing/router.h"

namespace sigma {

class ExtremeBinningRouter final : public Router {
 public:
  std::string name() const override { return "ExtremeBinning"; }
  RoutingGranularity granularity() const override {
    return RoutingGranularity::kFile;
  }

  using Router::route;
  NodeId route(const std::vector<ChunkRecord>& unit, const ProbeSet& probes,
               RouteContext& ctx) override;

  /// The representative fingerprint Extreme Binning keys bins with.
  static Fingerprint representative(const std::vector<ChunkRecord>& file);
};

}  // namespace sigma
