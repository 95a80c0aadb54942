// HYDRAstor-style chunk-level DHT routing [Dubnicki et al., FAST'09]:
// every chunk is placed by `fingerprint mod N`. Duplicate elimination is
// then perfect *globally* for identical chunks (the same fingerprint always
// lands on the same node), but locality is destroyed — consecutive chunks
// scatter across the cluster — which is why HYDRAstor needs very large
// chunks (64 KB) to stay efficient (paper Section 2.1, Table 1). The
// cluster routes every chunk on its own (Cluster::place_stream) and
// batches the chunks bound for one node into writes.
#pragma once

#include "routing/router.h"

namespace sigma {

class ChunkDhtRouter final : public Router {
 public:
  std::string name() const override { return "ChunkDHT"; }
  RoutingGranularity granularity() const override {
    return RoutingGranularity::kChunk;
  }

  using Router::route;
  NodeId route(const std::vector<ChunkRecord>& unit, const ProbeSet& probes,
               RouteContext& ctx) override;
};

}  // namespace sigma
