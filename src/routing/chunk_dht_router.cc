#include "routing/chunk_dht_router.h"

#include <stdexcept>

namespace sigma {

NodeId ChunkDhtRouter::route(const std::vector<ChunkRecord>& unit,
                             const ProbeSet& probes, RouteContext& ctx) {
  (void)ctx;  // DHT placement: no pre-routing messages, no probe round
  if (probes.size() == 0) {
    throw std::invalid_argument("ChunkDhtRouter: no nodes");
  }
  if (unit.empty()) return 0;
  // Units are single chunks: Cluster::place_stream routes every chunk on
  // its own, trace and payload backups alike. A multi-chunk unit would be
  // placed by its first chunk.
  return static_cast<NodeId>(unit.front().fp.prefix64() % probes.size());
}

}  // namespace sigma
