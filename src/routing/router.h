// Data-routing schemes (paper Sections 2.1 and 3.2). A router picks the
// deduplication node for each routing unit. Units differ per scheme:
// super-chunks (Sigma-Dedupe, EMC stateless/stateful), whole files
// (Extreme Binning) or single chunks (HYDRAstor-style chunk DHT).
//
// Message accounting: routers report the number of *pre-routing*
// fingerprint-lookup messages they send (one message = one fingerprint
// looked up at one node), the unit of the paper's Fig. 7 overhead metric.
// After-routing lookups (the batched per-chunk duplicate test at the
// target) are counted by the cluster layer.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "chunking/super_chunk.h"
#include "node/node_probe.h"

namespace sigma {

/// What a scheme routes as one unit.
enum class RoutingGranularity { kChunk, kSuperChunk, kFile };

/// Per-call accounting and the fused duplicate test.
struct RouteContext {
  /// In: the unit's chunk fingerprints when the caller wants the
  /// duplicate test to ride the probe round (payload mode over a
  /// transport); empty = no test.
  std::vector<Fingerprint> duplicate_test;
  /// Out: Fig. 7 pre-routing lookups.
  std::uint64_t pre_routing_messages = 0;
  /// Out: which of `duplicate_test` the chosen node already stores. Set
  /// only by a scheme whose probe round reached the chosen node with the
  /// test; otherwise the write runs its own duplicate test.
  std::optional<std::vector<bool>> present;
};

/// Abstract data-routing scheme.
class Router {
 public:
  virtual ~Router() = default;

  virtual std::string name() const = 0;
  virtual RoutingGranularity granularity() const = 0;

  /// Select the target node for `unit` (its chunk records, in stream
  /// order). `probes` is the cluster's scatter-gather probe plane;
  /// stateful schemes issue their whole probe round through one
  /// ProbeSet::gather() call — handing it ctx.duplicate_test and the
  /// chosen node's answer back in ctx.present — and must account probe
  /// messages in `ctx`.
  virtual NodeId route(const std::vector<ChunkRecord>& unit,
                       const ProbeSet& probes, RouteContext& ctx) = 0;

  /// Convenience adapter: route against bare per-node probe views through
  /// an in-thread DirectProbeSet (tests, tools, one-off callers).
  NodeId route(const std::vector<ChunkRecord>& unit,
               std::span<const NodeProbe* const> nodes, RouteContext& ctx);
};

/// All schemes compared in the paper's evaluation.
enum class RoutingScheme {
  kSigma,           // this paper: handprint-based local stateful routing
  kStateless,       // EMC super-chunk stateless (DHT on one rep fingerprint)
  kStateful,        // EMC super-chunk stateful (1-to-all sampled probes)
  kExtremeBinning,  // file-level min-fingerprint bins
  kChunkDht         // HYDRAstor-style per-chunk DHT
};

const char* to_string(RoutingScheme scheme);

struct RouterConfig {
  std::size_t handprint_size = 8;    // Sigma: k
  double stateful_sampling = 1.0 / 32;  // Stateful: probe sample rate
  std::uint64_t balance_epsilon_bytes = 1;  // usage smoothing for discounts
  /// Disable to ablate Algorithm 1 step 3 (no storage-usage discount —
  /// pure resemblance argmax). Used by bench_ablation_balance.
  bool balance_discount = true;
};

std::unique_ptr<Router> make_router(RoutingScheme scheme,
                                    const RouterConfig& config);

namespace routing_detail {

/// usage-discount weight shared by the stateful schemes: divides a
/// resemblance count by the node's storage usage relative to the cluster
/// average (Algorithm 1 step 3). Returns the adjusted score.
double discounted_score(std::size_t resemblance, std::uint64_t node_usage,
                        double average_usage, std::uint64_t epsilon);

/// Cluster-average stored bytes over a probe round's usage vector.
double average_usage(std::span<const std::uint64_t> usage);

}  // namespace routing_detail

}  // namespace sigma
