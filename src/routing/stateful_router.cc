#include "routing/stateful_router.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace sigma {

StatefulRouter::StatefulRouter(const RouterConfig& config) : config_(config) {
  if (config_.stateful_sampling <= 0.0 || config_.stateful_sampling > 1.0) {
    throw std::invalid_argument(
        "StatefulRouter: sampling rate must be in (0, 1]");
  }
}

NodeId StatefulRouter::route(const std::vector<ChunkRecord>& unit,
                             const ProbeSet& probes, RouteContext& ctx) {
  if (probes.size() == 0) {
    throw std::invalid_argument("StatefulRouter: no nodes");
  }
  if (unit.empty()) return 0;

  // Deterministic sample: the m smallest fingerprints, m = ceil(n * rate).
  // (Sampling by fingerprint order keeps the probe content-addressed, so
  // identical super-chunks always probe with identical samples.)
  const std::size_t sample_size = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(static_cast<double>(unit.size()) *
                       config_.stateful_sampling)));
  const Handprint sample = compute_handprint(unit, sample_size);
  std::vector<Fingerprint> sample_fps(sample.begin(), sample.end());

  // 1-to-all probe: every node receives the whole sample.
  ctx.pre_routing_messages += sample_fps.size() * probes.size();

  // The whole 1-to-all round goes out as one scatter-gather batch.
  if (all_nodes_.size() != probes.size()) {
    all_nodes_.resize(probes.size());
    std::iota(all_nodes_.begin(), all_nodes_.end(), NodeId{0});
  }
  const ProbeRound round = probes.gather(ProbeKind::kChunkMatch, all_nodes_,
                                        sample_fps, ctx.duplicate_test);

  const double avg = routing_detail::average_usage(round.usage);
  NodeId best = 0;
  double best_score = -1.0;
  std::uint64_t best_usage = 0;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const std::size_t matches = round.matches[i];
    const std::uint64_t usage = round.usage[i];
    const double score = routing_detail::discounted_score(
        matches, usage, avg, config_.balance_epsilon_bytes);
    if (score > best_score ||
        (score == best_score && usage < best_usage)) {
      best_score = score;
      best_usage = usage;
      best = static_cast<NodeId>(i);
    }
  }
  if (!round.present.empty()) ctx.present = round.present[best];
  return best;
}

}  // namespace sigma
