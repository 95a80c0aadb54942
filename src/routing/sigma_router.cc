#include "routing/sigma_router.h"

#include <algorithm>
#include <stdexcept>

namespace sigma {

SigmaRouter::SigmaRouter(const RouterConfig& config) : config_(config) {
  if (config_.handprint_size == 0) {
    throw std::invalid_argument("SigmaRouter: handprint size must be > 0");
  }
}

NodeId SigmaRouter::route(const std::vector<ChunkRecord>& unit,
                          const ProbeSet& probes, RouteContext& ctx) {
  if (probes.size() == 0) throw std::invalid_argument("SigmaRouter: no nodes");
  if (unit.empty()) return 0;

  const Handprint handprint = compute_handprint(unit, config_.handprint_size);
  const std::size_t n = probes.size();

  // Candidate set: one node per representative fingerprint, deduplicated.
  std::vector<NodeId> candidates;
  candidates.reserve(handprint.size());
  for (const auto& rfp : handprint) {
    candidates.push_back(static_cast<NodeId>(rfp.prefix64() % n));
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  // Each candidate receives the whole handprint: k lookups per candidate.
  ctx.pre_routing_messages += handprint.size() * candidates.size();

  // Algorithm 1 step 2 as one scatter-gather round: every candidate's
  // resemblance count and every node's usage, all in flight together.
  const ProbeRound round = probes.gather(ProbeKind::kResemblance, candidates,
                                        handprint, ctx.duplicate_test);

  // Step 3+4: discounted-resemblance argmax; ties (notably the all-zero
  // resemblance case for fresh data) break toward the least-loaded
  // candidate, which yields balanced placement of new data.
  const double avg = routing_detail::average_usage(round.usage);
  std::size_t best_i = 0;
  double best_score = -1.0;
  std::uint64_t best_usage = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const NodeId cand = candidates[i];
    const std::size_t r = round.matches[i];
    const std::uint64_t usage = round.usage[cand];
    const double score =
        config_.balance_discount
            ? routing_detail::discounted_score(
                  r, usage, avg, config_.balance_epsilon_bytes)
            : static_cast<double>(r);
    // Ties break toward the least-loaded candidate — unless the balance
    // ablation is on, in which case candidate order decides.
    if (score > best_score ||
        (config_.balance_discount && score == best_score &&
         usage < best_usage)) {
      best_score = score;
      best_usage = usage;
      best_i = i;
    }
  }
  if (!round.present.empty()) ctx.present = round.present[best_i];
  return candidates[best_i];
}

}  // namespace sigma
