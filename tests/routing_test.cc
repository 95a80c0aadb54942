// Routing schemes: determinism, candidate selection, message accounting,
// similarity attraction (Sigma/Stateful), load-balance discounting.
#include <gtest/gtest.h>

#include <memory>

#include "common/hash_util.h"
#include "node/dedup_node.h"
#include "node/probe_set.h"
#include "routing/chunk_dht_router.h"
#include "routing/extreme_binning_router.h"
#include "routing/router.h"
#include "routing/sigma_router.h"
#include "routing/stateful_router.h"
#include "routing/stateless_router.h"

namespace sigma {
namespace {

ChunkRecord rec(std::uint64_t id, std::uint32_t size = 4096) {
  return {Fingerprint::from_uint64(mix64(id)), size};
}

std::vector<ChunkRecord> make_chunks(std::uint64_t first, std::size_t n) {
  std::vector<ChunkRecord> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(rec(first + i));
  return out;
}

class RoutingFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    DedupNodeConfig cfg;
    cfg.handprint_size = 8;
    for (NodeId i = 0; i < 8; ++i) {
      nodes_.push_back(std::make_unique<DedupNode>(i, cfg));
      views_.push_back(nodes_.back().get());
    }
  }

  SuperChunk write_to(NodeId node, std::uint64_t first, std::size_t n) {
    SuperChunk sc;
    sc.chunks = make_chunks(first, n);
    nodes_[node]->write_super_chunk(0, sc);
    return sc;
  }

  std::vector<std::unique_ptr<DedupNode>> nodes_;
  std::vector<const NodeProbe*> views_;
};

// --- Factory / names ---------------------------------------------------------

TEST(RouterFactoryTest, MakesEveryScheme) {
  RouterConfig cfg;
  EXPECT_EQ(make_router(RoutingScheme::kSigma, cfg)->name(), "Sigma-Dedupe");
  EXPECT_EQ(make_router(RoutingScheme::kStateless, cfg)->name(), "Stateless");
  EXPECT_EQ(make_router(RoutingScheme::kStateful, cfg)->name(), "Stateful");
  EXPECT_EQ(make_router(RoutingScheme::kExtremeBinning, cfg)->name(),
            "ExtremeBinning");
  EXPECT_EQ(make_router(RoutingScheme::kChunkDht, cfg)->name(), "ChunkDHT");
}

TEST(RouterFactoryTest, Granularities) {
  RouterConfig cfg;
  EXPECT_EQ(make_router(RoutingScheme::kSigma, cfg)->granularity(),
            RoutingGranularity::kSuperChunk);
  EXPECT_EQ(make_router(RoutingScheme::kExtremeBinning, cfg)->granularity(),
            RoutingGranularity::kFile);
  EXPECT_EQ(make_router(RoutingScheme::kChunkDht, cfg)->granularity(),
            RoutingGranularity::kChunk);
}

TEST(RouterFactoryTest, ToStringNames) {
  EXPECT_STREQ(to_string(RoutingScheme::kSigma), "Sigma-Dedupe");
  EXPECT_STREQ(to_string(RoutingScheme::kChunkDht), "ChunkDHT");
}

// --- Stateless ----------------------------------------------------------------

TEST_F(RoutingFixture, StatelessDeterministicAndMessageFree) {
  StatelessRouter router;
  RouteContext ctx;
  const auto unit = make_chunks(0, 64);
  const NodeId a = router.route(unit, views_, ctx);
  const NodeId b = router.route(unit, views_, ctx);
  EXPECT_EQ(a, b);
  EXPECT_EQ(ctx.pre_routing_messages, 0u);
}

TEST_F(RoutingFixture, StatelessMatchesMinFingerprintModN) {
  StatelessRouter router;
  RouteContext ctx;
  const auto unit = make_chunks(7, 64);
  const auto rep = compute_handprint(unit, 1).front();
  EXPECT_EQ(router.route(unit, views_, ctx),
            static_cast<NodeId>(rep.prefix64() % views_.size()));
}

// --- Sigma --------------------------------------------------------------------

TEST_F(RoutingFixture, SigmaRoutesIdenticalDataToSameNode) {
  SigmaRouter router{RouterConfig{}};
  RouteContext ctx;
  const auto unit = make_chunks(0, 64);
  const NodeId first = router.route(unit, views_, ctx);
  nodes_[first]->write_super_chunk(0, SuperChunk{unit});
  const NodeId second = router.route(unit, views_, ctx);
  EXPECT_EQ(first, second);
}

TEST_F(RoutingFixture, SigmaPreRoutingMessagesBounded) {
  RouterConfig cfg;
  cfg.handprint_size = 8;
  SigmaRouter router{cfg};
  RouteContext ctx;
  const auto unit = make_chunks(0, 256);
  router.route(unit, views_, ctx);
  // At most k candidates, each receiving k fingerprints.
  EXPECT_LE(ctx.pre_routing_messages, 64u);
  EXPECT_GT(ctx.pre_routing_messages, 0u);
}

TEST_F(RoutingFixture, SigmaTargetsAreCandidates) {
  RouterConfig cfg;
  cfg.handprint_size = 8;
  SigmaRouter router{cfg};
  RouteContext ctx;
  const auto unit = make_chunks(5000, 256);
  const Handprint hp = compute_handprint(unit, 8);
  std::vector<NodeId> candidates;
  for (const auto& rfp : hp) {
    candidates.push_back(static_cast<NodeId>(rfp.prefix64() % views_.size()));
  }
  const NodeId target = router.route(unit, views_, ctx);
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), target),
            candidates.end());
}

TEST_F(RoutingFixture, SigmaAttractsSimilarDataToResemblingNode) {
  RouterConfig cfg;
  cfg.handprint_size = 8;
  SigmaRouter router{cfg};

  // Store a super-chunk wherever Sigma puts it; then route a 90%-similar
  // super-chunk: it must go to the same node.
  auto unit = make_chunks(0, 256);
  RouteContext ctx;
  const NodeId home = router.route(unit, views_, ctx);
  nodes_[home]->write_super_chunk(0, SuperChunk{unit});

  auto similar = unit;
  for (std::size_t i = 0; i < 25; ++i) {
    similar[i * 10] = rec(900000 + i);  // ~10% changed
  }
  EXPECT_EQ(router.route(similar, views_, ctx), home);
}

TEST_F(RoutingFixture, SigmaBalancesWhenNoResemblance) {
  RouterConfig cfg;
  cfg.handprint_size = 8;
  SigmaRouter router{cfg};
  // Load node usage unevenly, then route fresh (dissimilar) data many
  // times: placements must not all land on the most loaded candidate.
  write_to(0, 1000000, 512);
  std::vector<std::uint64_t> placements(views_.size(), 0);
  for (int i = 0; i < 100; ++i) {
    RouteContext ctx;
    const auto unit = make_chunks(2000000 + i * 1000, 64);
    const NodeId t = router.route(unit, views_, ctx);
    SuperChunk sc;
    sc.chunks = unit;
    nodes_[t]->write_super_chunk(0, sc);
    ++placements[t];
  }
  // No single node absorbs everything.
  for (std::uint64_t p : placements) EXPECT_LT(p, 100u);
}

TEST(SigmaRouterTest, RejectsZeroHandprint) {
  RouterConfig cfg;
  cfg.handprint_size = 0;
  EXPECT_THROW(SigmaRouter{cfg}, std::invalid_argument);
}

TEST_F(RoutingFixture, SigmaEmptyUnitRoutesToZero) {
  SigmaRouter router{RouterConfig{}};
  RouteContext ctx;
  EXPECT_EQ(router.route({}, views_, ctx), 0u);
}

// --- Stateful -----------------------------------------------------------------

TEST_F(RoutingFixture, StatefulProbesAllNodes) {
  RouterConfig cfg;
  cfg.stateful_sampling = 1.0 / 32;
  StatefulRouter router{cfg};
  RouteContext ctx;
  const auto unit = make_chunks(0, 256);
  router.route(unit, views_, ctx);
  // ceil(256/32) = 8 sampled fps to each of 8 nodes.
  EXPECT_EQ(ctx.pre_routing_messages, 64u);
}

TEST_F(RoutingFixture, StatefulFindsNodeWithMatchingChunks) {
  const SuperChunk stored = write_to(5, 0, 256);
  RouterConfig cfg;
  cfg.stateful_sampling = 1.0;  // probe with every fingerprint
  StatefulRouter router{cfg};
  RouteContext ctx;
  EXPECT_EQ(router.route(stored.chunks, views_, ctx), 5u);
}

TEST(StatefulRouterTest, RejectsBadSampling) {
  RouterConfig cfg;
  cfg.stateful_sampling = 0.0;
  EXPECT_THROW(StatefulRouter{cfg}, std::invalid_argument);
  cfg.stateful_sampling = 1.5;
  EXPECT_THROW(StatefulRouter{cfg}, std::invalid_argument);
}

// --- Extreme Binning ----------------------------------------------------------

TEST_F(RoutingFixture, ExtremeBinningRoutesByFileMinFingerprint) {
  ExtremeBinningRouter router;
  RouteContext ctx;
  const auto file = make_chunks(31, 100);
  const auto rep = ExtremeBinningRouter::representative(file);
  EXPECT_EQ(router.route(file, views_, ctx),
            static_cast<NodeId>(rep.prefix64() % views_.size()));
  EXPECT_EQ(ctx.pre_routing_messages, 0u);
}

TEST(ExtremeBinningTest, RepresentativeIsMinimum) {
  std::vector<ChunkRecord> file;
  for (std::uint64_t i = 0; i < 50; ++i) file.push_back(rec(i));
  const auto rep = ExtremeBinningRouter::representative(file);
  for (const auto& c : file) EXPECT_LE(rep, c.fp);
}

TEST(ExtremeBinningTest, RepresentativeOfEmptyThrows) {
  EXPECT_THROW(ExtremeBinningRouter::representative({}),
               std::invalid_argument);
}

TEST_F(RoutingFixture, ExtremeBinningSimilarFilesColocate) {
  ExtremeBinningRouter router;
  RouteContext ctx;
  auto v1 = make_chunks(0, 100);
  auto v2 = v1;
  v2[50] = rec(777777);  // small edit, min fingerprint likely unchanged
  const NodeId a = router.route(v1, views_, ctx);
  const NodeId b = router.route(v2, views_, ctx);
  EXPECT_EQ(a, b);
}

// --- Chunk DHT ----------------------------------------------------------------

TEST_F(RoutingFixture, ChunkDhtPlacesByFingerprint) {
  ChunkDhtRouter router;
  RouteContext ctx;
  for (std::uint64_t i = 0; i < 100; ++i) {
    const auto chunk = rec(i);
    EXPECT_EQ(router.route({chunk}, views_, ctx),
              static_cast<NodeId>(chunk.fp.prefix64() % views_.size()));
  }
  EXPECT_EQ(ctx.pre_routing_messages, 0u);
}

TEST_F(RoutingFixture, ChunkDhtSpreadsChunksAcrossNodes) {
  ChunkDhtRouter router;
  RouteContext ctx;
  std::vector<int> hits(views_.size(), 0);
  for (std::uint64_t i = 0; i < 4000; ++i) {
    ++hits[router.route({rec(i)}, views_, ctx)];
  }
  for (int h : hits) {
    EXPECT_GT(h, 4000 / 16);  // roughly uniform
  }
}

// --- Discount helper ----------------------------------------------------------

TEST(DiscountTest, HigherUsageLowersScore) {
  const double busy =
      routing_detail::discounted_score(4, 2000, 1000.0, 1);
  const double idle = routing_detail::discounted_score(4, 500, 1000.0, 1);
  EXPECT_GT(idle, busy);
}

TEST(DiscountTest, HigherResemblanceRaisesScore) {
  const double low = routing_detail::discounted_score(1, 1000, 1000.0, 1);
  const double high = routing_detail::discounted_score(7, 1000, 1000.0, 1);
  EXPECT_GT(high, low);
}

TEST(DiscountTest, ZeroResemblanceScoresZero) {
  // Fresh data resembles nothing anywhere: all candidates score equal (0)
  // and the routers' least-loaded tie-break decides.
  EXPECT_DOUBLE_EQ(routing_detail::discounted_score(0, 0, 0.0, 1), 0.0);
  EXPECT_DOUBLE_EQ(routing_detail::discounted_score(0, 500, 1000.0, 1), 0.0);
}

TEST(DiscountTest, EmptyClusterKeepsRawResemblance) {
  EXPECT_DOUBLE_EQ(routing_detail::discounted_score(5, 0, 0.0, 1), 5.0);
}

TEST(DiscountTest, DiscountIsBounded) {
  // An empty node at most doubles a resemblance score; overload discounts
  // smoothly — the signal can never be drowned by the balance term.
  const double empty = routing_detail::discounted_score(4, 0, 1000.0, 1);
  const double balanced = routing_detail::discounted_score(4, 1000, 1000.0, 1);
  EXPECT_DOUBLE_EQ(empty, 8.0);
  EXPECT_DOUBLE_EQ(balanced, 4.0);
  // 2 matches on an empty node do not beat 8 on a node at 2x average:
  // 8/(1.5) = 5.33 vs 2/(0.5) = 4.
  const double strong_loaded =
      routing_detail::discounted_score(8, 2000, 1000.0, 1);
  const double weak_empty = routing_detail::discounted_score(2, 0, 1000.0, 1);
  EXPECT_GT(strong_loaded, weak_empty);
}

// --- Scatter-gather probe plane ----------------------------------------------

TEST_F(RoutingFixture, GatherAnswersMatchPerNodeProbes) {
  // One scatter-gather round returns exactly what the per-node virtuals
  // return, for both probe kinds and for every node's usage.
  write_to(2, 100, 64);
  write_to(5, 900, 64);

  const auto unit = make_chunks(100, 64);
  const Handprint hp = compute_handprint(unit, 8);
  const std::vector<NodeId> candidates{1, 2, 5};

  DirectProbeSet probes(views_);
  const ProbeRound res =
      probes.gather(ProbeKind::kResemblance, candidates, hp);
  ASSERT_EQ(res.matches.size(), candidates.size());
  ASSERT_EQ(res.usage.size(), views_.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(res.matches[i],
              views_[candidates[i]]->resemblance_count(hp));
  }
  for (std::size_t i = 0; i < views_.size(); ++i) {
    EXPECT_EQ(res.usage[i], views_[i]->stored_bytes());
  }

  std::vector<Fingerprint> fps;
  for (const auto& c : unit) fps.push_back(c.fp);
  const ProbeRound chunk_res =
      probes.gather(ProbeKind::kChunkMatch, candidates, fps);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(chunk_res.matches[i],
              views_[candidates[i]]->chunk_match_count(fps));
  }
}

TEST_F(RoutingFixture, GatherRejectsOutOfRangeCandidate) {
  DirectProbeSet probes(views_);
  const std::vector<NodeId> bad{0, static_cast<NodeId>(views_.size())};
  EXPECT_THROW(probes.gather(ProbeKind::kResemblance, bad, {}),
               std::out_of_range);
}

// --- No-node error paths ------------------------------------------------------

TEST(RouterErrorTest, EmptyClusterThrows) {
  std::vector<const NodeProbe*> empty;
  RouteContext ctx;
  const std::vector<ChunkRecord> unit{rec(1)};
  EXPECT_THROW(SigmaRouter{RouterConfig{}}.route(unit, empty, ctx),
               std::invalid_argument);
  EXPECT_THROW(StatelessRouter{}.route(unit, empty, ctx),
               std::invalid_argument);
  EXPECT_THROW(StatefulRouter{RouterConfig{}}.route(unit, empty, ctx),
               std::invalid_argument);
  EXPECT_THROW(ExtremeBinningRouter{}.route(unit, empty, ctx),
               std::invalid_argument);
  EXPECT_THROW(ChunkDhtRouter{}.route(unit, empty, ctx),
               std::invalid_argument);
}

// --- Parameterized: all schemes return valid node ids on all cluster sizes ----

class AllSchemesSweep
    : public ::testing::TestWithParam<std::tuple<RoutingScheme, std::size_t>> {
};

TEST_P(AllSchemesSweep, TargetsAlwaysInRange) {
  const auto [scheme, n] = GetParam();
  DedupNodeConfig node_cfg;
  std::vector<std::unique_ptr<DedupNode>> nodes;
  std::vector<const NodeProbe*> views;
  for (NodeId i = 0; i < n; ++i) {
    nodes.push_back(std::make_unique<DedupNode>(i, node_cfg));
    views.push_back(nodes.back().get());
  }
  auto router = make_router(scheme, RouterConfig{});
  RouteContext ctx;
  for (std::uint64_t s = 0; s < 20; ++s) {
    const auto unit = make_chunks(s * 1000, 64);
    const NodeId t = router->route(unit, views, ctx);
    EXPECT_LT(t, n);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SchemesTimesSizes, AllSchemesSweep,
    ::testing::Combine(::testing::Values(RoutingScheme::kSigma,
                                         RoutingScheme::kStateless,
                                         RoutingScheme::kStateful,
                                         RoutingScheme::kExtremeBinning,
                                         RoutingScheme::kChunkDht),
                       ::testing::Values<std::size_t>(1, 2, 13, 64)));

}  // namespace
}  // namespace sigma
