// Public middleware facade: configuration plumbing, backup/restore through
// the full stack, cluster report access.
#include <gtest/gtest.h>

#include "common/random.h"
#include "core/sigma_dedupe.h"
#include "server/node_server.h"

namespace sigma {
namespace {

Buffer random_data(std::size_t n, std::uint64_t seed) {
  Buffer out;
  out.reserve(n);
  Rng rng(seed);
  while (out.size() < n) {
    const std::uint64_t v = rng.next();
    for (int i = 0; i < 8 && out.size() < n; ++i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  return out;
}

TEST(MiddlewareTest, BackupAndRestore) {
  MiddlewareConfig cfg;
  cfg.num_nodes = 4;
  SigmaDedupe dedupe(cfg);
  std::vector<ContentFile> files{
      {"etc/passwd", random_data(30000, 1)},
      {"var/log/syslog", random_data(90000, 2)},
  };
  const auto summary = dedupe.backup("monday", files);
  EXPECT_EQ(summary.logical_bytes, 120000u);
  EXPECT_EQ(dedupe.restore("monday", "etc/passwd"), files[0].data);
  EXPECT_EQ(dedupe.restore("monday", "var/log/syslog"), files[1].data);
}

TEST(MiddlewareTest, IncrementalSessionsDeduplicate) {
  MiddlewareConfig cfg;
  cfg.num_nodes = 4;
  SigmaDedupe dedupe(cfg);
  std::vector<ContentFile> files{{"data.bin", random_data(200000, 3)}};
  dedupe.backup("day1", files);
  const auto s2 = dedupe.backup("day2", files);
  EXPECT_EQ(s2.transferred_bytes, 0u);
  const auto report = dedupe.report();
  EXPECT_NEAR(report.dedup_ratio(), 2.0, 0.05);
}

TEST(MiddlewareTest, ReportExposesNodeUsage) {
  MiddlewareConfig cfg;
  cfg.num_nodes = 3;
  SigmaDedupe dedupe(cfg);
  dedupe.backup("s", {{"f", random_data(500000, 4)}});
  const auto report = dedupe.report();
  EXPECT_EQ(report.node_usage.size(), 3u);
  EXPECT_EQ(report.physical_bytes, 500000u);
  EXPECT_GT(report.messages.after_routing, 0u);
}

TEST(MiddlewareTest, DirectorTracksSessions) {
  MiddlewareConfig cfg;
  SigmaDedupe dedupe(cfg);
  dedupe.backup("a", {{"f1", random_data(10000, 5)}});
  dedupe.backup("b", {{"f2", random_data(10000, 6)}});
  EXPECT_EQ(dedupe.director().session_count(), 2u);
}

TEST(MiddlewareTest, FlushSealsContainers) {
  MiddlewareConfig cfg;
  cfg.num_nodes = 2;
  SigmaDedupe dedupe(cfg);
  dedupe.backup("s", {{"f", random_data(50000, 7)}});
  dedupe.flush();
  for (std::size_t i = 0; i < dedupe.cluster().size(); ++i) {
    EXPECT_EQ(
        dedupe.cluster().node(i).container_store().open_container_count(),
        0u);
  }
}

TEST(MiddlewareTest, AllConfigurableKnobsAccepted) {
  MiddlewareConfig cfg;
  cfg.num_nodes = 5;
  cfg.routing = RoutingScheme::kStateful;
  cfg.client.chunking = ChunkingScheme::kCdc;
  cfg.client.chunk_bytes = 8192;
  cfg.client.hash = HashAlgorithm::kMd5;
  cfg.client.super_chunk_bytes = 256 * 1024;
  cfg.router.handprint_size = 16;
  cfg.node.cache_capacity_containers = 32;
  SigmaDedupe dedupe(cfg);
  const auto data = random_data(300000, 8);
  dedupe.backup("s", {{"f", data}});
  EXPECT_EQ(dedupe.restore("s", "f"), data);
  EXPECT_EQ(dedupe.config().num_nodes, 5u);
}

// --- Middleware over TCP ---------------------------------------------------

TEST(MiddlewareTransportTest, TransportMatchesDirectExactly) {
  // The payload-path acceptance seam: the same sessions through the
  // direct-call path and over TCP to a 4-node in-process daemon must yield
  // identical dedup ratios, node usage and message counts — and identical
  // restores.
  auto make_sessions = [] {
    std::vector<std::vector<ContentFile>> sessions;
    sessions.push_back({{"a.bin", random_data(400000, 11)},
                        {"b.bin", random_data(200000, 12)}});
    auto day2 = sessions[0];
    day2[0].data.resize(420000);  // grow one file, keep shared prefix
    for (std::size_t i = 400000; i < 420000; ++i) {
      day2[0].data[i] = static_cast<std::uint8_t>(i);
    }
    sessions.push_back(day2);
    return sessions;
  };

  MiddlewareConfig direct_cfg;
  direct_cfg.num_nodes = 4;
  SigmaDedupe direct(direct_cfg);

  server::NodeServerConfig server_cfg;
  server_cfg.num_nodes = 4;
  server::NodeServer server(server_cfg);
  MiddlewareConfig transport_cfg = direct_cfg;
  transport_cfg.transport.mode = TransportMode::kTcp;
  transport_cfg.transport.tcp_nodes = server.node_map();
  SigmaDedupe transported(transport_cfg);

  const auto sessions = make_sessions();
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    const std::string name = "day" + std::to_string(s);
    const auto ds = direct.backup(name, sessions[s]);
    const auto ts = transported.backup(name, sessions[s]);
    EXPECT_EQ(ds.logical_bytes, ts.logical_bytes);
    EXPECT_EQ(ds.transferred_bytes, ts.transferred_bytes);
    EXPECT_EQ(ds.chunk_count, ts.chunk_count);
    EXPECT_EQ(ds.super_chunk_count, ts.super_chunk_count);
  }

  const auto dr = direct.report();
  const auto tr = transported.report();
  EXPECT_EQ(dr.logical_bytes, tr.logical_bytes);
  EXPECT_EQ(dr.physical_bytes, tr.physical_bytes);
  EXPECT_EQ(dr.node_usage, tr.node_usage);
  EXPECT_EQ(dr.messages.pre_routing, tr.messages.pre_routing);
  EXPECT_EQ(dr.messages.after_routing, tr.messages.after_routing);
  EXPECT_DOUBLE_EQ(dr.dedup_ratio(), tr.dedup_ratio());

  EXPECT_EQ(direct.restore("day1", "a.bin"), transported.restore("day1", "a.bin"));
}

TEST(MiddlewareTest, MultipleStreamsSupported) {
  MiddlewareConfig cfg;
  cfg.num_nodes = 2;
  SigmaDedupe dedupe(cfg);
  const auto d1 = random_data(40000, 9);
  const auto d2 = random_data(40000, 10);
  dedupe.backup("s", {{"f1", d1}}, /*stream=*/0);
  dedupe.backup("s", {{"f2", d2}}, /*stream=*/1);
  EXPECT_EQ(dedupe.restore("s", "f1"), d1);
  EXPECT_EQ(dedupe.restore("s", "f2"), d2);
}

}  // namespace
}  // namespace sigma
