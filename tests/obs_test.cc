// Metrics plane: histogram bucket boundaries and percentile estimates
// (against a sorted-vector oracle), concurrent-update exactness, snapshot
// merge algebra, the kStatsSnapshot wire codec (round trip, truncation at
// every byte, hostile counts), and a live TCP-fleet scrape cross-checked
// against both the in-process registries and the client's own counters.
// Plus the handshake version gate: a peer speaking protocol v2 must be
// refused at HELLO after the v3 bump.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common/random.h"
#include "ctrl/registry_server.h"
#include "net/rpc.h"
#include "net/tcp/frame.h"
#include "net/tcp/tcp_transport.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/metrics_render.h"
#include "obs/metrics_wire.h"
#include "server/node_server.h"
#include "workload/generators.h"

namespace sigma::obs {
namespace {

using namespace std::chrono_literals;

// --- Histogram buckets --------------------------------------------------------

TEST(HistogramTest, BucketBoundariesArePowersOfTwo) {
  // Bucket index is bit_width: 0 -> bucket 0, [2^(i-1), 2^i - 1] -> i.
  Histogram h;
  h.observe(0);
  auto s = h.snapshot("b");
  ASSERT_EQ(s.buckets.size(), 1u);
  EXPECT_EQ(s.buckets[0], 1u);

  Histogram h2;
  for (const std::uint64_t v : {1ull, 2ull, 3ull, 4ull, 7ull, 8ull}) {
    h2.observe(v);
  }
  s = h2.snapshot("b");
  // 1 -> bucket 1; 2,3 -> bucket 2; 4,7 -> bucket 3; 8 -> bucket 4.
  ASSERT_EQ(s.buckets.size(), 5u);
  EXPECT_EQ(s.buckets[0], 0u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[2], 2u);
  EXPECT_EQ(s.buckets[3], 2u);
  EXPECT_EQ(s.buckets[4], 1u);
  EXPECT_EQ(s.count, 6u);
  EXPECT_EQ(s.sum, 25u);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 8u);

  // Exact powers of two land in the bucket they open, boundary-1 in the
  // bucket below.
  for (unsigned shift : {4u, 10u, 20u, 32u, 63u}) {
    Histogram hb;
    hb.observe((1ull << shift) - 1);
    hb.observe(1ull << shift);
    const auto sb = hb.snapshot("b");
    ASSERT_EQ(sb.buckets.size(), shift + 2);
    EXPECT_EQ(sb.buckets[shift], 1u) << "below 2^" << shift;
    EXPECT_EQ(sb.buckets[shift + 1], 1u) << "at 2^" << shift;
  }

  // The all-ones value needs bucket 64 — the reason kBuckets is 65.
  Histogram htop;
  htop.observe(~0ull);
  const auto st = htop.snapshot("b");
  EXPECT_EQ(st.buckets.size(), Histogram::kBuckets);
  EXPECT_EQ(st.buckets.back(), 1u);
}

TEST(HistogramTest, PercentilesTrackSortedVectorOracle) {
  Histogram h;
  std::vector<std::uint64_t> values;
  Rng rng(2024);
  for (int i = 0; i < 5000; ++i) {
    // Latency-shaped spread: many small values, a heavy tail.
    const std::uint64_t v = rng.next() % (1ull << (4 + rng.next() % 16));
    values.push_back(v);
    h.observe(v);
  }
  std::sort(values.begin(), values.end());
  const auto s = h.snapshot("lat");

  for (const double p : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    const double rank = p * static_cast<double>(values.size() - 1);
    const double oracle =
        static_cast<double>(values[static_cast<std::size_t>(rank)]);
    const double est = s.percentile(p);
    // A log2 bucket bounds any estimate within a factor of two of the
    // true quantile (clamping to min/max can only tighten it).
    EXPECT_GE(est, oracle / 2.0 - 1.0) << "p=" << p;
    EXPECT_LE(est, oracle * 2.0 + 1.0) << "p=" << p;
  }
  // Estimates are clamped to the observed extremes; p=0 pins to the min
  // exactly, p=1 interpolates inside the top bucket but never exceeds max.
  EXPECT_DOUBLE_EQ(s.percentile(0.0), static_cast<double>(s.min));
  EXPECT_LE(s.percentile(1.0), static_cast<double>(s.max));
  EXPECT_GE(s.percentile(1.0), s.percentile(0.99));
}

TEST(HistogramTest, EmptyPercentileIsZero) {
  Histogram h;
  const auto s = h.snapshot("empty");
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

// --- Concurrency --------------------------------------------------------------

TEST(MetricsTest, ConcurrentUpdatesAreExact) {
  Registry registry;
  Counter& counter = registry.counter("hits");
  Gauge& gauge = registry.gauge("depth");
  Histogram& hist = registry.histogram("lat");

  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        counter.inc();
        gauge.add(1);
        hist.observe(i & 1023);
        gauge.sub(1);
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  EXPECT_EQ(gauge.value(), 0);
  EXPECT_GE(gauge.high_water(), 1);
  EXPECT_LE(gauge.high_water(), kThreads);

  const auto s = hist.snapshot("lat");
  EXPECT_EQ(s.count, kThreads * kPerThread);
  std::uint64_t expected_sum = 0;
  for (std::uint64_t i = 0; i < kPerThread; ++i) expected_sum += i & 1023;
  EXPECT_EQ(s.sum, kThreads * expected_sum);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 1023u);
}

// --- Snapshot merge algebra ---------------------------------------------------

MetricsSnapshot sample_snapshot(std::uint64_t seed) {
  Registry r;
  Rng rng(seed);
  // Overlapping and disjoint names across seeds.
  r.counter("common.requests").inc(rng.next() % 1000);
  r.counter("only." + std::to_string(seed)).inc(1 + rng.next() % 10);
  r.gauge("common.depth").add(static_cast<std::int64_t>(rng.next() % 50));
  auto& h = r.histogram("common.lat");
  for (int i = 0; i < 200; ++i) h.observe(rng.next() % (1ull << 20));
  auto& h2 = r.histogram("lat." + std::to_string(seed % 2));
  for (int i = 0; i < 50; ++i) h2.observe(rng.next() % 97);
  return r.snapshot();
}

TEST(MetricsSnapshotTest, MergeIsAssociativeAndCommutative) {
  const MetricsSnapshot a = sample_snapshot(1);
  const MetricsSnapshot b = sample_snapshot(2);
  const MetricsSnapshot c = sample_snapshot(3);

  MetricsSnapshot ab = a;
  ab.merge(b);
  MetricsSnapshot ab_c = ab;
  ab_c.merge(c);

  MetricsSnapshot bc = b;
  bc.merge(c);
  MetricsSnapshot a_bc = a;
  a_bc.merge(bc);

  EXPECT_EQ(ab_c, a_bc);

  MetricsSnapshot ba = b;
  ba.merge(a);
  EXPECT_EQ(ab, ba);
}

TEST(MetricsSnapshotTest, MergeSumsCountersAndMaxesHighWater) {
  MetricsSnapshot a;
  a.add_counter("x", 3);
  a.add_gauge("g", 5, 9);
  MetricsSnapshot b;
  b.add_counter("x", 4);
  b.add_counter("y", 1);
  b.add_gauge("g", 2, 11);
  a.merge(b);

  ASSERT_NE(a.find_counter("x"), nullptr);
  EXPECT_EQ(*a.find_counter("x"), 7u);
  ASSERT_NE(a.find_counter("y"), nullptr);
  EXPECT_EQ(*a.find_counter("y"), 1u);
  ASSERT_EQ(a.gauges.size(), 1u);
  EXPECT_EQ(a.gauges[0].value, 7);
  EXPECT_EQ(a.gauges[0].high_water, 11);
}

// --- Wire codec ---------------------------------------------------------------

TEST(MetricsWireTest, SnapshotRoundTrips) {
  const MetricsSnapshot s = sample_snapshot(7);
  ASSERT_FALSE(s.counters.empty());
  ASSERT_FALSE(s.histograms.empty());
  const Buffer wire = encode_metrics_snapshot(s);
  const MetricsSnapshot back =
      decode_metrics_snapshot(ByteView{wire.data(), wire.size()});
  EXPECT_EQ(s, back);

  const MetricsSnapshot empty;
  const Buffer ewire = encode_metrics_snapshot(empty);
  EXPECT_EQ(decode_metrics_snapshot(ByteView{ewire.data(), ewire.size()}),
            empty);
}

TEST(MetricsWireTest, TruncationAtEveryByteIsRejected) {
  const MetricsSnapshot s = sample_snapshot(11);
  const Buffer wire = encode_metrics_snapshot(s);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_THROW(decode_metrics_snapshot(ByteView{wire.data(), len}),
                 net::WireError)
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(MetricsWireTest, TrailingGarbageIsRejected) {
  Buffer wire = encode_metrics_snapshot(sample_snapshot(13));
  wire.push_back(0);
  EXPECT_THROW(decode_metrics_snapshot(ByteView{wire.data(), wire.size()}),
               net::WireError);
}

TEST(MetricsWireTest, HostileCountsAreRejectedBeforeAllocation) {
  // A count field claiming 4 billion entries in a 4-byte body must fail
  // on the count validation, not by attempting the allocation.
  net::WireWriter huge;
  huge.u32(0xFFFFFFFFu);
  const Buffer b1 = huge.take();
  EXPECT_THROW(decode_metrics_snapshot(ByteView{b1.data(), b1.size()}),
               net::WireError);

  // A histogram claiming more buckets than a Histogram can produce is a
  // protocol violation even when the bytes are present.
  net::WireWriter w;
  w.u32(0);  // counters
  w.u32(0);  // gauges
  w.u32(1);  // one histogram
  w.bytes(ByteView{});
  w.u64(1);  // count
  w.u64(1);  // sum
  w.u64(1);  // min
  w.u64(1);  // max
  w.u32(static_cast<std::uint32_t>(Histogram::kBuckets + 1));
  for (std::size_t i = 0; i < Histogram::kBuckets + 1; ++i) w.u64(0);
  const Buffer b2 = w.take();
  EXPECT_THROW(decode_metrics_snapshot(ByteView{b2.data(), b2.size()}),
               net::WireError);
}

// --- Render -------------------------------------------------------------------

TEST(MetricsRenderTest, TextAndJsonCoverEveryInstrument) {
  MetricsSnapshot s;
  s.add_counter("net.requests", 42);
  s.add_gauge("depth", 3, 17);
  Histogram h;
  h.observe(100);
  h.observe(200);
  s.histograms.push_back(h.snapshot("lat_us"));

  const std::string text = render_text(s);
  EXPECT_NE(text.find("net.requests"), std::string::npos);
  EXPECT_NE(text.find("42"), std::string::npos);
  EXPECT_NE(text.find("high=17"), std::string::npos);
  EXPECT_NE(text.find("lat_us"), std::string::npos);

  const std::string json = render_json(s);
  EXPECT_NE(json.find("\"net.requests\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"high_water\": 17"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
}

// --- Live fleet scrape --------------------------------------------------------

Dataset scrape_trace() {
  LinuxWorkloadConfig cfg = LinuxWorkloadConfig::scaled(0.04);
  cfg.versions = 2;
  LinuxGenerator gen(cfg);
  const auto chunker = make_chunker(ChunkingScheme::kStatic, 4096);
  return materialize_dataset("linux-scrape", gen.content(), *chunker);
}

TEST(StatsScrapeTest, TcpFleetScrapeMatchesInProcessRegistries) {
  // Two in-process daemons x two nodes; a real backup over TCP; then a
  // kStatsSnapshot scrape through a separate client transport, exactly
  // the way tools/fleet_stats works.
  std::vector<std::unique_ptr<server::NodeServer>> servers;
  net::EndpointId next_endpoint = net::kServiceEndpointBase;
  for (int d = 0; d < 2; ++d) {
    server::NodeServerConfig cfg;
    cfg.listen = {"127.0.0.1", 0};
    cfg.num_nodes = 2;
    cfg.first_endpoint = next_endpoint;
    next_endpoint += 2;
    servers.push_back(std::make_unique<server::NodeServer>(cfg));
  }

  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.scheme = RoutingScheme::kSigma;
  cfg.super_chunk_bytes = 64 * 1024;
  cfg.transport.mode = TransportMode::kTcp;
  cfg.transport.rpc_timeout_ms = 20000;
  for (const auto& server : servers) {
    for (const auto& node : server->node_map()) {
      cfg.transport.tcp_nodes.push_back(node);
    }
  }
  Cluster cluster(cfg);
  cluster.backup_dataset(scrape_trace());
  (void)cluster.report();  // settles the write pipeline
  const std::uint64_t client_requests = cluster.net_stats().requests;
  ASSERT_GT(client_requests, 0u);

  // Scrape each daemon once over a fresh client transport.
  net::TcpTransportConfig scrape_cfg;
  for (const auto& node : cfg.transport.tcp_nodes) {
    scrape_cfg.remote_endpoints.emplace(node.endpoint, node.address);
  }
  net::TcpTransport scrape_transport(std::move(scrape_cfg));
  net::RpcEndpoint rpc(scrape_transport);

  std::vector<MetricsSnapshot> scraped;
  MetricsSnapshot merged;
  for (const auto& server : servers) {
    const Buffer body =
        rpc.call_sync(server->endpoint(0), net::MessageType::kStatsSnapshot,
                      Buffer{}, 10s);
    scraped.push_back(
        decode_metrics_snapshot(ByteView{body.data(), body.size()}));
    merged.merge(scraped.back());
  }

  // Quiesced series must match the in-process snapshots exactly. (Series
  // the scrape itself perturbs — frame/byte counters, the scrape op's own
  // latency — are deliberately excluded.)
  for (std::size_t d = 0; d < servers.size(); ++d) {
    const MetricsSnapshot in_proc = servers[d]->metrics_snapshot();
    for (const char* prefix : {"node.", "store.", "recovery."}) {
      for (const auto& c : in_proc.counters) {
        if (c.name.rfind(prefix, 0) != 0) continue;
        const std::uint64_t* got = scraped[d].find_counter(c.name);
        ASSERT_NE(got, nullptr) << c.name;
        EXPECT_EQ(*got, c.value) << c.name;
      }
    }
  }

  // Every client request was served by exactly one node service, and the
  // scrape (not yet counted at snapshot time) is not in the sum: the
  // fleet-wide served count must equal the client's sent-request count.
  std::uint64_t served = 0;
  for (const auto& c : merged.counters) {
    if (c.name.rfind("svc.", 0) == 0 &&
        c.name.find(".requests_served") != std::string::npos) {
      served += c.value;
    }
  }
  EXPECT_EQ(served, client_requests);

  // A healthy fleet: writes were timed, nothing failed its handshake.
  std::uint64_t writes_timed = 0;
  for (const auto& h : merged.histograms) {
    if (h.name.find("op_us.WriteSuperChunk") != std::string::npos) {
      writes_timed += h.count;
    }
  }
  EXPECT_GT(writes_timed, 0u);
  ASSERT_NE(merged.find_counter("tcp.handshake_failures"), nullptr);
  EXPECT_EQ(*merged.find_counter("tcp.handshake_failures"), 0u);

  // The scrape is also reachable through every OTHER endpoint of the same
  // daemon and answers the same daemon-wide registry.
  const Buffer again =
      rpc.call_sync(servers[0]->endpoint(1), net::MessageType::kStatsSnapshot,
                    Buffer{}, 10s);
  const MetricsSnapshot second =
      decode_metrics_snapshot(ByteView{again.data(), again.size()});
  EXPECT_NE(second.find_counter("tcp.frames_received"), nullptr);
}

// --- One registry per process: every scrape carries every series ------------

TEST(StatsScrapeTest, RegistryScrapeCarriesEveryTransportCounterOfANodeScrape) {
  // Both daemons run the same transport, so both scrapes carry the same
  // net.* and tcp.* series — the transport registers them itself.
  ctrl::RegistryServer registry({});
  server::NodeServerConfig cfg;
  cfg.listen = {"127.0.0.1", 0};
  server::NodeServer server(cfg);

  const MetricsSnapshot node = server.metrics_snapshot();
  const MetricsSnapshot reg = registry.metrics_snapshot();
  std::size_t checked = 0;
  for (const auto& c : node.counters) {
    if (c.name.rfind("net.", 0) != 0 && c.name.rfind("tcp.", 0) != 0) continue;
    ++checked;
    EXPECT_NE(reg.find_counter(c.name), nullptr) << c.name;
  }
  EXPECT_GE(checked, 18u);  // NetStats + TcpTransportStats at least
}

TEST(StatsScrapeTest, NodeServerScrapeCarriesTransportServiceNodeStore) {
  server::NodeServer server(server::NodeServerConfig{});
  ClusterConfig cfg;
  cfg.num_nodes = 1;
  cfg.super_chunk_bytes = 64 * 1024;
  cfg.transport.mode = TransportMode::kTcp;
  cfg.transport.tcp_nodes = server.node_map();
  Cluster cluster(cfg);
  cluster.backup_dataset(scrape_trace());
  cluster.flush();

  const MetricsSnapshot snap = cluster.stats_snapshot(0);
  for (const char* name : {"net.requests", "svc.node0.requests_served",
                           "node.node0.unique_chunks",
                           "store.node0.bytes_written"}) {
    const std::uint64_t* value = snap.find_counter(name);
    ASSERT_NE(value, nullptr) << name;
    EXPECT_GT(*value, 0u) << name;
  }
}

/// Replace every `from` in `s` with `to`.
std::string replace_all(std::string s, const std::string& from,
                        const std::string& to) {
  for (std::size_t at = s.find(from); at != std::string::npos;
       at = s.find(from, at + to.size())) {
    s.replace(at, from.size(), to);
  }
  return s;
}

/// Every backticked name in README's Observability catalog table, with
/// the <n> placeholder expanded to node0.
std::vector<std::string> readme_catalog_names() {
  std::ifstream readme(std::string(SIGMA_SOURCE_DIR) + "/README.md");
  std::vector<std::string> names;
  bool in_section = false;
  bool header_seen = false;
  for (std::string line; std::getline(readme, line);) {
    if (line.rfind("## ", 0) == 0) in_section = line == "## Observability";
    if (!in_section || line.rfind("| ", 0) != 0) {
      if (header_seen) break;  // the table has ended
      continue;
    }
    if (!header_seen || line.rfind("| --", 0) == 0) {
      header_seen = true;
      continue;
    }
    for (std::size_t open = line.find('`'); open != std::string::npos;) {
      const std::size_t close = line.find('`', open + 1);
      if (close == std::string::npos) break;
      const std::string name = line.substr(open + 1, close - open - 1);
      names.push_back(replace_all(name, "<n>", "node0"));
      open = line.find('`', close + 1);
    }
  }
  return names;
}

TEST(StatsScrapeTest, ReadmeCatalogNamesExistInAFleetScrape) {
  // A daemon with a durable backend (store.* latency histograms) serves
  // one small backup; the client's own registry (route.*, rpc.*) merges
  // into the daemon's scrape, as fleet_stats users see the two together.
  const auto dir =
      std::filesystem::temp_directory_path() /
      ("sigma-catalog-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    server::NodeServerConfig scfg;
    scfg.listen = {"127.0.0.1", 0};
    scfg.backend = server::BackendKind::kFile;
    scfg.data_dir = dir;
    scfg.fsync = false;
    server::NodeServer server(scfg);

    Registry client;
    ClusterConfig cfg;
    cfg.num_nodes = 1;
    cfg.super_chunk_bytes = 64 * 1024;
    cfg.transport.mode = TransportMode::kTcp;
    cfg.transport.tcp_nodes = server.node_map();
    cfg.metrics = &client;
    Cluster cluster(cfg);
    cluster.backup_dataset(scrape_trace());
    cluster.flush();

    MetricsSnapshot snap = cluster.stats_snapshot(0);
    snap.merge(client.snapshot());
    auto has = [&snap](const std::string& name) {
      const bool prefix = name.size() > 2 &&
                          name.compare(name.size() - 2, 2, ".*") == 0;
      const std::string stem = prefix ? name.substr(0, name.size() - 1) : "";
      auto match = [&](const std::string& series) {
        return prefix ? series.rfind(stem, 0) == 0 : series == name;
      };
      return std::any_of(snap.counters.begin(), snap.counters.end(),
                         [&](const auto& c) { return match(c.name); }) ||
             std::any_of(snap.gauges.begin(), snap.gauges.end(),
                         [&](const auto& g) { return match(g.name); }) ||
             std::any_of(snap.histograms.begin(), snap.histograms.end(),
                         [&](const auto& h) { return match(h.name); });
    };

    const std::vector<std::string> names = readme_catalog_names();
    EXPECT_GE(names.size(), 30u) << "README catalog table not found";
    for (const std::string& name : names) {
      EXPECT_TRUE(has(name)) << "README names `" << name
                             << "`, which no scrape carries";
    }
  }
  std::filesystem::remove_all(dir);
}

// --- Handshake version gate ---------------------------------------------------

TEST(StatsScrapeTest, ProtocolV2PeerIsRefusedAtHello) {
  server::NodeServerConfig cfg;
  cfg.listen = {"127.0.0.1", 0};
  cfg.num_nodes = 1;
  server::NodeServer server(cfg);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  // A well-formed HELLO from the previous protocol generation.
  Buffer hello = net::encode_hello({net::PeerRole::kClient});
  ASSERT_EQ(hello[4], net::kProtocolVersion);
  hello[4] = 2;
  ASSERT_EQ(::send(fd, hello.data(), hello.size(), 0),
            static_cast<ssize_t>(hello.size()));

  // The server answers with its own HELLO, then drops the connection the
  // moment it decodes ours. Bounded read loop: EOF is the only pass.
  timeval tv{};
  tv.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  bool closed = false;
  std::size_t received = 0;
  char buf[256];
  for (int i = 0; i < 64; ++i) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      closed = (n == 0);
      break;
    }
    received += static_cast<std::size_t>(n);
  }
  ::close(fd);
  EXPECT_TRUE(closed) << "server kept a v2 connection open";
  // Nothing beyond the server's own HELLO may have been sent — no frame
  // ever crosses a version-skewed connection.
  EXPECT_LE(received, net::Hello::kWireBytes);

  // The failure is visible in the daemon's metrics.
  const MetricsSnapshot snap = server.metrics_snapshot();
  ASSERT_NE(snap.find_counter("tcp.handshake_failures"), nullptr);
  EXPECT_EQ(*snap.find_counter("tcp.handshake_failures"), 1u);
}

}  // namespace
}  // namespace sigma::obs
