// Transport pipeline: backup throughput of a cluster whose nodes sit
// behind TCP as a function of the super-chunk write pipeline depth.
//
// At depth 1 the client blocks on every routed super-chunk before probing
// the next — direct-call semantics (and bit-identical reports). At depth
// d > 1, up to d super-chunks are in flight at once, overlapping the
// client's chunking/fingerprinting/routing with the nodes' deduplication
// event loops, which run in parallel across the service thread pool —
// expect throughput to rise with depth until node-side work is saturated.
//
// By default every run gets a fresh in-process 8-node server::NodeServer
// on 127.0.0.1. With
//   bench_fig_transport_pipeline --tcp host:port[:endpoint],...
// it runs against external node_server daemons instead. Node state
// persists in the daemons across runs, so that mode measures one depth
// (default 4; override with --depth D) against a fresh fleet.
#include <algorithm>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "core/sigma_dedupe.h"
#include "obs/trace.h"
#include "server/node_server.h"

namespace {

using namespace sigma;
namespace bench = sigma::bench;

std::vector<ContentFile> session_files(int generation, double scale) {
  // Versioned content: each generation rewrites ~12% of blocks so every
  // session carries both fresh and duplicate super-chunks.
  const std::size_t file_bytes =
      static_cast<std::size_t>(1.5e6 * scale);
  std::vector<ContentFile> files;
  for (int f = 0; f < 8; ++f) {
    Buffer data(file_bytes);
    const std::uint64_t file_seed = 0xF00D + static_cast<std::uint64_t>(f);
    for (std::size_t i = 0; i < data.size(); ++i) {
      const std::size_t block = i / 4096;
      int last_changed = 0;
      for (int g = 1; g <= generation; ++g) {
        if (mix64(file_seed ^ (block * 0x9E3779B97F4A7C15ull) ^
                  static_cast<std::uint64_t>(g)) %
                8 ==
            0) {
          last_changed = g;
        }
      }
      Rng block_rng(file_seed ^ block ^
                    (static_cast<std::uint64_t>(last_changed) << 32));
      data[i] = static_cast<std::uint8_t>(block_rng.next());
    }
    files.push_back({"f" + std::to_string(f), std::move(data)});
  }
  return files;
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = bench::bench_scale();

  std::vector<net::TcpNodeAddress> tcp_nodes;
  std::size_t tcp_depth = 4;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tcp" && i + 1 < argc) {
      try {
        tcp_nodes = net::parse_tcp_nodes(argv[++i],
                                         net::kServiceEndpointBase);
      } catch (const std::exception& e) {
        std::cerr << "bench_fig_transport_pipeline: " << e.what() << "\n";
        return 2;
      }
    } else if (arg == "--depth" && i + 1 < argc) {
      try {
        tcp_depth = net::parse_number(argv[++i], 4096, "--depth value");
      } catch (const std::exception& e) {
        std::cerr << "bench_fig_transport_pipeline: " << e.what() << "\n";
        return 2;
      }
    } else {
      std::cerr << "usage: bench_fig_transport_pipeline "
                << "[--tcp host:port[:endpoint],...] [--depth D]\n";
      return 2;
    }
  }
  const bool external_fleet = !tcp_nodes.empty();

  bench::print_header(
      "Transport pipeline: backup throughput vs pipeline depth",
      external_fleet
          ? "Sigma routing, 256 KB super-chunks, 3 sessions of versioned "
            "content over TCP node_server daemons"
          : "8 nodes, Sigma routing, 256 KB super-chunks, 3 sessions of "
            "versioned content over TCP to an in-process node server");

  TablePrinter table({"pipeline depth", "backup MB/s", "dedup ratio",
                      "wire msgs", "wire MB"});

  struct DepthResult {
    double mbps = 0.0;
    double dedup_ratio = 0.0;
    std::uint64_t wire_msgs = 0;
    std::uint64_t wire_bytes = 0;
  };
  // One measured backup run; `metrics` is the caller's registry, null for
  // the cluster's private one (the overhead A/B below runs both).
  auto run_depth = [&](std::size_t depth,
                       obs::Registry* metrics) -> DepthResult {
    // Declared before the middleware, so the fleet outlives its client.
    std::optional<server::NodeServer> fleet;
    MiddlewareConfig cfg;
    cfg.transport.mode = TransportMode::kTcp;
    if (external_fleet) {
      cfg.transport.tcp_nodes = tcp_nodes;
    } else {
      server::NodeServerConfig server_cfg;
      server_cfg.num_nodes = 8;
      fleet.emplace(server_cfg);
      cfg.transport.tcp_nodes = fleet->node_map();
    }
    cfg.num_nodes = cfg.transport.tcp_nodes.size();
    cfg.routing = RoutingScheme::kSigma;
    cfg.client.super_chunk_bytes = 256 * 1024;
    cfg.transport.pipeline_depth = depth;
    cfg.metrics = metrics;
    SigmaDedupe dedupe(cfg);

    double logical_mb = 0.0;
    Stopwatch timer;
    for (int g = 0; g < 3; ++g) {
      const auto summary = dedupe.backup("session-" + std::to_string(g),
                                         session_files(g, scale));
      logical_mb += static_cast<double>(summary.logical_bytes) / 1e6;
    }
    dedupe.flush();
    const double seconds = timer.seconds();

    DepthResult r;
    r.mbps = logical_mb / seconds;
    r.dedup_ratio = dedupe.report().dedup_ratio();
    const auto net = dedupe.cluster().net_stats();
    r.wire_msgs = net.messages_sent;
    r.wire_bytes = net.bytes_sent;
    return r;
  };

  bench::BenchResult result;
  result.name = "fig_transport_pipeline";
  result.params["transport"] = "tcp";
  result.params["nodes"] =
      std::to_string(external_fleet ? tcp_nodes.size() : std::size_t{8});
  result.params["sessions"] = "3";
  result.params["super_chunk_bytes"] = std::to_string(256 * 1024);

  const std::vector<std::size_t> depths =
      external_fleet ? std::vector<std::size_t>{tcp_depth}
                     : std::vector<std::size_t>{1, 2, 4, 8, 16};
  double depth1_mbps = 0.0;
  for (std::size_t depth : depths) {
    const DepthResult r = run_depth(depth, nullptr);
    if (depth == 1) depth1_mbps = r.mbps;
    const std::string key = "depth" + std::to_string(depth);
    result.metrics[key + ".mbps"] = r.mbps;
    result.metrics[key + ".dedup_ratio"] = r.dedup_ratio;
    result.metrics[key + ".wire_msgs"] = static_cast<double>(r.wire_msgs);
    table.add_row({std::to_string(depth), TablePrinter::fmt(r.mbps, 1),
                   TablePrinter::fmt(r.dedup_ratio, 2),
                   std::to_string(r.wire_msgs),
                   TablePrinter::fmt(
                       static_cast<double>(r.wire_bytes) / 1e6, 1)});
  }
  table.print(std::cout);

  if (depth1_mbps > 0.0) {
    std::cout << "\n(speedup over depth 1 comes from overlapping client-side "
                 "routing with node-side dedup; depth 1 = direct-call "
                 "semantics, baseline "
              << TablePrinter::fmt(depth1_mbps, 1) << " MB/s)\n";
  }

  // Metrics-plane overhead gate: the same depth back to back, recording
  // into the cluster's private registry and into one the caller passes
  // in. Every site is the same relaxed fetch_add either way, so the two
  // throughputs should agree to low single digits.
  {
    const std::size_t overhead_depth = external_fleet ? tcp_depth : 4;
    const DepthResult off = run_depth(overhead_depth, nullptr);
    obs::Registry registry;
    const DepthResult on = run_depth(overhead_depth, &registry);
    const double overhead_pct =
        off.mbps > 0.0 ? (off.mbps - on.mbps) / off.mbps * 100.0 : 0.0;
    result.metrics["metrics_off_mbps"] = off.mbps;
    result.metrics["metrics_on_mbps"] = on.mbps;
    result.metrics["metrics_overhead_pct"] = overhead_pct;
    std::cout << "\nmetrics plane overhead (depth "
              << overhead_depth << "): off "
              << TablePrinter::fmt(off.mbps, 1) << " MB/s, on "
              << TablePrinter::fmt(on.mbps, 1) << " MB/s ("
              << TablePrinter::fmt(overhead_pct, 2) << "%)\n";
  }

  // Tracing-plane overhead gate: the same A/B with the distributed
  // tracer off (sample 0) and on at the production default (1 trace per
  // 256 root decisions). The disabled path is one relaxed fetch_add per
  // super-chunk plus a branch per span site, so the two throughputs
  // should be indistinguishable — ci.sh gates trace_overhead_pct at 2%.
  // Best-of-3 per arm, arms interleaved, to keep scheduler noise out of
  // the gate.
  {
    const std::size_t overhead_depth = external_fleet ? tcp_depth : 4;
    obs::Tracer& tracer = obs::Tracer::instance();
    const std::uint32_t saved_sample = tracer.sample_every();
    double off_mbps = 0.0;
    double on_mbps = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      tracer.set_sample_every(0);
      off_mbps = std::max(off_mbps, run_depth(overhead_depth, nullptr).mbps);
      tracer.set_sample_every(obs::Tracer::kDefaultSampleEvery);
      on_mbps = std::max(on_mbps, run_depth(overhead_depth, nullptr).mbps);
    }
    tracer.set_sample_every(saved_sample);
    const double overhead_pct =
        off_mbps > 0.0 ? (off_mbps - on_mbps) / off_mbps * 100.0 : 0.0;
    result.metrics["trace_off_mbps"] = off_mbps;
    result.metrics["trace_on_mbps"] = on_mbps;
    result.metrics["trace_overhead_pct"] = overhead_pct;
    std::cout << "tracing plane overhead (depth " << overhead_depth
              << ", sample 1/" << obs::Tracer::kDefaultSampleEvery
              << "): off " << TablePrinter::fmt(off_mbps, 1)
              << " MB/s, on " << TablePrinter::fmt(on_mbps, 1) << " MB/s ("
              << TablePrinter::fmt(overhead_pct, 2) << "%)\n";
  }

  bench::emit_bench_json(result);
  return 0;
}
