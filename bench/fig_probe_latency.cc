// Probe plane: mean per-super-chunk routing-decision latency for the two
// probing schemes (Sigma and EMC stateful), one row per transport.
//
// Every decision is one scatter-gather probe round: over TCP one fused
// match+usage RPC per candidate and a usage RPC per remaining node, all
// in flight together and drained at once — ~1 round-trip per decision
// regardless of cluster width. Direct mode answers the same round from
// in-process nodes (DirectProbeSet), the floor TCP is measured against.
//
// Default sweep: direct mode and TCP to a fresh in-process 8-node
// server::NodeServer per scheme. With
//   bench_fig_probe_latency --tcp host:port[:endpoint],...
// it instead measures against node_server daemons over real sockets.
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "net/tcp/socket.h"
#include "server/node_server.h"

namespace {

using namespace sigma;
namespace bench = sigma::bench;

/// The routing units of one trace, cut exactly as the cluster cuts them.
std::vector<std::vector<ChunkRecord>> super_chunk_units(
    const Dataset& dataset, std::uint64_t super_chunk_bytes) {
  std::vector<std::vector<ChunkRecord>> units;
  SuperChunkBuilder builder(super_chunk_bytes);
  for (const auto& backup : dataset.backups) {
    for (const auto& file : backup.files) {
      for (const auto& chunk : file.chunks) {
        if (builder.add(chunk)) units.push_back(builder.take().chunks);
      }
    }
    SuperChunk tail = builder.flush();
    if (!tail.chunks.empty()) units.push_back(std::move(tail.chunks));
  }
  return units;
}

struct Measurement {
  double mean_us = 0.0;
  std::uint64_t decisions = 0;
};

/// Mean routing-decision latency of `scheme` against an already-populated
/// cluster's probe plane (probes are read-only, so runs are repeatable).
Measurement measure(Cluster& cluster, RoutingScheme scheme,
                    const std::vector<std::vector<ChunkRecord>>& units) {
  const auto router = make_router(scheme, cluster.config().router);
  RouteContext ctx;
  Stopwatch timer;
  for (const auto& unit : units) {
    (void)router->route(unit, cluster.probe_set(), ctx);
  }
  Measurement m;
  m.decisions = units.size();
  m.mean_us = timer.seconds() * 1e6 / static_cast<double>(units.size());
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = bench::bench_scale();

  std::vector<net::TcpNodeAddress> tcp_nodes;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tcp" && i + 1 < argc) {
      try {
        tcp_nodes =
            net::parse_tcp_nodes(argv[++i], net::kServiceEndpointBase);
      } catch (const std::exception& e) {
        std::cerr << "bench_fig_probe_latency: " << e.what() << "\n";
        return 2;
      }
    } else {
      std::cerr << "usage: bench_fig_probe_latency "
                << "[--tcp host:port[:endpoint],...]\n";
      return 2;
    }
  }
  const bool external_fleet = !tcp_nodes.empty();

  bench::print_header(
      "Probe plane: routing-decision latency",
      external_fleet
          ? "one scatter-gather probe round per decision, against TCP "
            "node_server daemons"
          : "one scatter-gather probe round per decision, direct and over "
            "TCP to an in-process node server (8 nodes)");

  LinuxWorkloadConfig wl = LinuxWorkloadConfig::scaled(0.2 * scale);
  wl.versions = 2;
  LinuxGenerator gen(wl);
  const auto chunker = make_chunker(ChunkingScheme::kStatic, 4096);
  const Dataset trace =
      materialize_dataset("linux-probe-bench", gen.content(), *chunker);
  constexpr std::uint64_t kSuperChunkBytes = 256 * 1024;
  const auto units = super_chunk_units(trace, kSuperChunkBytes);

  const std::vector<RoutingScheme> schemes{RoutingScheme::kSigma,
                                           RoutingScheme::kStateful};

  TablePrinter table(
      {"transport", "scheme", "decisions", "mean us/decision"});

  bench::BenchResult result;
  result.name = "fig_probe_latency";
  result.params["decisions"] = std::to_string(units.size());
  result.params["super_chunk_bytes"] = std::to_string(kSuperChunkBytes);
  result.params["transport"] = external_fleet ? "tcp" : "local";
  result.params["nodes"] =
      std::to_string(external_fleet ? tcp_nodes.size() : std::size_t{8});

  auto sweep = [&](TransportMode mode, const std::string& label) {
    for (RoutingScheme scheme : schemes) {
      // Declared before the cluster, so the fleet outlives its client.
      std::optional<server::NodeServer> fleet;
      ClusterConfig cfg;
      cfg.scheme = scheme;
      cfg.super_chunk_bytes = kSuperChunkBytes;
      cfg.num_nodes = 8;
      cfg.transport.mode = mode;
      if (mode == TransportMode::kTcp) {
        if (!external_fleet) {
          server::NodeServerConfig server_cfg;
          server_cfg.num_nodes = cfg.num_nodes;
          fleet.emplace(server_cfg);
        }
        cfg.transport.tcp_nodes =
            external_fleet ? tcp_nodes : fleet->node_map();
        cfg.num_nodes = cfg.transport.tcp_nodes.size();
      }
      Cluster cluster(cfg);
      // Populate node state so probes hit non-trivial indexes.
      cluster.backup_dataset(trace);
      const Measurement m = measure(cluster, scheme, units);
      result.metrics[label + "." + to_string(scheme) + ".mean_us"] =
          m.mean_us;
      table.add_row({label, to_string(scheme), std::to_string(m.decisions),
                     TablePrinter::fmt(m.mean_us, 1)});
    }
  };

  if (!external_fleet) sweep(TransportMode::kDirect, "direct");
  sweep(TransportMode::kTcp, "tcp");
  table.print(std::cout);
  bench::emit_bench_json(result);
  return 0;
}
