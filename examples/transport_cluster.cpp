// Networked deployment: the same middleware as quickstart, but every
// probe, duplicate test, super-chunk write and chunk read travels as a
// request/response frame over TCP through the node-service stack —
//
//   BackupClient -> Cluster -> RpcEndpoint -> TcpTransport -> NodeService
//   (event loop on the thread pool) -> DedupNode -> container storage
//
// — with a 4-deep super-chunk write pipeline.
//
//   $ ./transport_cluster
// hosts its own 4-node server::NodeServer on 127.0.0.1 (the core the
// node_server daemon runs) and backs up to it. Point it at a fleet of
// node_server daemons instead and the identical pipeline runs across OS
// processes. Endpoint ids are the fleet-wide node addresses, so give each
// daemon a distinct --first-endpoint range:
//
//   $ node_server --port 7001 --first-endpoint 100 &   # node 0
//   $ node_server --port 7002 --first-endpoint 101 &   # node 1
//   $ ./transport_cluster --tcp 127.0.0.1:7001:100,127.0.0.1:7002:101
//
// (Each map entry is host:port[:endpoint], endpoint defaulting to 100; a
// daemon hosting several nodes exposes them at consecutive ids, e.g.
// host:port:100 and host:port:101.)
#include <chrono>
#include <iostream>
#include <optional>
#include <string>
#include <thread>

#include "common/stats.h"
#include "core/sigma_dedupe.h"
#include "obs/trace.h"
#include "server/node_server.h"

int main(int argc, char** argv) {
  using namespace sigma;

  MiddlewareConfig config;
  config.num_nodes = 4;
  config.routing = RoutingScheme::kSigma;
  config.client.super_chunk_bytes = 64 * 1024;
  config.transport.mode = TransportMode::kTcp;
  config.transport.rpc_timeout_ms = 10000;
  config.transport.pipeline_depth = 4;  // writes in flight
  std::size_t watch_updates = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tcp" && i + 1 < argc) {
      try {
        config.transport.tcp_nodes =
            net::parse_tcp_nodes(argv[++i], net::kServiceEndpointBase);
      } catch (const std::exception& e) {
        std::cerr << "transport_cluster: " << e.what() << "\n";
        return 2;
      }
      config.num_nodes = config.transport.tcp_nodes.size();
    } else if (arg == "--registry" && i + 1 < argc) {
      // Fleet discovery: take the node map from the registry's fleet
      // view — no hand-written host:port:endpoint list.
      try {
        config.transport.registry = net::parse_tcp_address(argv[++i]);
      } catch (const std::exception& e) {
        std::cerr << "transport_cluster: " << e.what() << "\n";
        return 2;
      }
    } else if (arg == "--watch-updates" && i + 1 < argc) {
      try {
        watch_updates = net::parse_number(argv[++i], 1024,
                                          "value for --watch-updates");
      } catch (const std::exception& e) {
        std::cerr << "transport_cluster: " << e.what() << "\n";
        return 2;
      }
    } else if (arg == "--trace-sample" && i + 1 < argc) {
      try {
        obs::Tracer::instance().set_sample_every(static_cast<std::uint32_t>(
            net::parse_number(argv[++i], 0xFFFFFFFFul,
                              "value for --trace-sample")));
      } catch (const std::exception& e) {
        std::cerr << "transport_cluster: " << e.what() << "\n";
        return 2;
      }
    } else {
      std::cerr << "usage: transport_cluster [--tcp host:port[:endpoint],...]"
                << " [--registry H:P]\n"
                << "                         [--watch-updates N]"
                << " [--trace-sample N]\n"
                << "  --registry H:P    take the node map from a fleet\n"
                << "                    registry instead of --tcp\n"
                << "  --watch-updates N after the backup, wait for N observed\n"
                << "                    fleet-view changes (membership test\n"
                << "                    hook; exits 1 on a 30s timeout)\n"
                << "  --trace-sample N  sample one distributed trace per N\n"
                << "                    super-chunks; 0 disables (default "
                << obs::Tracer::kDefaultSampleEvery << ");\n"
                << "                    SIGMA_TRACE_DUMP=FILE writes the\n"
                << "                    client's spans at exit for\n"
                << "                    fleet_trace --local\n";
      return 2;
    }
  }
  obs::Tracer::instance().set_process_label("transport_cluster");

  // Two backup sessions: the second repeats most of the first, so its
  // duplicate super-chunks never ship payload bytes (source dedup).
  auto make_file = [](const std::string& path, std::size_t size, char fill) {
    ContentFile f;
    f.path = path;
    f.data.assign(size, static_cast<std::uint8_t>(fill));
    for (std::size_t i = 0; i < f.data.size(); i += 4096) {
      f.data[i] = static_cast<std::uint8_t>(i / 4096);  // block markers
    }
    return f;
  };
  std::vector<ContentFile> monday{make_file("db.dump", 500000, 'a'),
                                  make_file("logs.tar", 250000, 'b')};
  std::vector<ContentFile> tuesday = monday;
  tuesday[1] = make_file("logs.tar", 300000, 'c');  // one file changed

  if (watch_updates > 0 && !config.transport.registry) {
    std::cerr << "transport_cluster: --watch-updates requires --registry\n";
    return 2;
  }

  try {
    // No fleet given: host one in-process. Declared before the
    // middleware, so the server outlives its client.
    std::optional<server::NodeServer> local_fleet;
    if (config.transport.tcp_nodes.empty() && !config.transport.registry) {
      server::NodeServerConfig server_cfg;
      server_cfg.num_nodes = config.num_nodes;
      local_fleet.emplace(server_cfg);
      config.transport.tcp_nodes = local_fleet->node_map();
    }
    SigmaDedupe dedupe(config);
    std::uint64_t seen_version = 0;
    if (config.transport.registry) {
      // Early-flushed so a harness can see the wiring before the backup
      // runs (and before it kills the registry, in the failure-mode leg).
      const auto view = dedupe.cluster().fleet_view();
      seen_version = view ? view->version : 0;
      std::cout << "REGISTRY nodes=" << (view ? view->nodes.size() : 0)
                << " version=" << seen_version << std::endl;
    }
    std::cout << "running over TCP against " << dedupe.cluster().size()
              << (local_fleet ? " in-process" : " remote")
              << " node service(s)\n\n";
    const auto s1 = dedupe.backup("monday", monday);
    const auto s2 = dedupe.backup("tuesday", tuesday);
    dedupe.flush();

    std::cout << "monday:  " << format_bytes(s1.logical_bytes)
              << " logical, " << format_bytes(s1.transferred_bytes)
              << " over the wire\n";
    std::cout << "tuesday: " << format_bytes(s2.logical_bytes)
              << " logical, " << format_bytes(s2.transferred_bytes)
              << " over the wire\n";

    // Restore travels over the transport too (container/recipe reads).
    const Buffer restored = dedupe.restore("tuesday", "db.dump");
    const bool ok = restored == monday[0].data;
    std::cout << "restored db.dump: " << format_bytes(restored.size())
              << (ok ? " (verified)\n" : " (CORRUPT)\n");

    const auto report = dedupe.report();
    const auto net = dedupe.cluster().net_stats();
    std::cout << "\ncluster dedup ratio: "
              << TablePrinter::fmt(report.dedup_ratio())
              << "\nfingerprint-lookup messages (Fig. 7 metric): "
              << report.messages.total() << " (" << report.messages.pre_routing
              << " pre-routing + " << report.messages.after_routing
              << " after-routing)"
              << "\nwire traffic: " << net.messages_sent << " messages, "
              << format_bytes(net.bytes_sent) << " ("
              << net.requests << " requests, " << net.responses
              << " responses)\n";

    // Membership-test hook: block until N fleet-view changes (a daemon
    // joined or left) are observed, printing one line per change.
    if (watch_updates > 0) {
      std::cout << std::flush;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      std::size_t observed = 0;
      while (observed < watch_updates) {
        if (std::chrono::steady_clock::now() >= deadline) {
          std::cerr << "transport_cluster: timed out waiting for "
                    << watch_updates << " fleet update(s) (saw " << observed
                    << ")\n";
          return 1;
        }
        const auto view = dedupe.cluster().fleet_view();
        if (view && view->version > seen_version) {
          seen_version = view->version;
          ++observed;
          std::cout << "FLEET-UPDATE version=" << view->version
                    << " nodes=" << view->nodes.size() << std::endl;
          continue;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      }
    }
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "transport_cluster: " << e.what() << "\n";
    return 1;
  }
}
