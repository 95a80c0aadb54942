// Standalone deduplication node daemon: hosts N DedupNode services behind
// a TCP listener, so a backup fleet spans OS processes.
//
//   $ node_server --port 7001 --nodes 2
//   READY port=7001 endpoints=100..101 nodes=2
//
// With `--backend file --data-dir DIR` node state is durable: sealed
// containers (one file each) and a versioned per-node manifest live under
// DIR/node-<i>, written atomically (temp file + rename) and fsynced. On
// restart the daemon rebuilds every node's fingerprint and resemblance
// indexes from the sealed containers before it binds the listening socket
// — one RECOVERED line per node, then READY:
//
//   $ node_server --backend file --data-dir /var/lib/sigma --port 7001
//   RECOVERED node=0 endpoint=100 containers=42 chunks=5376 skipped=0
//   READY port=7001 endpoints=100..100 nodes=1
//
// The READY line is machine-parseable (scripts wait for it, and --port 0
// reports the ephemeral port actually bound). The daemon serves until
// SIGINT/SIGTERM, then tears down cleanly: services drain their inboxes
// and — file backend — every open container is sealed to disk, so a
// SIGTERM loses nothing and only a hard kill loses unsealed chunks.
//
// Observability: SIGUSR1 dumps the daemon-wide metrics snapshot (every
// counter, gauge and latency histogram, plus the tracer's counters) to
// stderr without disturbing service; the same dump is printed once more
// on clean shutdown. SIGUSR2 writes the trace flight recorder (the
// per-thread span rings, see obs/trace.h) to the --trace-dump file.
// Remote scraping goes through the kStatsSnapshot and kTraceDump wire
// ops (see tools/fleet_stats and tools/fleet_trace).
//
// Point a client at a fleet with a node map, one entry per hosted node:
//   transport_cluster --tcp 127.0.0.1:7001:100,127.0.0.1:7001:101
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <iostream>
#include <semaphore>
#include <string>

#include "obs/metrics_render.h"
#include "obs/trace.h"
#include "server/node_server.h"

namespace {

// Signals release the semaphore; flags say why it was released (USR1/2
// may fire any number of times before the loop reacts, hence counting).
std::counting_semaphore<> g_signal{0};
volatile std::sig_atomic_t g_shutdown_requested = 0;
volatile std::sig_atomic_t g_dump_requested = 0;
volatile std::sig_atomic_t g_trace_dump_requested = 0;

void handle_shutdown(int) {
  g_shutdown_requested = 1;
  g_signal.release();
}

void handle_dump(int) {
  g_dump_requested = 1;
  g_signal.release();
}

void handle_trace_dump(int) {
  g_trace_dump_requested = 1;
  g_signal.release();
}

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "node_server: " << error << "\n";
  std::cerr << "usage: node_server [--host H] [--port P] [--nodes N]\n"
            << "                   [--first-endpoint E] [--container-mb MB]\n"
            << "                   [--approximate]\n"
            << "                   [--backend memory|file] [--data-dir DIR]\n"
            << "                   [--no-fsync] [--trace-sample N]\n"
            << "                   [--trace-dump FILE] [--registry H:P]\n"
            << "                   [--registry-heartbeat-ms T]\n"
            << "  --host H             listen address (default 127.0.0.1)\n"
            << "  --port P             listen port; 0 picks one (default 0)\n"
            << "  --nodes N            dedup nodes to host, one service\n"
            << "                       thread each (default 1)\n"
            << "  --first-endpoint E   endpoint id of node 0 (default "
            << sigma::net::kServiceEndpointBase << ")\n"
            << "  --container-mb MB    container capacity (default 4)\n"
            << "  --approximate        similarity-index-only dedup (Fig. 5b)\n"
            << "  --backend B          node state storage (default memory);\n"
            << "                       'file' persists containers under\n"
            << "                       --data-dir and recovers them on "
               "restart\n"
            << "  --data-dir DIR       file-backend root (node i stores in\n"
            << "                       DIR/node-<i>)\n"
            << "  --no-fsync           skip fsync on container seal (faster,\n"
            << "                       survives kills but not power loss)\n"
            << "  --trace-sample N     sample one distributed trace per N\n"
            << "                       root decisions; 0 disables (default\n"
            << "                       " << sigma::obs::Tracer::kDefaultSampleEvery
            << "; SIGMA_TRACE_SAMPLE also works)\n"
            << "  --trace-dump FILE    where SIGUSR2 writes the span flight\n"
            << "                       recorder (default\n"
            << "                       sigma-trace.<pid>.bin); merge with\n"
            << "                       fleet_trace --local\n"
            << "  --registry H:P       fleet registry to register this\n"
            << "                       daemon's endpoint range with (see\n"
            << "                       registry_server); clients then find\n"
            << "                       the fleet with --registry instead of\n"
            << "                       a hand-written node map\n"
            << "  --registry-heartbeat-ms T  heartbeat cadence override\n"
            << "                       (default: a third of the lease TTL)\n"
            << "signals: SIGUSR1 dumps the metrics snapshot to stderr;\n"
            << "         SIGUSR2 dumps the trace rings to --trace-dump;\n"
            << "         SIGINT/SIGTERM shut down cleanly\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sigma;

  server::NodeServerConfig config;
  std::string trace_dump_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    auto number = [&](unsigned long max) -> unsigned long {
      try {
        return net::parse_number(value(), max, "value for " + arg);
      } catch (const net::SocketError& e) {
        usage(e.what());
      }
    };
    if (arg == "--host") {
      config.listen.host = value();
    } else if (arg == "--port") {
      config.listen.port = static_cast<std::uint16_t>(number(65535));
    } else if (arg == "--nodes") {
      config.num_nodes = number(4096);
    } else if (arg == "--first-endpoint") {
      config.first_endpoint =
          static_cast<net::EndpointId>(number(0xFFFFFFFFul));
    } else if (arg == "--container-mb") {
      config.node.container_capacity_bytes = number(1ul << 20) << 20;
    } else if (arg == "--approximate") {
      config.node.use_disk_index = false;
    } else if (arg == "--backend") {
      const std::string kind = value();
      if (kind == "memory") {
        config.backend = server::BackendKind::kMemory;
      } else if (kind == "file") {
        config.backend = server::BackendKind::kFile;
      } else {
        usage("unknown backend '" + kind + "' (memory|file)");
      }
    } else if (arg == "--data-dir") {
      config.data_dir = value();
    } else if (arg == "--no-fsync") {
      config.fsync = false;
    } else if (arg == "--trace-sample") {
      obs::Tracer::instance().set_sample_every(
          static_cast<std::uint32_t>(number(0xFFFFFFFFul)));
    } else if (arg == "--trace-dump") {
      trace_dump_path = value();
    } else if (arg == "--registry") {
      try {
        config.registry = net::parse_tcp_address(value());
      } catch (const net::SocketError& e) {
        usage(e.what());
      }
    } else if (arg == "--registry-heartbeat-ms") {
      config.registry_heartbeat_ms =
          static_cast<std::uint32_t>(number(3600000));
    } else if (arg == "--help" || arg == "-h") {
      usage();
    } else {
      usage("unknown option " + arg);
    }
  }
  if (config.backend == server::BackendKind::kFile &&
      config.data_dir.empty()) {
    usage("--backend file requires --data-dir");
  }
  if (config.backend == server::BackendKind::kMemory &&
      !config.data_dir.empty()) {
    usage("--data-dir requires --backend file");
  }

  try {
    // Construction recovers durable state (file backend) before the
    // listening socket exists — RECOVERED and READY are honest.
    server::NodeServer server(config);
    std::signal(SIGINT, handle_shutdown);
    std::signal(SIGTERM, handle_shutdown);
    std::signal(SIGUSR1, handle_dump);
    std::signal(SIGUSR2, handle_trace_dump);
    std::signal(SIGPIPE, SIG_IGN);

    obs::Tracer::instance().set_process_label(
        "node_server:" + std::to_string(server.port()));
    if (trace_dump_path.empty()) {
      trace_dump_path =
          "sigma-trace." + std::to_string(::getpid()) + ".bin";
    }

    if (config.backend == server::BackendKind::kFile) {
      for (std::size_t i = 0; i < server.num_nodes(); ++i) {
        const RecoveryReport& r = server.recovery(i);
        std::cout << "RECOVERED node=" << i << " endpoint="
                  << server.endpoint(i) << " containers="
                  << r.containers_recovered << " chunks="
                  << r.chunks_recovered << " skipped="
                  << r.containers_skipped << "\n";
      }
    }
    if (const ctrl::RegistryClient* rc = server.registry_client()) {
      std::cout << "REGISTERED registry=" << config.registry->to_string()
                << " lease=" << rc->lease_id()
                << " ttl_ms=" << rc->ttl_ms() << "\n";
    }
    std::cout << "READY port=" << server.port() << " endpoints="
              << server.endpoint(0) << ".."
              << server.endpoint(server.num_nodes() - 1)
              << " nodes=" << server.num_nodes() << std::endl;

    // Serve until SIGINT/SIGTERM; SIGUSR1 dumps metrics and SIGUSR2 the
    // trace rings, both without disturbing service.
    for (;;) {
      g_signal.acquire();
      if (g_dump_requested) {
        g_dump_requested = 0;
        std::cerr << "METRICS (SIGUSR1) port=" << server.port() << "\n"
                  << obs::render_text(server.metrics_snapshot());
      }
      if (g_trace_dump_requested) {
        g_trace_dump_requested = 0;
        try {
          obs::Tracer::instance().dump_to_file(trace_dump_path);
          std::cerr << "TRACE (SIGUSR2) port=" << server.port()
                    << " file=" << trace_dump_path << "\n";
        } catch (const std::exception& e) {
          std::cerr << "node_server: trace dump failed: " << e.what()
                    << "\n";
        }
      }
      if (g_shutdown_requested) break;
    }

    // Clean shutdown: seal open containers so a file-backed daemon comes
    // back with everything it had accepted.
    server.flush();
    const obs::MetricsSnapshot final_snapshot = server.metrics_snapshot();

    std::uint64_t served = 0;
    for (std::size_t i = 0; i < server.num_nodes(); ++i) {
      const std::uint64_t* count = final_snapshot.find_counter(
          "svc.node" + std::to_string(i) + ".requests_served");
      if (count) served += *count;
    }
    std::cerr << "node_server: shutting down (" << served
              << " requests served)\n"
              << obs::render_text(final_snapshot);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "node_server: " << e.what() << "\n";
    return 1;
  }
}
