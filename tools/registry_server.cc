// Standalone fleet registry daemon: the control plane node daemons
// register their endpoint ranges with and clients fetch the fleet view
// from (see src/ctrl/registry_server.h).
//
//   $ registry_server --port 7000
//   READY port=7000 ttl_ms=5000
//
// Daemons point at it with `node_server --registry 127.0.0.1:7000`;
// clients with `transport_cluster --registry 127.0.0.1:7000`. The READY
// line is machine-parseable (scripts wait for it, and --port 0 reports
// the ephemeral port actually bound).
//
// SIGUSR1 dumps the registry metrics snapshot (lease counts, refusals,
// heartbeats) to stderr; SIGINT/SIGTERM shut down cleanly. The same wire
// endpoint also answers kStatsSnapshot, so fleet_stats can scrape a
// registry like any daemon.
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <semaphore>
#include <string>

#include "ctrl/registry_server.h"
#include "net/tcp/socket.h"
#include "obs/metrics_render.h"

namespace {

std::counting_semaphore<> g_signal{0};
volatile std::sig_atomic_t g_shutdown_requested = 0;
volatile std::sig_atomic_t g_dump_requested = 0;

void handle_shutdown(int) {
  g_shutdown_requested = 1;
  g_signal.release();
}

void handle_dump(int) {
  g_dump_requested = 1;
  g_signal.release();
}

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "registry_server: " << error << "\n";
  std::cerr << "usage: registry_server [--host H] [--port P] [--ttl-ms T]\n"
            << "  --host H      listen address (default 127.0.0.1)\n"
            << "  --port P      listen port; 0 picks one (default 0)\n"
            << "  --ttl-ms T    lease time-to-live; a lease with no\n"
            << "                heartbeat for T ms expires and its range\n"
            << "                is reclaimed (default 5000)\n"
            << "signals: SIGUSR1 dumps the metrics snapshot to stderr;\n"
            << "         SIGINT/SIGTERM shut down cleanly\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sigma;

  ctrl::RegistryServerConfig config;
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
    } else if (arg == "--ttl-ms") {
      config.lease_ttl_ms = static_cast<std::uint32_t>(number(3600000));
      if (config.lease_ttl_ms == 0) usage("--ttl-ms must be positive");
    } else if (arg == "--help" || arg == "-h") {
      usage();
    } else {
      usage("unknown option " + arg);
    }
  }

  try {
    ctrl::RegistryServer server(config);
    std::signal(SIGINT, handle_shutdown);
    std::signal(SIGTERM, handle_shutdown);
    std::signal(SIGUSR1, handle_dump);
    std::signal(SIGPIPE, SIG_IGN);

    std::cout << "READY port=" << server.port()
              << " ttl_ms=" << config.lease_ttl_ms
              << " endpoint=" << net::kRegistryEndpoint << std::endl;

    for (;;) {
      g_signal.acquire();
      if (g_dump_requested) {
        g_dump_requested = 0;
        std::cerr << "METRICS (SIGUSR1) port=" << server.port() << "\n"
                  << obs::render_text(server.metrics_snapshot());
      }
      if (g_shutdown_requested) break;
    }

    const obs::MetricsSnapshot final_snapshot = server.metrics_snapshot();
    std::cerr << "registry_server: shutting down (nodes="
              << server.node_lease_count() << ")\n"
              << obs::render_text(final_snapshot);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "registry_server: " << e.what() << "\n";
    return 1;
  }
}
