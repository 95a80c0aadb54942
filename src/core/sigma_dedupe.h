// Sigma-Dedupe public middleware API.
//
// This facade is what a downstream user embeds: configure a cluster of
// deduplication nodes and a routing scheme, back up sessions of files,
// restore them, and inspect cluster-wide deduplication metrics.
//
//   MiddlewareConfig cfg;
//   cfg.num_nodes = 8;
//   SigmaDedupe dedupe(cfg);
//   dedupe.backup("monday", files);       // files: {path, bytes}
//   Buffer data = dedupe.restore("monday", "etc/passwd");
//   ClusterReport r = dedupe.report();    // dedup ratio, skew, messages
//
// Everything underneath — chunking, fingerprinting, handprint routing,
// similarity-indexed nodes, containers, recipes — is the system described
// in the paper, assembled.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/backup_client.h"
#include "cluster/cluster.h"
#include "cluster/director.h"
#include "workload/dataset.h"

namespace sigma {

struct MiddlewareConfig {
  std::size_t num_nodes = 4;
  RoutingScheme routing = RoutingScheme::kSigma;
  BackupClientConfig client;
  RouterConfig router;
  DedupNodeConfig node;
  /// Direct in-process calls (default) or node daemons over TCP
  /// (TransportMode::kTcp), with configurable super-chunk write
  /// pipelining.
  TransportConfig transport;
  /// Metrics plane, forwarded to the cluster (must outlive the
  /// middleware). Null = the cluster's private registry.
  obs::Registry* metrics = nullptr;
};

class SigmaDedupe {
 public:
  explicit SigmaDedupe(const MiddlewareConfig& config);

  /// Back up a session of files (inline source deduplication). Sessions
  /// are identified by name; re-using a name adds/replaces files in it.
  BackupSummary backup(const std::string& session,
                       const std::vector<ContentFile>& files,
                       StreamId stream = 0);

  /// Restore one file.
  Buffer restore(const std::string& session, const std::string& path) const;

  /// Cluster-wide deduplication metrics so far.
  ClusterReport report() const;

  /// Seal open containers (call at the end of a backup window).
  void flush();

  const Director& director() const { return director_; }
  Cluster& cluster() { return cluster_; }
  const Cluster& cluster() const { return cluster_; }
  const MiddlewareConfig& config() const { return config_; }

 private:
  MiddlewareConfig config_;
  Cluster cluster_;
  Director director_;
  BackupClient client_;
};

}  // namespace sigma
