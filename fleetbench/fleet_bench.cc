// Fleet benchmark client: backup and restore throughput through a real
// TCP fleet of node_server daemons, with every layer timed from outside.
//
//   fleet_bench --workload linux-versions --seed 1 --seconds 20 --trace 0
//       --node-server build/tools/node_server --work-dir /tmp/fb
//
// Each round starts a fresh fleet (2 daemons x 2 nodes, ephemeral ports,
// file backend under --work-dir), backs the workload up through the public
// Cluster/BackupClient/Director API (kTcp, Sigma routing, pipeline depth
// 4), SIGTERMs the daemons, restarts them over the same data dirs (index
// recovery), restores a seed-chosen file list from a fresh Cluster, checks
// every restored byte, and stops the fleet. Rounds repeat until --seconds
// have passed; every metric is the median over rounds.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
// rounds with traced ones: the traced rounds wrap each public call into a
// layer with bench-side timers, attach an obs::Registry to the client and
// read the daemons' counters by kStatsSnapshot, and print the per-layer
// metrics; --trace-out receives the bench-side spans as Chrome trace JSON.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// The exit code is 0 only when every operation succeeded and every
// correctness gate held.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "chunking/chunker.h"
#include "chunking/super_chunk.h"
#include "cluster/backup_client.h"
#include "cluster/cluster.h"
#include "cluster/director.h"
#include "common/thread_pool.h"
#include "net/message.h"
#include "net/rpc.h"
#include "net/tcp/tcp_transport.h"
#include "obs/metrics.h"
#include "obs/metrics_wire.h"
#include "obs/trace.h"
#include "workload/generators.h"

namespace {

using namespace sigma;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr double kMB = 1e6;
constexpr int kDaemons = 2;
constexpr int kNodesPerDaemon = 2;
constexpr std::size_t kPipelineDepth = 4;
/// Container capacity. The inputs are ~1/1000 of the paper's datasets;
/// 1 MB containers (not the daemon's default 4 MB) keep several sealed
/// containers per node, as a full-size store has, so restore and recovery
/// costs do not hinge on how full one or two containers happen to be.
constexpr int kContainerMB = 1;
constexpr auto kReadyTimeout = std::chrono::seconds(60);
constexpr auto kStopTimeout = std::chrono::seconds(30);
/// Traced backup and restore phases must cover at least this share of
/// their wall time with timed calls.
constexpr double kMaxUnattributedPct = 10.0;
/// Ops whose client RPC and service latencies the traced run reports:
/// the fused probe round of each routing decision, the super-chunk write
/// (which carries the batched duplicate test) and the restore read.
const char* const kTimedOps[] = {"RoutingProbe", "WriteSuperChunk",
                                 "ReadChunk"};

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  bool vm;                       // VmGenerator, else LinuxGenerator
  double scale;                  // generator scale, per stream
  int vms;                       // VM workloads: images per full
  ChunkingScheme chunking;
  int streams;                   // concurrent backup streams
  std::size_t hash_threads;      // BackupClientConfig::hash_threads
  std::uint64_t restore_bytes;   // restore list budget, per stream
};

const Workload kWorkloads[] = {
    // High redundancy, content-defined chunking; many small files.
    {"linux-versions", false, 1.5, 0, ChunkingScheme::kCdc, 1, 4, 9u << 20},
    // Low redundancy, MB-sized images; restore is whole images only.
    // Images are at their 1 MiB floor (scale 0.05) so one restores in
    // well under a second at today's read amplification; 48 VMs instead
    // of the paper's 8 keep the backup phase long enough to time.
    {"vm-fulls", true, 0.05, 48, ChunkingScheme::kStatic, 1, 4, 12u << 20},
    // Four concurrent Linux streams contending on the routing lock.
    {"multi-stream", false, 0.4, 0, ChunkingScheme::kStatic, 4, 1, 3u << 20},
};

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 finalizer: distinct, well-spread generator seeds per
  // (run seed, stream).
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// The restore list is split into this many slices of about equal bytes;
/// round k restores slice k mod kRestoreSlices, so a run restores many
/// files while each round stays short.
constexpr std::size_t kRestoreSlices = 4;

/// One backup stream's input: its sessions (oldest first), the files to
/// restore from the newest session, and the bytes it holds.
struct Stream {
  std::vector<ContentBackup> sessions;
  std::vector<std::vector<std::string>> restore_slices;
  std::uint64_t logical_bytes = 0;
};

/// A seed-chosen file list from the newest session within the workload's
/// byte budget (VM workloads: whole disk images only), dealt into
/// kRestoreSlices slices, largest file first to the lightest slice.
std::vector<std::vector<std::string>> pick_restore_slices(
    const ContentBackup& newest, const Workload& w, std::uint64_t seed) {
  std::vector<std::size_t> order(newest.files.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  // Images are the only VM files of 1 MiB or more.
  const std::size_t min_size = w.vm ? (1u << 20) : 1;
  std::vector<const ContentFile*> list;
  std::uint64_t total = 0;
  for (std::size_t i : order) {
    const ContentFile& f = newest.files[i];
    if (f.data.size() < min_size || total + f.data.size() > w.restore_bytes) {
      continue;
    }
    list.push_back(&f);
    total += f.data.size();
  }
  if (list.size() < kRestoreSlices) {
    throw std::logic_error("restore budget too small for the slices");
  }
  std::stable_sort(list.begin(), list.end(),
                   [](const ContentFile* a, const ContentFile* b) {
                     return a->data.size() > b->data.size();
                   });
  std::vector<std::vector<std::string>> slices(kRestoreSlices);
  std::vector<std::uint64_t> bytes(kRestoreSlices, 0);
  for (const ContentFile* f : list) {
    const std::size_t k = static_cast<std::size_t>(
        std::min_element(bytes.begin(), bytes.end()) - bytes.begin());
    slices[k].push_back(f->path);
    bytes[k] += f->data.size();
  }
  return slices;
}

std::vector<Stream> generate(const Workload& w, std::uint64_t seed) {
  std::vector<Stream> streams(static_cast<std::size_t>(w.streams));
  for (int s = 0; s < w.streams; ++s) {
    Stream& st = streams[static_cast<std::size_t>(s)];
    const std::uint64_t gen_seed = mix_seed(seed, static_cast<std::uint64_t>(s));
    if (w.vm) {
      VmWorkloadConfig cfg = VmWorkloadConfig::scaled(w.scale);
      // Keep the default Windows:Linux guest mix (3 of 8).
      cfg.windows_vms = w.vms * cfg.windows_vms / cfg.vms;
      cfg.vms = w.vms;
      cfg.seed = gen_seed;
      st.sessions = VmGenerator(cfg).content();
    } else {
      LinuxWorkloadConfig cfg = LinuxWorkloadConfig::scaled(w.scale);
      cfg.seed = gen_seed;
      st.sessions = LinuxGenerator(cfg).content();
    }
    for (ContentBackup& b : st.sessions) {
      // Streams share one director: keep their session names apart.
      if (w.streams > 1) b.session = "s" + std::to_string(s) + "/" + b.session;
      st.logical_bytes += b.logical_bytes();
    }
    st.restore_slices = pick_restore_slices(st.sessions.back(), w, gen_seed);
  }
  return streams;
}

const ContentFile& source_file(const Stream& st, const std::string& path) {
  for (const ContentFile& f : st.sessions.back().files) {
    if (f.path == path) return f;
  }
  throw std::logic_error("restore list names an unknown file " + path);
}

// ---------------------------------------------------------------------------
// Bench-side spans, written once as Chrome trace JSON.
// ---------------------------------------------------------------------------

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  /// Record a finished span with no children.
  void add(const std::string& name, std::uint64_t trace, std::uint64_t parent,
           int tid, Clock::time_point start, Clock::time_point end) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, trace, ++last_id_, parent, tid, start, end});
  }

  /// Reserve an id for a span whose children finish before it does.
  std::uint64_t reserve() {
    std::lock_guard<std::mutex> lock(mu_);
    return ++last_id_;
  }
  void add_reserved(std::uint64_t id, const std::string& name,
                    std::uint64_t trace, std::uint64_t parent, int tid,
                    Clock::time_point start, Clock::time_point end) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, trace, id, parent, tid, start, end});
  }

  void write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    out << "{\"traceEvents\": [";
    char buf[512];
    const int pid = static_cast<int>(::getpid());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double ts =
          std::chrono::duration<double, std::micro>(s.start - origin_).count();
      const double dur =
          std::chrono::duration<double, std::micro>(s.end - s.start).count();
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %d, "
                    "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                    "{\"trace_id\": \"%016llx%016llx\", \"span_id\": "
                    "\"%016llx\", \"parent_span_id\": \"%016llx\"}}",
                    i == 0 ? "" : ",", s.name.c_str(), pid, s.tid, ts, dur,
                    0ull, static_cast<unsigned long long>(s.trace),
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent));
      out << buf;
    }
    out << "\n]}\n";
    if (!out) throw std::runtime_error("cannot write trace file " + path);
  }

 private:
  struct Span {
    std::string name;
    std::uint64_t trace, id, parent;
    int tid;
    Clock::time_point start, end;
  };
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::uint64_t last_id_ = 0;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Fleet lifecycle: node_server daemons as child processes.
// ---------------------------------------------------------------------------

/// One node_server process. The child dies with this process
/// (PR_SET_PDEATHSIG), and the destructor SIGKILLs and reaps it if it is
/// still running, so no exit path leaks a daemon.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::vector<std::string>& args,
         const fs::path& log) {
    std::vector<std::string> argv_store;
    argv_store.push_back(binary);
    argv_store.insert(argv_store.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& a : argv_store) argv.push_back(a.data());
    argv.push_back(nullptr);
    const std::string log_path = log.string();

    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
      throw std::runtime_error("pipe2: " + std::string(std::strerror(errno)));
    }
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      throw std::runtime_error("fork: " + std::string(std::strerror(errno)));
    }
    if (pid == 0) {
      // Child: only async-signal-safe calls until exec.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(fds[1], STDOUT_FILENO);
      const int log_fd =
          ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (log_fd >= 0) {
        ::dup2(log_fd, STDERR_FILENO);
        ::close(log_fd);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    pid_ = pid;
    out_fd_ = fds[0];
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (out_fd_ >= 0) ::close(out_fd_);
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Read stdout until READY; RECOVERED lines before it are summed.
  void wait_ready(Clock::time_point deadline) {
    std::string pending;
    for (;;) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) throw std::runtime_error("daemon: no READY");
      pollfd p{out_fd_, POLLIN, 0};
      if (::poll(&p, 1, static_cast<int>(left.count())) < 0 && errno != EINTR) {
        throw std::runtime_error("poll: " + std::string(std::strerror(errno)));
      }
      char buf[4096];
      const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
      if (n == 0) throw std::runtime_error("daemon exited before READY");
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN) continue;
        throw std::runtime_error("read: " + std::string(std::strerror(errno)));
      }
      pending.append(buf, static_cast<std::size_t>(n));
      std::size_t eol;
      while ((eol = pending.find('\n')) != std::string::npos) {
        const std::string line = pending.substr(0, eol);
        pending.erase(0, eol + 1);
        if (line.rfind("RECOVERED ", 0) == 0) {
          recovered_containers_ += field(line, "containers");
          recovered_chunks_ += field(line, "chunks");
        } else if (line.rfind("READY ", 0) == 0) {
          port_ = static_cast<std::uint16_t>(field(line, "port"));
          return;
        }
      }
    }
  }

  /// SIGTERM and reap. Returns true on a clean (status 0) exit.
  bool terminate() {
    if (pid_ <= 0) return false;
    ::kill(pid_, SIGTERM);
    const auto deadline = Clock::now() + kStopTimeout;
    int status = 0;
    for (;;) {
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) break;
      if (Clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  /// Peak resident set (VmHWM) in MB; 0 when unreadable.
  double peak_rss_mb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return static_cast<double>(std::stoull(line.substr(6))) * 1024.0 / kMB;
      }
    }
    return 0.0;
  }

  std::uint16_t port() const { return port_; }
  std::uint64_t recovered_containers() const { return recovered_containers_; }
  std::uint64_t recovered_chunks() const { return recovered_chunks_; }

 private:
  static std::uint64_t field(const std::string& line, const std::string& key) {
    const std::size_t at = line.find(" " + key + "=");
    if (at == std::string::npos) {
      throw std::runtime_error("daemon line lacks " + key + ": " + line);
    }
    return std::stoull(line.substr(at + key.size() + 2));
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
  std::uint64_t recovered_containers_ = 0;
  std::uint64_t recovered_chunks_ = 0;
};

/// The 2-daemon x 2-node fleet over one data root. start() after stop()
/// restarts it over the same data dirs (new ports, same endpoints).
class Fleet {
 public:
  Fleet(std::string binary, fs::path root)
      : binary_(std::move(binary)), root_(std::move(root)) {}

  void start() {
    daemons_.clear();
    for (int d = 0; d < kDaemons; ++d) {
      const fs::path dir = root_ / ("daemon-" + std::to_string(d));
      daemons_.push_back(std::make_unique<Daemon>(
          binary_,
          std::vector<std::string>{
              "--port", "0", "--nodes", std::to_string(kNodesPerDaemon),
              "--first-endpoint", std::to_string(first_endpoint(d)),
              "--backend", "file", "--data-dir", dir.string(),
              "--container-mb", std::to_string(kContainerMB),
              "--trace-sample", "0"},
          root_ / ("daemon-" + std::to_string(d) + "." +
                   std::to_string(++starts_) + ".log")));
      daemons_.back()->wait_ready(Clock::now() + kReadyTimeout);
    }
  }

  /// SIGTERM every daemon; true when all exited cleanly.
  bool stop() {
    bool clean = true;
    for (auto& d : daemons_) clean = d->terminate() && clean;
    daemons_.clear();
    return clean;
  }

  std::vector<net::TcpNodeAddress> node_map() const {
    std::vector<net::TcpNodeAddress> map;
    for (int d = 0; d < kDaemons; ++d) {
      for (int n = 0; n < kNodesPerDaemon; ++n) {
        net::TcpNodeAddress a;
        a.address.port = daemons_.at(static_cast<std::size_t>(d))->port();
        a.endpoint = first_endpoint(d) + static_cast<net::EndpointId>(n);
        map.push_back(a);
      }
    }
    return map;
  }

  /// One kStatsSnapshot per daemon, merged (node labels are daemon-local,
  /// so per-node series of both daemons fold together).
  obs::MetricsSnapshot scrape() {
    obs::MetricsSnapshot merged;
    for (int d = 0; d < kDaemons; ++d) {
      net::TcpTransportConfig tcp;
      tcp.reactors = 1;
      // A fresh client id per scrape, far from the cluster's range, so no
      // daemon sees two connections claim one endpoint id.
      tcp.endpoint_base = kScrapeEndpointBase + 16 * (++scrapes_);
      net::TcpAddress addr;
      addr.port = daemons_.at(static_cast<std::size_t>(d))->port();
      tcp.remote_endpoints.emplace(first_endpoint(d), addr);
      net::TcpTransport transport(std::move(tcp));
      net::RpcEndpoint rpc(transport);
      const Buffer body =
          rpc.call_sync(first_endpoint(d), net::MessageType::kStatsSnapshot,
                        Buffer{}, std::chrono::milliseconds(10000));
      merged.merge(
          obs::decode_metrics_snapshot(ByteView{body.data(), body.size()}));
    }
    return merged;
  }

  double peak_rss_mb() const {
    double total = 0.0;
    for (const auto& d : daemons_) total += d->peak_rss_mb();
    return total;
  }

  std::uint64_t recovered_containers() const {
    std::uint64_t n = 0;
    for (const auto& d : daemons_) n += d->recovered_containers();
    return n;
  }
  std::uint64_t recovered_chunks() const {
    std::uint64_t n = 0;
    for (const auto& d : daemons_) n += d->recovered_chunks();
    return n;
  }

 private:
  static constexpr net::EndpointId kScrapeEndpointBase =
      net::kClientEndpointBase + 0x10000000;

  static net::EndpointId first_endpoint(int daemon) {
    return net::kServiceEndpointBase +
           static_cast<net::EndpointId>(daemon * kNodesPerDaemon);
  }

  std::string binary_;
  fs::path root_;
  std::vector<std::unique_ptr<Daemon>> daemons_;
  int starts_ = 0;
  net::EndpointId scrapes_ = 0;
};

// ---------------------------------------------------------------------------
// Snapshot helpers.
// ---------------------------------------------------------------------------

std::uint64_t counter(const obs::MetricsSnapshot& s, const std::string& name) {
  const std::uint64_t* v = s.find_counter(name);
  return v ? *v : 0;
}

/// Sum of a per-node counter ("<prefix>.node<i>.<suffix>") over every
/// node label present.
std::uint64_t node_sum(const obs::MetricsSnapshot& s, const std::string& prefix,
                       const std::string& suffix) {
  std::uint64_t total = 0;
  for (int n = 0; n < kNodesPerDaemon; ++n) {
    total += counter(s, prefix + ".node" + std::to_string(n) + "." + suffix);
  }
  return total;
}

void add_histogram(obs::HistogramSnapshot& into,
                   const obs::HistogramSnapshot* h) {
  if (h == nullptr || h->count == 0) return;
  into.min = into.count == 0 ? h->min : std::min(into.min, h->min);
  into.max = std::max(into.max, h->max);
  into.count += h->count;
  into.sum += h->sum;
  if (into.buckets.size() < h->buckets.size()) {
    into.buckets.resize(h->buckets.size(), 0);
  }
  for (std::size_t i = 0; i < h->buckets.size(); ++i) {
    into.buckets[i] += h->buckets[i];
  }
}

/// Merge of a per-node histogram over every node label.
obs::HistogramSnapshot node_histogram(const obs::MetricsSnapshot& s,
                                      const std::string& prefix,
                                      const std::string& suffix) {
  obs::HistogramSnapshot h;
  for (int n = 0; n < kNodesPerDaemon; ++n) {
    add_histogram(h, s.find_histogram(prefix + ".node" + std::to_string(n) +
                                      "." + suffix));
  }
  return h;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Traced backup/restore: the same public calls BackupClient makes, each
// wrapped in a timer and a span.
// ---------------------------------------------------------------------------

/// Bench-side layer timers of one traced round (summed over streams).
struct LayerTimes {
  double chunk_s = 0, fingerprint_s = 0, place_s = 0, recipe_s = 0;
  double flush_s = 0, read_chunk_s = 0;
  double backup_streams_s = 0;  // summed per-stream backup wall
  double restore_streams_s = 0;  // summed per-stream restore wall
  std::uint64_t super_chunks = 0;
  obs::Histogram place_us, read_chunk_us;
};

struct TraceCtx {
  SpanLog* spans;
  std::uint64_t trace;   // one trace id per round
  std::uint64_t parent;  // the phase span
  int tid;               // stream index + 1
};

/// Mirror of BackupClient::backup (src/cluster/backup_client.cc) with its
/// sequential phases timed: chunk, fingerprint, place, recipe.
void traced_backup(const ContentBackup& session, StreamId stream,
                   const BackupClientConfig& cfg, ThreadPool* pool,
                   Cluster& cluster, Director& director, LayerTimes& lt,
                   std::mutex& lt_mu, const TraceCtx& tc) {
  struct StreamChunk {
    ChunkRecord record;
    ByteView payload;
    std::size_t file_index;
  };
  auto parallel_over = [&](std::size_t n, std::size_t min_per_shard,
                           const std::function<void(std::size_t)>& fn) {
    if (pool == nullptr || n < 2 * min_per_shard) {
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    const std::size_t shards = std::min(pool->size(), n / min_per_shard);
    pool->parallel_for(shards, [&](std::size_t s) {
      for (std::size_t i = s; i < n; i += shards) fn(i);
    });
  };

  const auto t_session = Clock::now();
  const std::uint64_t session_span = tc.spans->reserve();
  auto span = [&](const char* name, Clock::time_point a, Clock::time_point b) {
    tc.spans->add(name, tc.trace, session_span, tc.tid, a, b);
  };

  const auto chunker = make_chunker(cfg.chunking, cfg.chunk_bytes);
  const auto t_chunk = Clock::now();
  std::vector<std::vector<ChunkBoundary>> boundaries(session.files.size());
  parallel_over(session.files.size(), 1, [&](std::size_t f) {
    const auto& file = session.files[f];
    boundaries[f] =
        chunker->chunk(ByteView{file.data.data(), file.data.size()});
  });
  const auto t_chunk_end = Clock::now();
  span("chunking.chunk", t_chunk, t_chunk_end);

  std::vector<StreamChunk> chunks;
  for (std::size_t f = 0; f < session.files.size(); ++f) {
    const auto& file = session.files[f];
    const ByteView data{file.data.data(), file.data.size()};
    for (const ChunkBoundary& b : boundaries[f]) {
      chunks.push_back(
          {{Fingerprint{}, b.size}, data.subspan(b.offset, b.size), f});
    }
  }

  const auto t_fp = Clock::now();
  parallel_over(chunks.size(), 16, [&](std::size_t i) {
    chunks[i].record.fp = Fingerprint::of(chunks[i].payload, cfg.hash);
  });
  const auto t_fp_end = Clock::now();
  span("common.fingerprint", t_fp, t_fp_end);

  const auto t_place = Clock::now();
  const std::uint64_t place_span = tc.spans->reserve();
  double place_calls_s = 0;
  std::uint64_t super_chunks = 0;
  std::vector<NodeId> chunk_node(chunks.size());
  std::size_t window_start = 0;
  SuperChunkBuilder builder(cfg.super_chunk_bytes);
  auto dispatch = [&](SuperChunk&& sc, std::size_t end) {
    if (sc.chunks.empty()) return;
    const std::size_t base = window_start;
    const auto t0 = Clock::now();
    const NodeId target = cluster.place_super_chunk(
        sc, stream,
        [&chunks, base](std::size_t i) { return chunks[base + i].payload; });
    const auto t1 = Clock::now();
    tc.spans->add("cluster.place_super_chunk", tc.trace, place_span, tc.tid,
                  t0, t1);
    place_calls_s += std::chrono::duration<double>(t1 - t0).count();
    lt.place_us.observe(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
            .count()));
    for (std::size_t i = window_start; i < end; ++i) chunk_node[i] = target;
    ++super_chunks;
    window_start = end;
  };
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    if (builder.add(chunks[i].record)) dispatch(builder.take(), i + 1);
  }
  dispatch(builder.flush(), chunks.size());
  const auto t_place_end = Clock::now();
  tc.spans->add_reserved(place_span, "cluster.place", tc.trace, session_span,
                         tc.tid, t_place, t_place_end);

  const auto t_recipe = Clock::now();
  std::vector<FileRecipe> recipes(session.files.size());
  for (std::size_t f = 0; f < session.files.size(); ++f) {
    recipes[f].path = session.files[f].path;
  }
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    recipes[chunks[i].file_index].chunks.push_back(
        {chunks[i].record.fp, chunks[i].record.size, chunk_node[i]});
  }
  for (auto& recipe : recipes) {
    director.record_file(session.session, std::move(recipe));
  }
  const auto t_end = Clock::now();
  span("cluster.record_file", t_recipe, t_end);
  tc.spans->add_reserved(session_span, "backup.session", tc.trace, tc.parent,
                         tc.tid, t_session, t_end);

  std::lock_guard<std::mutex> lock(lt_mu);
  lt.chunk_s += std::chrono::duration<double>(t_chunk_end - t_chunk).count();
  lt.fingerprint_s += std::chrono::duration<double>(t_fp_end - t_fp).count();
  lt.place_s += place_calls_s;
  lt.recipe_s += std::chrono::duration<double>(t_end - t_recipe).count();
  lt.super_chunks += super_chunks;
}

/// Mirror of BackupClient::restore with each Cluster::read_chunk timed.
Buffer traced_restore(const Cluster& cluster, const Director& director,
                      const std::string& session, const std::string& path,
                      LayerTimes& lt, std::mutex& lt_mu, const TraceCtx& tc) {
  const auto recipe = director.find(session, path);
  if (!recipe) throw std::runtime_error("restore: unknown file " + path);
  const auto t_file = Clock::now();
  const std::uint64_t file_span = tc.spans->reserve();
  Buffer out;
  out.reserve(recipe->logical_bytes());
  double read_s = 0;
  for (const auto& entry : recipe->chunks) {
    const auto t0 = Clock::now();
    auto chunk = cluster.read_chunk(entry.node, entry.fp);
    const auto t1 = Clock::now();
    tc.spans->add("cluster.read_chunk", tc.trace, file_span, tc.tid, t0, t1);
    read_s += std::chrono::duration<double>(t1 - t0).count();
    lt.read_chunk_us.observe(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
            .count()));
    if (!chunk || chunk->size() != entry.size) {
      throw std::runtime_error("restore: bad chunk " + entry.fp.hex());
    }
    out.insert(out.end(), chunk->begin(), chunk->end());
  }
  tc.spans->add_reserved(file_span, "restore.file", tc.trace, tc.parent,
                         tc.tid, t_file, Clock::now());
  std::lock_guard<std::mutex> lock(lt_mu);
  lt.read_chunk_s += read_s;
  return out;
}

// ---------------------------------------------------------------------------
// One round.
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string node_server;
  fs::path work_dir;
  std::string trace_out;
  bool corrupt_restore = false;  // gate self-test: flip one restored byte
};

struct RoundResult {
  std::uint64_t attempted = 0, failed = 0;
  bool gate_ok = true;
  std::size_t slice = 0;  // restore slice of this round
  // End-to-end.
  double setup_s = 0, backup_s = 0, restore_s = 0, recovery_s = 0;
  std::uint64_t logical = 0, physical = 0, restored = 0, wire_bytes = 0,
                wire_msgs = 0, pre_routing_msgs = 0;
  double rss_mb = 0;
  // Traced rounds only.
  bool traced = false;
  LayerTimes* layers = nullptr;
  obs::MetricsSnapshot backup_delta, restore_delta;  // daemon counters
  obs::MetricsSnapshot backup_end, restore_end;      // daemon histograms
  std::uint64_t recovered_containers = 0, recovered_chunks = 0;
};

void note_failure(RoundResult& r, const std::string& what) {
  std::cerr << "fleet_bench: FAIL " << what << "\n";
  ++r.failed;
}

/// Counters of `after` minus `before` (the gate and ratio inputs).
obs::MetricsSnapshot counter_delta(const obs::MetricsSnapshot& after,
                                   const obs::MetricsSnapshot& before) {
  obs::MetricsSnapshot d;
  for (const auto& c : after.counters) {
    d.add_counter(c.name, c.value - counter(before, c.name));
  }
  return d;
}

void check_daemon_errors(RoundResult& r, const obs::MetricsSnapshot& delta,
                         const char* phase) {
  for (const char* name : {"tcp.handshake_failures", "net.errors"}) {
    if (counter(delta, name) != 0) {
      r.gate_ok = false;
      note_failure(r, std::string(phase) + ": daemon " + name + " rose by " +
                          std::to_string(counter(delta, name)));
    }
  }
}

ClusterConfig cluster_config(const std::vector<net::TcpNodeAddress>& nodes,
                             obs::Registry* metrics) {
  ClusterConfig cfg;
  cfg.num_nodes = nodes.size();
  cfg.scheme = RoutingScheme::kSigma;
  cfg.transport.mode = TransportMode::kTcp;
  cfg.transport.pipeline_depth = kPipelineDepth;
  cfg.transport.tcp_nodes = nodes;
  cfg.metrics = metrics;
  return cfg;
}

RoundResult run_round(const Options& opt, const Workload& w,
                      const std::vector<Stream>& streams, int round,
                      bool traced, obs::Registry& registry, LayerTimes* lt,
                      SpanLog& spans) {
  RoundResult r;
  // Round 0 is the warm-up; measured rounds cycle through the slices.
  const std::size_t slice =
      round == 0 ? 0 : static_cast<std::size_t>(round - 1) % kRestoreSlices;
  r.slice = slice;
  r.traced = traced;
  r.layers = lt;
  obs::Registry* metrics = traced ? &registry : nullptr;
  const fs::path root = opt.work_dir / ("round-" + std::to_string(round));
  fs::remove_all(root);
  fs::create_directories(root);
  std::mutex lt_mu;
  const std::uint64_t trace_id = static_cast<std::uint64_t>(round) + 1;
  const int n_streams = static_cast<int>(streams.size());

  BackupClientConfig bcfg;
  bcfg.chunking = w.chunking;
  bcfg.chunk_bytes = 4096;
  bcfg.hash_threads = w.hash_threads;

  Fleet fleet(opt.node_server, root);
  Director director;

  // ---- Set-up: launch -> READY -> cluster connected. ----
  const auto t_setup = Clock::now();
  fleet.start();
  {
    Cluster cluster(cluster_config(fleet.node_map(), metrics));
    (void)cluster.report();  // one round trip to every node
    r.setup_s = seconds_since(t_setup);
    const obs::MetricsSnapshot before = fleet.scrape();

    // ---- Backup: first backup() call until flush() returns. ----
    const net::NetStats net0 = cluster.net_stats();
    std::vector<std::uint64_t> ops_failed(streams.size(), 0);
    std::vector<double> stream_wall(streams.size(), 0.0);
    const auto t_backup = Clock::now();
    const std::uint64_t backup_span = spans.reserve();
    auto run_stream = [&](int s) {
      const Stream& st = streams[static_cast<std::size_t>(s)];
      const auto t0 = Clock::now();
      BackupClient client(bcfg, cluster, director);
      std::unique_ptr<ThreadPool> pool;
      if (traced && w.hash_threads > 1) {
        pool = std::make_unique<ThreadPool>(w.hash_threads);
      }
      const TraceCtx tc{&spans, trace_id, backup_span, s + 1};
      for (const ContentBackup& session : st.sessions) {
        try {
          if (traced) {
            traced_backup(session, static_cast<StreamId>(s), bcfg, pool.get(),
                          cluster, director, *lt, lt_mu, tc);
          } else {
            client.backup(session, static_cast<StreamId>(s));
          }
        } catch (const std::exception& e) {
          std::cerr << "fleet_bench: backup " << session.session << ": "
                    << e.what() << "\n";
          ++ops_failed[static_cast<std::size_t>(s)];
        }
      }
      stream_wall[static_cast<std::size_t>(s)] = seconds_since(t0);
    };
    if (n_streams == 1) {
      run_stream(0);
    } else {
      std::vector<std::thread> threads;
      for (int s = 0; s < n_streams; ++s) threads.emplace_back(run_stream, s);
      for (auto& t : threads) t.join();
    }
    const auto t_flush = Clock::now();
    cluster.flush();
    const auto t_backup_end = Clock::now();
    r.backup_s = std::chrono::duration<double>(t_backup_end - t_backup).count();
    spans.add("cluster.flush", trace_id, backup_span, 0, t_flush,
              t_backup_end);
    spans.add_reserved(backup_span, "backup", trace_id, 0, 0, t_backup,
                       t_backup_end);
    const net::NetStats net1 = cluster.net_stats();
    const ClusterReport report = cluster.report();

    std::uint64_t generated = 0;
    for (const Stream& st : streams) {
      generated += st.logical_bytes;
      r.attempted += st.sessions.size();
    }
    for (std::uint64_t f : ops_failed) r.failed += f;
    if (report.logical_bytes != generated) {
      r.gate_ok = false;
      note_failure(r, "cluster logical_bytes " +
                          std::to_string(report.logical_bytes) +
                          " != generated " + std::to_string(generated));
    }
    r.logical = generated;
    r.physical = report.physical_bytes;
    r.pre_routing_msgs = report.messages.pre_routing;
    r.wire_bytes = net1.bytes_sent - net0.bytes_sent;
    r.wire_msgs = net1.messages_sent - net0.messages_sent;
    if (lt) {
      lt->flush_s += std::chrono::duration<double>(t_backup_end - t_flush)
                         .count();
      for (double s : stream_wall) lt->backup_streams_s += s;
    }

    const obs::MetricsSnapshot after = fleet.scrape();
    r.backup_delta = counter_delta(after, before);
    r.backup_end = after;
    check_daemon_errors(r, r.backup_delta, "backup");
    r.rss_mb = fleet.peak_rss_mb();
  }
  if (!fleet.stop()) {
    r.gate_ok = false;
    note_failure(r, "daemon did not exit cleanly after backup");
  }

  // ---- Recovery: restart over the same data dirs -> READY. ----
  const auto t_recover = Clock::now();
  fleet.start();
  r.recovery_s = seconds_since(t_recover);
  r.recovered_containers = fleet.recovered_containers();
  r.recovered_chunks = fleet.recovered_chunks();
  {
    Cluster cluster(cluster_config(fleet.node_map(), metrics));
    (void)cluster.report();
    const obs::MetricsSnapshot before = fleet.scrape();

    // ---- Restore: a fresh cluster and client, the first run's director.
    const auto t_restore = Clock::now();
    const std::uint64_t restore_span = spans.reserve();
    std::vector<std::uint64_t> restored(streams.size(), 0);
    std::vector<std::uint64_t> ops_failed(streams.size(), 0);
    std::vector<double> stream_wall(streams.size(), 0.0);
    auto restore_stream = [&](int s) {
      const Stream& st = streams[static_cast<std::size_t>(s)];
      const auto t0 = Clock::now();
      BackupClient client(bcfg, cluster, director);
      const TraceCtx tc{&spans, trace_id, restore_span, s + 1};
      const std::string& session = st.sessions.back().session;
      const std::vector<std::string>& list = st.restore_slices[slice];
      for (const std::string& path : list) {
        try {
          Buffer out = traced ? traced_restore(cluster, director, session,
                                               path, *lt, lt_mu, tc)
                              : client.restore(session, path);
          if (opt.corrupt_restore && s == 0 && path == list[0] &&
              !out.empty()) {
            out[out.size() / 2] ^= 0x01;
          }
          const ContentFile& src = source_file(st, path);
          if (out != src.data) {
            std::cerr << "fleet_bench: restored " << path
                      << " differs from its source\n";
            ++ops_failed[static_cast<std::size_t>(s)];
          }
          restored[static_cast<std::size_t>(s)] += out.size();
        } catch (const std::exception& e) {
          std::cerr << "fleet_bench: restore " << path << ": " << e.what()
                    << "\n";
          ++ops_failed[static_cast<std::size_t>(s)];
        }
      }
      stream_wall[static_cast<std::size_t>(s)] = seconds_since(t0);
    };
    if (n_streams == 1) {
      restore_stream(0);
    } else {
      std::vector<std::thread> threads;
      for (int s = 0; s < n_streams; ++s) {
        threads.emplace_back(restore_stream, s);
      }
      for (auto& t : threads) t.join();
    }
    const auto t_restore_end = Clock::now();
    r.restore_s =
        std::chrono::duration<double>(t_restore_end - t_restore).count();
    spans.add_reserved(restore_span, "restore", trace_id, 0, 0, t_restore,
                       t_restore_end);
    for (std::size_t s = 0; s < streams.size(); ++s) {
      r.attempted += streams[s].restore_slices[slice].size();
      r.failed += ops_failed[s];
      r.restored += restored[s];
      if (lt) lt->restore_streams_s += stream_wall[s];
    }

    const obs::MetricsSnapshot after = fleet.scrape();
    r.restore_delta = counter_delta(after, before);
    r.restore_end = after;
    check_daemon_errors(r, r.restore_delta, "restore");
    r.rss_mb = std::max(r.rss_mb, fleet.peak_rss_mb());
  }
  if (!fleet.stop()) {
    r.gate_ok = false;
    note_failure(r, "daemon did not exit cleanly after restore");
  }
  fs::remove_all(root);
  return r;
}

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<Metric> end_to_end(const std::vector<RoundResult>& rounds) {
  std::vector<double> backup, dr, eff, wire, setup, recovery, rss;
  // Restore: every slice's bytes over its median restore time, summed
  // over slices, so the rate covers the whole list whatever the number
  // of rounds.
  std::vector<std::uint64_t> slice_bytes(kRestoreSlices, 0);
  std::vector<std::vector<double>> slice_s(kRestoreSlices);
  for (const RoundResult& r : rounds) {
    if (r.traced) continue;
    const double logical = static_cast<double>(r.logical);
    backup.push_back(logical / r.backup_s / kMB);
    slice_bytes[r.slice] = r.restored;
    slice_s[r.slice].push_back(r.restore_s);
    dr.push_back(r.physical == 0 ? 0.0 : logical / static_cast<double>(r.physical));
    eff.push_back((logical - static_cast<double>(r.physical)) / r.backup_s /
                  kMB);
    wire.push_back(static_cast<double>(r.wire_bytes) / logical);
    setup.push_back(r.setup_s);
    recovery.push_back(r.recovery_s);
    rss.push_back(r.rss_mb);
  }
  double restored = 0, restore_s = 0;
  for (std::size_t k = 0; k < kRestoreSlices; ++k) {
    if (slice_s[k].empty()) continue;
    restored += static_cast<double>(slice_bytes[k]);
    restore_s += median(slice_s[k]);
  }
  return {{"backup_mbps", median(backup), "MB/s"},
          {"restore_mbps", restored / restore_s / kMB, "MB/s"},
          {"dedup_ratio", median(dr), "ratio"},
          {"dedup_efficiency_mbps", median(eff), "MB/s"},
          {"wire_bytes_per_byte", median(wire), "ratio"},
          {"setup_s", median(setup), "s"},
          {"recovery_s", median(recovery), "s"},
          {"fleet_rss_mb", median(rss), "MB"}};
}

std::vector<Metric> per_layer(const std::vector<RoundResult>& rounds,
                              const obs::Registry& registry,
                              bool& gate_ok) {
  std::vector<double> chunk, fp, fp_mbps, place, flush, recipe, read, probes,
      msgs_per_mb, dup_frac, disk_lookups, prefetches, write_amp, read_amp,
      rec_containers, rec_chunks, unattr_backup, unattr_restore,
      traced_mbps, untraced_mbps;
  obs::HistogramSnapshot place_us, read_us;
  obs::MetricsSnapshot backup_end, restore_end;
  std::uint64_t stalls = 0;
  for (const RoundResult& r : rounds) {
    const double logical = static_cast<double>(r.logical);
    (r.traced ? traced_mbps : untraced_mbps)
        .push_back(logical / r.backup_s / kMB);
    if (!r.traced) continue;
    const LayerTimes& lt = *r.layers;
    chunk.push_back(lt.chunk_s);
    fp.push_back(lt.fingerprint_s);
    fp_mbps.push_back(logical / lt.fingerprint_s / kMB);
    place.push_back(lt.place_s);
    flush.push_back(lt.flush_s);
    recipe.push_back(lt.recipe_s);
    read.push_back(lt.read_chunk_s);
    probes.push_back(static_cast<double>(r.pre_routing_msgs) /
                     static_cast<double>(lt.super_chunks));
    msgs_per_mb.push_back(static_cast<double>(r.wire_msgs) / (logical / kMB));
    const std::uint64_t dup = node_sum(r.backup_delta, "node", "duplicate_chunks");
    const std::uint64_t uniq = node_sum(r.backup_delta, "node", "unique_chunks");
    const double looked_up = static_cast<double>(dup + uniq);
    dup_frac.push_back(static_cast<double>(dup) / looked_up);
    disk_lookups.push_back(
        static_cast<double>(node_sum(r.backup_delta, "node", "disk_index_lookups")) /
        looked_up);
    prefetches.push_back(
        static_cast<double>(node_sum(r.backup_delta, "node", "container_prefetches")) /
        static_cast<double>(node_sum(r.backup_delta, "node", "super_chunks")));
    write_amp.push_back(
        static_cast<double>(node_sum(r.backup_delta, "store", "bytes_written")) /
        static_cast<double>(r.physical));
    read_amp.push_back(
        static_cast<double>(node_sum(r.restore_delta, "store", "bytes_read")) /
        static_cast<double>(r.restored));
    rec_containers.push_back(static_cast<double>(r.recovered_containers));
    rec_chunks.push_back(static_cast<double>(r.recovered_chunks));
    const double covered_backup =
        lt.chunk_s + lt.fingerprint_s + lt.place_s + lt.recipe_s + lt.flush_s;
    unattr_backup.push_back(
        100.0 * (1.0 - covered_backup / (lt.backup_streams_s + lt.flush_s)));
    unattr_restore.push_back(
        100.0 * (1.0 - lt.read_chunk_s / lt.restore_streams_s));
    const obs::HistogramSnapshot places = lt.place_us.snapshot("place_us");
    add_histogram(place_us, &places);
    const obs::HistogramSnapshot reads = lt.read_chunk_us.snapshot("read_us");
    add_histogram(read_us, &reads);
    backup_end.merge(r.backup_end);
    restore_end.merge(r.restore_end);
    stalls += counter(r.backup_delta, "tcp.backpressure_stalls") +
              counter(r.restore_delta, "tcp.backpressure_stalls");
  }
  const obs::MetricsSnapshot client = registry.snapshot();
  stalls += counter(client, "tcp.backpressure_stalls");

  const double backup_unattr = median(unattr_backup);
  const double restore_unattr = median(unattr_restore);
  if (backup_unattr > kMaxUnattributedPct ||
      restore_unattr > kMaxUnattributedPct) {
    std::cerr << "fleet_bench: FAIL unattributed time above "
              << kMaxUnattributedPct << "% (backup " << backup_unattr
              << "%, restore " << restore_unattr << "%)\n";
    gate_ok = false;
  }

  std::vector<Metric> m = {
      {"client.chunk_s", median(chunk), "s"},
      {"client.fingerprint_s", median(fp), "s"},
      {"client.fingerprint_mbps", median(fp_mbps), "MB/s"},
      {"client.place_s", median(place), "s"},
      {"client.place_us.p50", place_us.percentile(0.50), "us"},
      {"client.place_us.p99", place_us.percentile(0.99), "us"},
      {"client.flush_s", median(flush), "s"},
      {"client.recipe_s", median(recipe), "s"},
      {"client.read_chunk_s", median(read), "s"},
      {"client.read_chunk_us.p50", read_us.percentile(0.50), "us"},
      {"client.read_chunk_us.p99", read_us.percentile(0.99), "us"},
  };
  const obs::HistogramSnapshot* decision =
      client.find_histogram("route.decision_us");
  const obs::HistogramSnapshot none;
  if (decision == nullptr) decision = &none;
  m.push_back({"route.decision_us.p50", decision->percentile(0.50), "us"});
  m.push_back({"route.decision_us.p99", decision->percentile(0.99), "us"});
  m.push_back({"route.probe_messages_per_sc", median(probes), "count"});
  for (const char* op : kTimedOps) {
    const obs::HistogramSnapshot* rpc =
        client.find_histogram(std::string("tcp.rpc_us.") + op);
    if (rpc == nullptr) rpc = &none;
    m.push_back({std::string("rpc.") + op + ".p50_us", rpc->percentile(0.50),
                 "us"});
    m.push_back({std::string("rpc.") + op + ".p99_us", rpc->percentile(0.99),
                 "us"});
  }
  m.push_back({"wire.msgs_per_mb", median(msgs_per_mb), "1/MB"});
  m.push_back({"tcp.backpressure_stalls", static_cast<double>(stalls), "count"});
  for (const char* op : kTimedOps) {
    const bool read_op = std::strcmp(op, "ReadChunk") == 0;
    const obs::HistogramSnapshot svc =
        node_histogram(read_op ? restore_end : backup_end, "svc",
                       std::string("op_us.") + op);
    m.push_back({std::string("svc.") + op + ".p50_us", svc.percentile(0.50),
                 "us"});
    m.push_back({std::string("svc.") + op + ".p99_us", svc.percentile(0.99),
                 "us"});
  }
  m.push_back({"node.duplicate_frac", median(dup_frac), "ratio"});
  m.push_back({"node.disk_index_lookups_per_chunk", median(disk_lookups),
               "ratio"});
  m.push_back({"node.container_prefetches_per_sc", median(prefetches),
               "ratio"});
  const obs::HistogramSnapshot put = node_histogram(backup_end, "store", "put_us");
  const obs::HistogramSnapshot fsync =
      node_histogram(backup_end, "store", "fsync_us");
  m.push_back({"store.put_us.p50", put.percentile(0.50), "us"});
  m.push_back({"store.put_us.p99", put.percentile(0.99), "us"});
  m.push_back({"store.fsync_us.p50", fsync.percentile(0.50), "us"});
  m.push_back({"store.fsync_us.p99", fsync.percentile(0.99), "us"});
  m.push_back({"store.write_amp", median(write_amp), "ratio"});
  m.push_back({"store.read_amp", median(read_amp), "ratio"});
  m.push_back({"recovery.containers", median(rec_containers), "count"});
  m.push_back({"recovery.chunks", median(rec_chunks), "count"});
  m.push_back({"unattributed_pct.backup", backup_unattr, "%"});
  m.push_back({"unattributed_pct.restore", restore_unattr, "%"});
  m.push_back({"trace_overhead_pct",
               100.0 * (median(untraced_mbps) / median(traced_mbps) - 1.0),
               "%"});
  return m;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.10g", metrics[i].value);
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
        << "\": {\"value\": " << buf << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "fleet_bench: " << error << "\n"
            << "usage: fleet_bench --workload W --seed N --seconds S "
               "--trace 0|1\n"
            << "                   --node-server PATH --work-dir DIR\n"
            << "                   [--trace-out FILE] [--corrupt-restore]\n"
            << "workloads:";
  for (const Workload& w : kWorkloads) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (arg == "--trace") {
        opt.trace = value() == "1";
      } else if (arg == "--node-server") {
        opt.node_server = value();
      } else if (arg == "--work-dir") {
        opt.work_dir = value();
      } else if (arg == "--trace-out") {
        opt.trace_out = value();
      } else if (arg == "--corrupt-restore") {
        opt.corrupt_restore = true;
      } else {
        usage("unknown option " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) workload = &w;
  }
  if (workload == nullptr) usage("unknown workload '" + opt.workload + "'");
  if (opt.node_server.empty() || opt.work_dir.empty()) {
    usage("--node-server and --work-dir are required");
  }

  // End-to-end numbers are measured with the program's own tracing off.
  obs::Tracer::instance().set_sample_every(0);
  std::signal(SIGPIPE, SIG_IGN);

  try {
    fs::create_directories(opt.work_dir);
    const auto t_gen = Clock::now();
    const std::vector<Stream> streams = generate(*workload, opt.seed);
    std::uint64_t logical = 0, restore_files = 0;
    for (const Stream& st : streams) {
      logical += st.logical_bytes;
      for (const auto& slice : st.restore_slices) restore_files += slice.size();
    }
    std::cerr << "fleet_bench: " << workload->name << " seed=" << opt.seed
              << " logical=" << logical / 1000000 << "MB restore_files="
              << restore_files << " generated in " << seconds_since(t_gen)
              << "s\n";

    SpanLog spans(Clock::now());
    obs::Registry registry;
    std::vector<std::unique_ptr<LayerTimes>> layer_times;
    std::vector<RoundResult> rounds;
    std::uint64_t attempted = 0, failed = 0;
    bool gate_ok = true;
    // Round 0 warms the page cache and the binaries up; it is checked but
    // not reported, and --seconds counts from its end. A traced run then
    // alternates untraced and traced rounds (the pairs give
    // trace_overhead_pct). An untraced run restores every slice at least
    // once.
    const int min_rounds = opt.trace ? 5 : 1 + static_cast<int>(kRestoreSlices);
    auto origin = Clock::now();
    for (int round = 0;; ++round) {
      const bool traced = opt.trace && round > 0 && round % 2 == 0;
      LayerTimes* lt = nullptr;
      if (traced) {
        layer_times.push_back(std::make_unique<LayerTimes>());
        lt = layer_times.back().get();
      }
      RoundResult r = run_round(opt, *workload, streams, round, traced,
                                registry, lt, spans);
      attempted += r.attempted;
      failed += r.failed;
      gate_ok = gate_ok && r.gate_ok;
      std::cerr << "fleet_bench: round " << round << (traced ? " traced" : "")
                << " setup=" << r.setup_s << "s backup=" << r.backup_s
                << "s recovery=" << r.recovery_s << "s restore=" << r.restore_s
                << "s failed=" << r.failed << "\n";
      if (round == 0) {
        origin = Clock::now();
        continue;
      }
      rounds.push_back(std::move(r));
      if (round + 1 >= min_rounds && seconds_since(origin) >= opt.seconds) {
        break;
      }
    }

    std::vector<Metric> metrics;
    if (opt.trace) {
      metrics = per_layer(rounds, registry, gate_ok);
      if (!opt.trace_out.empty()) spans.write(opt.trace_out);
    } else {
      metrics = end_to_end(rounds);
    }
    const bool correct = gate_ok && failed == 0;
    print_result(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "fleet_bench: " << e.what() << "\n";
    return 1;
  }
}
