// Low-overhead metrics plane for the whole fleet: named counters, gauges
// (with high-water tracking) and log-bucketed latency histograms, owned by
// a Registry and updated with relaxed atomics — an increment is one
// uncontended fetch_add, cheap enough for the transport's per-frame path.
//
// Components look their instruments up ONCE (Registry::counter() et al.
// take a mutex and return a stable reference) and cache it; the hot path
// is an unconditional `counter.inc()`. Every component always has a
// registry: the caller's when one is passed, otherwise a private one it
// owns (RegistryRef), so there is no "metrics off" branch anywhere.
//
// Snapshots are plain structs (sorted by name, value-comparable) that
// merge associatively — scrape every daemon of a fleet, merge, and the
// result is the fleet-wide view. The wire codec for shipping snapshots
// through the kStatsSnapshot op lives in obs/metrics_wire.h.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace sigma::obs {

/// Monotonic event counter.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Instantaneous level (queue depth, in-flight calls) that also remembers
/// the highest level it ever reached.
class Gauge {
 public:
  void set(std::int64_t v) {
    v_.store(v, std::memory_order_relaxed);
    raise_high_water(v);
  }
  void add(std::int64_t n) {
    const std::int64_t now = v_.fetch_add(n, std::memory_order_relaxed) + n;
    raise_high_water(now);
  }
  void sub(std::int64_t n) { v_.fetch_sub(n, std::memory_order_relaxed); }

  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  std::int64_t high_water() const {
    return high_water_.load(std::memory_order_relaxed);
  }

 private:
  void raise_high_water(std::int64_t v) {
    std::int64_t seen = high_water_.load(std::memory_order_relaxed);
    while (v > seen && !high_water_.compare_exchange_weak(
                           seen, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::int64_t> v_{0};
  std::atomic<std::int64_t> high_water_{0};
};

/// Readout of one histogram: log2 buckets plus exact count/sum/min/max.
/// Bucket i holds values whose bit width is i — bucket 0 is exactly {0},
/// bucket i >= 1 covers [2^(i-1), 2^i - 1] — so percentile estimates are
/// exact to within one power of two and interpolation tightens them.
struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  // meaningful only when count > 0
  std::uint64_t max = 0;
  std::vector<std::uint64_t> buckets;  // trailing zero buckets trimmed

  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Estimate the p-quantile (p in [0, 1]) by linear interpolation inside
  /// the bucket holding that rank, clamped to the observed min/max.
  double percentile(double p) const;

  bool operator==(const HistogramSnapshot&) const = default;
};

/// Latency/size distribution: power-of-two buckets, relaxed updates.
class Histogram {
 public:
  /// Bucket index is std::bit_width(value), which spans 0..64 inclusive.
  static constexpr std::size_t kBuckets = 65;

  void observe(std::uint64_t v);

  /// Convenience for the dominant use: record a steady_clock interval in
  /// microseconds.
  void observe_since(std::chrono::steady_clock::time_point start) {
    observe(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
  }

  HistogramSnapshot snapshot(const std::string& name) const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~0ull};
  std::atomic<std::uint64_t> max_{0};
};

/// Scoped latency timer: records into a histogram on destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& h)
      : h_(h), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() { h_.observe_since(start_); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram& h_;
  std::chrono::steady_clock::time_point start_;
};

struct GaugeSnapshot {
  std::string name;
  std::int64_t value = 0;
  std::int64_t high_water = 0;

  bool operator==(const GaugeSnapshot&) const = default;
};

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;

  bool operator==(const CounterSnapshot&) const = default;
};

/// Point-in-time readout of a registry (or a merge of several). Entries
/// are sorted by name, so equal contents compare equal.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Fold `other` in: counters and gauge values sum by name, gauge
  /// high-waters and histogram extremes take the max/min, histogram
  /// buckets add element-wise. Associative and commutative, so any scrape
  /// order yields the same fleet view.
  void merge(const MetricsSnapshot& other);

  /// Insert (or add to) one counter — how the process-global tracer's
  /// counters are folded into a scrape (see fold_trace_stats).
  void add_counter(const std::string& name, std::uint64_t value);
  void add_gauge(const std::string& name, std::int64_t value,
                 std::int64_t high_water);

  /// Value lookup; returns nullptr when the name is absent.
  const std::uint64_t* find_counter(const std::string& name) const;
  const HistogramSnapshot* find_histogram(const std::string& name) const;

  bool operator==(const MetricsSnapshot&) const = default;
};

/// Named metric store. Registration is mutex-guarded and returns stable
/// references (instruments never move or die before the registry);
/// updates through the returned references are lock-free.
class Registry {
 public:
  Counter& counter(const std::string& name) SIGMA_EXCLUDES(mu_);
  Gauge& gauge(const std::string& name) SIGMA_EXCLUDES(mu_);
  Histogram& histogram(const std::string& name) SIGMA_EXCLUDES(mu_);

  MetricsSnapshot snapshot() const SIGMA_EXCLUDES(mu_);

 private:
  mutable Mutex mu_{LockRank::kMetricsRegistry};
  // std::map keeps snapshot output sorted without a per-snapshot sort.
  std::map<std::string, std::unique_ptr<Counter>> counters_
      SIGMA_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ SIGMA_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      SIGMA_GUARDED_BY(mu_);
};

/// A component's registry: the caller's when one is passed, otherwise a
/// private one this handle owns. Components hold one of these instead of
/// a nullable pointer, so their instruments always exist.
class RegistryRef {
 public:
  explicit RegistryRef(Registry* shared)
      : owned_(shared ? nullptr : std::make_unique<Registry>()),
        registry_(shared ? shared : owned_.get()) {}

  Registry* get() const { return registry_; }
  Registry& operator*() const { return *registry_; }
  Registry* operator->() const { return registry_; }

 private:
  std::unique_ptr<Registry> owned_;
  Registry* registry_;
};

}  // namespace sigma::obs
