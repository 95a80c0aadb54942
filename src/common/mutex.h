// The fleet's lock vocabulary: an annotated Mutex (clang thread-safety
// analysis sees acquires and releases), a scoped MutexLock, and a CondVar
// that works with them — plus a runtime lock-RANK checker that turns
// potential deadlocks into deterministic failures.
//
// Every long-lived lock in the fleet carries a LockRank. The discipline:
// a thread may only acquire a mutex whose rank is STRICTLY GREATER than
// the rank of every ranked mutex it already holds. The enum below is the
// global acquisition order, derived from the call graph:
//
//   Cluster::route_mu_     ->  storage, Transport  (direct-mode node access,
//                                                   write dispatch)
//     (the kTcp restore read path takes route_mu_ only to drain in-flight
//     writes — its read-after-write barrier — and never across an RPC)
//   ContainerStore::mu_    ->  StorageBackend      (seal writes the blob)
//   Registry               ->  trace ring registry (scrape folds tracer)
//   anything               ->  logging             (log lines everywhere)
//
// A NodeService thread holds no lock while it executes a request (its
// mu_ guards only the queues and the snapshot provider, and is released
// before the node runs), so on the node side the storage locks, the
// transport and the metrics registry are each entered with nothing held.
//
// When checking is enabled (debug builds, -DSIGMA_LOCK_RANKS=ON builds,
// or SIGMA_LOCK_RANKS=1 in the environment) an out-of-order acquire
// invokes the violation handler with BOTH stacks — where the held lock
// was taken and where the inversion happened — and the default handler
// aborts. Release builds default to a single relaxed atomic load per
// lock/unlock (the checker is compiled in but dormant), which keeps the
// wrapper on the transport's hot path.
//
// Checking is deterministic: the order is validated on every acquire, so
// an inversion is caught the first time the code path runs, not only on
// the unlucky interleaving that actually deadlocks.
#pragma once

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>

#include "common/thread_annotations.h"

namespace sigma {

/// Global lock-acquisition order (see file comment). Lower values are
/// acquired first; a thread holding rank r may only acquire ranks > r.
/// Gaps leave room for future subsystems (GC).
enum class LockRank : int {
  /// Unranked mutexes (tests, examples, short-lived ad-hoc state) are
  /// exempt from order checking and never enter the held-lock stack.
  kUnranked = 0,

  // ---- Client plane (outermost of all: held across a whole routing
  //      decision + write dispatch, including transport sends and, in
  //      direct mode, node storage access) ------------------------------
  kClientRoute = 5,  // Cluster::route_mu_ — router state + lookup ledger

  // ---- Control plane (fleet registry, src/ctrl/): lease tables and
  //      cached fleet views. Never held across a transport send or under
  //      data-plane locks.
  kRegistryCtrl = 12,
  // ---- Service plane: held only to queue or pop a request, or to copy
  //      the snapshot provider — never while the node executes ---------
  kService = 20,     // NodeService::mu_ — request queues + provider

  // ---- Queue primitive -------------------------------------------------
  kThreadPool = 32,  // ThreadPool queue

  // ---- Storage plane (taken by a node thread holding nothing, or under
  //      route_mu_ in direct mode; never under each other except
  //      ContainerStore -> backend) -------------------------------------
  kContainerStore = 40,
  kChunkIndex = 42,
  kSimilarityShard = 44,
  kFingerprintCache = 46,
  kBloomFilter = 48,
  kStorageBackend = 52,
  kDirector = 56,

  // ---- Message plane (never held while calling into the layers above).
  //      A TcpTransport has two kTransport mutexes — its loop mutex (write
  //      queues, connection tables, learned routes) and its endpoint
  //      table — and never holds both at once. ----------------------------
  kTransport = 60,    // TcpTransport mu_ + ep_mu_ / LoopbackTransport mu_
  kRpcEndpoint = 62,  // RpcEndpoint pending-call map
  kRpcCall = 64,      // one PendingCall's settle state

  // ---- Leaves (safe to take from anywhere) -----------------------------
  kMetricsRegistry = 70,
  /// Tracer ring registration/iteration only — the span emit hot path is
  /// lock-free (seqlock rings), so recording a span never takes a lock.
  /// Ranked above kMetricsRegistry: a kStatsSnapshot scrape folds trace
  /// counters while walking the registry.
  kTraceRegistry = 72,
  kLogging = 80,
};

/// One detected lock-order inversion: the highest-ranked lock already
/// held and the lower-or-equal-ranked one being acquired, with the
/// (symbolized) stacks of both acquisition sites.
struct LockRankViolation {
  LockRank held_rank = LockRank::kUnranked;
  LockRank acquiring_rank = LockRank::kUnranked;
  std::string held_stack;       // where the conflicting lock was taken
  std::string acquiring_stack;  // where the out-of-order acquire happened
};

using LockRankHandler = void (*)(const LockRankViolation&);

/// Replace the violation handler (tests install a recorder); returns the
/// previous one. The default handler prints both stacks and aborts.
LockRankHandler set_lock_rank_handler(LockRankHandler handler);

/// Toggle rank checking at runtime. Returns the previous setting. The
/// startup default is on in debug / SIGMA_LOCK_RANKS=ON builds, off
/// otherwise; the SIGMA_LOCK_RANKS environment variable (0/1) overrides
/// the build default either way.
bool set_lock_rank_checking(bool enabled);
bool lock_rank_checking_enabled();

namespace detail {
void lock_rank_acquired(const void* mu, LockRank rank);
void lock_rank_released(const void* mu);
}  // namespace detail

/// std::mutex with thread-safety annotations and a static lock rank.
class SIGMA_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex(LockRank rank) : rank_(rank) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() SIGMA_ACQUIRE() {
    // Order is validated BEFORE blocking: an inversion aborts even when
    // the other thread is not currently inside the would-deadlock window.
    if (rank_ != LockRank::kUnranked && lock_rank_checking_enabled()) {
      detail::lock_rank_acquired(this, rank_);
      mu_.lock();
      return;
    }
    mu_.lock();
  }

  void unlock() SIGMA_RELEASE() {
    // Bookkeeping strictly before the release: the instant mu_ is
    // unlocked another thread may free this Mutex (teardown paths wait
    // on a predicate published under it), so no member may be read
    // afterwards.
    if (rank_ != LockRank::kUnranked && lock_rank_checking_enabled()) {
      detail::lock_rank_released(this);
    }
    mu_.unlock();
  }

  bool try_lock() SIGMA_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    if (rank_ != LockRank::kUnranked && lock_rank_checking_enabled()) {
      detail::lock_rank_acquired(this, rank_);
    }
    return true;
  }

  LockRank rank() const { return rank_; }

 private:
  std::mutex mu_;
  const LockRank rank_ = LockRank::kUnranked;
};

/// RAII lock holder (the fleet's std::lock_guard/unique_lock). Supports
/// the unlock-relock pattern the transport's backpressure wait and the
/// RPC timeout path use; the annotations keep clang's analysis exact
/// across it.
class SIGMA_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) SIGMA_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }

  ~MutexLock() SIGMA_RELEASE() {
    if (owned_) mu_.unlock();
  }

  /// Drop the lock early (e.g. to call out without holding it).
  void unlock() SIGMA_RELEASE() {
    mu_.unlock();
    owned_ = false;
  }

  /// Re-take a lock dropped with unlock().
  void lock() SIGMA_ACQUIRE() {
    mu_.lock();
    owned_ = true;
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
  bool owned_ = true;
};

/// Condition variable over sigma::Mutex. Waits release and re-acquire the
/// mutex (the re-acquire passes through the rank checker like any other).
/// Callers loop over their predicate explicitly —
///
///   MutexLock lock(mu_);
///   while (!ready_) cv_.wait(mu_);
///
/// — so the predicate is evaluated in the calling function, where clang's
/// analysis can see the lock is held (a predicate lambda would be opaque
/// to it).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mu) SIGMA_REQUIRES(mu) { cv_.wait(mu); }

  template <typename Clock, typename Duration>
  std::cv_status wait_until(
      Mutex& mu, const std::chrono::time_point<Clock, Duration>& deadline)
      SIGMA_REQUIRES(mu) {
    return cv_.wait_until(mu, deadline);
  }

  template <typename Rep, typename Period>
  std::cv_status wait_for(Mutex& mu,
                          const std::chrono::duration<Rep, Period>& timeout)
      SIGMA_REQUIRES(mu) {
    return cv_.wait_for(mu, timeout);
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace sigma
