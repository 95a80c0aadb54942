// The runtime lock-rank checker: out-of-order acquires are caught (with
// both stacks), correctly ordered code and CondVar relocks stay silent.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"

namespace sigma {
namespace {

/// Recorded violations land here instead of aborting the test binary.
struct Recorder {
  static std::vector<LockRankViolation>& violations() {
    static std::vector<LockRankViolation> v;
    return v;
  }
  static void handle(const LockRankViolation& v) {
    violations().push_back(v);
  }
};

class LockRankTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Recorder::violations().clear();
    prev_handler_ = set_lock_rank_handler(&Recorder::handle);
    prev_checking_ = set_lock_rank_checking(true);
  }
  void TearDown() override {
    set_lock_rank_checking(prev_checking_);
    set_lock_rank_handler(prev_handler_);
  }

  LockRankHandler prev_handler_ = nullptr;
  bool prev_checking_ = false;
};

TEST_F(LockRankTest, InOrderAcquireIsClean) {
  Mutex outer(LockRank::kClientRoute);
  Mutex inner(LockRank::kStorageBackend);
  Mutex leaf(LockRank::kLogging);
  {
    MutexLock a(outer);
    MutexLock b(inner);
    MutexLock c(leaf);
  }
  EXPECT_TRUE(Recorder::violations().empty());
}

TEST_F(LockRankTest, OutOfOrderAcquireIsCaught) {
  Mutex outer(LockRank::kTransport);
  Mutex inner(LockRank::kService);
  MutexLock a(outer);
  MutexLock b(inner);  // kService < kTransport: inversion
  ASSERT_EQ(Recorder::violations().size(), 1u);
  const auto& v = Recorder::violations().front();
  EXPECT_EQ(v.held_rank, LockRank::kTransport);
  EXPECT_EQ(v.acquiring_rank, LockRank::kService);
  // Both stacks are captured and symbolized (one line per frame).
  EXPECT_FALSE(v.held_stack.empty());
  EXPECT_FALSE(v.acquiring_stack.empty());
}

TEST_F(LockRankTest, SameRankReacquireIsCaught) {
  // Two locks of equal rank held together violate strict ordering (no
  // operation may ever need two similarity shards, two thread pools, ...).
  Mutex a(LockRank::kThreadPool);
  Mutex b(LockRank::kThreadPool);
  MutexLock la(a);
  MutexLock lb(b);
  EXPECT_EQ(Recorder::violations().size(), 1u);
}

TEST_F(LockRankTest, ReleaseReopensTheRank) {
  Mutex transport(LockRank::kTransport);
  Mutex service(LockRank::kService);
  {
    MutexLock a(transport);
  }
  MutexLock b(service);  // transport released: no longer held, no violation
  MutexLock c(transport);  // and upward is always fine
  EXPECT_TRUE(Recorder::violations().empty());
}

TEST_F(LockRankTest, UnrankedMutexesAreExempt) {
  Mutex ranked(LockRank::kMetricsRegistry);
  Mutex plain;  // kUnranked
  MutexLock a(ranked);
  MutexLock b(plain);  // below in "order", but unranked: exempt
  EXPECT_TRUE(Recorder::violations().empty());
}

TEST_F(LockRankTest, CondVarRelockIsClean) {
  // A CondVar wait releases and re-acquires its mutex; the re-acquire runs
  // through the rank checker and must not trip over the lock's own rank.
  Mutex mu(LockRank::kThreadPool);
  CondVar cv;
  bool ready = false;
  std::thread waker([&] {
    MutexLock lock(mu);
    ready = true;
    cv.notify_all();
  });
  {
    MutexLock lock(mu);
    while (!ready) cv.wait(mu);
  }
  waker.join();
  EXPECT_TRUE(Recorder::violations().empty());
}

TEST_F(LockRankTest, HeldStackIsPerThread) {
  // Thread A holding a high rank must not poison thread B's acquires.
  Mutex high(LockRank::kLogging);
  Mutex low(LockRank::kClientRoute);
  MutexLock a(high);
  std::thread other([&] {
    MutexLock b(low);  // fresh thread, empty held stack: fine
  });
  other.join();
  EXPECT_TRUE(Recorder::violations().empty());
}

TEST_F(LockRankTest, DisabledCheckingIsSilent) {
  set_lock_rank_checking(false);
  Mutex outer(LockRank::kTransport);
  Mutex inner(LockRank::kService);
  MutexLock a(outer);
  MutexLock b(inner);  // inversion, but checking is off
  EXPECT_TRUE(Recorder::violations().empty());
}

TEST_F(LockRankTest, TryLockParticipates) {
  Mutex outer(LockRank::kRpcEndpoint);
  Mutex inner(LockRank::kThreadPool);
  ASSERT_TRUE(outer.try_lock());
  ASSERT_TRUE(inner.try_lock());  // inversion via try_lock
  EXPECT_EQ(Recorder::violations().size(), 1u);
  inner.unlock();
  outer.unlock();
}

}  // namespace
}  // namespace sigma
