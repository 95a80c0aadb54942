#include "common/mutex.h"

#include <execinfo.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace sigma {
namespace {

// ---- enforcement flag ------------------------------------------------------

bool initial_checking_enabled() {
#if defined(SIGMA_LOCK_RANK_DEFAULT_ON) || !defined(NDEBUG)
  bool enabled = true;
#else
  bool enabled = false;
#endif
  if (const char* env = std::getenv("SIGMA_LOCK_RANKS")) {
    enabled = !(std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
                std::strcmp(env, "OFF") == 0);
  }
  return enabled;
}

std::atomic<bool> g_checking{initial_checking_enabled()};

// ---- per-thread held-lock stack --------------------------------------------

constexpr int kMaxFrames = 24;
// Deepest real chain today is 3 (direct mode: route_mu_ -> store ->
// backend); 16 leaves generous headroom.
constexpr int kMaxHeld = 16;

struct HeldLock {
  const void* mu = nullptr;
  LockRank rank = LockRank::kUnranked;
  void* frames[kMaxFrames];
  int frame_count = 0;
};

struct HeldStack {
  HeldLock locks[kMaxHeld];
  int count = 0;
};

thread_local HeldStack t_held;

std::string symbolize(void* const* frames, int count) {
  std::string out;
  char** symbols = backtrace_symbols(frames, count);
  for (int i = 0; i < count; ++i) {
    out += "    ";
    if (symbols != nullptr && symbols[i] != nullptr) {
      out += symbols[i];
    } else {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%p", frames[i]);
      out += buf;
    }
    out += '\n';
  }
  std::free(symbols);
  return out;
}

void default_handler(const LockRankViolation& v) {
  std::fprintf(stderr,
               "FATAL: lock rank violation: acquiring rank %d while holding "
               "rank %d\n  conflicting lock was acquired at:\n%s"
               "  out-of-order acquire at:\n%s",
               static_cast<int>(v.acquiring_rank),
               static_cast<int>(v.held_rank), v.held_stack.c_str(),
               v.acquiring_stack.c_str());
  std::fflush(stderr);
  std::abort();
}

std::atomic<LockRankHandler> g_handler{&default_handler};

}  // namespace

LockRankHandler set_lock_rank_handler(LockRankHandler handler) {
  if (handler == nullptr) handler = &default_handler;
  return g_handler.exchange(handler);
}

bool set_lock_rank_checking(bool enabled) {
  return g_checking.exchange(enabled, std::memory_order_relaxed);
}

bool lock_rank_checking_enabled() {
  return g_checking.load(std::memory_order_relaxed);
}

namespace detail {

void lock_rank_acquired(const void* mu, LockRank rank) {
  HeldStack& held = t_held;

  // The strict ordering rule: every already-held ranked lock must rank
  // strictly below the one being acquired. Report against the worst
  // offender (the highest-ranked held lock).
  const HeldLock* conflict = nullptr;
  for (int i = 0; i < held.count; ++i) {
    if (held.locks[i].rank >= rank &&
        (conflict == nullptr || held.locks[i].rank > conflict->rank)) {
      conflict = &held.locks[i];
    }
  }
  if (conflict != nullptr) {
    LockRankViolation v;
    v.held_rank = conflict->rank;
    v.acquiring_rank = rank;
    v.held_stack = symbolize(conflict->frames, conflict->frame_count);
    void* frames[kMaxFrames];
    int n = backtrace(frames, kMaxFrames);
    v.acquiring_stack = symbolize(frames, n);
    g_handler.load()(v);
    // A non-aborting handler (tests) falls through: the acquire still
    // proceeds so the caller's locking behaviour is unchanged.
  }

  if (held.count < kMaxHeld) {
    HeldLock& slot = held.locks[held.count++];
    slot.mu = mu;
    slot.rank = rank;
    slot.frame_count = backtrace(slot.frames, kMaxFrames);
  }
  // Overflow (>16 ranked locks held at once) silently stops tracking the
  // extras; with the rank table's strict ordering that many simultaneous
  // holds is impossible today.
}

void lock_rank_released(const void* mu) {
  HeldStack& held = t_held;
  // Search from the top: releases are almost always LIFO, but a CondVar
  // wait can release out of order relative to a sibling lock.
  for (int i = held.count - 1; i >= 0; --i) {
    if (held.locks[i].mu == mu) {
      for (int j = i; j < held.count - 1; ++j) {
        held.locks[j] = held.locks[j + 1];
      }
      --held.count;
      return;
    }
  }
  // Not found: the lock was acquired while checking was disabled (or the
  // stack overflowed). Nothing to do.
}

}  // namespace detail
}  // namespace sigma
