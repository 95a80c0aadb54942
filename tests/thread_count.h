// Thread-count probes for the "one component, one thread" tests.
#pragma once

#include <chrono>
#include <cstddef>
#include <filesystem>
#include <thread>

namespace sigma::test {

/// Threads of this process right now (entries of /proc/self/task).
inline std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

/// Poll until thread_count() == `want` (a joined thread's task entry may
/// linger for a moment after pthread_join returns); returns the last count.
inline std::size_t await_thread_count(std::size_t want) {
  std::size_t n = thread_count();
  for (int i = 0; i < 200 && n != want; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    n = thread_count();
  }
  return n;
}

}  // namespace sigma::test
