// Torture tests for the concurrency primitives, designed to run (and
// mean something) under ThreadSanitizer: many threads, real interleaving
// pressure, every shared access through the structure under test.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/hash_util.h"
#include "common/thread_pool.h"
#include "net/rpc.h"
#include "obs/metrics.h"
#include "obs/metrics_wire.h"
#include "service/node_client.h"
#include "service/node_service.h"
#include "service/wire_protocol.h"
#include "loopback_transport.h"

namespace sigma {
namespace {

using namespace std::chrono_literals;

// ---- ThreadPool: submit/shutdown storm -------------------------------------

TEST(ThreadPoolTortureTest, SubmitStormExecutesEveryAcceptedTask) {
  constexpr int kProducers = 8;
  constexpr int kTasksPerProducer = 500;
  std::atomic<int> executed{0};
  std::atomic<int> accepted{0};
  {
    ThreadPool pool(4);
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&] {
        for (int i = 0; i < kTasksPerProducer; ++i) {
          pool.submit([&executed] { executed.fetch_add(1); });
          accepted.fetch_add(1);
        }
      });
    }
    for (auto& t : producers) t.join();
    // ~ThreadPool drains nothing: tasks already queued must still run.
  }
  EXPECT_EQ(executed.load(), kProducers * kTasksPerProducer);
  EXPECT_EQ(accepted.load(), kProducers * kTasksPerProducer);
}

TEST(ThreadPoolTortureTest, SubmitRacingShutdownEitherRunsOrThrows) {
  // Producers hammer submit() while the pool is torn down mid-storm. Every
  // submit must either be accepted (and then run) or throw the documented
  // shutdown error — no lost tasks, no crash, no deadlock.
  std::atomic<int> executed{0};
  std::atomic<int> accepted{0};
  std::atomic<int> refused{0};
  constexpr int kProducers = 6;
  std::vector<std::thread> producers;
  {
    ThreadPool pool(3);
    std::atomic<bool> stop{false};
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&] {
        while (!stop.load()) {
          try {
            pool.submit([&executed] { executed.fetch_add(1); });
            accepted.fetch_add(1);
          } catch (const std::runtime_error&) {
            refused.fetch_add(1);
            return;  // pool is gone; later submits would throw too
          }
        }
      });
    }
    // Let the storm build, then destroy the pool under it.
    std::this_thread::sleep_for(20ms);
    stop.store(true);
    for (auto& t : producers) t.join();
    producers.clear();
  }
  EXPECT_EQ(executed.load(), accepted.load());
}

// ---- RpcEndpoint: concurrent call / timeout / cancel -----------------------

// A responder endpoint: answers correlation ids divisible by 3 promptly
// (in the delivery itself), ids % 3 == 1 after a delay longer than the
// caller's timeout (a guaranteed late response, from a separate thread so
// it never holds up the prompt answers), and drops ids % 3 == 2 (a
// guaranteed timeout with no response ever).
class FlakyResponder {
 public:
  explicit FlakyResponder(net::Transport& transport) : transport_(transport) {
    endpoint_ = transport_.register_endpoint([this](net::Message&& m) {
      switch (m.correlation_id % 3) {
        case 0:
          transport_.send(net::Message::response_to(m, Buffer{1}));
          break;
        case 1: {
          std::lock_guard lock(mu_);
          late_.push_back(std::move(m));
          cv_.notify_one();
          break;
        }
        default:
          break;  // never answered
      }
    });
    late_worker_ = std::thread([this] { run_late(); });
  }

  ~FlakyResponder() {
    transport_.unregister_endpoint(endpoint_);
    {
      std::lock_guard lock(mu_);
      closed_ = true;
    }
    cv_.notify_one();
    late_worker_.join();  // answers whatever is still queued, then exits
  }

  net::EndpointId endpoint() const { return endpoint_; }

 private:
  void run_late() {
    std::unique_lock lock(mu_);
    for (;;) {
      cv_.wait(lock, [this] { return closed_ || !late_.empty(); });
      if (late_.empty()) return;
      net::Message m = std::move(late_.front());
      late_.pop_front();
      lock.unlock();
      std::this_thread::sleep_for(30ms);  // past the caller's timeout
      transport_.send(net::Message::response_to(m, Buffer{2}));
      lock.lock();
    }
  }

  net::Transport& transport_;
  net::EndpointId endpoint_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<net::Message> late_;
  bool closed_ = false;
  std::thread late_worker_;
};

TEST(RpcTortureTest, ConcurrentCallTimeoutAndLateResponse) {
  net::LoopbackTransport transport;
  FlakyResponder responder(transport);
  net::RpcEndpoint rpc(transport);

  constexpr int kThreads = 6;
  constexpr int kCallsPerThread = 30;
  std::atomic<int> ok{0};
  std::atomic<int> timeouts{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kThreads; ++t) {
    callers.emplace_back([&] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        auto call = rpc.call(responder.endpoint(),
                             net::MessageType::kStoredBytes, Buffer{});
        try {
          (void)call.get(10ms);
          ok.fetch_add(1);
        } catch (const net::RpcTimeoutError&) {
          timeouts.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : callers) t.join();

  // Every call settled exactly one way.
  EXPECT_EQ(ok.load() + timeouts.load(), kThreads * kCallsPerThread);
  // Fast answers (cid % 3 == 0) overwhelmingly succeed; dropped calls
  // (cid % 3 == 2) can only time out. Late answers land either way
  // depending on the race — which is exactly the contested window this
  // test exists to exercise.
  EXPECT_GT(ok.load(), 0);
  EXPECT_GT(timeouts.load(), 0);
  // Nothing may remain tracked once every call has settled or been
  // abandoned.
  EXPECT_EQ(rpc.pending_count(), 0u);
}

TEST(RpcTortureTest, DestructionRacingInFlightCallsFailsThemFast) {
  net::LoopbackTransport transport;
  FlakyResponder responder(transport);
  std::vector<net::PendingCall> calls;
  {
    net::RpcEndpoint rpc(transport);
    for (int i = 0; i < 30; ++i) {
      calls.push_back(rpc.call(responder.endpoint(),
                               net::MessageType::kStoredBytes, Buffer{}));
    }
    // Endpoint destroyed with calls in flight: unanswered ones must be
    // failed ("endpoint shut down"), not left to hang their waiters.
  }
  int settled = 0;
  for (auto& c : calls) {
    try {
      (void)c.get(0ms);  // zero timeout: anything unsettled would throw
                         // RpcTimeoutError, which the assertion below
                         // distinguishes from the shutdown RpcError
      ++settled;
    } catch (const net::RpcTimeoutError&) {
      FAIL() << "call left pending after endpoint destruction";
    } catch (const net::RpcError&) {
      ++settled;  // failed fast with the shutdown error: acceptable
    }
  }
  EXPECT_EQ(settled, 30);
}

// ---- NodeService: probe queue vs write backlog -----------------------------

TEST(NodeServiceTortureTest, FastLaneProbesOvertakeWriteBacklogSafely) {
  DedupNode node(0, DedupNodeConfig{});
  net::LoopbackTransport transport;
  service::NodeService service(node, transport);
  net::RpcEndpoint rpc(transport);
  service::NodeClient client(rpc, service.endpoint(), 5000ms);

  constexpr int kWriters = 3;
  constexpr int kWritesPerWriter = 40;
  constexpr int kProbers = 3;
  std::atomic<bool> stop_probing{false};
  std::atomic<int> probes_answered{0};

  // Writers pile super-chunk stores into the FIFO write queue...
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kWritesPerWriter; ++i) {
        SuperChunk sc;
        for (int c = 0; c < 16; ++c) {
          sc.chunks.push_back(
              {Fingerprint::from_uint64(
                   mix64(static_cast<std::uint64_t>(w) * 100000 +
                         static_cast<std::uint64_t>(i) * 100 +
                         static_cast<std::uint64_t>(c))),
               4096});
        }
        (void)client.write_super_chunk(static_cast<StreamId>(w), sc);
      }
    });
  }

  // ...while probers hammer the probe queue. Overtaking is safe by design
  // (stores are monotonic), so all that must hold is: every probe answers
  // promptly and the counts are coherent.
  std::vector<std::thread> probers;
  for (int p = 0; p < kProbers; ++p) {
    probers.emplace_back([&, p] {
      std::uint64_t q = 0;
      while (!stop_probing.load()) {
        Handprint hp;
        hp.push_back(Fingerprint::from_uint64(
            mix64(static_cast<std::uint64_t>(p) * 7919 + ++q)));
        (void)client.routing_probe_async(ProbeKind::kResemblance, hp)
            .get(30s);
        (void)client.stored_bytes();
        probes_answered.fetch_add(1);
      }
    });
  }

  for (auto& t : writers) t.join();
  stop_probing.store(true);
  for (auto& t : probers) t.join();

  EXPECT_GT(probes_answered.load(), 0);
  client.flush();
  const auto stats = service.stats();
  EXPECT_GT(stats.fast_requests_served, 0u);
  // Every store landed despite the probe storm.
  EXPECT_EQ(node.stats().super_chunks,
            static_cast<std::uint64_t>(kWriters * kWritesPerWriter));
}

// Regression: NodeService's final drain (when pool tasks served it) used
// to notify its idle condvar after releasing the lock, so a destructor
// could free the service while the drain task was still inside
// notify_all() — a use-after-free TSan caught in the fleet identity
// tests. Same pattern existed in both transports' delivery accounting.
// This storm hammers the teardown window: construct, do a little work,
// destroy immediately.
TEST(NodeServiceTortureTest, TeardownRacingFinalDrainIsClean) {
  for (int round = 0; round < 100; ++round) {
    DedupNode node(0, DedupNodeConfig{});
    net::LoopbackTransport transport;
    {
      service::NodeService service(node, transport);
      net::RpcEndpoint rpc(transport);
      service::NodeClient client(rpc, service.endpoint(), 5000ms);
      SuperChunk sc;
      sc.chunks.push_back(
          {Fingerprint::from_uint64(mix64(static_cast<std::uint64_t>(round))),
           4096});
      (void)client.write_super_chunk_async(StreamId{1}, sc);
      (void)client.stored_bytes_async();
      // Both calls are likely still queued: the service destructor must
      // let the node thread answer them and exit before the object goes
      // away.
    }
  }
}

TEST(NodeServiceTortureTest, SnapshotProviderInstallRacingScrapes) {
  // Regression: set_snapshot_provider() used to write the provider
  // unlocked while handle() read it from a serving thread — a daemon could
  // crash when a stats scrape arrived during startup. Installs must be
  // safe under live kStatsSnapshot traffic: a racing scrape sees either
  // the old provider or the new one, never a torn std::function.
  DedupNode node(0, DedupNodeConfig{});
  net::LoopbackTransport transport;
  obs::Registry registry;
  service::NodeService service(node, transport);
  net::RpcEndpoint rpc(transport);

  std::atomic<bool> stop{false};
  std::atomic<int> scrapes{0};
  std::vector<std::thread> scrapers;
  for (int s = 0; s < 3; ++s) {
    scrapers.emplace_back([&] {
      while (!stop.load()) {
        const Buffer body = rpc.call_sync(
            service.endpoint(), net::MessageType::kStatsSnapshot, Buffer{},
            5000ms);
        (void)obs::decode_metrics_snapshot(ByteView{body.data(), body.size()});
        scrapes.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    service.set_snapshot_provider(
        [&registry] { return registry.snapshot(); });
    service.set_snapshot_provider({});
  }
  while (scrapes.load() < 50) std::this_thread::yield();
  stop.store(true);
  for (auto& t : scrapers) t.join();
  EXPECT_GE(scrapes.load(), 50);
}

}  // namespace
}  // namespace sigma
