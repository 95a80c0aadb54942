// Transport subsystem: wire codec round trips and robustness against
// hostile bytes (TCP makes them reachable), loopback delivery +
// accounting, RPC correlation under concurrent clients, timeout handling,
// and the refusal of requests sent to a client endpoint.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/hash_util.h"
#include "net/message.h"
#include "net/rpc.h"
#include "net/wire.h"
#include "service/wire_protocol.h"
#include "loopback_transport.h"

namespace sigma::net {
namespace {

using namespace std::chrono_literals;

// --- Wire codec ---------------------------------------------------------------

TEST(WireTest, RoundTripsScalarsAndBytes) {
  WireWriter w;
  w.u8(7);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  const std::string s = "hello wire";
  w.bytes(as_bytes(s));
  const Buffer buf = w.take();

  WireReader r(ByteView{buf.data(), buf.size()});
  EXPECT_EQ(r.u8(), 7u);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  const ByteView got = r.bytes();
  EXPECT_EQ(std::string(got.begin(), got.end()), s);
  EXPECT_TRUE(r.done());
  EXPECT_NO_THROW(r.expect_done());
}

TEST(WireTest, RoundTripsFingerprints) {
  const Fingerprint fp = Fingerprint::from_uint64(0x1122334455667788ull);
  WireWriter w;
  w.fingerprint(fp);
  const Buffer buf = w.take();
  WireReader r(ByteView{buf.data(), buf.size()});
  EXPECT_EQ(r.fingerprint(), fp);
}

TEST(WireTest, TruncatedReadThrows) {
  WireWriter w;
  w.u32(42);
  const Buffer buf = w.take();
  WireReader r(ByteView{buf.data(), buf.size()});
  EXPECT_THROW(r.u64(), WireError);
}

TEST(WireTest, TrailingBytesDetected) {
  WireWriter w;
  w.u32(1);
  w.u32(2);
  const Buffer buf = w.take();
  WireReader r(ByteView{buf.data(), buf.size()});
  r.u32();
  EXPECT_THROW(r.expect_done(), WireError);
}

// --- Wire robustness (hostile bytes) ------------------------------------------

TEST(WireRobustnessTest, TruncationsOfEveryBodyErrorCleanly) {
  // Take a valid body for each protocol decoder and replay every strict
  // prefix: each must raise WireError (or, for prefixes that happen to be
  // self-consistent, decode) — never crash or over-read.
  service::WriteRequest req;
  req.stream = 9;
  for (std::uint64_t i = 0; i < 6; ++i) {
    req.chunks.push_back({Fingerprint::from_uint64(mix64(i)), 4096});
  }
  req.payloads.emplace_back(2, Buffer(512, 0xAB));
  const Buffer write_body = service::encode_write_request(req);

  std::vector<Fingerprint> fps;
  for (std::uint64_t i = 0; i < 8; ++i) {
    fps.push_back(Fingerprint::from_uint64(mix64(i + 100)));
  }
  const Buffer fp_body = service::encode_duplicate_test({fps, 7});

  for (std::size_t cut = 0; cut < write_body.size(); ++cut) {
    try {
      service::decode_write_request(ByteView{write_body.data(), cut});
    } catch (const WireError&) {
      // expected for most cuts
    }
  }
  for (std::size_t cut = 0; cut < fp_body.size(); ++cut) {
    try {
      service::decode_duplicate_test(ByteView{fp_body.data(), cut});
    } catch (const WireError&) {
    }
  }
}

TEST(WireRobustnessTest, GarbageBytesNeverCrashAnyDecoder) {
  // Deterministic pseudo-random garbage through every body decoder: the
  // only acceptable outcomes are a successful decode (the bytes happened
  // to be valid) or WireError.
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    Buffer junk(seed * 5 % 97);
    for (std::size_t i = 0; i < junk.size(); ++i) {
      junk[i] = static_cast<std::uint8_t>(mix64(seed * 1000 + i));
    }
    const ByteView body{junk.data(), junk.size()};
    try {
      (void)service::decode_duplicate_test(body);
    } catch (const WireError&) {
    }
    try {
      (void)service::decode_bitmap(body);
    } catch (const WireError&) {
    }
    try {
      (void)service::decode_u64(body);
    } catch (const WireError&) {
    }
    try {
      (void)service::decode_write_request(body);
    } catch (const WireError&) {
    }
    try {
      (void)service::decode_write_result(body);
    } catch (const WireError&) {
    }
    try {
      (void)service::decode_read_request(body);
    } catch (const WireError&) {
    }
    try {
      (void)service::decode_read_response(body);
    } catch (const WireError&) {
    }
  }
}

TEST(WireRobustnessTest, LengthPrefixPastEndRejected) {
  // A byte-string length prefix pointing past the buffer must throw, not
  // read out of bounds.
  WireWriter w;
  w.u32(1000);  // claims 1000 bytes follow
  w.u8(1);      // only one does
  const Buffer buf = w.take();
  WireReader r(ByteView{buf.data(), buf.size()});
  EXPECT_THROW(r.bytes(), WireError);
}

TEST(WireRobustnessTest, NestedPayloadCountValidatedAgainstBody) {
  // A write request whose payload count is huge but whose body is tiny:
  // the count check must fire before any allocation is attempted.
  WireWriter w;
  w.u32(0);         // stream
  w.u32(0);         // zero chunks
  w.u32(0xFFFFFF);  // absurd payload count, no bytes behind it
  const Buffer body = w.take();
  EXPECT_THROW(
      service::decode_write_request(ByteView{body.data(), body.size()}),
      WireError);
}

// --- LoopbackTransport --------------------------------------------------------

TEST(LoopbackTransportTest, DeliversToRegisteredEndpoint) {
  LoopbackTransport transport;
  std::vector<Message> received;
  const EndpointId id = transport.register_endpoint(
      [&](Message&& m) { received.push_back(std::move(m)); });

  Message m;
  m.type = MessageType::kFlush;
  m.dst = id;
  m.correlation_id = 99;
  transport.send(std::move(m));

  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].correlation_id, 99u);
  EXPECT_EQ(transport.stats().messages_sent, 1u);
  EXPECT_EQ(transport.stats().requests, 1u);
}

TEST(LoopbackTransportTest, CountsBytes) {
  LoopbackTransport transport;
  const EndpointId id = transport.register_endpoint([](Message&&) {});
  Message m;
  m.dst = id;
  m.body = Buffer(100, 0xAB);
  transport.send(std::move(m));
  EXPECT_EQ(transport.stats().bytes_sent, Message::kHeaderBytes + 100);
}

TEST(LoopbackTransportTest, RequestToUnknownEndpointBouncesError) {
  LoopbackTransport transport;
  std::vector<Message> received;
  const EndpointId client = transport.register_endpoint(
      [&](Message&& m) { received.push_back(std::move(m)); });

  Message m;
  m.kind = MessageKind::kRequest;
  m.src = client;
  m.dst = 424242;  // nobody home
  m.correlation_id = 7;
  transport.send(std::move(m));

  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].kind, MessageKind::kError);
  EXPECT_EQ(received[0].correlation_id, 7u);
  EXPECT_EQ(transport.stats().dropped, 1u);
}

TEST(LoopbackTransportTest, ResponseToUnknownEndpointIsDropped) {
  LoopbackTransport transport;
  Message m;
  m.kind = MessageKind::kResponse;
  m.dst = 5;
  transport.send(std::move(m));  // must not throw
  EXPECT_EQ(transport.stats().dropped, 1u);
}

TEST(LoopbackTransportTest, UnregisterStopsDelivery) {
  LoopbackTransport transport;
  int delivered = 0;
  const EndpointId id =
      transport.register_endpoint([&](Message&&) { ++delivered; });
  Message a;
  a.kind = MessageKind::kResponse;
  a.dst = id;
  transport.send(std::move(a));
  transport.unregister_endpoint(id);
  Message b;
  b.kind = MessageKind::kResponse;
  b.dst = id;
  transport.send(std::move(b));
  EXPECT_EQ(delivered, 1);
}

// --- RpcEndpoint --------------------------------------------------------------

/// A service endpoint that echoes every request body back.
class EchoService {
 public:
  explicit EchoService(Transport& transport) : transport_(transport) {
    id_ = transport.register_endpoint([this](Message&& m) {
      if (m.kind != MessageKind::kRequest) return;
      transport_.send(Message::response_to(m, Buffer(m.body)));
    });
  }
  ~EchoService() { transport_.unregister_endpoint(id_); }
  EndpointId id() const { return id_; }

 private:
  Transport& transport_;
  EndpointId id_;
};

TEST(RpcTest, EchoRoundTrip) {
  LoopbackTransport transport;
  EchoService echo(transport);
  RpcEndpoint rpc(transport);

  Buffer body{1, 2, 3, 4};
  const Buffer reply = rpc.call_sync(echo.id(), MessageType::kDuplicateTest,
                                     Buffer(body), 1000ms);
  EXPECT_EQ(reply, body);
  EXPECT_EQ(rpc.pending_count(), 0u);
}

TEST(RpcTest, BatchedAsyncCallsAllComplete) {
  LoopbackTransport transport;
  EchoService echo(transport);
  RpcEndpoint rpc(transport);

  std::vector<PendingCall> calls;
  for (std::uint8_t i = 0; i < 32; ++i) {
    calls.push_back(
        rpc.call(echo.id(), MessageType::kDuplicateTest, Buffer{i}));
  }
  const auto results = RpcEndpoint::wait_all(calls, 1000ms);
  ASSERT_EQ(results.size(), 32u);
  for (std::uint8_t i = 0; i < 32; ++i) {
    EXPECT_EQ(results[i], Buffer{i});
  }
}

TEST(RpcTest, CorrelationUnderConcurrentClients) {
  // Many client threads share one endpoint and hammer one echo service;
  // every response must match its own request body, which only holds if
  // correlation ids are matched correctly.
  LoopbackTransport transport;
  EchoService echo(transport);
  RpcEndpoint rpc(transport);

  constexpr int kThreads = 8;
  constexpr int kCalls = 200;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCalls; ++i) {
        WireWriter w;
        w.u32(static_cast<std::uint32_t>(t * 1000000 + i));
        const Buffer body = w.take();
        const Buffer reply = rpc.call_sync(
            echo.id(), MessageType::kDuplicateTest, Buffer(body), 5000ms);
        if (reply != body) ++mismatches;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(rpc.pending_count(), 0u);
  EXPECT_EQ(transport.stats().requests, kThreads * kCalls);
  EXPECT_EQ(transport.stats().responses, kThreads * kCalls);
}

TEST(RpcTest, TimeoutThrowsAndAbandonsCall) {
  LoopbackTransport transport;
  // A black hole: accepts requests, never responds.
  const EndpointId hole = transport.register_endpoint([](Message&&) {});
  RpcEndpoint rpc(transport);

  EXPECT_THROW(
      rpc.call_sync(hole, MessageType::kReadChunk, Buffer{}, 50ms),
      RpcTimeoutError);
  EXPECT_EQ(rpc.pending_count(), 0u);  // abandoned, not leaked
  transport.unregister_endpoint(hole);
}

TEST(RpcTest, LateResponseAfterTimeoutIsCountedNotCrashed) {
  LoopbackTransport transport;
  // Park requests; respond manually later.
  std::vector<Message> parked;
  std::mutex mu;
  const EndpointId slow = transport.register_endpoint([&](Message&& m) {
    std::lock_guard lock(mu);
    parked.push_back(std::move(m));
  });
  RpcEndpoint rpc(transport);

  auto call = rpc.call(slow, MessageType::kStoredBytes, Buffer{});
  EXPECT_THROW(call.get(50ms), RpcTimeoutError);

  // Now deliver the response the caller gave up on.
  {
    std::lock_guard lock(mu);
    ASSERT_EQ(parked.size(), 1u);
    transport.send(Message::response_to(parked[0], Buffer{1}));
  }
  EXPECT_EQ(rpc.late_responses(), 1u);
  transport.unregister_endpoint(slow);
}

TEST(RpcTest, ErrorResponsePropagatesAsRpcError) {
  LoopbackTransport transport;
  LoopbackTransport* tp = &transport;
  const EndpointId nack = transport.register_endpoint([tp](Message&& m) {
    if (m.kind == MessageKind::kRequest) {
      tp->send(Message::error_to(m, "nope"));
    }
  });
  RpcEndpoint rpc(transport);
  try {
    rpc.call_sync(nack, MessageType::kFlush, Buffer{}, 1000ms);
    FAIL() << "expected RpcError";
  } catch (const RpcTimeoutError&) {
    FAIL() << "expected RpcError, got timeout";
  } catch (const RpcError& e) {
    EXPECT_NE(std::string(e.what()).find("nope"), std::string::npos);
  }
  transport.unregister_endpoint(nack);
}

TEST(RpcTest, RequestToClientEndpointIsRefusedNotTimedOut) {
  // An RpcEndpoint only issues calls: a request addressed to it comes back
  // at once as an error, so the caller never burns its timeout.
  LoopbackTransport transport;
  RpcEndpoint client(transport);
  RpcEndpoint caller(transport);
  const auto start = std::chrono::steady_clock::now();
  try {
    caller.call_sync(client.id(), MessageType::kFlush, Buffer{}, 10000ms);
    FAIL() << "expected RpcError";
  } catch (const RpcTimeoutError&) {
    FAIL() << "expected a refusal, got a timeout";
  } catch (const RpcError& e) {
    EXPECT_NE(std::string(e.what()).find("endpoint does not serve requests"),
              std::string::npos)
        << e.what();
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, 5000ms);
  EXPECT_EQ(caller.pending_count(), 0u);
  EXPECT_EQ(client.pending_count(), 0u);
}

TEST(RpcTest, CallToUnknownEndpointFailsFast) {
  LoopbackTransport transport;
  RpcEndpoint rpc(transport);
  // The loopback bounces an error immediately — no 50ms wait burned.
  EXPECT_THROW(
      rpc.call_sync(999999, MessageType::kFlush, Buffer{}, 10000ms),
      RpcError);
}

}  // namespace
}  // namespace sigma::net
