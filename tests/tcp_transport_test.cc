// TCP transport: frame codec robustness (hostile bytes must error, never
// crash or over-read), socket-level RPC round trips between two
// transports, connection failure semantics (refused, killed peer —
// surfaced as fast RPC errors, not hangs), handshake rejection of
// garbage, and large-body reassembly across partial reads.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "net/rpc.h"
#include "net/tcp/frame.h"
#include "net/tcp/socket.h"
#include "net/tcp/tcp_transport.h"
#include "obs/metrics.h"
#include "thread_count.h"

namespace sigma::net {
namespace {

using namespace std::chrono_literals;
using test::await_thread_count;
using test::thread_count;

// --- Frame codec --------------------------------------------------------------

Message sample_message(std::size_t body_bytes) {
  Message m;
  m.type = MessageType::kDuplicateTest;
  m.kind = MessageKind::kRequest;
  m.correlation_id = 0xABCDEF0123456789ull;
  m.src = 7;
  m.dst = 9;
  m.body.resize(body_bytes);
  for (std::size_t i = 0; i < body_bytes; ++i) {
    m.body[i] = static_cast<std::uint8_t>(i * 37);
  }
  return m;
}

TEST(FrameTest, RoundTripsThroughDecoder) {
  const Message m = sample_message(300);
  const Buffer frame = encode_frame(m);
  EXPECT_EQ(frame.size(), m.wire_size());

  FrameDecoder decoder(1 << 20);
  decoder.feed(ByteView{frame.data(), frame.size()});
  auto got = decoder.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, m.type);
  EXPECT_EQ(got->kind, m.kind);
  EXPECT_EQ(got->correlation_id, m.correlation_id);
  EXPECT_EQ(got->src, m.src);
  EXPECT_EQ(got->dst, m.dst);
  EXPECT_EQ(got->body, m.body);
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(FrameTest, ReassemblesAcrossPartialFeeds) {
  // A frame split at every possible byte boundary must reassemble.
  const Message m = sample_message(64);
  const Buffer frame = encode_frame(m);
  for (std::size_t split = 1; split < frame.size(); ++split) {
    FrameDecoder decoder(1 << 20);
    decoder.feed(ByteView{frame.data(), split});
    EXPECT_FALSE(decoder.next().has_value());
    decoder.feed(ByteView{frame.data() + split, frame.size() - split});
    auto got = decoder.next();
    ASSERT_TRUE(got.has_value()) << "split at " << split;
    EXPECT_EQ(got->body, m.body);
  }
}

TEST(FrameTest, DecodesBackToBackFrames) {
  Buffer stream;
  for (int i = 0; i < 10; ++i) {
    const Buffer frame = encode_frame(sample_message(static_cast<std::size_t>(i) * 11));
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  FrameDecoder decoder(1 << 20);
  decoder.feed(ByteView{stream.data(), stream.size()});
  for (int i = 0; i < 10; ++i) {
    auto got = decoder.next();
    ASSERT_TRUE(got.has_value()) << "frame " << i;
    EXPECT_EQ(got->body.size(), static_cast<std::size_t>(i) * 11);
  }
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(FrameTest, RejectsUnknownOpByte) {
  Buffer frame = encode_frame(sample_message(4));
  frame[0] = 0xEE;  // not a MessageType
  FrameDecoder decoder(1 << 20);
  decoder.feed(ByteView{frame.data(), frame.size()});
  EXPECT_THROW(decoder.next(), FrameError);
}

TEST(FrameTest, RejectsBadKindByte) {
  Buffer frame = encode_frame(sample_message(4));
  frame[1] = 99;  // not a MessageKind
  FrameDecoder decoder(1 << 20);
  decoder.feed(ByteView{frame.data(), frame.size()});
  EXPECT_THROW(decoder.next(), FrameError);
}

TEST(FrameTest, RejectsOversizedBodyLengthBeforeBuffering) {
  // A corrupt length prefix claiming a multi-GB body must error on the
  // header alone — no allocation, no waiting for bytes that never come.
  Buffer frame = encode_frame(sample_message(4));
  frame[18] = 0xFF;  // body-length field (little-endian, offset 18)
  frame[19] = 0xFF;
  frame[20] = 0xFF;
  frame[21] = 0x7F;
  FrameDecoder decoder(1 << 20);
  decoder.feed(ByteView{frame.data(), frame.size()});
  EXPECT_THROW(decoder.next(), FrameError);
}

TEST(FrameTest, GarbageBytesRaiseFrameError) {
  // 64 bytes of garbage: either an invalid header (error) or a partial
  // frame (no message) — never a crash, never a bogus message.
  Buffer garbage(64);
  for (std::size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<std::uint8_t>(0xA5 ^ (i * 13));
  }
  FrameDecoder decoder(1 << 20);
  decoder.feed(ByteView{garbage.data(), garbage.size()});
  EXPECT_THROW(decoder.next(), FrameError);
}

TEST(FrameTest, HelloRoundTripsAndRejectsGarbage) {
  Hello hello;
  hello.role = PeerRole::kServer;
  const Buffer wire = encode_hello(hello);
  ASSERT_EQ(wire.size(), Hello::kWireBytes);
  const Hello got = decode_hello(ByteView{wire.data(), wire.size()});
  EXPECT_EQ(got.role, PeerRole::kServer);

  Buffer bad = wire;
  bad[0] ^= 0xFF;  // corrupt magic
  EXPECT_THROW(decode_hello(ByteView{bad.data(), bad.size()}), FrameError);

  Buffer wrong_version = wire;
  wrong_version[4] = 42;
  EXPECT_THROW(
      decode_hello(ByteView{wrong_version.data(), wrong_version.size()}),
      FrameError);
}

// --- Address parsing ----------------------------------------------------------

TEST(TcpAddressTest, ParsesHostPortAndNodeMaps) {
  const TcpAddress a = parse_tcp_address("10.0.0.5:7001");
  EXPECT_EQ(a.host, "10.0.0.5");
  EXPECT_EQ(a.port, 7001);

  EXPECT_THROW(parse_tcp_address("no-port"), SocketError);
  EXPECT_THROW(parse_tcp_address("host:99999"), SocketError);
  EXPECT_THROW(parse_tcp_address(":7001"), SocketError);
  EXPECT_THROW(parse_tcp_address("host:7001x"), SocketError);  // no trailing
  EXPECT_THROW(parse_tcp_nodes("127.0.0.1:7001:1o2", 100), SocketError);

  const auto nodes =
      parse_tcp_nodes("127.0.0.1:7001,127.0.0.1:7002:105", 100);
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_EQ(nodes[0].address.port, 7001);
  EXPECT_EQ(nodes[0].endpoint, 100u);  // default
  EXPECT_EQ(nodes[1].address.port, 7002);
  EXPECT_EQ(nodes[1].endpoint, 105u);  // explicit
}

// --- Event-plane construction -----------------------------------------------

TEST(TcpTransportTest, EpollCreateFailureThrowsFromConstruction) {
  // The event loop needs an eventfd and an epoll instance; with no
  // fallback loop, failing to create either must surface as a SocketError
  // from the transport's constructor rather than kill the loop thread. The
  // child
  // caps RLIMIT_NOFILE so exactly one more descriptor can be opened: the
  // eventfd gets it and epoll_create1 hits EMFILE.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        TcpTransportConfig cfg;
        // Construct once unconstrained: UBSan's vptr check opens a pipe
        // the first time it meets a type, which the cap would refuse.
        { TcpTransport warm_up(cfg); }
        const int lowest_free = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
        if (lowest_free < 0) std::exit(2);
        ::close(lowest_free);
        rlimit original{};
        if (::getrlimit(RLIMIT_NOFILE, &original) != 0) std::exit(3);
        rlimit capped = original;
        capped.rlim_cur = static_cast<rlim_t>(lowest_free) + 1;
        if (::setrlimit(RLIMIT_NOFILE, &capped) != 0) std::exit(4);
        try {
          TcpTransport client(cfg);
        } catch (const SocketError&) {
          // Restore the limit so the sanitizers' exit-time work can run.
          (void)::setrlimit(RLIMIT_NOFILE, &original);
          std::exit(0);
        }
        std::exit(1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(TcpTransportTest, OneTransportIsOneThread) {
  TcpTransportConfig cfg;
  cfg.listen = TcpAddress{"127.0.0.1", 0};
  // Construct once first: a sanitizer runtime starts its own background
  // thread the first time the process creates one.
  { TcpTransport warm_up(cfg); }
  const std::size_t before = thread_count();
  {
    TcpTransport transport(cfg);
    EXPECT_EQ(await_thread_count(before + 1), before + 1);
  }
  EXPECT_EQ(await_thread_count(before), before);
}

// --- Two transports over real sockets -----------------------------------------

/// A server transport with an echo endpoint, plus a client transport
/// dialed at it.
struct TcpPair {
  explicit TcpPair(std::size_t max_body = 4u << 20) {
    TcpTransportConfig server_cfg;
    server_cfg.listen = TcpAddress{"127.0.0.1", 0};
    server_cfg.endpoint_base = kServiceEndpointBase;
    server_cfg.max_body_bytes = max_body;
    server = std::make_unique<TcpTransport>(server_cfg);

    echo_id = server->register_endpoint([this](Message&& m) {
      if (m.kind != MessageKind::kRequest) return;
      server->send(Message::response_to(m, Buffer(m.body)));
    });

    TcpTransportConfig client_cfg;
    client_cfg.endpoint_base = kClientEndpointBase;
    client_cfg.max_body_bytes = max_body;
    client_cfg.remote_endpoints.emplace(
        echo_id, TcpAddress{"127.0.0.1", server->listen_port()});
    client = std::make_unique<TcpTransport>(client_cfg);
  }

  std::unique_ptr<TcpTransport> server;
  std::unique_ptr<TcpTransport> client;
  EndpointId echo_id = 0;
};

TEST(TcpTransportTest, EchoRoundTripOverSockets) {
  TcpPair pair;
  RpcEndpoint rpc(*pair.client);
  const Buffer body{1, 2, 3, 4, 5};
  const Buffer reply = rpc.call_sync(pair.echo_id, MessageType::kDuplicateTest,
                                     Buffer(body), 5000ms);
  EXPECT_EQ(reply, body);
  EXPECT_GT(pair.client->tcp_stats().connections_established, 0u);
  EXPECT_EQ(pair.server->tcp_stats().connections_accepted, 1u);
}

TEST(TcpTransportTest, LargeBodySurvivesPartialReadsAndWrites) {
  // 8 MB body: far past any single read/write syscall — exercises the
  // write queue, partial sends and incremental reassembly.
  TcpPair pair(16u << 20);
  RpcEndpoint rpc(*pair.client);
  Buffer body(8u << 20);
  for (std::size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<std::uint8_t>(i * 2654435761u >> 13);
  }
  const Buffer reply = rpc.call_sync(pair.echo_id, MessageType::kReadChunk,
                                     Buffer(body), 30000ms);
  EXPECT_EQ(reply, body);
}

TEST(TcpTransportTest, WriteQueueGaugeFallsToZeroOnceDrained) {
  // tcp.write_queue_bytes is the bytes queued across all of a transport's
  // connections: it rises when a frame is queued and falls as the frame
  // is written, so an idle transport reads 0 on both sides.
  obs::Registry server_metrics;
  obs::Registry client_metrics;
  TcpTransportConfig server_cfg;
  server_cfg.listen = TcpAddress{"127.0.0.1", 0};
  server_cfg.endpoint_base = kServiceEndpointBase;
  server_cfg.metrics = &server_metrics;
  TcpTransport server(server_cfg);
  const EndpointId echo = server.register_endpoint([&server](Message&& m) {
    if (m.kind != MessageKind::kRequest) return;
    server.send(Message::response_to(m, Buffer(m.body)));
  });
  TcpTransportConfig client_cfg;
  client_cfg.metrics = &client_metrics;
  client_cfg.remote_endpoints.emplace(
      echo, TcpAddress{"127.0.0.1", server.listen_port()});
  TcpTransport client(client_cfg);
  RpcEndpoint rpc(client);

  const Buffer body(1u << 20, 0x5A);
  for (int i = 0; i < 20; ++i) {
    ASSERT_EQ(rpc.call_sync(echo, MessageType::kReadChunk, Buffer(body),
                            30000ms),
              body);
  }
  std::this_thread::sleep_for(300ms);
  EXPECT_EQ(client_metrics.gauge("tcp.write_queue_bytes").value(), 0);
  EXPECT_EQ(server_metrics.gauge("tcp.write_queue_bytes").value(), 0);
  // The high-water mark still shows that a frame was queued.
  EXPECT_GE(client_metrics.gauge("tcp.write_queue_bytes").high_water(),
            static_cast<std::int64_t>(body.size()));
  server.unregister_endpoint(echo);
}

TEST(TcpTransportTest, CorrelationUnderConcurrentClientThreads) {
  TcpPair pair;
  RpcEndpoint rpc(*pair.client);
  constexpr int kThreads = 4;
  constexpr int kCalls = 100;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCalls; ++i) {
        WireWriter w;
        w.u64(static_cast<std::uint64_t>(t) * 1000003 + i);
        const Buffer body = w.take();
        const Buffer reply = rpc.call_sync(
            pair.echo_id, MessageType::kDuplicateTest, Buffer(body), 10000ms);
        if (reply != body) ++mismatches;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(rpc.pending_count(), 0u);
}

TEST(TcpTransportTest, MultipleEndpointsShareOneConnection) {
  // Two services on one daemon address: both reachable, one TCP conn.
  TcpTransportConfig server_cfg;
  server_cfg.listen = TcpAddress{"127.0.0.1", 0};
  server_cfg.endpoint_base = kServiceEndpointBase;
  TcpTransport server(server_cfg);
  const EndpointId a = server.register_endpoint([&](Message&& m) {
    if (m.kind == MessageKind::kRequest) {
      server.send(Message::response_to(m, Buffer{'a'}));
    }
  });
  const EndpointId b = server.register_endpoint([&](Message&& m) {
    if (m.kind == MessageKind::kRequest) {
      server.send(Message::response_to(m, Buffer{'b'}));
    }
  });

  TcpTransportConfig client_cfg;
  const TcpAddress addr{"127.0.0.1", server.listen_port()};
  client_cfg.remote_endpoints.emplace(a, addr);
  client_cfg.remote_endpoints.emplace(b, addr);
  TcpTransport client(client_cfg);
  RpcEndpoint rpc(client);

  EXPECT_EQ(rpc.call_sync(a, MessageType::kFlush, Buffer{}, 5000ms),
            Buffer{'a'});
  EXPECT_EQ(rpc.call_sync(b, MessageType::kFlush, Buffer{}, 5000ms),
            Buffer{'b'});
  EXPECT_EQ(server.tcp_stats().connections_accepted, 1u);
}

TEST(TcpTransportTest, ConnectionRefusedFailsFastNotHang) {
  // Dial a port nobody listens on: the call must fail with an RpcError
  // well inside the RPC timeout (retry budget: 4 attempts, <= ~200ms).
  TcpAddress dead{"127.0.0.1", 1};  // port 1: refused without privileges
  {
    // Find a port that is actually closed (bind+close leaves it free).
    SocketFd probe = tcp_listen(TcpAddress{"127.0.0.1", 0});
    dead.port = bound_port(probe.get());
  }
  TcpTransportConfig cfg;
  cfg.remote_endpoints.emplace(55, dead);
  TcpTransport client(cfg);
  RpcEndpoint rpc(client);

  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(rpc.call_sync(55, MessageType::kFlush, Buffer{}, 30000ms),
               RpcError);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, 10s);  // refused, not timed out
  EXPECT_GT(client.tcp_stats().connect_failures, 0u);
  EXPECT_GT(client.tcp_stats().bounced_requests, 0u);
}

TEST(TcpTransportTest, KilledPeerFailsInFlightCalls) {
  // A request is parked inside the server (never answered); destroying
  // the server drops the connection, which must fail the pending call as
  // a connection error — not leave it hanging until the RPC timeout.
  auto pair = std::make_unique<TcpPair>();
  std::atomic<int> parked{0};
  const EndpointId hole = pair->server->register_endpoint(
      [&](Message&&) { ++parked; });
  TcpTransportConfig client_cfg;
  client_cfg.remote_endpoints.emplace(
      hole, TcpAddress{"127.0.0.1", pair->server->listen_port()});
  TcpTransport client(client_cfg);
  RpcEndpoint rpc(client);

  auto call = rpc.call(hole, MessageType::kStoredBytes, Buffer{});
  for (int i = 0; i < 200 && parked.load() == 0; ++i) {
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_EQ(parked.load(), 1);

  pair.reset();  // kill the "daemon"

  const auto start = std::chrono::steady_clock::now();
  try {
    call.get(30000ms);
    FAIL() << "expected RpcError after peer died";
  } catch (const RpcTimeoutError&) {
    FAIL() << "expected connection error, got timeout";
  } catch (const RpcError& e) {
    EXPECT_NE(std::string(e.what()).find("lost"), std::string::npos);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, 10s);
}

TEST(TcpTransportTest, RawGarbageConnectionIsDroppedServerSurvives) {
  TcpPair pair;
  // A hostile peer connects and sends garbage instead of a HELLO.
  bool in_progress = false;
  SocketFd raw = tcp_connect_start(
      TcpAddress{"127.0.0.1", pair.server->listen_port()}, in_progress);
  // Blocking-ish write loop (socket is non-blocking but tiny payload).
  const char garbage[] = "GET / HTTP/1.1\r\nHost: nope\r\n\r\n";
  for (int i = 0; i < 100; ++i) {
    if (::send(raw.get(), garbage, sizeof(garbage), MSG_NOSIGNAL) > 0) break;
    std::this_thread::sleep_for(10ms);
  }
  // The server must close the connection (read returns 0/err eventually).
  bool closed = false;
  for (int i = 0; i < 500 && !closed; ++i) {
    char buf[16];
    const ssize_t n = ::recv(raw.get(), buf, sizeof(buf), 0);
    if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
      closed = true;
    } else {
      std::this_thread::sleep_for(10ms);
    }
  }
  EXPECT_TRUE(closed);
  EXPECT_GE(pair.server->tcp_stats().protocol_errors, 1u);

  // And keeps serving well-formed clients.
  RpcEndpoint rpc(*pair.client);
  EXPECT_EQ(rpc.call_sync(pair.echo_id, MessageType::kFlush, Buffer{1},
                          5000ms),
            Buffer{1});
}

TEST(TcpTransportTest, OversizedFrameDropsConnectionNotServer) {
  TcpPair pair;  // server max_body = 4 MB
  // Speak a valid HELLO, then claim a 1 GB body.
  bool in_progress = false;
  SocketFd raw = tcp_connect_start(
      TcpAddress{"127.0.0.1", pair.server->listen_port()}, in_progress);
  Hello hello;
  const Buffer hello_wire = encode_hello(hello);
  Message huge;
  huge.type = MessageType::kWriteSuperChunk;
  huge.kind = MessageKind::kRequest;
  huge.dst = pair.echo_id;
  Buffer frame = encode_frame(huge);
  frame[19] = 0x00;  // body length := 1 GB (little-endian at offset 19,
  frame[20] = 0x00;  // after type + kind + flags + correlation + src + dst)
  frame[21] = 0x00;
  frame[22] = 0x40;
  Buffer wire = hello_wire;
  wire.insert(wire.end(), frame.begin(), frame.end());
  for (std::size_t sent = 0; sent < wire.size();) {
    const ssize_t n = ::send(raw.get(), wire.data() + sent,
                             wire.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
    } else {
      std::this_thread::sleep_for(5ms);
    }
  }
  bool closed = false;
  for (int i = 0; i < 500 && !closed; ++i) {
    char buf[16];
    const ssize_t n = ::recv(raw.get(), buf, sizeof(buf), 0);
    if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
      closed = true;
    } else {
      std::this_thread::sleep_for(10ms);
    }
  }
  EXPECT_TRUE(closed);
  EXPECT_GE(pair.server->tcp_stats().protocol_errors, 1u);

  RpcEndpoint rpc(*pair.client);
  EXPECT_EQ(rpc.call_sync(pair.echo_id, MessageType::kFlush, Buffer{7},
                          5000ms),
            Buffer{7});
}

TEST(TcpTransportTest, RequestToUnknownRemoteEndpointErrorsOverWire) {
  TcpPair pair;
  TcpTransportConfig cfg;
  cfg.remote_endpoints.emplace(
      424242, TcpAddress{"127.0.0.1", pair.server->listen_port()});
  TcpTransport client(cfg);
  RpcEndpoint rpc(client);
  const NetStats before = pair.server->stats();
  // The server has no endpoint 424242: it answers with a transport error
  // frame, which surfaces as RpcError (fast), not a timeout.
  try {
    rpc.call_sync(424242, MessageType::kFlush, Buffer{}, 30000ms);
    FAIL() << "expected RpcError";
  } catch (const RpcTimeoutError&) {
    FAIL() << "expected transport error, got timeout";
  } catch (const RpcError& e) {
    EXPECT_NE(std::string(e.what()).find("no endpoint"), std::string::npos);
  }
  // The error frame is counted like any other frame the server sends.
  const NetStats after = pair.server->stats();
  EXPECT_EQ(after.messages_sent, before.messages_sent + 1);
  EXPECT_EQ(after.errors, before.errors + 1);
  EXPECT_GT(after.bytes_sent, before.bytes_sent);
}

TEST(TcpTransportTest, OversizedSendBouncesLocallyAndPeerStaysUsable) {
  // The server accepts 4 MB bodies, this client only 1 KB: a larger
  // request fails at once on the client instead of being shipped (the
  // peer would drop the whole connection on the oversized frame).
  TcpPair pair;
  TcpTransportConfig cfg;
  cfg.max_body_bytes = 1024;
  cfg.remote_endpoints.emplace(
      pair.echo_id, TcpAddress{"127.0.0.1", pair.server->listen_port()});
  TcpTransport client(std::move(cfg));
  RpcEndpoint rpc(client);
  EXPECT_EQ(rpc.call_sync(pair.echo_id, MessageType::kFlush, Buffer{1},
                          5000ms),
            Buffer{1});

  const auto start = std::chrono::steady_clock::now();
  try {
    rpc.call_sync(pair.echo_id, MessageType::kFlush, Buffer(4096, 0x5A),
                  30000ms);
    FAIL() << "expected RpcError";
  } catch (const RpcTimeoutError&) {
    FAIL() << "expected a local bounce, got timeout";
  } catch (const RpcError& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds limit"),
              std::string::npos);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, 5s);

  EXPECT_EQ(rpc.call_sync(pair.echo_id, MessageType::kFlush, Buffer{2},
                          5000ms),
            Buffer{2});
  EXPECT_EQ(pair.server->tcp_stats().connections_accepted, 1u);
}

TEST(TcpTransportTest, NoRouteBouncesImmediately) {
  // Default config: empty peer map, no listener. Passed as a prvalue —
  // GCC 12's -Wmaybe-uninitialized misfires on copying the disengaged
  // optional<TcpAddress> under ASan; guaranteed elision sidesteps it.
  TcpTransport client{TcpTransportConfig{}};
  RpcEndpoint rpc(client);
  EXPECT_THROW(rpc.call_sync(999, MessageType::kFlush, Buffer{}, 30000ms),
               RpcError);
  EXPECT_EQ(client.tcp_stats().bounced_requests, 1u);
}

TEST(TcpTransportTest, ReplyRidesRequestConnectionNotEndpointId) {
  // The client's RpcEndpoint id is also the id of a second endpoint on
  // the server. A reply is addressed by the connection its request came
  // on, never by id, so it reaches the client — not the server's own
  // endpoint of the same id.
  TcpTransportConfig server_cfg;
  server_cfg.listen = TcpAddress{"127.0.0.1", 0};
  server_cfg.endpoint_base = kServiceEndpointBase;
  TcpTransport server(server_cfg);
  const EndpointId echo = server.register_endpoint([&](Message&& m) {
    if (m.kind == MessageKind::kRequest) {
      server.send(Message::response_to(m, Buffer(m.body)));
    }
  });
  std::atomic<int> decoy_deliveries{0};
  const EndpointId decoy =
      server.register_endpoint([&](Message&&) { ++decoy_deliveries; });

  TcpTransportConfig client_cfg;
  client_cfg.endpoint_base = decoy;
  client_cfg.remote_endpoints.emplace(
      echo, TcpAddress{"127.0.0.1", server.listen_port()});
  TcpTransport client(client_cfg);
  RpcEndpoint rpc(client);
  ASSERT_EQ(rpc.id(), decoy);  // the shared id under test

  EXPECT_EQ(rpc.call_sync(echo, MessageType::kFlush, Buffer{7}, 5000ms),
            Buffer{7});
  EXPECT_EQ(decoy_deliveries.load(), 0);
  EXPECT_EQ(server.stats().dropped, 0u);
}

TEST(TcpTransportTest, ReplyAfterRequesterTransportIsGoneIsDropped) {
  // The handler holds its requests and answers only after the client's
  // transport has been destroyed. The replies have no connection left to
  // ride: they are dropped and counted — no crash, no dial.
  obs::Registry metrics;
  TcpTransportConfig server_cfg;
  server_cfg.listen = TcpAddress{"127.0.0.1", 0};
  server_cfg.endpoint_base = kServiceEndpointBase;
  server_cfg.metrics = &metrics;
  TcpTransport server(server_cfg);
  std::mutex held_mu;
  std::vector<Message> held;
  const EndpointId slow = server.register_endpoint([&](Message&& m) {
    std::lock_guard<std::mutex> lock(held_mu);
    held.push_back(std::move(m));
  });
  auto held_count = [&] {
    std::lock_guard<std::mutex> lock(held_mu);
    return held.size();
  };

  {
    TcpTransportConfig client_cfg;
    client_cfg.remote_endpoints.emplace(
        slow, TcpAddress{"127.0.0.1", server.listen_port()});
    TcpTransport client(client_cfg);
    RpcEndpoint rpc(client);
    PendingCall first = rpc.call(slow, MessageType::kFlush, Buffer{1});
    PendingCall second = rpc.call(slow, MessageType::kFlush, Buffer{2});
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (held_count() < 2 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(5ms);
    }
    ASSERT_EQ(held_count(), 2u);
  }  // the client's endpoint and transport go; its connection closes

  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (server.tcp_stats().connections_lost == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_EQ(server.tcp_stats().connections_lost, 1u);

  // One reply right after the close, one after the loop has had time to
  // reap the closed connection.
  std::vector<Message> requests;
  {
    std::lock_guard<std::mutex> lock(held_mu);
    requests.swap(held);
  }
  server.send(Message::response_to(requests[0], Buffer{1}));
  std::this_thread::sleep_for(500ms);
  server.send(Message::response_to(requests[1], Buffer{2}));

  EXPECT_EQ(server.stats().dropped, 2u);
  EXPECT_EQ(server.stats().messages_sent, 0u);
  EXPECT_EQ(metrics.counter("tcp.connects").value(), 0u);
}

TEST(TcpTransportTest, ReconnectsAfterServerRestart) {
  // Kill the server mid-life, bring a new one up on the same port: the
  // client's next call redials transparently.
  auto pair = std::make_unique<TcpPair>();
  const std::uint16_t port = pair->server->listen_port();
  const EndpointId echo_id = pair->echo_id;

  TcpTransportConfig client_cfg;
  client_cfg.remote_endpoints.emplace(echo_id,
                                      TcpAddress{"127.0.0.1", port});
  TcpTransport client(client_cfg);
  RpcEndpoint rpc(client);
  EXPECT_EQ(rpc.call_sync(echo_id, MessageType::kFlush, Buffer{1}, 5000ms),
            Buffer{1});

  pair.reset();

  TcpTransportConfig server_cfg;
  server_cfg.listen = TcpAddress{"127.0.0.1", port};
  server_cfg.endpoint_base = echo_id;
  TcpTransport server2(server_cfg);
  const EndpointId echo2 = server2.register_endpoint([&](Message&& m) {
    if (m.kind == MessageKind::kRequest) {
      server2.send(Message::response_to(m, Buffer(m.body)));
    }
  });
  ASSERT_EQ(echo2, echo_id);

  // First call may race the old connection's teardown; the client must
  // recover within a couple of attempts, never hang.
  Buffer reply;
  for (int attempt = 0; attempt < 3; ++attempt) {
    try {
      reply = rpc.call_sync(echo_id, MessageType::kFlush, Buffer{2}, 5000ms);
      break;
    } catch (const RpcError&) {
      continue;
    }
  }
  EXPECT_EQ(reply, Buffer{2});
}

}  // namespace
}  // namespace sigma::net
