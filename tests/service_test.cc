// Node service layer: the four wire operations against a real DedupNode,
// the sparse-payload write protocol, serialization on the node thread, the
// probe queue, and error propagation.
#include <gtest/gtest.h>

#include <future>
#include <thread>

#include "common/hash_util.h"
#include "net/rpc.h"
#include "net/wire.h"
#include "service/node_client.h"
#include "service/node_service.h"
#include "service/probe_set.h"
#include "service/wire_protocol.h"
#include "loopback_transport.h"

namespace sigma {
namespace {

using namespace std::chrono_literals;

ChunkRecord rec(std::uint64_t id, std::uint32_t size = 4096) {
  return {Fingerprint::from_uint64(mix64(id)), size};
}

SuperChunk make_super_chunk(std::uint64_t first, std::size_t n) {
  SuperChunk sc;
  for (std::size_t i = 0; i < n; ++i) sc.chunks.push_back(rec(first + i));
  return sc;
}

Buffer payload_for(std::uint64_t id, std::uint32_t size = 4096) {
  Buffer b(size);
  for (std::uint32_t i = 0; i < size; ++i) {
    b[i] = static_cast<std::uint8_t>(mix64(id * 31 + i));
  }
  return b;
}

/// Parks a service's node thread inside a kStatsSnapshot provider until
/// release(), so a test controls exactly what is queued when the thread
/// next pops. Declare it before the service it parks: the parked thread
/// still touches these promises on its way out of the provider.
class NodeThreadPark {
 public:
  /// Returns once the node thread is inside the provider. The scrape
  /// that parked it is answered after release().
  net::PendingCall park(service::NodeService& service, net::RpcEndpoint& rpc) {
    service.set_snapshot_provider([this] {
      parked_.set_value();
      released_.wait();
      return obs::MetricsSnapshot{};
    });
    net::PendingCall scrape = rpc.call(
        service.endpoint(), net::MessageType::kStatsSnapshot, Buffer{});
    parked_.get_future().wait();
    return scrape;
  }

  /// Lets the thread go. Idempotent, so teardown can always call it and a
  /// failing test cannot hang the service's join.
  void release() {
    if (released_flag_) return;
    released_flag_ = true;
    release_.set_value();
  }

 private:
  std::promise<void> parked_;
  std::promise<void> release_;
  std::shared_future<void> released_ = release_.get_future().share();
  bool released_flag_ = false;
};

class ServiceFixture : public ::testing::Test {
 protected:
  ServiceFixture()
      : node_(0, DedupNodeConfig{}),
        service_(node_, transport_),
        rpc_(transport_),
        client_(rpc_, service_.endpoint(), 5000ms) {}
  ~ServiceFixture() override { park_.release(); }

  DedupNode node_;
  net::LoopbackTransport transport_;
  NodeThreadPark park_;  // before service_, which may be parked on it
  service::NodeService service_;
  net::RpcEndpoint rpc_;
  service::NodeClient client_;
};

// --- Wire protocol codecs -----------------------------------------------------

TEST(WireProtocolTest, BitmapRoundTripsOddSizes) {
  for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 64u, 100u}) {
    std::vector<bool> bits(n);
    for (std::size_t i = 0; i < n; ++i) bits[i] = (mix64(i) % 3) == 0;
    const Buffer body = service::encode_bitmap(bits);
    EXPECT_EQ(service::decode_bitmap(ByteView{body.data(), body.size()}),
              bits);
  }
}

TEST(WireProtocolTest, WriteRequestRoundTrips) {
  service::WriteRequest req;
  req.stream = 3;
  req.chunks = make_super_chunk(10, 5).chunks;
  req.payloads.emplace_back(1, payload_for(11));
  req.payloads.emplace_back(4, payload_for(14));
  const Buffer body = service::encode_write_request(req);
  const auto got =
      service::decode_write_request(ByteView{body.data(), body.size()});
  EXPECT_EQ(got.stream, 3u);
  EXPECT_EQ(got.chunks, req.chunks);
  ASSERT_EQ(got.payloads.size(), 2u);
  EXPECT_EQ(got.payloads[0].first, 1u);
  EXPECT_EQ(got.payloads[0].second, req.payloads[0].second);
  EXPECT_EQ(got.payloads[1].first, 4u);
}

TEST(WireProtocolTest, BinKeyRoundTripsWithAndWithout) {
  service::WriteRequest req;
  req.stream = 5;
  req.chunks = make_super_chunk(20, 3).chunks;
  req.payloads.emplace_back(2, payload_for(22));
  service::DuplicateTestRequest test;
  for (const auto& c : req.chunks) test.fingerprints.push_back(c.fp);
  for (const std::optional<std::uint64_t> bin :
       {std::optional<std::uint64_t>{}, std::optional<std::uint64_t>{0},
        std::optional<std::uint64_t>{0xFEEDFACECAFEBEEFull}}) {
    req.bin = bin;
    const Buffer write_body = service::encode_write_request(req);
    const auto got = service::decode_write_request(
        ByteView{write_body.data(), write_body.size()});
    EXPECT_EQ(got.bin, bin);
    EXPECT_EQ(got.chunks, req.chunks);
    ASSERT_EQ(got.payloads.size(), 1u);
    EXPECT_EQ(got.payloads[0].second, req.payloads[0].second);

    test.bin = bin;
    const Buffer test_body = service::encode_duplicate_test(test);
    const auto got_test = service::decode_duplicate_test(
        ByteView{test_body.data(), test_body.size()});
    EXPECT_EQ(got_test.bin, bin);
    EXPECT_EQ(got_test.fingerprints, test.fingerprints);
  }
}

TEST(WireProtocolTest, EveryTruncationOfABinnedBodyThrows) {
  // Every field is required, the bin's presence byte included, so no
  // strict prefix of either body decodes.
  service::WriteRequest req;
  req.chunks = make_super_chunk(30, 4).chunks;
  req.payloads.emplace_back(1, payload_for(31, 64));
  service::DuplicateTestRequest test;
  for (const auto& c : req.chunks) test.fingerprints.push_back(c.fp);
  for (const std::optional<std::uint64_t> bin :
       {std::optional<std::uint64_t>{}, std::optional<std::uint64_t>{77}}) {
    req.bin = bin;
    test.bin = bin;
    const Buffer write_body = service::encode_write_request(req);
    const Buffer test_body = service::encode_duplicate_test(test);
    for (std::size_t cut = 0; cut < write_body.size(); ++cut) {
      EXPECT_THROW(service::decode_write_request(
                       ByteView{write_body.data(), cut}),
                   net::WireError)
          << "write cut " << cut;
    }
    for (std::size_t cut = 0; cut < test_body.size(); ++cut) {
      EXPECT_THROW(service::decode_duplicate_test(
                       ByteView{test_body.data(), cut}),
                   net::WireError)
          << "test cut " << cut;
    }
  }
}

TEST(WireProtocolTest, BadBinPresenceByteRefused) {
  service::WriteRequest req;
  req.chunks = make_super_chunk(40, 2).chunks;
  Buffer write_body = service::encode_write_request(req);
  service::DuplicateTestRequest test;
  test.fingerprints = {rec(40).fp};
  Buffer test_body = service::encode_duplicate_test(test);
  // Unkeyed bodies end in the presence byte; 2 would claim a third state.
  write_body.back() = 2;
  test_body.back() = 2;
  EXPECT_THROW(service::decode_write_request(
                   ByteView{write_body.data(), write_body.size()}),
               net::WireError);
  EXPECT_THROW(service::decode_duplicate_test(
                   ByteView{test_body.data(), test_body.size()}),
               net::WireError);
}

TEST(WireProtocolTest, MalformedBodyThrowsWireError) {
  const Buffer junk{1, 2, 3};
  EXPECT_THROW(service::decode_write_result(ByteView{junk.data(), junk.size()}),
               net::WireError);
}

TEST(WireProtocolTest, OversizedCountRejectedBeforeAllocation) {
  // A 4-byte count of 0xFFFFFFFF with no elements behind it must raise
  // WireError up front, not attempt a multi-GB reserve.
  const Buffer evil{0xFF, 0xFF, 0xFF, 0xFF};
  const ByteView body{evil.data(), evil.size()};
  EXPECT_THROW(service::decode_duplicate_test(body), net::WireError);
  EXPECT_THROW(service::decode_bitmap(body), net::WireError);
  Buffer write_evil{0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF};  // stream + count
  EXPECT_THROW(service::decode_write_request(
                   ByteView{write_evil.data(), write_evil.size()}),
               net::WireError);
}

TEST(WireProtocolTest, RoutingProbeRoundTripsAndRejectsBadKind) {
  service::RoutingProbeRequest req;
  req.kind = ProbeKind::kChunkMatch;
  for (std::uint64_t i = 0; i < 9; ++i) req.fingerprints.push_back(rec(i).fp);
  Buffer body = service::encode_routing_probe_request(req);
  const auto got = service::decode_routing_probe_request(
      ByteView{body.data(), body.size()});
  EXPECT_EQ(got.kind, ProbeKind::kChunkMatch);
  EXPECT_EQ(got.fingerprints, req.fingerprints);

  body[0] = 0x7E;  // not a ProbeKind
  EXPECT_THROW(service::decode_routing_probe_request(
                   ByteView{body.data(), body.size()}),
               net::WireError);

  service::RoutingProbeReply reply{42, 1 << 20, {}};
  const Buffer rbody = service::encode_routing_probe_reply(reply);
  const auto rgot = service::decode_routing_probe_reply(
      ByteView{rbody.data(), rbody.size()});
  EXPECT_EQ(rgot.matches, 42u);
  EXPECT_EQ(rgot.stored_bytes, 1u << 20);
  const Buffer junk{1, 2, 3};
  EXPECT_THROW(service::decode_routing_probe_reply(
                   ByteView{junk.data(), junk.size()}),
               net::WireError);
}

service::RoutingProbeRequest fused_probe_request() {
  service::RoutingProbeRequest req;
  req.kind = ProbeKind::kResemblance;
  for (std::uint64_t i = 0; i < 3; ++i) req.fingerprints.push_back(rec(i).fp);
  for (std::uint64_t i = 0; i < 11; ++i) {
    req.duplicate_test.push_back(rec(100 + i).fp);
  }
  return req;
}

service::RoutingProbeReply fused_probe_reply() {
  service::RoutingProbeReply reply{7, 99, {}};
  for (std::size_t i = 0; i < 11; ++i) reply.present.push_back(i % 3 == 0);
  return reply;
}

TEST(WireProtocolTest, FusedRoutingProbeRoundTrips) {
  const auto req = fused_probe_request();
  const Buffer body = service::encode_routing_probe_request(req);
  const auto got = service::decode_routing_probe_request(
      ByteView{body.data(), body.size()});
  EXPECT_EQ(got.kind, req.kind);
  EXPECT_EQ(got.fingerprints, req.fingerprints);
  EXPECT_EQ(got.duplicate_test, req.duplicate_test);

  const auto reply = fused_probe_reply();
  const Buffer rbody = service::encode_routing_probe_reply(reply);
  const auto rgot = service::decode_routing_probe_reply(
      ByteView{rbody.data(), rbody.size()});
  EXPECT_EQ(rgot.matches, 7u);
  EXPECT_EQ(rgot.stored_bytes, 99u);
  EXPECT_EQ(rgot.present, reply.present);
}

TEST(WireProtocolTest, FusedRoutingProbeRejectsTruncationAtEveryByte) {
  const Buffer body =
      service::encode_routing_probe_request(fused_probe_request());
  for (std::size_t n = 0; n < body.size(); ++n) {
    EXPECT_THROW(
        service::decode_routing_probe_request(ByteView{body.data(), n}),
        net::WireError)
        << "request cut at " << n << " of " << body.size();
  }
  const Buffer rbody = service::encode_routing_probe_reply(fused_probe_reply());
  for (std::size_t n = 0; n < rbody.size(); ++n) {
    EXPECT_THROW(
        service::decode_routing_probe_reply(ByteView{rbody.data(), n}),
        net::WireError)
        << "reply cut at " << n << " of " << rbody.size();
  }
}

TEST(WireProtocolTest, FusedRoutingProbeRejectsCountsThatDisagreeWithBody) {
  auto set_u32 = [](Buffer& b, std::size_t at, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  };
  // Reply: matches + stored bytes (16 bytes), then the bitmap count over
  // two bytes of bits for 11 entries.
  const Buffer rbody = service::encode_routing_probe_reply(fused_probe_reply());
  ASSERT_EQ(rbody.size(), 16u + 4u + 2u);
  for (const std::uint32_t count : {0u, 3u, 8u, 17u, 0xFFFFFFFFu}) {
    Buffer bad = rbody;
    set_u32(bad, 16, count);
    EXPECT_THROW(
        service::decode_routing_probe_reply(ByteView{bad.data(), bad.size()}),
        net::WireError)
        << "bitmap count " << count;
  }
  // Request: kind + 3 probe fingerprints, then the duplicate-test count
  // over 11 fingerprints.
  const Buffer body =
      service::encode_routing_probe_request(fused_probe_request());
  const std::size_t at = 1 + 4 + 3 * Fingerprint::kSize;
  for (const std::uint32_t count : {0u, 10u, 12u, 0xFFFFFFFFu}) {
    Buffer bad = body;
    set_u32(bad, at, count);
    EXPECT_THROW(service::decode_routing_probe_request(
                     ByteView{bad.data(), bad.size()}),
                 net::WireError)
        << "duplicate-test count " << count;
  }
}

// --- Probes over the wire -----------------------------------------------------

TEST_F(ServiceFixture, FusedRoutingProbeMatchesDirectCalls) {
  // The fused scatter-gather op answers both halves of a routing
  // decision — match count and stored bytes — in one message, for both
  // probe kinds.
  const SuperChunk sc = make_super_chunk(0, 64);
  node_.write_super_chunk(0, sc);

  const Handprint hp = compute_handprint(sc.chunks, 8);
  auto call = client_.routing_probe_async(ProbeKind::kResemblance, hp);
  Buffer body = call.get(5000ms);
  auto reply =
      service::decode_routing_probe_reply(ByteView{body.data(), body.size()});
  EXPECT_EQ(reply.matches, node_.resemblance_count(hp));
  EXPECT_GT(reply.matches, 0u);
  EXPECT_EQ(reply.stored_bytes, node_.stored_bytes());

  std::vector<Fingerprint> fps;
  for (const auto& c : sc.chunks) fps.push_back(c.fp);
  fps.push_back(rec(777777).fp);  // one absent
  call = client_.routing_probe_async(ProbeKind::kChunkMatch, fps);
  body = call.get(5000ms);
  reply =
      service::decode_routing_probe_reply(ByteView{body.data(), body.size()});
  EXPECT_EQ(reply.matches, node_.chunk_match_count(fps));
  EXPECT_EQ(reply.matches, 64u);
  EXPECT_TRUE(reply.present.empty());

  // With the duplicate test riding along, the same message answers it.
  call = client_.routing_probe_async(ProbeKind::kResemblance, hp, fps);
  body = call.get(5000ms);
  reply =
      service::decode_routing_probe_reply(ByteView{body.data(), body.size()});
  EXPECT_EQ(reply.matches, node_.resemblance_count(hp));
  EXPECT_EQ(reply.present, node_.test_duplicates(fps));
  EXPECT_FALSE(reply.present.back());
}

TEST_F(ServiceFixture, ProbesMatchDirectCalls) {
  // Match counts over the wire are covered by the fused-probe test above.
  node_.write_super_chunk(0, make_super_chunk(0, 64));
  EXPECT_EQ(client_.stored_bytes(), node_.stored_bytes());
}

TEST_F(ServiceFixture, DuplicateTestBitmapIsExact) {
  const SuperChunk sc = make_super_chunk(100, 16);
  node_.write_super_chunk(0, sc);

  std::vector<Fingerprint> fps;
  for (const auto& c : sc.chunks) fps.push_back(c.fp);
  fps.push_back(rec(999999).fp);
  const auto present = client_.test_duplicates(fps);
  ASSERT_EQ(present.size(), 17u);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_TRUE(present[i]);
  EXPECT_FALSE(present[16]);
}

// --- Write path over the wire -------------------------------------------------

TEST_F(ServiceFixture, BinnedWriteShipsOnlyWhatTheBinLacks) {
  // Extreme Binning over the wire: the duplicate test is scoped to the
  // write's bin, so a chunk that only another bin holds ships again and
  // is stored again, and both copies read back.
  SuperChunk sc = make_super_chunk(70, 4);
  std::vector<Buffer> payloads;
  for (std::size_t i = 0; i < 4; ++i) payloads.push_back(payload_for(70 + i));
  std::size_t shipped = 0;
  auto provider = [&](std::size_t i) {
    ++shipped;
    return ByteView{payloads[i].data(), payloads[i].size()};
  };
  auto write = [&](std::uint64_t bin) {
    const Buffer body = client_.write_super_chunk_async(0, sc, provider,
                                                        std::nullopt, bin)
                            .get(5s);
    return service::decode_write_result(ByteView{body.data(), body.size()});
  };

  EXPECT_EQ(write(1).unique_chunks, 4u);
  EXPECT_EQ(shipped, 4u);
  EXPECT_EQ(write(1).duplicate_chunks, 4u);  // same bin: nothing ships
  EXPECT_EQ(shipped, 4u);
  EXPECT_EQ(write(2).unique_chunks, 4u);  // other bin: a second copy
  EXPECT_EQ(shipped, 8u);
  EXPECT_EQ(node_.stored_bytes(), 2u * 4 * 4096);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(client_.read_chunk(sc.chunks[i].fp), payloads[i]);
  }
}

TEST_F(ServiceFixture, TraceModeWriteDeduplicates) {
  const SuperChunk sc = make_super_chunk(0, 32);
  const auto first = client_.write_super_chunk(1, sc);
  EXPECT_EQ(first.unique_chunks, 32u);
  EXPECT_EQ(first.duplicate_chunks, 0u);
  const auto second = client_.write_super_chunk(1, sc);
  EXPECT_EQ(second.unique_chunks, 0u);
  EXPECT_EQ(second.duplicate_chunks, 32u);
  EXPECT_EQ(node_.stats().super_chunks, 2u);
}

TEST_F(ServiceFixture, PayloadWriteShipsOnlyUniqueBytesAndRestores) {
  SuperChunk sc = make_super_chunk(50, 8);
  std::vector<Buffer> payloads;
  for (std::size_t i = 0; i < 8; ++i) payloads.push_back(payload_for(50 + i));
  auto provider = [&payloads](std::size_t i) {
    return ByteView{payloads[i].data(), payloads[i].size()};
  };

  const auto first = client_.write_super_chunk(0, sc, provider);
  EXPECT_EQ(first.unique_chunks, 8u);
  const auto bytes_after_first = transport_.stats().bytes_sent;

  // Re-writing the same super-chunk: the duplicate test filters every
  // payload, so the second write moves almost no bytes.
  const auto second = client_.write_super_chunk(0, sc, provider);
  EXPECT_EQ(second.duplicate_chunks, 8u);
  const auto second_write_bytes =
      transport_.stats().bytes_sent - bytes_after_first;
  EXPECT_LT(second_write_bytes, 4096u);  // fingerprints only, no payloads

  // Restore every chunk through the read operation.
  for (std::size_t i = 0; i < 8; ++i) {
    const auto got = client_.read_chunk(sc.chunks[i].fp);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, payloads[i]);
  }
}

TEST_F(ServiceFixture, RepeatedChunksInBatchShipOnePayload) {
  // Four copies of one new chunk in a single super-chunk: the duplicate
  // test reports all four absent, but only the first occurrence's payload
  // crosses the wire; the node dedupes the rest against it locally.
  SuperChunk sc;
  for (int i = 0; i < 4; ++i) sc.chunks.push_back(rec(42, 4096));
  const Buffer payload = payload_for(42);
  auto provider = [&payload](std::size_t) {
    return ByteView{payload.data(), payload.size()};
  };

  const auto before = transport_.stats().bytes_sent;
  const auto result = client_.write_super_chunk(0, sc, provider);
  const auto wire_bytes = transport_.stats().bytes_sent - before;

  EXPECT_EQ(result.unique_chunks, 1u);
  EXPECT_EQ(result.duplicate_chunks, 3u);
  // One payload (4 KB), not four: well under two payloads' worth.
  EXPECT_LT(wire_bytes, 2 * 4096u);
  EXPECT_EQ(*client_.read_chunk(sc.chunks[0].fp), payload);
}

TEST_F(ServiceFixture, ReadUnknownChunkReturnsEmpty) {
  EXPECT_FALSE(client_.read_chunk(rec(123456).fp).has_value());
}

TEST_F(ServiceFixture, FlushSealsContainers) {
  client_.write_super_chunk(0, make_super_chunk(0, 16));
  EXPECT_GT(node_.container_store().open_container_count(), 0u);
  client_.flush();
  EXPECT_EQ(node_.container_store().open_container_count(), 0u);
}

TEST_F(ServiceFixture, MalformedRequestYieldsErrorNotCrash) {
  // A write request with a payload index past the chunk list.
  service::WriteRequest req;
  req.chunks = make_super_chunk(0, 2).chunks;
  req.payloads.emplace_back(9, payload_for(1));
  EXPECT_THROW(rpc_.call_sync(service_.endpoint(),
                              net::MessageType::kWriteSuperChunk,
                              service::encode_write_request(req), 5000ms),
               net::RpcError);
  // The service survives and keeps serving.
  EXPECT_EQ(client_.stored_bytes(), 0u);
  EXPECT_GT(service_.stats().errors_returned, 0u);
}

TEST_F(ServiceFixture, GarbageBodyYieldsErrorNotCrash) {
  EXPECT_THROW(rpc_.call_sync(service_.endpoint(),
                              net::MessageType::kRoutingProbe,
                              Buffer{0xFF, 0xFF}, 5000ms),
               net::RpcError);
  EXPECT_EQ(client_.stored_bytes(), 0u);
}

// --- Probe queue --------------------------------------------------------------

TEST_F(ServiceFixture, RequestsAreClassifiedIntoLanes) {
  client_.write_super_chunk(0, make_super_chunk(0, 8));  // write queue
  client_.stored_bytes();                                // probe queue
  client_.test_duplicates({rec(1).fp});                  // probe queue
  client_
      .routing_probe_async(ProbeKind::kResemblance,
                           compute_handprint(make_super_chunk(0, 8).chunks, 4))
      .get(5000ms);                                      // probe queue
  client_.flush();                                       // write queue

  const auto stats = service_.stats();
  EXPECT_EQ(stats.requests_served, 5u);
  EXPECT_EQ(stats.fast_requests_served, 3u);
}

TEST_F(ServiceFixture, ProbeOvertakesQueuedWriteBacklog) {
  // Park the node thread, queue a deep write backlog and then one probe,
  // and release: the probe must run before every queued write. (In a
  // single FIFO queue it would serialize behind all of them, which is
  // exactly what capped same-node pipelining.)
  net::PendingCall scrape = park_.park(service_, rpc_);
  constexpr int kWrites = 40;
  std::vector<net::PendingCall> writes;
  writes.reserve(kWrites);
  for (int i = 0; i < kWrites; ++i) {
    service::WriteRequest req;
    req.stream = 0;
    req.chunks = make_super_chunk(static_cast<std::uint64_t>(i) * 2048,
                                  1024).chunks;
    writes.push_back(rpc_.call(service_.endpoint(),
                               net::MessageType::kWriteSuperChunk,
                               service::encode_write_request(req)));
  }
  net::PendingCall probe = client_.stored_bytes_async();
  park_.release();

  // The probe saw none of the 40 stores: it ran before every one of them.
  const Buffer body = probe.get(30000ms);
  EXPECT_EQ(service::decode_u64(ByteView{body.data(), body.size()}), 0u);
  net::RpcEndpoint::wait_all(writes, 30000ms);
  (void)scrape.get(5000ms);
  EXPECT_EQ(node_.stats().super_chunks, static_cast<std::uint64_t>(kWrites));
  EXPECT_EQ(service_.stats().fast_requests_served, 2u);  // scrape + probe
}

TEST_F(ServiceFixture, ConcurrentProbesAndWritesStayConsistent) {
  // One thread hammers writes, another probes: every response must be
  // well-formed (the node thread serializes actual node access), and the
  // final state must reflect every write.
  constexpr int kWrites = 30;
  std::thread writer([&] {
    for (int i = 0; i < kWrites; ++i) {
      client_.write_super_chunk(
          0, make_super_chunk(static_cast<std::uint64_t>(i) * 64, 64));
    }
  });
  std::uint64_t last = 0;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t now = client_.stored_bytes();
    EXPECT_GE(now, last);  // stores only grow
    last = now;
  }
  writer.join();
  EXPECT_EQ(node_.stats().super_chunks, static_cast<std::uint64_t>(kWrites));
  EXPECT_EQ(client_.stored_bytes(), node_.stored_bytes());
}

// --- Scatter-gather probe plane over the service stack ------------------------

/// Nodes behind services on one loopback transport, one client stub each.
struct LoopbackFleet {
  explicit LoopbackFleet(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<DedupNode>(static_cast<NodeId>(i),
                                                  DedupNodeConfig{}));
      services.push_back(
          std::make_unique<service::NodeService>(*nodes.back(), transport));
    }
    for (auto& s : services) {
      clients.push_back(std::make_unique<service::NodeClient>(
          rpc, s->endpoint(), 5000ms));
      stubs.push_back(clients.back().get());
    }
  }

  net::LoopbackTransport transport;
  std::vector<std::unique_ptr<DedupNode>> nodes;
  std::vector<std::unique_ptr<service::NodeService>> services;
  net::RpcEndpoint rpc{transport};
  std::vector<std::unique_ptr<service::NodeClient>> clients;
  std::vector<const service::NodeClient*> stubs;
};

TEST(ClientProbeSetTest, GatherMatchesPerNodeStateAcrossFleet) {
  // Three nodes behind services; one gather() answers candidates' match
  // counts and the whole fleet's usage, identical to per-node truth.
  constexpr std::size_t kNodes = 3;
  LoopbackFleet fleet(kNodes);
  auto& nodes = fleet.nodes;

  const SuperChunk sc = make_super_chunk(50, 48);
  nodes[1]->write_super_chunk(0, sc);

  service::ClientProbeSet probes(fleet.stubs, 5000ms);
  EXPECT_EQ(probes.size(), kNodes);

  const Handprint hp = compute_handprint(sc.chunks, 8);
  const std::vector<NodeId> candidates{0, 1};
  const ProbeRound round =
      probes.gather(ProbeKind::kResemblance, candidates, hp, {});
  ASSERT_EQ(round.matches.size(), 2u);
  ASSERT_EQ(round.usage.size(), kNodes);
  EXPECT_EQ(round.matches[0], nodes[0]->resemblance_count(hp));
  EXPECT_EQ(round.matches[1], nodes[1]->resemblance_count(hp));
  EXPECT_GT(round.matches[1], 0u);
  EXPECT_TRUE(round.present.empty());
  for (std::size_t i = 0; i < kNodes; ++i) {
    EXPECT_EQ(round.usage[i], nodes[i]->stored_bytes());
  }

  const std::vector<NodeId> bad{kNodes};
  EXPECT_THROW(probes.gather(ProbeKind::kChunkMatch, bad, {}, {}),
               std::out_of_range);
}

TEST(ClientProbeSetTest, FusedDuplicateTestAnswersEveryCandidate) {
  // The duplicate test rides each candidate's probe: every candidate's
  // bitmap equals its node's own answer, in candidate order.
  LoopbackFleet fleet(3);
  const SuperChunk sc = make_super_chunk(50, 48);
  fleet.nodes[1]->write_super_chunk(0, sc);
  SuperChunk half;
  half.chunks.assign(sc.chunks.begin(), sc.chunks.begin() + 24);
  fleet.nodes[2]->write_super_chunk(0, half);

  std::vector<Fingerprint> fps;
  for (const auto& c : sc.chunks) fps.push_back(c.fp);
  fps.push_back(rec(424242).fp);  // stored nowhere

  service::ClientProbeSet probes(fleet.stubs, 5000ms);
  const std::vector<NodeId> candidates{2, 0, 1};
  const ProbeRound round = probes.gather(
      ProbeKind::kResemblance, candidates, compute_handprint(sc.chunks, 8),
      fps);
  ASSERT_EQ(round.present.size(), candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(round.present[i],
              fleet.nodes[candidates[i]]->test_duplicates(fps))
        << "candidate " << candidates[i];
  }
  EXPECT_TRUE(round.present[2][0]);
  EXPECT_FALSE(round.present[2].back());
}

TEST(ClientProbeSetTest, BitmapOfWrongLengthIsRpcError) {
  // A node whose probe reply carries one bit however many fingerprints
  // it was asked about: the round must fail, not misplace payloads.
  net::LoopbackTransport transport;
  const net::EndpointId liar =
      transport.register_endpoint([&transport](net::Message&& m) {
        service::RoutingProbeReply reply{0, 0, {true}};
        transport.send(net::Message::response_to(
            m, service::encode_routing_probe_reply(reply)));
      });
  net::RpcEndpoint rpc(transport);
  service::NodeClient client(rpc, liar, 5000ms);
  service::ClientProbeSet probes({&client}, 5000ms);

  const SuperChunk sc = make_super_chunk(0, 4);
  std::vector<Fingerprint> fps;
  for (const auto& c : sc.chunks) fps.push_back(c.fp);
  const std::vector<NodeId> candidates{0};
  const Handprint hp = compute_handprint(sc.chunks, 2);
  EXPECT_THROW(probes.gather(ProbeKind::kResemblance, candidates, hp, fps),
               net::RpcError);
  // A bitmap nobody asked for is just as wrong.
  EXPECT_THROW(probes.gather(ProbeKind::kResemblance, candidates, hp, {}),
               net::RpcError);
  transport.unregister_endpoint(liar);
}

// --- Event-loop behavior ------------------------------------------------------

TEST_F(ServiceFixture, ConcurrentClientsSerializeOnOneNode) {
  // Hammer one node from several threads; the node thread must serialize
  // them so node state stays consistent.
  constexpr int kThreads = 4;
  constexpr int kWrites = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      service::NodeClient my_client(rpc_, service_.endpoint(), 5000ms);
      for (int i = 0; i < kWrites; ++i) {
        my_client.write_super_chunk(
            static_cast<StreamId>(t),
            make_super_chunk(static_cast<std::uint64_t>(t) * 100000 + i * 64,
                             64));
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto stats = node_.stats();
  EXPECT_EQ(stats.super_chunks,
            static_cast<std::uint64_t>(kThreads) * kWrites);
  EXPECT_EQ(stats.unique_chunks,
            static_cast<std::uint64_t>(kThreads) * kWrites * 64);
  EXPECT_EQ(service_.stats().requests_served,
            transport_.stats().responses);
}

TEST(NodeServiceTest, ManyNodesEachServeOnTheirOwnThread) {
  // 8 services, one node thread each: interleaved writes to all of them
  // must land on the right node, and teardown must join every thread.
  net::LoopbackTransport transport;
  std::vector<std::unique_ptr<DedupNode>> nodes;
  std::vector<std::unique_ptr<service::NodeService>> services;
  for (NodeId i = 0; i < 8; ++i) {
    nodes.push_back(std::make_unique<DedupNode>(i, DedupNodeConfig{}));
    services.push_back(
        std::make_unique<service::NodeService>(*nodes[i], transport));
  }
  net::RpcEndpoint rpc(transport);
  std::vector<net::PendingCall> calls;
  for (int round = 0; round < 5; ++round) {
    for (auto& s : services) {
      service::WriteRequest req;
      req.stream = 0;
      req.chunks =
          make_super_chunk(static_cast<std::uint64_t>(round) * 1000, 16)
              .chunks;
      calls.push_back(rpc.call(s->endpoint(),
                               net::MessageType::kWriteSuperChunk,
                               service::encode_write_request(req)));
    }
  }
  net::RpcEndpoint::wait_all(calls, 10000ms);
  for (auto& n : nodes) {
    EXPECT_EQ(n->stats().super_chunks, 5u);
  }
  services.clear();  // orderly shutdown before the nodes die
}

TEST(NodeServiceTest, DestructionAnswersEveryQueuedRequest) {
  // Park the node thread, queue writes and probes behind it, release it
  // and destroy the service at once: the destructor must answer every
  // queued request before it joins, so no call fails or times out.
  NodeThreadPark park;  // before the service, which is parked on it
  DedupNode node(0, DedupNodeConfig{});
  net::LoopbackTransport transport;
  net::RpcEndpoint rpc(transport);
  auto service = std::make_unique<service::NodeService>(node, transport);
  service::NodeClient client(rpc, service->endpoint(), 5000ms);

  constexpr int kWrites = 20;
  std::vector<net::PendingCall> calls;
  calls.push_back(park.park(*service, rpc));
  for (int i = 0; i < kWrites; ++i) {
    calls.push_back(client.write_super_chunk_async(
        StreamId{0},
        make_super_chunk(static_cast<std::uint64_t>(i) * 64, 16)));
    calls.push_back(client.stored_bytes_async());
  }
  park.release();
  service.reset();

  // Every answer was sent before the destructor returned.
  for (auto& call : calls) {
    EXPECT_NO_THROW((void)call.get(0ms));
  }
  EXPECT_EQ(node.stats().super_chunks, static_cast<std::uint64_t>(kWrites));
}

}  // namespace
}  // namespace sigma
