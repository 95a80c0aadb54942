// Distributed tracing plane: the protocol v4 trace block on the frame
// codec (round trip, truncation at every byte, unknown flag bits), the
// span-dump wire codec and file format (hostile counts and lengths, the
// metrics_wire corpus style), the per-thread seqlock span ring (wrap
// semantics, concurrent emit+scrape torture), sampling arithmetic, and
// an end-to-end parent/child chain over TCP through the kTraceDump
// scrape, proving a routing decision's span is the ancestor of the
// service-side op span across the wire.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.h"
#include "net/rpc.h"
#include "net/tcp/frame.h"
#include "net/tcp/tcp_transport.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_render.h"
#include "obs/trace_wire.h"
#include "server/node_server.h"
#include "workload/generators.h"

namespace sigma::obs {
namespace {

using namespace std::chrono_literals;

std::string span_name(const SpanRecord& rec) {
  return std::string(rec.name, strnlen(rec.name, kSpanNameBytes));
}

/// Restores the process tracer's sample rate on scope exit — the tracer
/// is a process singleton, so every test that touches it must leave it
/// as found.
class SampleRateGuard {
 public:
  SampleRateGuard() : saved_(Tracer::instance().sample_every()) {}
  ~SampleRateGuard() { Tracer::instance().set_sample_every(saved_); }

 private:
  std::uint32_t saved_;
};

// --- Frame codec: the trace block -------------------------------------------

net::Message traced_message() {
  net::Message m;
  m.type = net::MessageType::kWriteSuperChunk;
  m.kind = net::MessageKind::kRequest;
  m.correlation_id = 0x1122334455667788ull;
  m.src = 7;
  m.dst = 101;
  m.trace = {0xDEADBEEFCAFEF00Dull, 0x0123456789ABCDEFull,
             0xAABBCCDDEEFF0011ull, 0x5566778899AABBCCull, true};
  m.body = {1, 2, 3, 4, 5};
  return m;
}

TEST(TraceFrameTest, TracedMessageRoundTrips) {
  const net::Message m = traced_message();
  const Buffer wire = net::encode_frame(m);
  EXPECT_EQ(wire.size(), m.wire_size());
  EXPECT_EQ(wire.size(), net::Message::kHeaderBytes +
                             net::Message::kTraceBlockBytes + m.body.size());

  net::FrameDecoder decoder(1 << 20);
  decoder.feed(ByteView{wire.data(), wire.size()});
  const std::optional<net::Message> got = decoder.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, m.type);
  EXPECT_EQ(got->kind, m.kind);
  EXPECT_EQ(got->correlation_id, m.correlation_id);
  EXPECT_EQ(got->src, m.src);
  EXPECT_EQ(got->dst, m.dst);
  EXPECT_EQ(got->body, m.body);
  EXPECT_TRUE(got->trace == m.trace);
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(TraceFrameTest, UntracedMessageCarriesNoBlock) {
  net::Message m = traced_message();
  m.trace = TraceContext{};
  const Buffer wire = net::encode_frame(m);
  EXPECT_EQ(wire.size(), net::Message::kHeaderBytes + m.body.size());

  net::FrameDecoder decoder(1 << 20);
  decoder.feed(ByteView{wire.data(), wire.size()});
  const std::optional<net::Message> got = decoder.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(got->trace.sampled);
  EXPECT_EQ(got->body, m.body);
}

TEST(TraceFrameTest, TruncationAtEveryByteYieldsNoMessage) {
  // Every strict prefix of a valid traced frame is an incomplete frame —
  // never a message, never an error (the bytes so far are legal).
  const Buffer wire = net::encode_frame(traced_message());
  for (std::size_t len = 0; len < wire.size(); ++len) {
    net::FrameDecoder decoder(1 << 20);
    decoder.feed(ByteView{wire.data(), len});
    EXPECT_FALSE(decoder.next().has_value()) << "prefix of " << len;
  }
  // Byte-at-a-time feeding assembles the same message.
  net::FrameDecoder decoder(1 << 20);
  for (std::size_t i = 0; i < wire.size(); ++i) {
    decoder.feed(ByteView{wire.data() + i, 1});
    if (i + 1 < wire.size()) {
      EXPECT_FALSE(decoder.next().has_value());
    }
  }
  const std::optional<net::Message> got = decoder.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->trace.sampled);
}

TEST(TraceFrameTest, UnknownFlagBitsAreRejected) {
  // Flags live at byte 2 (after type and kind). Any bit outside
  // kKnownFlags is a protocol error — new flags need a version bump.
  for (const std::uint8_t flags : {0x02, 0x80, 0xFE, 0xFF}) {
    Buffer wire = net::encode_frame(traced_message());
    wire[2] = flags;
    net::FrameDecoder decoder(1 << 20);
    decoder.feed(ByteView{wire.data(), wire.size()});
    EXPECT_THROW(decoder.next(), net::FrameError)
        << "flags 0x" << std::hex << static_cast<int>(flags);
  }
}

TEST(TraceFrameTest, TracedAndUntracedFramesInterleaveOnOneStream) {
  const net::Message traced = traced_message();
  net::Message plain = traced_message();
  plain.trace = TraceContext{};
  plain.body = {9, 9};
  Buffer stream = net::encode_frame(traced);
  const Buffer second = net::encode_frame(plain);
  stream.insert(stream.end(), second.begin(), second.end());

  net::FrameDecoder decoder(1 << 20);
  decoder.feed(ByteView{stream.data(), stream.size()});
  const auto first = decoder.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->trace == traced.trace);
  const auto next = decoder.next();
  ASSERT_TRUE(next.has_value());
  EXPECT_FALSE(next->trace.sampled);
  EXPECT_EQ(next->body, plain.body);
  EXPECT_FALSE(decoder.next().has_value());
}

// --- Span dump codec ---------------------------------------------------------

SpanDump sample_dump() {
  SpanDump dump;
  dump.pid = 4242;
  dump.process = "node_server:7001";
  for (int i = 0; i < 5; ++i) {
    SpanRecord rec;
    rec.trace_hi = 0x1000u + static_cast<std::uint64_t>(i);
    rec.trace_lo = 0x2000u + static_cast<std::uint64_t>(i);
    rec.span_id = 0x3000u + static_cast<std::uint64_t>(i);
    rec.parent_span_id = i == 0 ? 0 : 0x3000u + static_cast<std::uint64_t>(i - 1);
    rec.start_unix_us = 1700000000000000ull + static_cast<std::uint64_t>(i);
    rec.duration_us = static_cast<std::uint64_t>(10 * i);
    rec.tid = static_cast<std::uint32_t>(1 + i);
    std::snprintf(rec.name, sizeof(rec.name), "svc.Op%d", i);
    dump.spans.push_back(rec);
  }
  // One span with a name at the full kSpanNameBytes (no NUL terminator).
  SpanRecord full;
  full.span_id = 0x9999;
  std::memset(full.name, 'x', kSpanNameBytes);
  dump.spans.push_back(full);
  return dump;
}

bool spans_equal(const SpanRecord& a, const SpanRecord& b) {
  return a.trace_hi == b.trace_hi && a.trace_lo == b.trace_lo &&
         a.span_id == b.span_id && a.parent_span_id == b.parent_span_id &&
         a.start_unix_us == b.start_unix_us &&
         a.duration_us == b.duration_us && a.tid == b.tid &&
         std::memcmp(a.name, b.name, kSpanNameBytes) == 0;
}

TEST(SpanDumpWireTest, RoundTrips) {
  const SpanDump dump = sample_dump();
  const Buffer wire = encode_span_dump(dump);
  const SpanDump back = decode_span_dump(ByteView{wire.data(), wire.size()});
  EXPECT_EQ(back.pid, dump.pid);
  EXPECT_EQ(back.process, dump.process);
  ASSERT_EQ(back.spans.size(), dump.spans.size());
  for (std::size_t i = 0; i < dump.spans.size(); ++i) {
    EXPECT_TRUE(spans_equal(back.spans[i], dump.spans[i])) << "span " << i;
  }

  const SpanDump empty;
  const Buffer ewire = encode_span_dump(empty);
  const SpanDump eback = decode_span_dump(ByteView{ewire.data(), ewire.size()});
  EXPECT_EQ(eback.pid, 0u);
  EXPECT_TRUE(eback.spans.empty());
}

TEST(SpanDumpWireTest, TruncationAtEveryByteIsRejected) {
  const Buffer wire = encode_span_dump(sample_dump());
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_THROW(decode_span_dump(ByteView{wire.data(), len}), net::WireError)
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(SpanDumpWireTest, TrailingGarbageIsRejected) {
  Buffer wire = encode_span_dump(sample_dump());
  wire.push_back(0);
  EXPECT_THROW(decode_span_dump(ByteView{wire.data(), wire.size()}),
               net::WireError);
}

TEST(SpanDumpWireTest, HostileCountsAndLengthsAreRejected) {
  // A span count claiming 4 billion entries must fail on the count
  // validation against the bytes present, not by attempting the
  // allocation.
  net::WireWriter huge;
  huge.u64(1);        // pid
  huge.bytes(ByteView{});  // process
  huge.u32(0xFFFFFFFFu);   // spans
  const Buffer b1 = huge.take();
  EXPECT_THROW(decode_span_dump(ByteView{b1.data(), b1.size()}),
               net::WireError);

  // A span name longer than kSpanNameBytes is a protocol violation even
  // when the bytes are present — SpanRecord's buffer is fixed.
  net::WireWriter w;
  w.u64(1);
  w.bytes(ByteView{});
  w.u32(1);
  for (int i = 0; i < 6; ++i) w.u64(0);
  w.u32(1);  // tid
  const std::vector<std::uint8_t> long_name(kSpanNameBytes + 1, 'a');
  w.bytes(ByteView{long_name.data(), long_name.size()});
  const Buffer b2 = w.take();
  EXPECT_THROW(decode_span_dump(ByteView{b2.data(), b2.size()}),
               net::WireError);
}

TEST(SpanDumpFileTest, RoundTripsAndRejectsCorruption) {
  const std::string path = testing::TempDir() + "/tracing_test_dump.bin";
  const SpanDump dump = sample_dump();
  write_span_dump_file(path, dump);
  const SpanDump back = read_span_dump_file(path);
  EXPECT_EQ(back.process, dump.process);
  ASSERT_EQ(back.spans.size(), dump.spans.size());

  EXPECT_THROW(read_span_dump_file(path + ".missing"), std::runtime_error);

  // Flip the magic: not a span dump file.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fputc('X', f);
    std::fclose(f);
  }
  EXPECT_THROW(read_span_dump_file(path), std::runtime_error);
}

// --- Span ring ---------------------------------------------------------------

SpanRecord ring_record(std::uint64_t i) {
  SpanRecord rec;
  rec.trace_hi = i;
  rec.trace_lo = ~i;
  rec.span_id = i * 3 + 1;
  rec.parent_span_id = i;
  rec.start_unix_us = i * 7;
  rec.duration_us = i * 11;
  std::snprintf(rec.name, sizeof(rec.name), "s%llu",
                static_cast<unsigned long long>(i % 1000));
  return rec;
}

TEST(SpanRingTest, WrapKeepsLatestAndCountsDropped) {
  SpanRing ring(3);
  constexpr std::uint64_t kExtra = 100;
  for (std::uint64_t i = 0; i < SpanRing::kSlots + kExtra; ++i) {
    ring.emit(ring_record(i));
  }
  EXPECT_EQ(ring.emitted(), SpanRing::kSlots + kExtra);
  EXPECT_EQ(ring.dropped(), kExtra);

  std::vector<SpanRecord> out;
  ring.collect(out);
  ASSERT_EQ(out.size(), SpanRing::kSlots);
  // Exactly the most recent kSlots spans, oldest first, tid stamped.
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::uint64_t expect = kExtra + i;
    EXPECT_EQ(out[i].trace_hi, expect);
    EXPECT_EQ(out[i].span_id, expect * 3 + 1);
  }
}

TEST(SpanRingTest, ConcurrentEmitAndScrapeNeverTears) {
  // 4 single-writer rings hammered while 2 scrapers collect in a loop.
  // Every record a scraper sees must satisfy the writers' invariants —
  // a torn read (mixed words from two emits) cannot.
  constexpr int kWriters = 4;
  constexpr std::uint64_t kEmitsPerWriter = 20000;
  std::vector<std::unique_ptr<SpanRing>> rings;
  for (int w = 0; w < kWriters; ++w) {
    rings.push_back(std::make_unique<SpanRing>(static_cast<std::uint32_t>(w)));
  }

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> scraped_records{0};
  std::atomic<std::uint64_t> violations{0};
  std::vector<std::thread> scrapers;
  for (int s = 0; s < 2; ++s) {
    scrapers.emplace_back([&] {
      // Exit only after a pass that BEGAN with done already true: on a
      // single-core host a scraper can be preempted between a pass over
      // still-empty rings and its loop test, and must not miss the data
      // the writers published in between.
      for (;;) {
        const bool final_pass = done.load(std::memory_order_acquire);
        std::vector<SpanRecord> out;
        for (const auto& ring : rings) ring->collect(out);
        scraped_records.fetch_add(out.size(), std::memory_order_relaxed);
        for (const SpanRecord& rec : out) {
          if (rec.trace_lo != ~rec.trace_hi ||
              rec.span_id != rec.trace_hi * 3 + 1 ||
              rec.start_unix_us != rec.trace_hi * 7 ||
              rec.duration_us != rec.trace_hi * 11) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
        if (final_pass) break;
      }
    });
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < kEmitsPerWriter; ++i) {
        rings[static_cast<std::size_t>(w)]->emit(ring_record(i));
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  for (auto& t : scrapers) t.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(scraped_records.load(), 0u);
  for (const auto& ring : rings) {
    EXPECT_EQ(ring->emitted(), kEmitsPerWriter);
  }
}

// --- Sampling ----------------------------------------------------------------

TEST(TracerSamplingTest, EveryNthRootDecisionIsSampled) {
  SampleRateGuard guard;
  Tracer& tracer = Tracer::instance();

  tracer.set_sample_every(4);
  int sampled = 0;
  for (int i = 0; i < 400; ++i) {
    if (tracer.begin_trace().sampled) ++sampled;
  }
  // Counter-modulo sampling: any window of 400 consecutive decisions at
  // 1-in-4 selects exactly 100, independent of the counter's phase.
  EXPECT_EQ(sampled, 100);

  tracer.set_sample_every(0);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(tracer.begin_trace().sampled);
  }

  tracer.set_sample_every(1);
  TraceContext a = tracer.begin_trace();
  TraceContext b = tracer.begin_trace();
  ASSERT_TRUE(a.sampled);
  ASSERT_TRUE(b.sampled);
  EXPECT_NE(a.span_id, 0u);
  EXPECT_EQ(a.parent_span_id, 0u);
  // Distinct traces, distinct ids.
  EXPECT_FALSE(a.trace_hi == b.trace_hi && a.trace_lo == b.trace_lo);
  EXPECT_NE(a.span_id, b.span_id);

  const TraceContext child = tracer.child_of(a);
  EXPECT_TRUE(child.sampled);
  EXPECT_EQ(child.trace_hi, a.trace_hi);
  EXPECT_EQ(child.trace_lo, a.trace_lo);
  EXPECT_EQ(child.parent_span_id, a.span_id);
  EXPECT_NE(child.span_id, a.span_id);

  EXPECT_FALSE(tracer.child_of(TraceContext{}).sampled);
}

// --- End-to-end: TCP + kTraceDump scrape -------------------------------------

Dataset tracing_dataset(double scale) {
  LinuxWorkloadConfig cfg = LinuxWorkloadConfig::scaled(scale);
  cfg.versions = 2;
  LinuxGenerator gen(cfg);
  const auto chunker = make_chunker(ChunkingScheme::kStatic, 4096);
  return materialize_dataset("linux-tracing", gen.content(), *chunker);
}

/// Walk `rec`'s parent chain within its trace; returns the root record
/// (parent id 0) or nullopt on a broken link.
std::optional<SpanRecord> chain_root(
    const SpanRecord& rec,
    const std::unordered_map<std::uint64_t, SpanRecord>& by_id) {
  SpanRecord cur = rec;
  for (int hops = 0; hops < 32; ++hops) {
    if (cur.parent_span_id == 0) return cur;
    const auto it = by_id.find(cur.parent_span_id);
    if (it == by_id.end()) return std::nullopt;
    cur = it->second;
  }
  return std::nullopt;
}

TEST(TraceE2ETest, TcpScrapeJoinsClientAndServiceSpans) {
  SampleRateGuard guard;
  Tracer::instance().set_sample_every(1);

  server::NodeServerConfig server_cfg;
  server_cfg.listen = {"127.0.0.1", 0};
  server_cfg.num_nodes = 2;
  server::NodeServer server(server_cfg);

  ClusterConfig cfg;
  cfg.num_nodes = 2;
  cfg.scheme = RoutingScheme::kSigma;
  cfg.super_chunk_bytes = 64 * 1024;
  cfg.transport.mode = TransportMode::kTcp;
  cfg.transport.rpc_timeout_ms = 20000;
  cfg.transport.tcp_nodes = server.node_map();
  Cluster cluster(cfg);
  cluster.backup_dataset(tracing_dataset(0.02));
  (void)cluster.report();

  // Scrape the daemon's flight recorder the way fleet_trace does.
  net::TcpTransportConfig scrape_cfg;
  for (const auto& node : cfg.transport.tcp_nodes) {
    scrape_cfg.remote_endpoints.emplace(node.endpoint, node.address);
  }
  net::TcpTransport scrape_transport(std::move(scrape_cfg));
  net::RpcEndpoint rpc(scrape_transport);
  const Buffer body = rpc.call_sync(
      server.endpoint(0), net::MessageType::kTraceDump, Buffer{}, 10s);
  const SpanDump dump = decode_span_dump(ByteView{body.data(), body.size()});
  EXPECT_EQ(dump.pid, static_cast<std::uint64_t>(::getpid()));
  ASSERT_FALSE(dump.spans.empty());

  // The trace context travelled across the TCP frames: a service-side
  // write span's parent id must be a client-side rpc span, same trace.
  // (Client and "daemon" share one process here, so distinguish the two
  // halves by span name; the context still rode the wire.)
  std::optional<SpanRecord> svc_write;
  for (const SpanRecord& rec : dump.spans) {
    if (span_name(rec) == "svc.WriteSuperChunk") svc_write = rec;
  }
  ASSERT_TRUE(svc_write.has_value()) << "scrape carried no write span";
  ASSERT_NE(svc_write->parent_span_id, 0u);

  // Index only this trace's spans: other tests share the rings.
  std::unordered_map<std::uint64_t, SpanRecord> by_id;
  for (const SpanRecord& rec : Tracer::instance().collect()) {
    if (rec.trace_hi == svc_write->trace_hi &&
        rec.trace_lo == svc_write->trace_lo) {
      by_id.emplace(rec.span_id, rec);
    }
  }

  // svc.WriteSuperChunk <- rpc.WriteSuperChunk <- ... <- sc.place root.
  const auto parent = by_id.find(svc_write->parent_span_id);
  ASSERT_NE(parent, by_id.end())
      << "service span not linked to the client's rpc span";
  EXPECT_EQ(span_name(parent->second), "rpc.WriteSuperChunk");
  const auto root = chain_root(*svc_write, by_id);
  ASSERT_TRUE(root.has_value()) << "broken parent chain";
  EXPECT_EQ(span_name(*root), "sc.place");

  // The tracer's own accounting saw this activity.
  const TraceStats stats = Tracer::instance().stats();
  EXPECT_GT(stats.traces_sampled, 0u);
  EXPECT_GT(stats.spans_emitted, 0u);
}

// --- Chrome trace-event rendering --------------------------------------------

TEST(TraceRenderTest, ChromeJsonCarriesProcessesAndIds) {
  EXPECT_EQ(trace_id_hex(0, 0), "00000000000000000000000000000000");
  EXPECT_EQ(trace_id_hex(0xDEADBEEFull, 0x123ull),
            "00000000deadbeef0000000000000123");

  SpanDump client;
  client.pid = 100;
  client.process = "client";
  SpanRecord root = ring_record(5);
  root.parent_span_id = 0;
  std::snprintf(root.name, sizeof(root.name), "sc.place");
  client.spans.push_back(root);

  SpanDump daemon;
  daemon.pid = 200;
  daemon.process = "node_server:7001";
  SpanRecord child = ring_record(5);
  child.span_id = root.span_id + 1;
  child.parent_span_id = root.span_id;
  std::snprintf(child.name, sizeof(child.name), "svc.WriteSuperChunk");
  daemon.spans.push_back(child);

  const std::string json = render_chrome_trace({client, daemon});
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("\"client\""), std::string::npos);
  EXPECT_NE(json.find("\"node_server:7001\""), std::string::npos);
  EXPECT_NE(json.find("\"sc.place\""), std::string::npos);
  EXPECT_NE(json.find("\"svc.WriteSuperChunk\""), std::string::npos);
  EXPECT_NE(json.find(trace_id_hex(root.trace_hi, root.trace_lo)),
            std::string::npos);
  // Parent linkage survives as hex span ids in the args.
  char parent_hex[17];
  std::snprintf(parent_hex, sizeof(parent_hex), "%016llx",
                static_cast<unsigned long long>(root.span_id));
  EXPECT_NE(json.find(parent_hex), std::string::npos);
}

// --- Handshake version gate --------------------------------------------------

TEST(TraceHandshakeTest, ProtocolV3PeerIsRefusedAtHello) {
  // The trace block bumped the protocol to v4; a v3 peer (pre-flags
  // framing) must be refused at HELLO, never fed a frame it would
  // misparse.
  server::NodeServerConfig cfg;
  cfg.listen = {"127.0.0.1", 0};
  cfg.num_nodes = 1;
  server::NodeServer server(cfg);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  Buffer hello = net::encode_hello({net::PeerRole::kClient});
  ASSERT_EQ(hello[4], net::kProtocolVersion);
  ASSERT_EQ(net::kProtocolVersion, 8);
  hello[4] = 3;
  ASSERT_EQ(::send(fd, hello.data(), hello.size(), 0),
            static_cast<ssize_t>(hello.size()));

  timeval tv{};
  tv.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  bool closed = false;
  std::size_t received = 0;
  char buf[256];
  for (int i = 0; i < 64; ++i) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      closed = (n == 0);
      break;
    }
    received += static_cast<std::size_t>(n);
  }
  ::close(fd);
  EXPECT_TRUE(closed) << "server kept a v3 connection open";
  EXPECT_LE(received, net::Hello::kWireBytes);

  const MetricsSnapshot snap = server.metrics_snapshot();
  ASSERT_NE(snap.find_counter("tcp.handshake_failures"), nullptr);
  EXPECT_EQ(*snap.find_counter("tcp.handshake_failures"), 1u);
}

}  // namespace
}  // namespace sigma::obs
