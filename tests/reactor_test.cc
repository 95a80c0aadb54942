// Unit tests for the TCP transport's zero-copy write path (net/tcp/reactor.h):
// header-only frame encoding, OutFrame construction, iovec batch assembly
// and partial-write accounting. The vectored writer must reproduce the
// exact byte stream the old coalescing writer produced (encode_frame) for
// every possible short-write split — including splits inside a header,
// inside a trace block, at a frame boundary and inside a body — because a
// kernel socket buffer can cut a sendmsg() anywhere.
#include <gtest/gtest.h>

#include <sys/uio.h>

#include <cstring>
#include <deque>
#include <vector>

#include "net/tcp/frame.h"
#include "net/tcp/reactor.h"

namespace sigma::net {
namespace {

Message sample_message(std::uint64_t seed, std::size_t body_bytes,
                       bool traced) {
  Message m;
  m.type = MessageType::kWriteSuperChunk;
  m.kind = MessageKind::kRequest;
  m.correlation_id = seed * 7919 + 1;
  m.src = static_cast<EndpointId>(9000 + seed);
  m.dst = static_cast<EndpointId>(100 + seed);
  if (traced) {
    m.trace.sampled = true;
    m.trace.trace_hi = seed ^ 0xA5A5A5A5ull;
    m.trace.trace_lo = seed * 31 + 7;
    m.trace.span_id = seed + 1;
    m.trace.parent_span_id = seed;
  }
  m.body.resize(body_bytes);
  for (std::size_t i = 0; i < body_bytes; ++i) {
    m.body[i] = static_cast<std::uint8_t>((seed * 131 + i * 29) & 0xFF);
  }
  return m;
}

Buffer wire_image(const std::deque<OutFrame>& queue) {
  Buffer all;
  for (const OutFrame& f : queue) {
    all.insert(all.end(), f.header.begin(), f.header.begin() + f.header_len);
    all.insert(all.end(), f.body.begin(), f.body.end());
  }
  return all;
}

TEST(ReactorWritePath, EncodeFrameHeaderMatchesEncodeFrame) {
  // The split encoding (header into an inline array, body as its own
  // iovec) must byte-for-byte equal the whole-frame encoding, traced and
  // untraced, empty and non-empty bodies.
  for (const bool traced : {false, true}) {
    for (const std::size_t body : {std::size_t{0}, std::size_t{1},
                                   std::size_t{257}}) {
      const Message m = sample_message(42, body, traced);
      const Buffer whole = encode_frame(m);

      std::uint8_t header[kMaxFrameHeaderBytes];
      const std::size_t header_len = encode_frame_header(m, header);
      ASSERT_LE(header_len, kMaxFrameHeaderBytes);
      EXPECT_EQ(header_len,
                Message::kHeaderBytes +
                    (traced ? Message::kTraceBlockBytes : 0));
      ASSERT_EQ(whole.size(), header_len + m.body.size());
      EXPECT_EQ(0, std::memcmp(whole.data(), header, header_len));
      if (!m.body.empty()) {  // empty Buffer may hand memcmp a null
        EXPECT_EQ(0, std::memcmp(whole.data() + header_len, m.body.data(),
                                 m.body.size()));
      }
    }
  }
}

TEST(ReactorWritePath, MakeOutFrameMovesBodyAndRoundTrips) {
  Message m = sample_message(7, 4096, /*traced=*/true);
  const Buffer reference = encode_frame(m);
  const std::uint8_t* body_data = m.body.data();

  OutFrame f = make_out_frame(std::move(m));
  EXPECT_EQ(f.body.data(), body_data);  // moved, not copied
  EXPECT_EQ(f.wire_size(), reference.size());

  std::deque<OutFrame> queue;
  queue.push_back(std::move(f));
  EXPECT_EQ(wire_image(queue), reference);

  // The wire image must survive the frame decoder: what the iovecs carry
  // is a valid frame of the same message.
  FrameDecoder decoder(1 << 20);
  decoder.feed(ByteView{reference.data(), reference.size()});
  const auto decoded = decoder.next();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->correlation_id, 7u * 7919 + 1);
  EXPECT_EQ(decoded->body.size(), 4096u);
}

std::deque<OutFrame> mixed_queue() {
  std::deque<OutFrame> queue;
  queue.push_back(make_out_frame(sample_message(1, 0, false)));    // header only
  queue.push_back(make_out_frame(sample_message(2, 37, true)));    // traced
  queue.push_back(make_out_frame(sample_message(3, 0, true)));     // traced, empty
  queue.push_back(make_out_frame(sample_message(4, 113, false)));
  return queue;
}

/// Drive the (build_frame_iovecs, consume_sent) pair like the reactor's
/// write loop does, but with a fake socket that accepts exactly `step`
/// bytes per "syscall". Returns the bytes the fake socket saw.
Buffer drain_with_short_writes(std::deque<OutFrame> queue, std::size_t step,
                               std::size_t max_iov) {
  Buffer sent_stream;
  std::size_t offset = 0;
  while (!queue.empty()) {
    struct iovec iov[kMaxWriteIovecs];
    const std::size_t n = build_frame_iovecs(queue, offset, iov, max_iov);
    EXPECT_GT(n, 0u);
    EXPECT_LE(n, max_iov);
    std::size_t batch = 0;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_GT(iov[i].iov_len, 0u);  // zero-length entries never emitted
      batch += iov[i].iov_len;
    }
    // "Send" up to `step` bytes out of the batch.
    std::size_t budget = std::min(step, batch);
    const std::size_t sent = budget;
    for (std::size_t i = 0; i < n && budget > 0; ++i) {
      const std::size_t take = std::min(budget, iov[i].iov_len);
      const auto* p = static_cast<const std::uint8_t*>(iov[i].iov_base);
      sent_stream.insert(sent_stream.end(), p, p + take);
      budget -= take;
    }
    consume_sent(queue, offset, sent);
  }
  EXPECT_EQ(offset, 0u);
  return sent_stream;
}

TEST(ReactorWritePath, ShortWritesAtEveryBoundaryReproduceTheStream) {
  // Exhaustive: every write granularity from 1 byte up to the whole
  // stream. This walks a partial write across every iovec boundary in the
  // queue — mid-header, header/body seam, mid-body, frame/frame seam.
  const Buffer reference = wire_image(mixed_queue());
  ASSERT_GT(reference.size(), 0u);
  for (std::size_t step = 1; step <= reference.size(); ++step) {
    EXPECT_EQ(drain_with_short_writes(mixed_queue(), step, kMaxWriteIovecs),
              reference)
        << "short-write step " << step;
  }
}

TEST(ReactorWritePath, SingleIovecBatchesStillDrain) {
  // max_iov = 1 forces a syscall per header and per body — the seams
  // between batches must line up exactly like the seams within one.
  const Buffer reference = wire_image(mixed_queue());
  EXPECT_EQ(drain_with_short_writes(mixed_queue(), reference.size(), 1),
            reference);
  EXPECT_EQ(drain_with_short_writes(mixed_queue(), 5, 2), reference);
}

TEST(ReactorWritePath, IovecBatchIsBounded) {
  // More frames than kMaxWriteIovecs can express: the builder must stop
  // at the cap, and repeated rounds must still drain everything.
  std::deque<OutFrame> queue;
  for (std::uint64_t i = 0; i < 100; ++i) {
    queue.push_back(make_out_frame(sample_message(i, 16, false)));
  }
  const Buffer reference = wire_image(queue);

  struct iovec iov[kMaxWriteIovecs];
  const std::size_t n = build_frame_iovecs(queue, 0, iov, kMaxWriteIovecs);
  EXPECT_EQ(n, kMaxWriteIovecs);

  EXPECT_EQ(drain_with_short_writes(std::move(queue), reference.size(),
                                    kMaxWriteIovecs),
            reference);
}

TEST(ReactorWritePath, OffsetOnlyAppliesToFrontFrame) {
  // With the front frame partially sent, the second frame must still be
  // emitted from byte 0 — an offset bleeding into later frames would
  // corrupt the stream.
  std::deque<OutFrame> queue = mixed_queue();
  const Buffer reference = wire_image(queue);
  const std::size_t front = queue.front().wire_size();

  // Consume the whole front frame plus 3 bytes of the second.
  std::size_t offset = 0;
  consume_sent(queue, offset, front + 3);
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(offset, 3u);

  struct iovec iov[kMaxWriteIovecs];
  const std::size_t n = build_frame_iovecs(queue, offset, iov, kMaxWriteIovecs);
  Buffer rest;
  for (std::size_t i = 0; i < n; ++i) {
    const auto* p = static_cast<const std::uint8_t*>(iov[i].iov_base);
    rest.insert(rest.end(), p, p + iov[i].iov_len);
  }
  const Buffer expected(reference.begin() + front + 3, reference.end());
  EXPECT_EQ(rest, expected);
}

TEST(ReactorWritePath, ConsumeAcrossExactFrameBoundaries) {
  std::deque<OutFrame> queue = mixed_queue();
  const std::size_t first = queue.front().wire_size();
  std::size_t offset = 0;

  consume_sent(queue, offset, first);  // exactly one frame
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(offset, 0u);

  const std::size_t rest = queue[0].wire_size() + queue[1].wire_size() +
                           queue[2].wire_size();
  consume_sent(queue, offset, rest);  // everything left, in one gulp
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(offset, 0u);
}

}  // namespace
}  // namespace sigma::net
