// Typed messages for the node transport. A Message is what travels between
// a client endpoint and a node service: an operation type, a correlation
// id pairing requests with responses, source/destination endpoint ids and
// an opaque serialized body (see net/wire.h and service/wire_protocol.h).
//
// The representation is deliberately wire-shaped — a fixed header plus a
// byte payload — so a socket transport can frame it verbatim; the
// LoopbackTransport just moves the same struct between threads.
#pragma once

#include <cstdint>
#include <memory>

#include "common/bytes.h"
#include "obs/trace_context.h"

namespace sigma::net {

/// Address of one transport endpoint (a node service or a client).
using EndpointId = std::uint32_t;

/// One TCP connection of a TcpTransport (net/tcp/reactor.h).
struct TcpConn;

/// The wire operations of the node service protocol.
enum class MessageType : std::uint8_t {
  kDuplicateTest,     // chunk fingerprints -> present/absent bitmap
  kWriteSuperChunk,   // chunks (+ unique payloads) -> write result
  kReadChunk,         // fingerprint -> payload (restore path)
  kStoredBytes,       // () -> physical bytes used (balance discount)
  kFlush,             // () -> () : seal open containers
  kRoutingProbe,      // kind + fingerprints -> {match count, stored bytes}
                      // (fused scatter-gather probe: one message per
                      // candidate per routing decision)
  kStatsSnapshot,     // () -> serialized obs::MetricsSnapshot (the
                      // daemon-wide metrics scrape fleet_stats drains)
  kTraceDump,         // () -> serialized obs::SpanDump (the flight-
                      // recorder scrape fleet_trace merges)

  // Control plane (fleet registry, src/ctrl/). Clients and daemons speak
  // these to a registry_server; a node service answers them with an error.
  kRegisterNode,       // host + port + endpoint range -> lease id + TTL
                       // (daemon announces its service endpoints)
  kRegistryHeartbeat,  // lease id -> () : extend the lease
  kRegistryLeave,      // lease id -> () : clean leave, frees the range
  kFleetFetch,         // () -> fleet view + lease TTL (no lease needed; a
                       // client pulls it every ttl/3)
};

/// Highest valid op byte — the TCP frame decoder rejects anything above
/// it as a protocol error. Keep in sync when appending operations, or
/// remote peers will drop the new op's frames.
inline constexpr std::uint8_t kMaxMessageType =
    static_cast<std::uint8_t>(MessageType::kFleetFetch);

const char* to_string(MessageType type);

/// Whether a message is a request, a successful response, or an error
/// response (body = UTF-8 error text).
enum class MessageKind : std::uint8_t { kRequest, kResponse, kError };

/// Highest valid kind byte (see kMaxMessageType).
inline constexpr std::uint8_t kMaxMessageKind =
    static_cast<std::uint8_t>(MessageKind::kError);

struct Message {
  MessageType type = MessageType::kDuplicateTest;
  MessageKind kind = MessageKind::kRequest;
  std::uint64_t correlation_id = 0;
  EndpointId src = 0;
  EndpointId dst = 0;
  /// Distributed-tracing context. Default (unsampled) costs nothing on
  /// the wire; a sampled context travels as the optional trace block
  /// (flags bit kFlagTrace), making the receiver's spans children of the
  /// sender's across process boundaries.
  obs::TraceContext trace;
  Buffer body;
  /// In-process only, never on the wire: the connection a TcpTransport
  /// received this request on. response_to()/error_to() copy it, and
  /// TcpTransport::send() puts a message carrying it on that connection
  /// and nowhere else — so send a reply through the transport that
  /// delivered its request. Empty for locally originated messages.
  std::weak_ptr<TcpConn> conn;

  /// Fixed header size a socket framing would use (type + kind + flags +
  /// correlation id + src + dst + body length).
  static constexpr std::size_t kHeaderBytes = 1 + 1 + 1 + 8 + 4 + 4 + 4;

  /// Flags bit: a trace block (kTraceBlockBytes) sits between the header
  /// and the body. Any other bit is a protocol error — new flags need a
  /// version bump.
  static constexpr std::uint8_t kFlagTrace = 0x01;
  static constexpr std::uint8_t kKnownFlags = kFlagTrace;

  /// Trace block: trace id (hi, lo) + span id + parent span id. The
  /// sampled bit is implied by the block's presence.
  static constexpr std::size_t kTraceBlockBytes = 4 * 8;

  std::uint8_t flags() const { return trace.sampled ? kFlagTrace : 0; }

  std::size_t wire_size() const {
    return kHeaderBytes + (trace.sampled ? kTraceBlockBytes : 0) +
           body.size();
  }

  /// Build the response to `request` with the given body.
  static Message response_to(const Message& request, Buffer body) {
    Message m;
    m.type = request.type;
    m.kind = MessageKind::kResponse;
    m.correlation_id = request.correlation_id;
    m.src = request.dst;
    m.dst = request.src;
    m.body = std::move(body);
    m.conn = request.conn;
    return m;
  }

  /// Build an error response to `request` carrying `text`.
  static Message error_to(const Message& request, const std::string& text) {
    Message m = response_to(request, to_buffer(as_bytes(text)));
    m.kind = MessageKind::kError;
    return m;
  }
};

}  // namespace sigma::net
