// Wire framing for the TCP transport. A connection carries, in order:
//
//   * one HELLO each way — magic, protocol version and peer role
//     (handshake; a peer speaking anything else is disconnected), then
//   * a stream of frames, each a Message serialized verbatim: the fixed
//     header of Message::kHeaderBytes (type, kind, flags, correlation id,
//     src, dst, body length — all little-endian via the wire.h codec),
//     then — when flags carries Message::kFlagTrace — the 32-byte trace
//     block (trace id hi/lo, span id, parent span id), then the body.
//
// Decoding is incremental (feed() partial reads, next() complete
// messages) and defensive: header fields are validated before the body is
// buffered, so a hostile or corrupt peer costs at most one header of
// memory and gets its connection closed (FrameError), never a crash or an
// unbounded allocation.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "net/message.h"
#include "net/wire.h"

namespace sigma::net {

class FrameError : public std::runtime_error {
 public:
  explicit FrameError(const std::string& what) : std::runtime_error(what) {}
};

/// "SGM1": protocol magic leading every HELLO.
inline constexpr std::uint32_t kFrameMagic = 0x314D4753;
/// Bump whenever the wire contract changes (new ops, header layout), so
/// mixed-version peers fail fast at the handshake instead of dying on
/// the first unknown frame. v2: fused kRoutingProbe op. v3: kStatsSnapshot
/// metrics scrape. v4: header flags byte + optional trace block,
/// kTraceDump flight-recorder scrape. v5: fleet registry / control-plane
/// ops. v6: the two per-node probe ops (resemblance, chunk match) are
/// gone — kRoutingProbe is the one probe op — so every later op byte
/// shifts down by two. v7: the registry sends no request to a client —
/// clients pull the view with kFleetFetch, prompted by the version in the
/// kRegistryHeartbeat reply — so the push op is gone and the client
/// endpoint-lease op loses its flag byte. v8: a reply rides the connection
/// that carried its request, so clients lease no endpoint ids — the
/// endpoint-lease op is gone (later op bytes shift down by one), the
/// kRegistryHeartbeat reply is empty, and the kFleetFetch reply carries
/// the lease TTL. v9: the kRoutingProbe request carries a second
/// fingerprint list (the duplicate test) and its reply a bitmap, so a
/// placement's duplicate test rides its routing probe.
inline constexpr std::uint8_t kProtocolVersion = 9;

/// Peer roles exchanged in the HELLO (informational, for diagnostics).
enum class PeerRole : std::uint8_t { kClient = 0, kServer = 1 };

/// The handshake message: magic + version + role.
struct Hello {
  PeerRole role = PeerRole::kClient;

  static constexpr std::size_t kWireBytes = 4 + 1 + 1;
};

Buffer encode_hello(const Hello& hello);

/// Decode a HELLO from exactly Hello::kWireBytes. Throws FrameError on a
/// magic/version mismatch (the peer is not speaking this protocol).
Hello decode_hello(ByteView data);

/// Serialize one message as a frame (header + body).
Buffer encode_frame(const Message& m);

/// Largest possible frame header: fixed header plus the optional trace
/// block. Sized for encode_frame_header()'s output buffer.
inline constexpr std::size_t kMaxFrameHeaderBytes =
    Message::kHeaderBytes + Message::kTraceBlockBytes;

/// Encode only the frame header of `m` (fixed header, plus the trace
/// block when the message is sampled) into `out`, which must hold at
/// least kMaxFrameHeaderBytes. Returns the bytes written. The body is
/// not touched — the transport sends it as a separate iovec, so a frame
/// costs zero allocations and zero payload copies on the write path.
std::size_t encode_frame_header(const Message& m, std::uint8_t* out);

/// Incremental frame decoder: feed() network reads, next() until empty.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_body_bytes)
      : max_body_bytes_(max_body_bytes) {}

  /// Append raw bytes received from the connection.
  void feed(ByteView data);

  /// Extract the next complete message, if one is buffered. Throws
  /// FrameError on a malformed header (invalid type/kind byte, body
  /// length above the limit) — the caller must drop the connection, the
  /// stream cannot be resynchronized.
  std::optional<Message> next();

  /// Drop all buffered state (connection re-established).
  void reset();

  std::size_t buffered_bytes() const { return buf_.size() - pos_; }

 private:
  std::size_t max_body_bytes_;
  Buffer buf_;
  std::size_t pos_ = 0;
};

}  // namespace sigma::net
