// Shared on-disk framing for durable blobs (containers, the node
// manifest): wire-codec body followed by an FNV-1a checksum over
// everything before it, so a reader can tell a torn, truncated or
// bit-flipped file from a good one deterministically.
#pragma once

#include <string>

#include "common/bytes.h"
#include "common/hash_util.h"
#include "net/wire.h"

namespace sigma {

/// Appends the checksum over everything written so far and returns the
/// finished blob.
inline Buffer seal_frame(net::WireWriter& w) {
  w.u64(fnv1a64(w.view()));
  return w.take();
}

/// Verifies the trailing checksum and returns a reader over the body.
/// Throws net::WireError naming `what` on truncation or mismatch.
inline net::WireReader open_frame(ByteView blob, const char* what) {
  if (blob.size() < 8) {
    throw net::WireError(std::string(what) + ": truncated blob");
  }
  const ByteView body = blob.subspan(0, blob.size() - 8);
  net::WireReader tail(blob.subspan(blob.size() - 8));
  if (tail.u64() != fnv1a64(body)) {
    throw net::WireError(std::string(what) + ": checksum mismatch");
  }
  return net::WireReader(body);
}

}  // namespace sigma
