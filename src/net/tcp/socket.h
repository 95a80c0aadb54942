// Thin POSIX TCP socket layer for the transport: an RAII file descriptor,
// printable/parseable addresses, and the non-blocking listen/connect
// helpers the event loop builds on. Everything here throws SocketError on
// syscall failure; the transport turns those into connection state, never
// crashes.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/message.h"

namespace sigma::net {

class SocketError : public std::runtime_error {
 public:
  explicit SocketError(const std::string& what) : std::runtime_error(what) {}
};

/// Well-known endpoint id of a fleet registry (control plane, src/ctrl/).
/// Below kServiceEndpointBase so no daemon node range can shadow it.
inline constexpr EndpointId kRegistryEndpoint = 1;

/// First endpoint id a node daemon registers its services under (node i
/// of a daemon lives at first_endpoint + i; defaults to this base).
inline constexpr EndpointId kServiceEndpointBase = 100;

/// Endpoint base of every client transport. Far above any service id so
/// client and service address ranges never collide. Clients need not
/// differ: a daemon answers each request over the connection that
/// carried it, so any number of clients may share these ids.
inline constexpr EndpointId kClientEndpointBase = 0x40000000;

/// A TCP endpoint address. Port 0 means "pick an ephemeral port" when
/// listening (read the bound port back with TcpTransport::listen_port()).
struct TcpAddress {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  std::string to_string() const;

  friend bool operator==(const TcpAddress&, const TcpAddress&) = default;
};

/// One remote node service: where its daemon listens and the endpoint id
/// the service is registered under on that daemon's transport.
struct TcpNodeAddress {
  TcpAddress address;
  EndpointId endpoint = 0;
};

/// Strict numeric parse: the whole string, within [0, max]. Throws
/// SocketError otherwise — "7001x" or an out-of-range port fails loudly
/// instead of truncating silently. Shared by every CLI that takes ports,
/// endpoint ids or counts.
unsigned long parse_number(const std::string& text, unsigned long max,
                           const std::string& what);

/// Parse "host:port" (throws SocketError on malformed input).
TcpAddress parse_tcp_address(const std::string& spec);

/// Resolve a hostname to its numeric (dotted-quad) form; numeric input
/// passes through untouched. The transport resolves each peer once, on a
/// producer thread, so a slow DNS lookup never blocks the event loop.
TcpAddress resolve_numeric(const TcpAddress& addr);

/// Parse a comma-separated node map "host:port[:endpoint],...". Entries
/// without an explicit endpoint id get `default_endpoint` (every daemon
/// registers its first service there by convention).
std::vector<TcpNodeAddress> parse_tcp_nodes(const std::string& csv,
                                            EndpointId default_endpoint);

/// Move-only RAII wrapper over a file descriptor.
class SocketFd {
 public:
  SocketFd() = default;
  explicit SocketFd(int fd) : fd_(fd) {}
  ~SocketFd() { reset(); }

  SocketFd(const SocketFd&) = delete;
  SocketFd& operator=(const SocketFd&) = delete;
  SocketFd(SocketFd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  SocketFd& operator=(SocketFd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void reset();

 private:
  int fd_ = -1;
};

/// Put a descriptor into non-blocking mode.
void set_nonblocking(int fd);

/// Create a non-blocking listening socket bound to `addr` (SO_REUSEADDR).
SocketFd tcp_listen(const TcpAddress& addr, int backlog = 64);

/// The port a socket is actually bound to (resolves port 0 after bind).
std::uint16_t bound_port(int fd);

/// Start a non-blocking connect to `addr`. The returned socket is either
/// connected already or connecting (poll for POLLOUT, then check
/// take_socket_error()).
SocketFd tcp_connect_start(const TcpAddress& addr, bool& in_progress);

/// Fetch-and-clear SO_ERROR (0 = success).
int take_socket_error(int fd);

}  // namespace sigma::net
