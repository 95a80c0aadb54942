// Request/response RPC over a Transport.
//
// An RpcEndpoint is one client-side address: it assigns correlation ids,
// tracks pending calls, matches responses back to their callers and
// enforces per-call timeouts. Calls are issued asynchronously (`call`
// returns a PendingCall future-like handle) so a client can keep several
// requests in flight — the batching/pipelining primitive the cluster's
// super-chunk write path is built on — or synchronously via `call_sync`.
// It only issues calls: a request addressed to it is answered at once
// with an "endpoint does not serve requests" error, so the peer fails
// fast instead of waiting out its timeout.
//
// Timeouts are caller-driven: PendingCall::get(timeout) abandons the call
// on expiry (the endpoint forgets it, a late response is counted and
// dropped) and throws RpcTimeoutError.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "net/message.h"
#include "net/transport.h"
#include "obs/metrics.h"

namespace sigma::net {

class RpcError : public std::runtime_error {
 public:
  explicit RpcError(const std::string& what) : std::runtime_error(what) {}
};

class RpcTimeoutError : public RpcError {
 public:
  explicit RpcTimeoutError(const std::string& what) : RpcError(what) {}
};

class RpcEndpoint;

/// Handle to one in-flight call. Movable and copyable (shared state);
/// `get` may be called once per call from any thread.
class PendingCall {
 public:
  PendingCall() = default;

  /// Wait for the response body. Throws RpcTimeoutError on expiry (the
  /// call is abandoned) and RpcError if the service answered with an
  /// error or the endpoint shut down.
  Buffer get(std::chrono::milliseconds timeout);

  /// True once a response (or error) has arrived.
  bool done() const;

  bool valid() const { return state_ != nullptr; }

 private:
  friend class RpcEndpoint;

  struct State {
    // Never nested with the endpoint's mu_ (both sides release one before
    // taking the other), but ranked after it so the checker would catch a
    // regression that nests them the wrong way round.
    Mutex mu{LockRank::kRpcCall};
    CondVar cv;
    bool done SIGMA_GUARDED_BY(mu) = false;
    bool error SIGMA_GUARDED_BY(mu) = false;
    Buffer body SIGMA_GUARDED_BY(mu);
    std::string error_text SIGMA_GUARDED_BY(mu);
    MessageType type = MessageType::kDuplicateTest;  // set before send
    std::uint64_t correlation_id = 0;                   // set before send
    /// The call's span (child of the caller's current context), stamped
    /// onto the request; the span is recorded when the response settles.
    /// Written before the call is published in pending_, read after it is
    /// looked up there — ordered by the endpoint's mu_, so no lock here.
    obs::TraceContext trace;                     // set before send
    std::uint64_t trace_start_unix_us = 0;       // set before send
    std::chrono::steady_clock::time_point trace_start{};  // set before send
  };

  PendingCall(RpcEndpoint* endpoint, std::shared_ptr<State> state)
      : endpoint_(endpoint), state_(std::move(state)) {}

  RpcEndpoint* endpoint_ = nullptr;
  std::shared_ptr<State> state_;
};

class RpcEndpoint {
 public:
  /// Binds a fresh endpoint on `transport`. The endpoint must not outlive
  /// the transport (nor `metrics`, when given), and PendingCalls must not
  /// outlive the endpoint. The endpoint maintains an in-flight gauge plus
  /// timeout / correlation-miss counters, in `metrics` or, without one,
  /// in a private registry.
  explicit RpcEndpoint(Transport& transport,
                       obs::Registry* metrics = nullptr);
  ~RpcEndpoint();

  RpcEndpoint(const RpcEndpoint&) = delete;
  RpcEndpoint& operator=(const RpcEndpoint&) = delete;

  EndpointId id() const { return id_; }

  /// Issue one asynchronous request.
  PendingCall call(EndpointId dst, MessageType type, Buffer body);

  /// Issue a request and wait for its response.
  Buffer call_sync(EndpointId dst, MessageType type, Buffer body,
                   std::chrono::milliseconds timeout);

  /// Wait for a batch of calls issued with `call`. Collects every result
  /// (so the services finish their work) and then throws the first
  /// failure, if any. The timeout bounds the whole batch.
  static std::vector<Buffer> wait_all(std::vector<PendingCall>& calls,
                                      std::chrono::milliseconds timeout);

  /// Pending (unanswered, unabandoned) call count.
  std::size_t pending_count() const;

  /// Responses that arrived after their call was abandoned by a timeout.
  std::uint64_t late_responses() const;

 private:
  friend class PendingCall;

  void on_message(Message&& m) SIGMA_EXCLUDES(mu_);
  void abandon(std::uint64_t correlation_id) SIGMA_EXCLUDES(mu_);

  Transport& transport_;
  obs::RegistryRef metrics_;
  obs::Gauge& in_flight_;
  obs::Counter& timeouts_;
  obs::Counter& correlation_misses_;
  EndpointId id_ = 0;
  mutable Mutex mu_{LockRank::kRpcEndpoint};
  std::unordered_map<std::uint64_t, std::shared_ptr<PendingCall::State>>
      pending_ SIGMA_GUARDED_BY(mu_);
  std::uint64_t next_correlation_ SIGMA_GUARDED_BY(mu_) = 1;
  std::uint64_t late_responses_ SIGMA_GUARDED_BY(mu_) = 0;
};

}  // namespace sigma::net
