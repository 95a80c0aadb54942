#include "net/rpc.h"

#include "obs/trace.h"

namespace sigma::net {

Buffer PendingCall::get(std::chrono::milliseconds timeout) {
  if (!state_) throw RpcError("rpc: empty PendingCall");
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  MutexLock lock(state_->mu);
  while (!state_->done && state_->cv.wait_until(state_->mu, deadline) !=
                              std::cv_status::timeout) {
  }
  if (!state_->done) {
    lock.unlock();
    endpoint_->abandon(state_->correlation_id);
    // Re-check: the response may have raced the abandonment.
    lock.lock();
    if (!state_->done) {
      throw RpcTimeoutError(std::string("rpc: ") + to_string(state_->type) +
                            " timed out after " +
                            std::to_string(timeout.count()) + "ms");
    }
  }
  if (state_->error) {
    throw RpcError(std::string("rpc: ") + to_string(state_->type) +
                   " failed: " + state_->error_text);
  }
  return std::move(state_->body);
}

bool PendingCall::done() const {
  if (!state_) return false;
  MutexLock lock(state_->mu);
  return state_->done;
}

RpcEndpoint::RpcEndpoint(Transport& transport, obs::Registry* metrics)
    : transport_(transport),
      metrics_(metrics),
      in_flight_(metrics_->gauge("rpc.in_flight")),
      timeouts_(metrics_->counter("rpc.timeouts")),
      correlation_misses_(metrics_->counter("rpc.correlation_misses")) {
  id_ = transport.register_endpoint(
      [this](Message&& m) { on_message(std::move(m)); });
}

RpcEndpoint::~RpcEndpoint() {
  // Stop deliveries first (blocks until in-flight handlers return), then
  // fail whatever is still pending so no waiter blocks forever.
  transport_.unregister_endpoint(id_);
  std::unordered_map<std::uint64_t, std::shared_ptr<PendingCall::State>>
      orphans;
  {
    MutexLock lock(mu_);
    orphans.swap(pending_);
  }
  in_flight_.sub(static_cast<std::int64_t>(orphans.size()));
  for (auto& [cid, state] : orphans) {
    MutexLock lock(state->mu);
    state->done = true;
    state->error = true;
    state->error_text = "endpoint shut down";
    state->cv.notify_all();
  }
}

PendingCall RpcEndpoint::call(EndpointId dst, MessageType type, Buffer body) {
  auto state = std::make_shared<PendingCall::State>();
  state->type = type;

  Message m;
  m.type = type;
  m.kind = MessageKind::kRequest;
  m.src = id_;
  m.dst = dst;
  m.body = std::move(body);
  // Sampled caller: this call gets its own span, and the request carries
  // the span's context so the service's span nests under it remotely.
  const obs::TraceContext& current = obs::Tracer::current_context();
  if (current.sampled) {
    state->trace = obs::Tracer::instance().child_of(current);
    state->trace_start_unix_us = obs::unix_micros();
    state->trace_start = std::chrono::steady_clock::now();
    m.trace = state->trace;
  }
  {
    MutexLock lock(mu_);
    m.correlation_id = next_correlation_++;
    state->correlation_id = m.correlation_id;
    pending_.emplace(m.correlation_id, state);
  }
  in_flight_.add(1);
  transport_.send(std::move(m));
  return PendingCall(this, std::move(state));
}

Buffer RpcEndpoint::call_sync(EndpointId dst, MessageType type, Buffer body,
                              std::chrono::milliseconds timeout) {
  return call(dst, type, std::move(body)).get(timeout);
}

std::vector<Buffer> RpcEndpoint::wait_all(std::vector<PendingCall>& calls,
                                          std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::vector<Buffer> results;
  results.reserve(calls.size());
  std::exception_ptr first_failure;
  for (auto& c : calls) {
    const auto now = std::chrono::steady_clock::now();
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - now);
    try {
      results.push_back(
          c.get(remaining > std::chrono::milliseconds::zero()
                    ? remaining
                    : std::chrono::milliseconds::zero()));
    } catch (...) {
      if (!first_failure) first_failure = std::current_exception();
      results.emplace_back();
    }
  }
  if (first_failure) std::rethrow_exception(first_failure);
  return results;
}

void RpcEndpoint::on_message(Message&& m) {
  if (m.kind == MessageKind::kRequest) {
    // A pure client endpoint: refuse requests rather than stall the peer.
    transport_.send(Message::error_to(m, "endpoint does not serve requests"));
    return;
  }
  std::shared_ptr<PendingCall::State> state;
  {
    MutexLock lock(mu_);
    auto it = pending_.find(m.correlation_id);
    if (it == pending_.end()) {
      ++late_responses_;  // abandoned by a timeout, or a stray correlation
      correlation_misses_.inc();
      return;
    }
    state = it->second;
    pending_.erase(it);
  }
  in_flight_.sub(1);
  // The call span closes when the response settles, on whichever thread
  // delivers it (transport loop / loopback sender) — its ring, not the
  // caller's, which is fine: rings are merged per process at scrape.
  if (state->trace.sampled) {
    const auto dur = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - state->trace_start);
    obs::Tracer::instance().emit(state->trace, "rpc.", to_string(state->type),
                                 state->trace_start_unix_us,
                                 static_cast<std::uint64_t>(dur.count()));
  }
  {
    MutexLock lock(state->mu);
    state->done = true;
    if (m.kind == MessageKind::kError) {
      state->error = true;
      state->error_text.assign(m.body.begin(), m.body.end());
    } else {
      state->body = std::move(m.body);
    }
  }
  state->cv.notify_all();
}

void RpcEndpoint::abandon(std::uint64_t correlation_id) {
  bool erased = false;
  {
    MutexLock lock(mu_);
    erased = pending_.erase(correlation_id) > 0;
  }
  // Only a real abandonment is a timeout; when the response raced the
  // expiry, on_message() already settled (and un-gauged) the call.
  if (erased) {
    timeouts_.inc();
    in_flight_.sub(1);
  }
}

std::size_t RpcEndpoint::pending_count() const {
  MutexLock lock(mu_);
  return pending_.size();
}

std::uint64_t RpcEndpoint::late_responses() const {
  MutexLock lock(mu_);
  return late_responses_;
}

}  // namespace sigma::net
