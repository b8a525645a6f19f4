#include "sim/message_bus.h"

#include <algorithm>

namespace rhodos::sim {

void MessageBus::Charge(std::size_t bytes) {
  const SimTime cost =
      config_.latency_per_message +
      config_.latency_per_kib * static_cast<SimTime>(bytes / 1024);
  stats_.time_charged += cost;
  stats_.bytes_moved += bytes;
  if (clock_ != nullptr) clock_->Advance(cost);
}

void MessageBus::ChargeTimeout() {
  ++stats_.timeouts;
  stats_.time_charged += config_.timeout_interval;
  if (clock_ != nullptr) clock_->Advance(config_.timeout_interval);
}

std::uint64_t MessageBus::CallsSeen(const std::string& target) const {
  // Calls to a known service are counted per address; other targets (disks)
  // see total client traffic.
  if (services_.count(target) != 0) {
    auto it = calls_to_.find(target);
    return it == calls_to_.end() ? 0 : it->second;
  }
  return stats_.calls;
}

bool MessageBus::EventReady(const FaultEvent& e) const {
  if (clock_ != nullptr && clock_->Now() < e.at) return false;
  if (clock_ == nullptr && e.at > 0) return false;
  return CallsSeen(e.target) >= e.after_calls;
}

void MessageBus::ApplyEvent(const FaultEvent& e) {
  switch (e.action) {
    case FaultAction::kServiceDown:
      down_.insert(e.target);
      break;
    case FaultAction::kServiceUp:
      down_.erase(e.target);
      break;
    case FaultAction::kPartition:
      partitions_.emplace(e.caller, e.target);
      break;
    case FaultAction::kHeal:
      partitions_.erase({e.caller, e.target});
      break;
    case FaultAction::kDiskCrash:
    case FaultAction::kDiskRecover:
    case FaultAction::kDiskPartition:
    case FaultAction::kDiskHeal:
      if (fault_handler_) fault_handler_(e);
      break;
  }
}

void MessageBus::SetFaultPlan(FaultPlan plan) {
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  plan_ = std::move(plan);
}

void MessageBus::PumpFaults() {
  // Events are time-sorted; fire every ready prefix event. An event whose
  // time has come but whose call-count condition is unmet blocks later
  // events on purpose — the plan is a script, not a set.
  while (!plan_.events.empty() && EventReady(plan_.events.front())) {
    FaultEvent e = std::move(plan_.events.front());
    plan_.events.erase(plan_.events.begin());
    ApplyEvent(e);
  }
}

void MessageBus::ClearFaults() {
  plan_.events.clear();
  down_.clear();
  partitions_.clear();
}

Result<Payload> MessageBus::Call(const std::string& address,
                                 std::uint32_t opcode,
                                 std::span<const std::uint8_t> request,
                                 const std::string& caller) {
  ++stats_.calls;
  ++calls_to_[address];
  obs::SpanScope span(obs::TracerOf(obs_), "bus", "exchange");
  PumpFaults();
  auto it = services_.find(address);
  if (it == services_.end()) {
    if (span.recording()) span.SetDetail(address + " no-service");
    return Error{ErrorCode::kNotConnected, "no service at '" + address + "'"};
  }

  // A down or partitioned service looks exactly like a lost request: the
  // caller burns a timeout learning that no reply is coming.
  if (down_.count(address) != 0) {
    ++stats_.rejected_down;
    Charge(request.size());
    ChargeTimeout();
    if (span.recording()) span.SetDetail(address + " down");
    return Error{ErrorCode::kMessageDropped,
                 "timeout: no reply from " + address + " (service down)"};
  }
  if (IsPartitioned(caller, address)) {
    ++stats_.rejected_partitioned;
    Charge(request.size());
    ChargeTimeout();
    if (span.recording()) span.SetDetail(address + " partitioned");
    return Error{ErrorCode::kMessageDropped,
                 "timeout: " + caller + " partitioned from " + address};
  }

  // Request direction.
  Charge(request.size());
  if (config_.drop_rate > 0.0 && rng_.Chance(config_.drop_rate)) {
    ++stats_.drops_request;
    ChargeTimeout();
    if (span.recording()) span.SetDetail(address + " request-lost");
    return Error{ErrorCode::kMessageDropped, "request lost to " + address};
  }

  ++stats_.deliveries;
  Payload reply = it->second(opcode, request);

  // A retransmitted duplicate arrives after the original was served; the
  // server must tolerate processing it again (idempotent operations, §3).
  if (config_.duplicate_rate > 0.0 && rng_.Chance(config_.duplicate_rate)) {
    ++stats_.duplicates;
    ++stats_.deliveries;
    Charge(request.size());
    reply = it->second(opcode, request);
  }

  // Reply direction. Losing the reply after the handler ran is the case that
  // forces clients to retry an already-executed operation.
  Charge(reply.size());
  if (config_.drop_rate > 0.0 && rng_.Chance(config_.drop_rate)) {
    ++stats_.drops_reply;
    ChargeTimeout();
    if (span.recording()) span.SetDetail(address + " reply-lost");
    return Error{ErrorCode::kMessageDropped, "reply lost from " + address};
  }

  if (span.recording()) span.SetDetail(address + " ok");
  return reply;
}

Status MessageBus::Probe(const std::string& address,
                         const std::string& caller) {
  ++stats_.probes;
  PumpFaults();
  if (services_.count(address) == 0) {
    return Error{ErrorCode::kNotConnected, "no service at '" + address + "'"};
  }
  Charge(0);  // tiny ping frame
  if (down_.count(address) != 0 || IsPartitioned(caller, address)) {
    ChargeTimeout();
    return Error{ErrorCode::kMessageDropped,
                 "probe of " + address + " timed out"};
  }
  Charge(0);  // ack frame
  return OkStatus();
}

// --- RpcClient -----------------------------------------------------------------

RpcClient::RpcClient(MessageBus* bus, std::string address,
                     RpcRetryConfig config, std::string caller)
    : bus_(bus),
      address_(std::move(address)),
      caller_(std::move(caller)),
      config_(config),
      // Jitter is deterministic per endpoint: seeded from the address so
      // two clients of the same service do not sleep in lockstep, yet every
      // run of the same configuration reproduces the same delays.
      jitter_rng_(0x9E3779B9u ^ std::hash<std::string>{}(address_)) {}

SimTime RpcClient::BackoffDelay(int attempt) {
  double nominal = static_cast<double>(config_.initial_backoff);
  for (int i = 1; i < attempt; ++i) nominal *= config_.backoff_multiplier;
  nominal = std::min(nominal, static_cast<double>(config_.max_backoff));
  if (config_.jitter > 0.0) {
    const double u = jitter_rng_.NextDouble();  // [0,1)
    nominal *= 1.0 + config_.jitter * (2.0 * u - 1.0);
  }
  return std::max<SimTime>(1, static_cast<SimTime>(nominal));
}

SimTime RpcClient::Elapsed(SimTime start) const {
  SimClock* clock = bus_->clock();
  return clock == nullptr ? 0 : clock->Now() - start;
}

Result<Payload> RpcClient::Call(std::uint32_t opcode,
                                std::span<const std::uint8_t> request) {
  ++health_.calls;
  last_backoffs_.clear();
  SimClock* clock = bus_->clock();
  const SimTime start = clock == nullptr ? 0 : clock->Now();
  obs::Observability* o = bus_->observability();
  obs::SpanScope span(obs::TracerOf(o), "rpc", "call");

  auto fail = [&](Error e) -> Result<Payload> {
    ++health_.failures;
    ++health_.consecutive_failures;
    // Circuit-breaker trip: the exact call that crossed the threshold.
    if (health_.consecutive_failures == config_.unhealthy_threshold) {
      obs::Count(o, "rpc.circuit_trips");
    }
    obs::Observe(o, "rpc.call_latency_ns", Elapsed(start));
    if (span.recording()) span.SetDetail(address_ + " failed");
    return e;
  };

  Error last{ErrorCode::kUnavailable, "rpc never attempted"};
  for (int attempt = 0; attempt < config_.max_attempts; ++attempt) {
    if (attempt > 0) {
      const SimTime delay = BackoffDelay(attempt);
      if (config_.deadline > 0 &&
          Elapsed(start) + delay >= config_.deadline) {
        ++health_.deadline_exhausted;
        return fail(Error{ErrorCode::kTimeout,
                          "rpc to " + address_ + " exhausted its " +
                              std::to_string(config_.deadline) +
                              "ns deadline after " + std::to_string(attempt) +
                              " attempts: " + last.ToString()});
      }
      if (clock != nullptr) clock->Advance(delay);
      health_.backoff_waited += delay;
      last_backoffs_.push_back(delay);
      ++health_.retries;
      obs::Observe(o, "rpc.backoff_ns", delay);
    }
    auto result = bus_->Call(address_, opcode, request, caller_);
    if (result.ok()) {
      ++health_.successes;
      health_.consecutive_failures = 0;
      obs::Observe(o, "rpc.call_latency_ns", Elapsed(start));
      if (span.recording()) {
        span.SetDetail(address_ + (attempt > 0 ? " ok after " +
                                       std::to_string(attempt) + " retries"
                                               : " ok"));
      }
      return result;
    }
    if (result.error().code != ErrorCode::kMessageDropped) {
      return fail(result.error());
    }
    last = result.error();
    if (config_.deadline > 0 && Elapsed(start) >= config_.deadline) {
      ++health_.deadline_exhausted;
      return fail(Error{ErrorCode::kTimeout,
                        "rpc to " + address_ + " exhausted its " +
                            std::to_string(config_.deadline) +
                            "ns deadline: " + last.ToString()});
    }
  }
  return fail(Error{ErrorCode::kUnavailable,
                    "rpc to " + address_ + " failed after " +
                        std::to_string(config_.max_attempts) +
                        " attempts: " + last.ToString()});
}

}  // namespace rhodos::sim
