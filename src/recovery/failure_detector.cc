#include "recovery/failure_detector.h"

namespace rhodos::recovery {

ServiceState FailureDetector::Probe(const std::string& address) {
  Entry& e = watched_[address];
  ++stats_.probes;
  const bool answered =
      prober_ ? prober_(address)
              : bus_->Probe(address, "failure-detector").ok();
  if (answered) {
    if (e.state == ServiceState::kSuspected ||
        e.state == ServiceState::kDown) {
      ++stats_.recoveries;
    }
    e.state = ServiceState::kHealthy;
    e.consecutive_misses = 0;
    return e.state;
  }
  ++stats_.probe_failures;
  ++e.consecutive_misses;
  if (e.consecutive_misses >= config_.down_after) {
    if (e.state != ServiceState::kDown) ++stats_.declared_down;
    e.state = ServiceState::kDown;
  } else if (e.consecutive_misses >= config_.suspect_after) {
    if (e.state != ServiceState::kSuspected &&
        e.state != ServiceState::kDown) {
      ++stats_.suspicions;
    }
    e.state = ServiceState::kSuspected;
  }
  return e.state;
}

void FailureDetector::ProbeAll() {
  for (auto& [address, entry] : watched_) (void)Probe(address);
}

ServiceState FailureDetector::StateOf(const std::string& address) const {
  auto it = watched_.find(address);
  return it == watched_.end() ? ServiceState::kUnknown : it->second.state;
}

bool FailureDetector::AllHealthy() const {
  for (const auto& [address, entry] : watched_) {
    if (entry.state != ServiceState::kHealthy) return false;
  }
  return true;
}

}  // namespace rhodos::recovery
