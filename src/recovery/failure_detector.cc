#include "recovery/failure_detector.h"

namespace rhodos::recovery {

ServiceState FailureDetector::Probe(const std::string& address) {
  return Observe(address, bus_->Probe(address, "failure-detector").ok());
}

ServiceState FailureDetector::Observe(const std::string& address,
                                      bool answered) {
  Entry& e = entries_[address];
  ++stats_.probes;
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
  if (e.consecutive_misses >= kDownAfterMisses) {
    if (e.state != ServiceState::kDown) ++stats_.declared_down;
    e.state = ServiceState::kDown;
  } else if (e.consecutive_misses >= kSuspectAfterMisses) {
    if (e.state != ServiceState::kSuspected &&
        e.state != ServiceState::kDown) {
      ++stats_.suspicions;
    }
    e.state = ServiceState::kSuspected;
  }
  return e.state;
}

ServiceState FailureDetector::StateOf(const std::string& address) const {
  auto it = entries_.find(address);
  return it == entries_.end() ? ServiceState::kUnknown : it->second.state;
}

}  // namespace rhodos::recovery
