#include "obs/metrics.h"

#include <algorithm>

namespace rhodos::obs {

namespace {

MetricsRegistry* g_drain = nullptr;

void AppendJsonString(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c; break;
    }
  }
  out += '"';
}

std::string FormatDouble(double v) {
  // Gauges are counts or byte totals in practice; print integral values
  // without a fractional part so the text output stays diffable.
  if (v == static_cast<double>(static_cast<std::int64_t>(v))) {
    return std::to_string(static_cast<std::int64_t>(v));
  }
  std::string s = std::to_string(v);
  return s;
}

}  // namespace

void CounterFold::SetCounters(MetricsRegistry& registry) const {
  for (const auto& [name, sum] : sums_) registry.SetCounter(name, sum);
}

void SetGlobalMetricsDrain(MetricsRegistry* registry) { g_drain = registry; }
MetricsRegistry* GlobalMetricsDrain() { return g_drain; }

void MetricsRegistry::DeclareCounter(std::string_view name) {
  std::lock_guard lk(mu_);
  counters_.try_emplace(std::string(name), 0);
}

void MetricsRegistry::DeclareGauge(std::string_view name) {
  std::lock_guard lk(mu_);
  gauges_.try_emplace(std::string(name), 0.0);
}

void MetricsRegistry::DeclareHistogram(std::string_view name) {
  std::lock_guard lk(mu_);
  histograms_.try_emplace(std::string(name));
}

void MetricsRegistry::Add(std::string_view name, std::uint64_t delta) {
  std::lock_guard lk(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void MetricsRegistry::SetCounter(std::string_view name, std::uint64_t value) {
  std::lock_guard lk(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

void MetricsRegistry::SetGauge(std::string_view name, double value) {
  std::lock_guard lk(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

void MetricsRegistry::Observe(std::string_view name, SimTime value) {
  std::lock_guard lk(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), HistogramData{}).first;
  }
  HistogramData& h = it->second;
  std::size_t bucket = kLatencyBucketCount;  // +inf
  for (std::size_t i = 0; i < kLatencyBucketCount; ++i) {
    if (value <= kLatencyBuckets[i]) {
      bucket = i;
      break;
    }
  }
  h.counts[bucket] += 1;
  h.count += 1;
  h.sum += value;
}

std::uint64_t MetricsRegistry::CounterValue(std::string_view name) const {
  std::lock_guard lk(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::GaugeValue(std::string_view name) const {
  std::lock_guard lk(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

HistogramData MetricsRegistry::HistogramValue(std::string_view name) const {
  std::lock_guard lk(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? HistogramData{} : it->second;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard lk(mu_);
  MetricsSnapshot snap;
  snap.counters.assign(counters_.begin(), counters_.end());
  snap.gauges.assign(gauges_.begin(), gauges_.end());
  snap.histograms.assign(histograms_.begin(), histograms_.end());
  return snap;
}

void MetricsRegistry::Merge(const MetricsSnapshot& snap) {
  std::lock_guard lk(mu_);
  for (const auto& [name, value] : snap.counters) {
    counters_[name] += value;
  }
  for (const auto& [name, value] : snap.gauges) {
    gauges_[name] = value;
  }
  for (const auto& [name, h] : snap.histograms) {
    HistogramData& mine = histograms_[name];
    for (std::size_t i = 0; i < mine.counts.size(); ++i) {
      mine.counts[i] += h.counts[i];
    }
    mine.count += h.count;
    mine.sum += h.sum;
  }
}

void MetricsRegistry::Reset() {
  std::lock_guard lk(mu_);
  for (auto& [name, v] : counters_) v = 0;
  for (auto& [name, v] : gauges_) v = 0.0;
  for (auto& [name, h] : histograms_) h = HistogramData{};
}

std::vector<std::pair<std::string, std::string>> MetricsSnapshot::Names()
    const {
  std::vector<std::pair<std::string, std::string>> names;
  names.reserve(counters.size() + gauges.size() + histograms.size());
  for (const auto& [n, v] : counters) names.emplace_back(n, "counter");
  for (const auto& [n, v] : gauges) names.emplace_back(n, "gauge");
  for (const auto& [n, v] : histograms) names.emplace_back(n, "histogram");
  std::sort(names.begin(), names.end());
  return names;
}

std::string MetricsSnapshot::ToText() const {
  // Counters and gauges interleaved in one sorted listing, histograms
  // after: readable as an operator's `DumpStats()` page.
  std::vector<std::pair<std::string, std::string>> lines;
  lines.reserve(counters.size() + gauges.size());
  for (const auto& [n, v] : counters) {
    lines.emplace_back(n, std::to_string(v));
  }
  for (const auto& [n, v] : gauges) {
    lines.emplace_back(n, FormatDouble(v));
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& [n, v] : lines) {
    out += n;
    out += " = ";
    out += v;
    out += '\n';
  }
  for (const auto& [n, h] : histograms) {
    out += n;
    out += " = count " + std::to_string(h.count);
    out += ", sum_ms " +
           FormatDouble(static_cast<double>(h.sum) / kSimMillisecond);
    out += ", buckets [";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i > 0) out += ' ';
      out += std::to_string(h.counts[i]);
    }
    out += "]\n";
  }
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [n, v] : counters) {
    if (!first) out += ',';
    first = false;
    AppendJsonString(out, n);
    out += ':';
    out += std::to_string(v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [n, v] : gauges) {
    if (!first) out += ',';
    first = false;
    AppendJsonString(out, n);
    out += ':';
    out += FormatDouble(v);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [n, h] : histograms) {
    if (!first) out += ',';
    first = false;
    AppendJsonString(out, n);
    out += ":{\"count\":" + std::to_string(h.count);
    out += ",\"sum\":" + std::to_string(h.sum);
    out += ",\"buckets\":[";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(h.counts[i]);
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

}  // namespace rhodos::obs
