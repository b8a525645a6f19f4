#include "obs/trace.h"

#include <algorithm>

namespace rhodos::obs {

TraceId TraceRecorder::StartTrace(std::string_view layer,
                                  std::string_view name) {
  if (!enabled()) return 0;
  std::lock_guard lk(mu_);
  if (active_) {
    // Degenerate to a child span of the running trace (see header).
    Trace& t = traces_.back();
    Span s;
    s.id = next_span_++;
    s.parent = stack_.empty() ? kNoSpan : stack_.back().id;
    s.layer = std::string(layer);
    s.name = std::string(name);
    s.start = Now();
    stack_.push_back({s.id, t.spans.size()});
    t.spans.push_back(std::move(s));
    return t.id;
  }
  while (traces_.size() >= capacity_) traces_.pop_front();
  Trace t;
  t.id = next_trace_++;
  Span root;
  root.id = next_span_++;
  root.layer = std::string(layer);
  root.name = std::string(name);
  root.start = Now();
  stack_.clear();
  stack_.push_back({root.id, 0});
  t.spans.push_back(std::move(root));
  traces_.push_back(std::move(t));
  active_ = true;
  return traces_.back().id;
}

SpanId TraceRecorder::BeginSpan(std::string_view layer,
                                std::string_view name) {
  if (!enabled()) return kNoSpan;
  std::lock_guard lk(mu_);
  if (!active_) return kNoSpan;
  Trace& t = traces_.back();
  Span s;
  s.id = next_span_++;
  s.parent = stack_.empty() ? kNoSpan : stack_.back().id;
  s.layer = std::string(layer);
  s.name = std::string(name);
  s.start = Now();
  stack_.push_back({s.id, t.spans.size()});
  t.spans.push_back(std::move(s));
  return s.id;
}

Span* TraceRecorder::FindSpan(Trace& t, SpanId id) {
  for (Span& s : t.spans) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

void TraceRecorder::EndSpan(SpanId span, std::string detail) {
  std::lock_guard lk(mu_);
  if (span == kNoSpan || !active_ || traces_.empty()) return;
  Trace& t = traces_.back();
  Span* s = FindSpan(t, span);
  if (s == nullptr) return;
  s->end = Now();
  s->detail = std::move(detail);
  // Pop the stack down through this span (closing it closes any children a
  // site forgot — early returns via RHODOS_RETURN_IF_ERROR unwind here).
  while (!stack_.empty()) {
    const bool was_target = stack_.back().id == span;
    if (!was_target) {
      // A child left open by an error path: close it at the same instant.
      if (Span* child = FindSpan(t, stack_.back().id);
          child != nullptr && child->end == 0) {
        child->end = s->end;
      }
    }
    stack_.pop_back();
    if (was_target) break;
  }
  if (stack_.empty()) {
    t.done = true;
    active_ = false;
  }
}

bool TraceRecorder::TraceActive() const {
  std::lock_guard lk(mu_);
  return active_;
}

std::size_t TraceRecorder::TraceCount() const {
  std::lock_guard lk(mu_);
  return traces_.size();
}

Trace TraceRecorder::GetTrace(TraceId id) const {
  std::lock_guard lk(mu_);
  for (const Trace& t : traces_) {
    if (t.id == id) return t;
  }
  return Trace{};
}

TraceId TraceRecorder::LatestTraceId() const {
  std::lock_guard lk(mu_);
  return traces_.empty() ? 0 : traces_.back().id;
}

std::vector<std::string> TraceRecorder::LayerSequence(TraceId id) const {
  const Trace t = GetTrace(id);
  std::vector<std::string> seq;
  seq.reserve(t.spans.size());
  for (const Span& s : t.spans) {
    seq.push_back(s.layer + "." + s.name);
  }
  return seq;
}

void TraceRecorder::Clear() {
  std::lock_guard lk(mu_);
  traces_.clear();
  stack_.clear();
  active_ = false;
}

namespace {

double Ms(SimTime t) { return static_cast<double>(t) / kSimMillisecond; }

std::string FormatMs(double v) {
  std::string s = std::to_string(v);
  // Trim to three decimals: "4.200000" -> "4.200".
  const auto dot = s.find('.');
  if (dot != std::string::npos && s.size() > dot + 4) s.resize(dot + 4);
  return s;
}

struct TreeNode {
  std::size_t span_index;
  std::vector<std::size_t> children;  // indices into the nodes vector
};

void RenderNode(const Trace& t, const std::vector<TreeNode>& nodes,
                std::size_t node, const std::string& prefix, bool last,
                bool root, SimTime t0, std::string& out) {
  const Span& s = t.spans[nodes[node].span_index];
  out += prefix;
  if (!root) out += last ? "└─ " : "├─ ";
  std::string label = s.layer + "." + s.name;
  out += label;
  if (label.size() < 28) out += std::string(28 - label.size(), ' ');
  out += "  @" + FormatMs(Ms(s.start - t0)) + " ms";
  out += "  +" + FormatMs(Ms(s.end - s.start)) + " ms";
  if (!s.detail.empty()) out += "  [" + s.detail + "]";
  out += '\n';
  const std::string child_prefix =
      root ? prefix : prefix + (last ? "   " : "│  ");
  for (std::size_t i = 0; i < nodes[node].children.size(); ++i) {
    RenderNode(t, nodes, nodes[node].children[i], child_prefix,
               i + 1 == nodes[node].children.size(), false, t0, out);
  }
}

}  // namespace

std::string TraceRecorder::Render(TraceId id) const {
  const Trace t = GetTrace(id);
  if (t.spans.empty()) return "trace " + std::to_string(id) + " (empty)\n";
  // Build parent -> children lists preserving start order.
  std::vector<TreeNode> nodes(t.spans.size());
  for (std::size_t i = 0; i < t.spans.size(); ++i) nodes[i].span_index = i;
  for (std::size_t i = 1; i < t.spans.size(); ++i) {
    for (std::size_t p = 0; p < t.spans.size(); ++p) {
      if (t.spans[p].id == t.spans[i].parent) {
        nodes[p].children.push_back(i);
        break;
      }
    }
  }
  const SimTime t0 = t.spans.front().start;
  const SimTime total = t.spans.front().end - t0;
  std::string out = "trace " + std::to_string(t.id) + " (" +
                    FormatMs(Ms(total)) + " ms, " +
                    std::to_string(t.spans.size()) + " spans)\n";
  RenderNode(t, nodes, 0, "", true, true, t0, out);
  return out;
}

}  // namespace rhodos::obs
