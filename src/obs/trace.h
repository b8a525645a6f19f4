// Cross-layer operation tracing.
//
// Figure 1's claim is architectural: a client request descends
// client → agent → service → disk only as far as the caches let it. The
// TraceRecorder makes that descent visible for a *single operation*: a
// trace id is assigned where the operation enters the facility (the file
// agent / transaction agent boundary, or the replication service for
// direct server-side calls), and every layer the operation crosses —
// message-bus exchanges, service dispatch, file-service block work, lock
// waits, disk references — records a span. Rendering a trace prints the
// layer tree with simulated-time offsets, which is Figure 1 drawn from a
// real run.
//
// Recording is off by default. When off, a span site costs a null-pointer
// test and one atomic flag load; no lock is taken. Sites that annotate a
// span build the annotation only when SpanScope::recording() says the
// span records, so an untraced reference allocates nothing. The simulated call paths
// are single threaded, so one active trace with a span stack models the
// reality exactly; while recording, the recorder still takes a mutex so
// stray instrumented calls from the lock-manager benches cannot corrupt it.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/sim_clock.h"

namespace rhodos::obs {

using TraceId = std::uint64_t;
using SpanId = std::uint64_t;
inline constexpr SpanId kNoSpan = 0;

struct Span {
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;  // kNoSpan for the root
  std::string layer;        // "agent", "rpc", "bus", "service", "file", ...
  std::string name;         // operation within the layer, e.g. "write"
  std::string detail;       // free-form annotation set at EndSpan
  SimTime start = 0;
  SimTime end = 0;
};

struct Trace {
  TraceId id = 0;
  std::vector<Span> spans;  // in start order; spans[0] is the root
  bool done = false;
};

class TraceRecorder {
 public:
  explicit TraceRecorder(SimClock* clock, std::size_t capacity = 64)
      : clock_(clock), capacity_(capacity) {}

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // Starts a new trace with a root span. If a trace is already active the
  // call degrades to BeginSpan (nested client ops join the outer trace).
  TraceId StartTrace(std::string_view layer, std::string_view name);

  // Opens a child span of the innermost open span of the active trace.
  // Returns kNoSpan (and records nothing) when disabled or no trace is
  // active — instrumentation sites never need to check.
  SpanId BeginSpan(std::string_view layer, std::string_view name);

  // Closes `span` (and any children left open above it on the stack).
  void EndSpan(SpanId span, std::string detail = "");

  bool TraceActive() const;

  // --- Reading ---------------------------------------------------------------

  std::size_t TraceCount() const;
  // Completed (and the active) traces, oldest first. Invalidated by the
  // next Start/Begin call; copy out what you need.
  Trace GetTrace(TraceId id) const;
  TraceId LatestTraceId() const;

  // The "layer.name" of every span in start order — what the span-tree
  // test asserts against.
  std::vector<std::string> LayerSequence(TraceId id) const;

  // Renders the span tree with per-span simulated offsets/durations:
  //
  //   trace 1 (4.2 ms)
  //   └─ agent.write                     0.000 ms  +4.200 ms
  //      ├─ rpc.call                     0.000 ms  +4.100 ms
  //      │  └─ bus.exchange ...
  std::string Render(TraceId id) const;

  void Clear();

 private:
  struct ActiveSpan {
    SpanId id;
    std::size_t index;  // into the active trace's spans
  };

  Span* FindSpan(Trace& t, SpanId id);

  SimTime Now() const { return clock_ ? clock_->Now() : 0; }

  mutable std::mutex mu_;
  SimClock* clock_;
  std::size_t capacity_;
  std::atomic<bool> enabled_{false};
  std::deque<Trace> traces_;  // bounded; back() may be the active trace
  bool active_ = false;       // back() is still open
  std::vector<ActiveSpan> stack_;
  TraceId next_trace_{1};
  SpanId next_span_{1};
};

// RAII child span; no-op when `recorder` is null, disabled, or no trace is
// active. This is the form every instrumentation site uses.
class SpanScope {
 public:
  SpanScope(TraceRecorder* recorder, std::string_view layer,
            std::string_view name)
      : recorder_(recorder),
        span_(recorder != nullptr && recorder->enabled()
                  ? recorder->BeginSpan(layer, name)
                  : kNoSpan) {}
  ~SpanScope() {
    if (recorder_ != nullptr && span_ != kNoSpan) {
      recorder_->EndSpan(span_, std::move(detail_));
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  // True when this span is being recorded; test it before building a
  // detail string.
  bool recording() const { return span_ != kNoSpan; }

  void SetDetail(std::string detail) { detail_ = std::move(detail); }

 private:
  TraceRecorder* recorder_;
  SpanId span_;
  std::string detail_;
};

// RAII root-or-child span for the operation entry points (agents,
// replication service): starts a trace when none is active, joins the
// active one otherwise.
class OpScope {
 public:
  OpScope(TraceRecorder* recorder, std::string_view layer,
          std::string_view name)
      : recorder_(recorder) {
    if (recorder_ == nullptr || !recorder_->enabled()) return;
    if (!recorder_->TraceActive()) {
      recorder_->StartTrace(layer, name);
      root_ = true;
      // The root span is closed through EndSpan like any other; fetch it.
      trace_ = recorder_->LatestTraceId();
      span_ = recorder_->GetTrace(trace_).spans.front().id;
    } else {
      span_ = recorder_->BeginSpan(layer, name);
    }
  }
  ~OpScope() {
    if (recorder_ != nullptr && span_ != kNoSpan) {
      recorder_->EndSpan(span_, std::move(detail_));
    }
  }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  void SetDetail(std::string detail) { detail_ = std::move(detail); }

 private:
  TraceRecorder* recorder_;
  SpanId span_ = kNoSpan;
  TraceId trace_ = 0;
  bool root_ = false;
  std::string detail_;
};

}  // namespace rhodos::obs
