// perfbench — the facility's end-to-end benchmark driver.
//
// One process, one driver thread, one operation outstanding across the
// whole facility at a time (a closed loop). The simulated clients are the
// facility's Machines, picked by a seeded schedule; no sim::ParallelSection
// lanes are used by the driver, because lanes share no resource occupancy
// and any throughput they produced would be fictitious. A run repeats
// rounds until --seconds of wall time have passed (half of them with
// --trace 1), at least three:
//
//   1. set-up: build a fresh facility, preload the data set through the
//      public client API, run the warm-up steps (setup_s is the median
//      over rounds);
//   2. the measured prefix: a fixed number of steps from the seeded mix.
//      Every sim-time and count metric comes from the first round's prefix,
//      so they are a pure function of (workload, seed); every later round
//      must reproduce it exactly. ops_per_wall_s, the simulator's CPU cost,
//      is the median over fixed-size blocks of ops across all rounds.
//
// With --trace 1 a traced phase (obs::TraceRecorder on, drained after every
// operation) follows on the last round's facility and yields per-layer
// self times and the tracing overhead. End-to-end metrics never come from
// traced ops.
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (perfbench/LAYERS.md lists both and what each should move).
//
// An "operation" is one latency sample of one class: read (pread,
// sequential read, read-only transaction), update (pwrite through its
// flush/close, or a transaction from TBegin to TEnd) or meta (create,
// open, close, delete, getattr). Every public call happens inside exactly
// one operation, so per-operation counter deltas sum to the facility's
// totals — which the driver checks against StatsSnapshot() after every
// prefix and traced phase.
//
// Every byte read is checked against a shadow model of what the driver
// wrote; a mismatch fails the operation. The last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "core/facility.h"

namespace rhodos::perfbench {
namespace {

using WallClock = std::chrono::steady_clock;

double WallSeconds(WallClock::time_point a, WallClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- Content model -----------------------------------------------------------

// Every block the driver writes carries a unique stamp and its 8 KiB image
// is a pure function of that stamp, so the shadow model keeps one word per
// block and a stale, misplaced or torn block can never compare equal.
constexpr std::size_t kWordsPerBlock = kBlockSize / sizeof(std::uint64_t);

std::uint64_t StampWord(std::uint64_t stamp, std::size_t i) {
  return stamp * 0x9E3779B97F4A7C15ull + (i + 1) * 0xD1B54A32D192ED03ull;
}

void FillBlock(std::uint64_t stamp, std::uint8_t* out) {
  for (std::size_t i = 0; i < kWordsPerBlock; ++i) {
    const std::uint64_t w = StampWord(stamp, i);
    std::memcpy(out + i * sizeof(w), &w, sizeof(w));
  }
}

bool BlockMatches(std::uint64_t stamp, const std::uint8_t* in) {
  std::uint64_t diff = 0;
  for (std::size_t i = 0; i < kWordsPerBlock; ++i) {
    std::uint64_t w;
    std::memcpy(&w, in + i * sizeof(w), sizeof(w));
    diff |= w ^ StampWord(stamp, i);
  }
  return diff == 0;
}

// Zipf(s) over [0, n): rank 0 is the most popular.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t Sample(Rng& rng) const {
    const double u = rng.NextDouble();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// --- Operations, calls and their records -------------------------------------

enum class OpClass : int { kRead = 0, kUpdate = 1, kMeta = 2 };
constexpr int kClassCount = 3;
constexpr const char* kClassNames[kClassCount] = {"read", "update", "meta"};

// Every public call the driver makes. The names are the per-layer metric
// suffixes (agent.call_wall_ns.<name>, txn_agent.call_wall_ns.<name>).
enum class Api : int {
  kOpen, kClose, kCreate, kDelete, kPread, kPwrite, kRead, kFlush, kGetattr,
  kLseek, kCrash, kTBegin, kTOpen, kTPread, kTPwrite, kTEnd, kTAbort, kCount
};
struct ApiInfo {
  const char* layer;
  const char* name;
  bool reported;  // has a call_wall_ns metric
};
constexpr ApiInfo kApis[] = {
    {"agent", "open", true},       {"agent", "close", true},
    {"agent", "create", true},     {"agent", "delete", true},
    {"agent", "pread", true},      {"agent", "pwrite", true},
    {"agent", "read", true},       {"agent", "flush", true},
    {"agent", "getattr", true},    {"agent", "lseek", false},
    {"agent", "crash", false},     {"txn_agent", "tbegin", true},
    {"txn_agent", "topen", true},  {"txn_agent", "tpread", true},
    {"txn_agent", "tpwrite", true}, {"txn_agent", "tend", true},
    {"txn_agent", "tabort", false},
};
static_assert(sizeof(kApis) / sizeof(kApis[0]) ==
              static_cast<std::size_t>(Api::kCount));

// The counted costs, read straight from each layer's own stats structs
// after every operation (the first of the two sources the agreement check
// compares).
struct Counted {
  std::uint64_t disk_refs = 0;  // main + stable, reads + writes
  std::uint64_t exchanges = 0;  // message-bus calls
  std::uint64_t forces = 0;     // intention-log forces

  Counted& operator+=(const Counted& o) {
    disk_refs += o.disk_refs;
    exchanges += o.exchanges;
    forces += o.forces;
    return *this;
  }
  Counted operator-(const Counted& o) const {
    return {disk_refs - o.disk_refs, exchanges - o.exchanges,
            forces - o.forces};
  }
};

Counted CountNow(core::DistributedFileFacility& f) {
  Counted c;
  for (const auto& d : f.disks().disks()) {
    c.disk_refs += d->main_stats().TotalReferences() +
                   d->stable_stats().TotalReferences();
  }
  c.exchanges = f.bus().stats().calls;
  c.forces = f.transactions().log().stats().forces;
  return c;
}

// The benchmark's own span around one public call (traced phase only).
struct BenchSpan {
  std::uint64_t op;
  Api api;
  std::int64_t wall_start_ns;
  std::int64_t wall_end_ns;
  SimTime sim_start;
  SimTime sim_end;
};

enum class Phase { kWarmup, kPrefix, kTraced, kDone };

// Layers whose self time the traced phase attributes.
constexpr const char* kTraceLayers[] = {"agent", "txn_agent", "rpc",
                                        "bus",   "service",   "file",
                                        "txn",   "lock",      "disk"};
constexpr std::size_t kTraceLayerCount =
    sizeof(kTraceLayers) / sizeof(kTraceLayers[0]);

class Driver {
 public:
  Driver(core::DistributedFileFacility* f, std::size_t block_ops)
      : f_(f), block_ops_(block_ops), epoch_(WallClock::now()) {}

  core::DistributedFileFacility& facility() { return *f_; }
  // Forgets the facility once it is destroyed; the records stay readable.
  void Detach() { f_ = nullptr; }

  void SetPhase(Phase p) {
    phase_ = p;
    block_start_ = WallClock::now();
    block_done_ = 0;
    obs::TraceRecorder& tracer = f_->observability().tracer;
    tracer.Clear();
    tracer.Enable(p == Phase::kTraced);
  }

  void BeginOp(OpClass c) {
    cls_ = c;
    op_ok_ = true;
    op_sim_start_ = f_->clock().Now();
    op_counts_ = CountNow(*f_);
    if (phase_ == Phase::kTraced) {
      obs::TraceRecorder& tracer = f_->observability().tracer;
      trace_id_ = tracer.StartTrace("bench", kClassNames[static_cast<int>(c)]);
      root_span_ = tracer.GetTrace(trace_id_).spans.front().id;
    }
  }

  // Marks the current operation failed (an error status or a wrong result).
  void Fail(const std::string& why) {
    if (op_ok_ && failures_logged_ < 10) {
      ++failures_logged_;
      std::fprintf(stderr, "perfbench: op %" PRIu64 " (%s) failed: %s\n",
                   ops_, kClassNames[static_cast<int>(cls_)], why.c_str());
    }
    op_ok_ = false;
  }
  bool op_ok() const { return op_ok_; }

  void EndOp() {
    const SimTime latency = f_->clock().Now() - op_sim_start_;
    counted_ += CountNow(*f_) - op_counts_;
    ++ops_;
    if (!op_ok_) ++failed_;
    if (phase_ == Phase::kPrefix) {
      latencies_[static_cast<int>(cls_)].push_back(latency);
    }
    if (phase_ == Phase::kTraced) AttributeTrace();
    if (phase_ != Phase::kWarmup && ++block_done_ == block_ops_) {
      const auto now = WallClock::now();
      const double rate =
          static_cast<double>(block_ops_) / WallSeconds(block_start_, now);
      (phase_ == Phase::kTraced ? traced_blocks_ : wall_blocks_)
          .push_back(rate);
      block_start_ = now;
      block_done_ = 0;
    }
  }

  // Runs one public call: wall and sim timing around it, plus the
  // benchmark's own span in the traced phase.
  template <typename Fn>
  auto Call(Api api, Fn&& fn) {
    const auto w0 = WallClock::now();
    const SimTime s0 = f_->clock().Now();
    auto result = fn();
    const auto w1 = WallClock::now();
    if (phase_ == Phase::kPrefix) {
      call_wall_ns_[static_cast<int>(api)].push_back(static_cast<std::uint32_t>(
          std::min<std::int64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(w1 - w0)
                  .count(),
              UINT32_MAX)));
      if (api == Api::kOpen || api == Api::kTOpen) ++name_opens_;
    }
    if (phase_ == Phase::kTraced && spans_.size() < kMaxSpans) {
      spans_.push_back(BenchSpan{ops_, api, NsSinceEpoch(w0), NsSinceEpoch(w1),
                                 s0, f_->clock().Now()});
    }
    return result;
  }

  void NoteUserBytesWritten(std::uint64_t n) {
    if (phase_ == Phase::kPrefix) user_bytes_written_ += n;
  }

  // --- Results ---------------------------------------------------------------

  std::uint64_t ops() const { return ops_; }
  std::uint64_t failed() const { return failed_; }
  const Counted& counted() const { return counted_; }
  const std::vector<SimTime>& latencies(OpClass c) const {
    return latencies_[static_cast<int>(c)];
  }
  const std::vector<std::uint32_t>& call_wall_ns(Api api) const {
    return call_wall_ns_[static_cast<int>(api)];
  }
  const std::vector<double>& wall_blocks() const { return wall_blocks_; }
  const std::vector<double>& traced_blocks() const { return traced_blocks_; }
  std::uint64_t name_opens() const { return name_opens_; }
  std::uint64_t user_bytes_written() const { return user_bytes_written_; }
  std::uint64_t traced_ops() const { return traced_ops_; }
  SimTime layer_self_ns(std::size_t layer) const { return self_ns_[layer]; }
  SimTime unattributed_ns() const { return unattributed_ns_; }

  void WriteSpans(const std::string& path) const {
    std::ofstream out(path);
    for (const BenchSpan& s : spans_) {
      const ApiInfo& a = kApis[static_cast<int>(s.api)];
      out << "{\"op\":" << s.op << ",\"layer\":\"" << a.layer
          << "\",\"name\":\"" << a.name << "\",\"wall_start_ns\":"
          << s.wall_start_ns << ",\"wall_end_ns\":" << s.wall_end_ns
          << ",\"sim_start_ns\":" << s.sim_start << ",\"sim_end_ns\":"
          << s.sim_end << "}\n";
    }
  }

 private:
  static constexpr std::size_t kMaxSpans = 200'000;

  std::int64_t NsSinceEpoch(WallClock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  // Closes the operation's root span, folds the trace into per-layer self
  // times and drains the recorder (its ring holds only 64 traces).
  void AttributeTrace() {
    obs::TraceRecorder& tracer = f_->observability().tracer;
    tracer.EndSpan(root_span_);
    const obs::Trace t = tracer.GetTrace(trace_id_);
    tracer.Clear();
    ++traced_ops_;
    if (t.spans.empty()) return;
    std::unordered_map<obs::SpanId, std::size_t> index;
    for (std::size_t i = 0; i < t.spans.size(); ++i) index[t.spans[i].id] = i;
    std::vector<std::vector<std::size_t>> children(t.spans.size());
    for (std::size_t i = 1; i < t.spans.size(); ++i) {
      if (auto it = index.find(t.spans[i].parent); it != index.end()) {
        children[it->second].push_back(i);
      }
    }
    std::vector<std::pair<SimTime, SimTime>> cover;
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      const obs::Span& s = t.spans[i];
      // Self time = the span's interval minus the union of its children's
      // (clipped; lanes of a parallel section may overlap).
      cover.clear();
      for (std::size_t c : children[i]) {
        cover.emplace_back(std::max(t.spans[c].start, s.start),
                           std::min(t.spans[c].end, s.end));
      }
      std::sort(cover.begin(), cover.end());
      SimTime covered = 0;
      SimTime reach = s.start;
      for (const auto& [a, b] : cover) {
        const SimTime from = std::max(a, reach);
        if (b > from) {
          covered += b - from;
          reach = b;
        }
      }
      const SimTime self = std::max<SimTime>(0, (s.end - s.start) - covered);
      if (i == 0) {
        unattributed_ns_ += self;
        continue;
      }
      for (std::size_t l = 0; l < kTraceLayerCount; ++l) {
        if (s.layer == kTraceLayers[l]) {
          self_ns_[l] += self;
          break;
        }
      }
    }
  }

  core::DistributedFileFacility* f_;
  std::size_t block_ops_;
  WallClock::time_point epoch_;
  Phase phase_ = Phase::kWarmup;

  OpClass cls_ = OpClass::kRead;
  bool op_ok_ = true;
  SimTime op_sim_start_ = 0;
  Counted op_counts_;
  obs::TraceId trace_id_ = 0;
  obs::SpanId root_span_ = obs::kNoSpan;

  std::uint64_t ops_ = 0;
  std::uint64_t failed_ = 0;
  int failures_logged_ = 0;
  Counted counted_;
  std::vector<SimTime> latencies_[kClassCount];
  std::vector<std::uint32_t> call_wall_ns_[static_cast<int>(Api::kCount)];
  std::uint64_t name_opens_ = 0;
  std::uint64_t user_bytes_written_ = 0;

  WallClock::time_point block_start_;
  std::size_t block_done_ = 0;
  std::vector<double> wall_blocks_;
  std::vector<double> traced_blocks_;

  std::vector<BenchSpan> spans_;
  std::uint64_t traced_ops_ = 0;
  SimTime self_ns_[kTraceLayerCount] = {};
  SimTime unattributed_ns_ = 0;
};

// Checks `data` (starting at block `first` of a file modelled by `stamps`).
bool MatchesModel(const std::vector<std::uint64_t>& stamps, std::size_t first,
                  const std::uint8_t* data, std::size_t blocks) {
  for (std::size_t b = 0; b < blocks; ++b) {
    if (first + b >= stamps.size() ||
        !BlockMatches(stamps[first + b], data + b * kBlockSize)) {
      return false;
    }
  }
  return true;
}

// --- Workloads ---------------------------------------------------------------

// A basic file as the driver models it.
struct FileModel {
  naming::AttributedName name;
  std::vector<std::uint64_t> stamps;  // one per 8 KiB block
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual core::FacilityConfig Config() const = 0;
  // Adds the machines and preloads the data set through the public API.
  virtual Status Setup(core::DistributedFileFacility& f) = 0;
  // One step of the seeded mix: one or more operations.
  virtual void Step(Driver& d) = 0;
  // End-of-run audit (untimed, outside every operation).
  virtual bool Audit(core::DistributedFileFacility&) { return true; }

  std::size_t warmup_steps = 0;
  std::size_t prefix_steps = 0;
  std::size_t block_ops = 1000;

 protected:
  explicit Workload(std::uint64_t seed) : rng_(seed) {}

  // Gives every entry of `stamps` a fresh stamp and writes the blocks'
  // images, in order, to `out`.
  void FreshBlocks(std::span<std::uint64_t> stamps, std::uint8_t* out) {
    for (std::size_t b = 0; b < stamps.size(); ++b) {
      stamps[b] = ++stamp_;
      FillBlock(stamps[b], out + b * kBlockSize);
    }
  }

  // Writes a whole file of fresh blocks at `od` and closes it (set-up).
  Status Preload(agent::FileAgent& agent, ObjectDescriptor od,
                 FileModel& model) {
    std::vector<std::uint8_t> buf(model.stamps.size() * kBlockSize);
    FreshBlocks(model.stamps, buf.data());
    auto n = agent.Pwrite(od, 0, buf);
    if (!n.ok()) return Error{n.error()};
    return agent.Close(od);
  }

  Rng rng_;

 private:
  std::uint64_t stamp_ = 0;
};

// hot_read_fanout: the read path for data that fits in the caches — agent
// cache, callback grants, peer redirects, bus. 64 machines read a Zipf hot
// set of 16 × 256 KiB files (4 MiB, twice the origin's 2 MiB block pool;
// each agent caches 512 KiB). Machines are crash-cycled on most re-opens so
// most reads miss their agent cache; ~2% of operations are pwrite+flush,
// which break callbacks.
class HotReadFanout : public Workload {
 public:
  explicit HotReadFanout(std::uint64_t seed)
      : Workload(seed), zipf_(kFiles, 0.9) {
    warmup_steps = 4000;
    prefix_steps = 80000;
    block_ops = 4000;
  }

  core::FacilityConfig Config() const override {
    core::FacilityConfig c;
    c.disk_count = 2;
    c.geometry.total_fragments = 8 * 1024;  // 16 MiB per disk
    c.agent.cache_blocks = 64;              // 512 KiB per agent
    c.file.block_pool_capacity = 256;       // 2 MiB origin block pool
    c.cache_tier.enabled = true;
    // The closed loop runs ~240 ops per simulated second across 16 files, so
    // the default threshold (64 preads per file per window) would leave the
    // tier idle; at 8 about a quarter of the reads are redirected to peers.
    c.cache_tier.hot_read_threshold = 8;
    return c;
  }

  Status Setup(core::DistributedFileFacility& f) override {
    for (int m = 0; m < kMachines; ++m) f.AddMachine();
    agent::FileAgent& writer = *f.machine(0).file_agent;
    files_.resize(kFiles);
    for (int i = 0; i < kFiles; ++i) {
      files_[i].name = naming::ByName("hot-" + std::to_string(i));
      files_[i].stamps.resize(kFileBlocks);
      RHODOS_ASSIGN_OR_RETURN(
          ObjectDescriptor od,
          writer.Create(files_[i].name, file::ServiceType::kBasic,
                        kFileBlocks * kBlockSize));
      RHODOS_RETURN_IF_ERROR(Preload(writer, od, files_[i]));
    }
    seats_.assign(kMachines, Seat{});
    buf_.resize(kBlockSize);
    return OkStatus();
  }

  void Step(Driver& d) override {
    const int m = static_cast<int>(rng_.Below(kMachines));
    Seat& seat = seats_[m];
    const bool write = rng_.Chance(kWriteChance);
    const int file = seat.file >= 0 && rng_.Chance(kStayChance)
                         ? seat.file
                         : static_cast<int>(zipf_.Sample(rng_));
    const bool crash = rng_.Chance(kCrashChance);
    const std::uint64_t block = rng_.Below(kFileBlocks);
    agent::FileAgent& agent = *d.facility().machine(m).file_agent;
    if (seat.file != file) {
      if (seat.file >= 0) {
        d.BeginOp(OpClass::kMeta);
        if (auto st = d.Call(Api::kClose, [&] { return agent.Close(seat.od); });
            !st.ok()) {
          d.Fail("close: " + st.error().ToString());
        }
        d.EndOp();
        seat = Seat{};
      }
      d.BeginOp(OpClass::kMeta);
      if (crash) {
        d.Call(Api::kCrash, [&] {
          agent.Crash();
          return 0;
        });
      }
      auto od =
          d.Call(Api::kOpen, [&] { return agent.Open(files_[file].name); });
      if (od.ok()) {
        seat = Seat{*od, file};
      } else {
        d.Fail("open: " + od.error().ToString());
      }
      d.EndOp();
      if (!od.ok()) return;
    }
    FileModel& model = files_[file];
    if (write) {
      d.BeginOp(OpClass::kUpdate);
      std::uint64_t stamp = 0;
      FreshBlocks({&stamp, 1}, buf_.data());
      auto n = d.Call(Api::kPwrite, [&] {
        return agent.Pwrite(seat.od, block * kBlockSize, buf_);
      });
      d.NoteUserBytesWritten(kBlockSize);
      Status st =
          n.ok() ? d.Call(Api::kFlush, [&] { return agent.Flush(seat.od); })
                 : Status{n.error()};
      if (st.ok()) {
        model.stamps[block] = stamp;
      } else {
        d.Fail("pwrite+flush: " + st.error().ToString());
      }
      d.EndOp();
      return;
    }
    d.BeginOp(OpClass::kRead);
    auto n = d.Call(Api::kPread, [&] {
      return agent.Pread(seat.od, block * kBlockSize, buf_);
    });
    if (!n.ok()) {
      d.Fail("pread: " + n.error().ToString());
    } else if (*n != kBlockSize ||
               !MatchesModel(model.stamps, block, buf_.data(), 1)) {
      d.Fail("pread returned bytes that differ from the shadow model");
    }
    d.EndOp();
  }

 private:
  static constexpr int kMachines = 64;
  static constexpr int kFiles = 16;
  static constexpr std::uint64_t kFileBlocks = 32;  // 256 KiB
  static constexpr double kWriteChance = 0.036;     // ~2% of operations
  static constexpr double kStayChance = 0.6;        // re-read the open file
  static constexpr double kCrashChance = 0.75;      // cold agent on re-open

  struct Seat {
    ObjectDescriptor od = -1;
    int file = -1;
  };

  Zipf zipf_;
  std::vector<FileModel> files_;
  std::vector<Seat> seats_;
  std::vector<std::uint8_t> buf_;
};

// sharded_mixed_io: the write- and metadata-heavy path when data does not
// fit in the caches — placement, sharded naming, FIT loads/stores, block
// pool, read-ahead, allocation, seeks, vectored I/O. 4 file shards and 4
// naming shards over 4 disks, 16 machines, 2048 × 64 KiB files (128 MiB)
// with Zipf popularity. Cache tier off; creates and deletes alternate so the
// file count stays at 2048 (or 2047).
class ShardedMixedIo : public Workload {
 public:
  explicit ShardedMixedIo(std::uint64_t seed)
      : Workload(seed), zipf_(kSlots, 0.9) {
    warmup_steps = 2000;
    prefix_steps = 40000;
    block_ops = 2000;
  }

  core::FacilityConfig Config() const override {
    core::FacilityConfig c;
    c.disk_count = 4;
    c.geometry.total_fragments = 24 * 1024;  // 48 MiB per disk
    c.sharding.file_shards = 4;
    c.sharding.naming_shards = 4;
    return c;
  }

  Status Setup(core::DistributedFileFacility& f) override {
    for (int m = 0; m < kMachines; ++m) f.AddMachine();
    slots_.resize(kSlots);
    for (std::size_t s = 0; s < kSlots; ++s) {
      agent::FileAgent& agent = *f.machine(s % kMachines).file_agent;
      Slot& slot = slots_[s];
      slot.live = true;
      slot.model.name = NameOf(s, 0);
      slot.model.stamps.resize(kFileBlocks);
      RHODOS_ASSIGN_OR_RETURN(
          ObjectDescriptor od,
          agent.Create(slot.model.name, file::ServiceType::kBasic,
                       kFileBlocks * kBlockSize));
      RHODOS_RETURN_IF_ERROR(Preload(agent, od, slot.model));
    }
    open_.assign(kMachines, {});
    buf_.resize(kFileBlocks * kBlockSize);
    return OkStatus();
  }

  void Step(Driver& d) override {
    const int m = static_cast<int>(rng_.Below(kMachines));
    const std::uint64_t pick = rng_.Below(100);
    if (pick < 35) {
      Pread(d, m);
    } else if (pick < 65) {
      PwriteClose(d, m);
    } else if (pick < 75) {
      SequentialRead(d, m);
    } else if (pick < 85) {
      OpenClose(d, m);
    } else if (pick < 95) {
      // Creates and deletes alternate: a create refills the slot the last
      // delete emptied, so the file count stays steady.
      if (dead_.empty()) {
        Delete(d, m);
      } else {
        Create(d, m);
      }
    } else {
      GetAttr(d, m);
    }
  }

 private:
  static constexpr int kMachines = 16;
  static constexpr std::size_t kSlots = 2048;
  static constexpr std::uint64_t kFileBlocks = 8;  // 64 KiB
  static constexpr std::size_t kOpenPerMachine = 4;

  struct Slot {
    bool live = false;
    std::uint32_t generation = 0;
    FileModel model;
  };
  struct Held {
    std::size_t slot;
    ObjectDescriptor od;
  };

  static naming::AttributedName NameOf(std::size_t slot, std::uint32_t gen) {
    return naming::ByName("f" + std::to_string(slot) + "." +
                          std::to_string(gen));
  }

  std::size_t PickLive() {
    while (true) {
      const std::size_t s = zipf_.Sample(rng_);
      if (slots_[s].live) return s;
    }
  }

  void CloseHeld(Driver& d, int m, std::size_t index) {
    agent::FileAgent& agent = *d.facility().machine(m).file_agent;
    const Held h = open_[m][index];
    open_[m].erase(open_[m].begin() + static_cast<std::ptrdiff_t>(index));
    d.BeginOp(OpClass::kMeta);
    if (auto st = d.Call(Api::kClose, [&] { return agent.Close(h.od); });
        !st.ok()) {
      d.Fail("close: " + st.error().ToString());
    }
    d.EndOp();
  }

  // The machine's descriptor for `slot`, opening it (and closing its least
  // recently used descriptor when the machine holds kOpenPerMachine) as
  // operations of their own. Returns nullopt when the open failed.
  std::optional<ObjectDescriptor> Ensure(Driver& d, int m, std::size_t slot) {
    auto& held = open_[m];
    for (std::size_t i = 0; i < held.size(); ++i) {
      if (held[i].slot == slot) {
        const Held h = held[i];
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
        held.push_back(h);
        return h.od;
      }
    }
    if (held.size() >= kOpenPerMachine) CloseHeld(d, m, 0);
    agent::FileAgent& agent = *d.facility().machine(m).file_agent;
    d.BeginOp(OpClass::kMeta);
    auto od = d.Call(Api::kOpen,
                     [&] { return agent.Open(slots_[slot].model.name); });
    if (!od.ok()) d.Fail("open: " + od.error().ToString());
    d.EndOp();
    if (!od.ok()) return std::nullopt;
    held.push_back(Held{slot, *od});
    return *od;
  }

  void Forget(int m, std::size_t slot) {
    auto& held = open_[m];
    std::erase_if(held, [&](const Held& h) { return h.slot == slot; });
  }

  void Pread(Driver& d, int m) {
    const std::size_t slot = PickLive();
    const std::uint64_t block = rng_.Below(kFileBlocks);
    const std::uint64_t blocks = std::min<std::uint64_t>(
        1 + rng_.Below(2), kFileBlocks - block);
    const auto od = Ensure(d, m, slot);
    if (!od) return;
    agent::FileAgent& agent = *d.facility().machine(m).file_agent;
    const std::span<std::uint8_t> out(buf_.data(), blocks * kBlockSize);
    d.BeginOp(OpClass::kRead);
    auto n = d.Call(Api::kPread,
                    [&] { return agent.Pread(*od, block * kBlockSize, out); });
    if (!n.ok()) {
      d.Fail("pread: " + n.error().ToString());
    } else if (*n != out.size() ||
               !MatchesModel(slots_[slot].model.stamps, block, out.data(),
                             blocks)) {
      d.Fail("pread returned bytes that differ from the shadow model");
    }
    d.EndOp();
  }

  void PwriteClose(Driver& d, int m) {
    const std::size_t slot = PickLive();
    const std::uint64_t block = rng_.Below(kFileBlocks);
    const std::uint64_t blocks = std::min<std::uint64_t>(
        1 + rng_.Below(2), kFileBlocks - block);
    const auto od = Ensure(d, m, slot);
    if (!od) return;
    agent::FileAgent& agent = *d.facility().machine(m).file_agent;
    std::vector<std::uint64_t> stamps(blocks);
    FreshBlocks(stamps, buf_.data());
    const std::span<const std::uint8_t> in(buf_.data(), blocks * kBlockSize);
    d.BeginOp(OpClass::kUpdate);
    auto n = d.Call(Api::kPwrite,
                    [&] { return agent.Pwrite(*od, block * kBlockSize, in); });
    d.NoteUserBytesWritten(in.size());
    Status st = n.ok() ? d.Call(Api::kClose, [&] { return agent.Close(*od); })
                       : Status{n.error()};
    Forget(m, slot);
    if (st.ok()) {
      std::copy(stamps.begin(), stamps.end(),
                slots_[slot].model.stamps.begin() +
                    static_cast<std::ptrdiff_t>(block));
    } else {
      d.Fail("pwrite+close: " + st.error().ToString());
    }
    d.EndOp();
  }

  void SequentialRead(Driver& d, int m) {
    const std::size_t slot = PickLive();
    const auto od = Ensure(d, m, slot);
    if (!od) return;
    agent::FileAgent& agent = *d.facility().machine(m).file_agent;
    d.BeginOp(OpClass::kRead);
    auto pos = d.Call(Api::kLseek, [&] {
      return agent.Lseek(*od, 0, agent::SeekWhence::kSet);
    });
    std::uint64_t total = 0;
    if (!pos.ok()) {
      d.Fail("lseek: " + pos.error().ToString());
    } else {
      constexpr std::size_t kChunk = 2 * kBlockSize;
      while (total < buf_.size()) {
        const std::span<std::uint8_t> out(buf_.data() + total, kChunk);
        auto n = d.Call(Api::kRead, [&] { return agent.Read(*od, out); });
        if (!n.ok()) {
          d.Fail("read: " + n.error().ToString());
          break;
        }
        if (*n == 0) break;
        total += *n;
      }
      if (d.op_ok() &&
          (total != buf_.size() ||
           !MatchesModel(slots_[slot].model.stamps, 0, buf_.data(),
                         kFileBlocks))) {
        d.Fail("sequential read differs from the shadow model");
      }
    }
    d.EndOp();
  }

  void OpenClose(Driver& d, int m) {
    const std::size_t slot = PickLive();
    agent::FileAgent& agent = *d.facility().machine(m).file_agent;
    d.BeginOp(OpClass::kMeta);
    auto od = d.Call(Api::kOpen,
                     [&] { return agent.Open(slots_[slot].model.name); });
    if (!od.ok()) d.Fail("open: " + od.error().ToString());
    d.EndOp();
    if (!od.ok()) return;
    d.BeginOp(OpClass::kMeta);
    if (auto st = d.Call(Api::kClose, [&] { return agent.Close(*od); });
        !st.ok()) {
      d.Fail("close: " + st.error().ToString());
    }
    d.EndOp();
  }

  void Create(Driver& d, int m) {
    const std::size_t pos = rng_.Below(dead_.size());
    const std::size_t slot = dead_[pos];
    dead_.erase(dead_.begin() + static_cast<std::ptrdiff_t>(pos));
    Slot& s = slots_[slot];
    agent::FileAgent& agent = *d.facility().machine(m).file_agent;
    ++s.generation;
    s.model.name = NameOf(slot, s.generation);
    d.BeginOp(OpClass::kMeta);
    auto od = d.Call(Api::kCreate, [&] {
      return agent.Create(s.model.name, file::ServiceType::kBasic,
                          kFileBlocks * kBlockSize);
    });
    if (!od.ok()) d.Fail("create: " + od.error().ToString());
    d.EndOp();
    if (!od.ok()) return;
    std::vector<std::uint64_t> stamps(kFileBlocks);
    FreshBlocks(stamps, buf_.data());
    d.BeginOp(OpClass::kUpdate);
    auto n = d.Call(Api::kPwrite, [&] { return agent.Pwrite(*od, 0, buf_); });
    d.NoteUserBytesWritten(buf_.size());
    Status st = n.ok() ? d.Call(Api::kClose, [&] { return agent.Close(*od); })
                       : Status{n.error()};
    if (st.ok()) {
      s.model.stamps = std::move(stamps);
      s.live = true;
    } else {
      d.Fail("create write+close: " + st.error().ToString());
    }
    d.EndOp();
  }

  void Delete(Driver& d, int m) {
    std::size_t slot = rng_.Below(kSlots);
    while (!slots_[slot].live) slot = rng_.Below(kSlots);
    // Every machine's descriptor for the file is closed first, each as an
    // operation of its own.
    for (int other = 0; other < kMachines; ++other) {
      for (std::size_t i = 0; i < open_[other].size();) {
        if (open_[other][i].slot == slot) {
          CloseHeld(d, other, i);
        } else {
          ++i;
        }
      }
    }
    agent::FileAgent& agent = *d.facility().machine(m).file_agent;
    d.BeginOp(OpClass::kMeta);
    if (auto st = d.Call(Api::kDelete,
                         [&] { return agent.Delete(slots_[slot].model.name); });
        st.ok()) {
      slots_[slot].live = false;
      dead_.push_back(slot);
    } else {
      d.Fail("delete: " + st.error().ToString());
    }
    d.EndOp();
  }

  void GetAttr(Driver& d, int m) {
    const std::size_t slot = PickLive();
    const auto od = Ensure(d, m, slot);
    if (!od) return;
    agent::FileAgent& agent = *d.facility().machine(m).file_agent;
    d.BeginOp(OpClass::kMeta);
    auto attrs =
        d.Call(Api::kGetattr, [&] { return agent.GetAttribute(*od); });
    if (!attrs.ok()) {
      d.Fail("getattr: " + attrs.error().ToString());
    } else if (attrs->size != kFileBlocks * kBlockSize) {
      d.Fail("getattr size " + std::to_string(attrs->size));
    }
    d.EndOp();
  }

  Zipf zipf_;
  std::vector<Slot> slots_;
  std::vector<std::size_t> dead_;
  std::vector<std::vector<Held>> open_;  // per machine, LRU first
  std::vector<std::uint8_t> buf_;
};

// txn_ledger: the §6 transaction layer — locks, intention-log forces,
// stable storage and the txn-agent page cache. 64 account files, even ones
// with record-level locking (WAL commits), odd ones with page-level locking
// over two non-contiguous pages (shadow-page commits). ~75% transfers
// (TBegin, 2 TOpen, 2 TPread for update, 2 TPwrite, TEnd), ~15% read-only
// audits of four accounts, ~10% open/getattr/close of an account through the
// file agent. Total balance is conserved and audited at the end.
class TxnLedger : public Workload {
 public:
  explicit TxnLedger(std::uint64_t seed) : Workload(seed) {
    warmup_steps = 1000;
    prefix_steps = 36000;
    block_ops = 1000;
  }

  core::FacilityConfig Config() const override {
    core::FacilityConfig c;
    c.disk_count = 2;
    c.geometry.total_fragments = 8 * 1024;  // 16 MiB per disk
    // The ledger (96 pages) is larger than the origin's caches, so reads —
    // audits included — reach the disks instead of costing no sim time.
    c.file.block_pool_capacity = 16;
    c.disk_cache_tracks = 2;
    return c;
  }

  Status Setup(core::DistributedFileFacility& f) override {
    for (int m = 0; m < kMachines; ++m) {
      f.AddMachine();
      processes_.push_back(f.CreateProcess());
    }
    agent::TransactionAgentHost& host = *f.machine(0).txn_agent;
    agent::ProcessContext& p = processes_[0];
    balances_.assign(kAccounts, kInitialBalance);
    names_.resize(kAccounts);
    std::vector<std::uint8_t> page(kBlockSize, 0);
    std::memcpy(page.data(), &kInitialBalance, sizeof(kInitialBalance));
    for (int a = 0; a < kAccounts; ++a) {
      names_[a] = naming::ByName("acct-" + std::to_string(a));
      RHODOS_ASSIGN_OR_RETURN(TxnId t, host.TBegin(p));
      RHODOS_ASSIGN_OR_RETURN(
          ObjectDescriptor od,
          host.TCreate(t, names_[a], LevelOf(a), SizeOf(a)));
      RHODOS_RETURN_IF_ERROR(host.TPwrite(
          t, od, 0, std::span<const std::uint8_t>(page.data(), SizeOf(a))));
      RHODOS_RETURN_IF_ERROR(host.TEnd(t, p));
    }
    // Page-level accounts grow a second page only after every account
    // exists, so it cannot extend in place: the file is non-contiguous and
    // its commits take the shadow-page path.
    std::fill(page.begin(), page.end(), 0);
    for (int a = 1; a < kAccounts; a += 2) {
      RHODOS_ASSIGN_OR_RETURN(TxnId t, host.TBegin(p));
      RHODOS_ASSIGN_OR_RETURN(ObjectDescriptor od, host.TOpen(t, names_[a]));
      RHODOS_RETURN_IF_ERROR(host.TPwrite(t, od, kBlockSize, page));
      RHODOS_RETURN_IF_ERROR(host.TEnd(t, p));
    }
    return OkStatus();
  }

  void Step(Driver& d) override {
    const int m = static_cast<int>(rng_.Below(kMachines));
    const double pick = rng_.NextDouble();
    if (pick < 0.75) {
      Transfer(d, m);
    } else if (pick < 0.90) {
      AuditSome(d, m);
    } else {
      Stat(d, m);
    }
  }

  bool Audit(core::DistributedFileFacility& f) override {
    agent::TransactionAgentHost& host = *f.machine(0).txn_agent;
    agent::ProcessContext& p = processes_[0];
    auto t = host.TBegin(p);
    if (!t.ok()) return false;
    std::int64_t total = 0;
    bool ok = true;
    for (int a = 0; a < kAccounts && ok; ++a) {
      auto od = host.TOpen(*t, names_[a]);
      std::int64_t bal = 0;
      ok = od.ok() && host.TPread(*t, *od, 0, AsBytes(bal)).ok() &&
           bal == balances_[a];
      total += bal;
    }
    ok = host.TEnd(*t, p).ok() && ok;
    const std::int64_t expected = kInitialBalance * kAccounts;
    if (total != expected) {
      std::fprintf(stderr,
                   "perfbench: ledger total %" PRId64 " != %" PRId64 "\n",
                   total, expected);
    }
    return ok && total == expected;
  }

 private:
  static constexpr int kMachines = 8;
  static constexpr int kAccounts = 64;
  static constexpr std::int64_t kInitialBalance = 1'000'000;
  static constexpr std::size_t kAuditAccounts = 4;

  static file::LockLevel LevelOf(int a) {
    return a % 2 == 0 ? file::LockLevel::kRecord : file::LockLevel::kPage;
  }
  // Record-level accounts are one 64-byte record; page-level ones start
  // with one page.
  static std::uint64_t SizeOf(int a) { return a % 2 == 0 ? 64 : kBlockSize; }
  static std::span<std::uint8_t> AsBytes(std::int64_t& v) {
    return {reinterpret_cast<std::uint8_t*>(&v), sizeof(v)};
  }

  void Transfer(Driver& d, int m) {
    const int from = static_cast<int>(rng_.Below(kAccounts));
    int to = static_cast<int>(rng_.Below(kAccounts - 1));
    if (to >= from) ++to;
    const std::int64_t amount = 1 + static_cast<std::int64_t>(rng_.Below(100));
    agent::TransactionAgentHost& host = *d.facility().machine(m).txn_agent;
    agent::ProcessContext& p = processes_[m];
    d.BeginOp(OpClass::kUpdate);
    auto t = d.Call(Api::kTBegin, [&] { return host.TBegin(p); });
    if (!t.ok()) {
      d.Fail("tbegin: " + t.error().ToString());
      d.EndOp();
      return;
    }
    auto step = [&]() -> Status {
      RHODOS_ASSIGN_OR_RETURN(
          ObjectDescriptor a,
          d.Call(Api::kTOpen, [&] { return host.TOpen(*t, names_[from]); }));
      RHODOS_ASSIGN_OR_RETURN(
          ObjectDescriptor b,
          d.Call(Api::kTOpen, [&] { return host.TOpen(*t, names_[to]); }));
      std::int64_t bal_a = 0, bal_b = 0;
      RHODOS_RETURN_IF_ERROR(d.Call(Api::kTPread, [&] {
                                return host.TPread(*t, a, 0, AsBytes(bal_a),
                                                   txn::ReadIntent::kForUpdate);
                              }));
      RHODOS_RETURN_IF_ERROR(d.Call(Api::kTPread, [&] {
                                return host.TPread(*t, b, 0, AsBytes(bal_b),
                                                   txn::ReadIntent::kForUpdate);
                              }));
      if (bal_a != balances_[from] || bal_b != balances_[to]) {
        return Error{ErrorCode::kInternal,
                     "balance differs from the shadow model"};
      }
      bal_a -= amount;
      bal_b += amount;
      RHODOS_RETURN_IF_ERROR(d.Call(Api::kTPwrite, [&] {
                                return host.TPwrite(*t, a, 0, AsBytes(bal_a));
                              }));
      RHODOS_RETURN_IF_ERROR(d.Call(Api::kTPwrite, [&] {
                                return host.TPwrite(*t, b, 0, AsBytes(bal_b));
                              }));
      d.NoteUserBytesWritten(2 * sizeof(std::int64_t));
      return OkStatus();
    };
    Status st = step();
    if (st.ok()) {
      st = d.Call(Api::kTEnd, [&] { return host.TEnd(*t, p); });
      if (st.ok()) {
        balances_[from] -= amount;
        balances_[to] += amount;
      }
    } else {
      (void)d.Call(Api::kTAbort, [&] { return host.TAbort(*t, p); });
    }
    if (!st.ok()) d.Fail("transfer: " + st.error().ToString());
    d.EndOp();
  }

  void AuditSome(Driver& d, int m) {
    int accounts[kAuditAccounts];
    for (std::size_t i = 0; i < kAuditAccounts; ++i) {
      accounts[i] = static_cast<int>(rng_.Below(kAccounts));
    }
    agent::TransactionAgentHost& host = *d.facility().machine(m).txn_agent;
    agent::ProcessContext& p = processes_[m];
    d.BeginOp(OpClass::kRead);
    auto t = d.Call(Api::kTBegin, [&] { return host.TBegin(p); });
    if (!t.ok()) {
      d.Fail("tbegin: " + t.error().ToString());
      d.EndOp();
      return;
    }
    Status st = OkStatus();
    for (int a : accounts) {
      auto od = d.Call(Api::kTOpen, [&] { return host.TOpen(*t, names_[a]); });
      if (!od.ok()) {
        st = Error{od.error()};
        break;
      }
      std::int64_t bal = 0;
      auto n = d.Call(Api::kTPread, [&] {
        return host.TPread(*t, *od, 0, AsBytes(bal));
      });
      if (!n.ok()) {
        st = Error{n.error()};
        break;
      }
      if (bal != balances_[a]) {
        st = Error{ErrorCode::kInternal,
                   "audited balance differs from the shadow model"};
        break;
      }
    }
    if (st.ok()) {
      st = d.Call(Api::kTEnd, [&] { return host.TEnd(*t, p); });
    } else {
      (void)d.Call(Api::kTAbort, [&] { return host.TAbort(*t, p); });
    }
    if (!st.ok()) d.Fail("audit: " + st.error().ToString());
    d.EndOp();
  }

  void Stat(Driver& d, int m) {
    const int a = static_cast<int>(rng_.Below(kAccounts));
    agent::FileAgent& agent = *d.facility().machine(m).file_agent;
    d.BeginOp(OpClass::kMeta);
    auto od = d.Call(Api::kOpen, [&] { return agent.Open(names_[a]); });
    if (!od.ok()) d.Fail("open: " + od.error().ToString());
    d.EndOp();
    if (!od.ok()) return;
    d.BeginOp(OpClass::kMeta);
    auto attrs = d.Call(Api::kGetattr, [&] { return agent.GetAttribute(*od); });
    const std::uint64_t expected = a % 2 == 0 ? SizeOf(a) : 2 * kBlockSize;
    if (!attrs.ok()) {
      d.Fail("getattr: " + attrs.error().ToString());
    } else if (attrs->size != expected) {
      d.Fail("getattr size " + std::to_string(attrs->size));
    }
    d.EndOp();
    d.BeginOp(OpClass::kMeta);
    if (auto st = d.Call(Api::kClose, [&] { return agent.Close(*od); });
        !st.ok()) {
      d.Fail("close: " + st.error().ToString());
    }
    d.EndOp();
  }

  std::vector<agent::ProcessContext> processes_;
  std::vector<naming::AttributedName> names_;
  std::vector<std::int64_t> balances_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "hot_read_fanout") return std::make_unique<HotReadFanout>(seed);
  if (name == "sharded_mixed_io") return std::make_unique<ShardedMixedIo>(seed);
  if (name == "txn_ledger") return std::make_unique<TxnLedger>(seed);
  return nullptr;
}

// --- Reporting ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Summary of one class's simulated latencies, in microseconds.
struct LatencySummary {
  double mean = 0;
  double tail = 0;  // mean of the slowest 1%: the latency beyond p99
  double p50 = 0;   // nearest-rank percentiles (readable table only)
  double p99 = 0;
};

LatencySummary SummarizeUs(std::vector<SimTime> v) {
  LatencySummary s;
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const auto us = [](double ns) { return ns / kSimMicrosecond; };
  const auto rank = [&](double q) {
    const auto r = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return std::clamp<std::size_t>(r, 1, v.size()) - 1;
  };
  double sum = 0;
  for (SimTime t : v) sum += static_cast<double>(t);
  s.mean = us(sum / static_cast<double>(v.size()));
  const std::size_t from = rank(0.99);
  double tail = 0;
  for (std::size_t i = from; i < v.size(); ++i) {
    tail += static_cast<double>(v[i]);
  }
  s.tail = us(tail / static_cast<double>(v.size() - from));
  s.p50 = us(static_cast<double>(v[rank(0.50)]));
  s.p99 = us(static_cast<double>(v[from]));
  return s;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Counter deltas between two StatsSnapshot()s (the second source).
class Delta {
 public:
  Delta(const obs::MetricsSnapshot& a, const obs::MetricsSnapshot& b) {
    std::map<std::string, std::uint64_t> base(a.counters.begin(),
                                              a.counters.end());
    for (const auto& [name, value] : b.counters) {
      values_[name] = value - base[name];
    }
  }
  // hits ÷ (hits + misses) of the cache counted under `prefix`.
  double HitRatio(const std::string& prefix) const {
    const double hits = (*this)[prefix + ".hits"];
    const double all = hits + (*this)[prefix + ".misses"];
    return all == 0 ? 0 : hits / all;
  }
  double operator[](const std::string& name) const {
    const auto it = values_.find(name);
    if (it == values_.end()) {
      std::fprintf(stderr, "perfbench: metric %s missing from the schema\n",
                   name.c_str());
      std::exit(3);
    }
    return static_cast<double>(it->second);
  }

 private:
  std::map<std::string, std::uint64_t> values_;
};

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--spans") {
      a.spans_path = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || a.workload.empty() || a.seconds <= 0) {
    return std::nullopt;
  }
  return a;
}

// Every run has at least this many rounds, so setup_s is a median.
constexpr int kMinRounds = 3;

// Two-source agreement: the per-operation deltas the driver summed from the
// layers' own stats must equal the registry's totals over the same window.
bool Agrees(const Counted& c, const obs::MetricsSnapshot& from,
            const obs::MetricsSnapshot& to) {
  const Delta all(from, to);
  const double refs =
      all["disk.read_references"] + all["disk.write_references"] +
      all["disk.stable.read_references"] + all["disk.stable.write_references"];
  if (refs == static_cast<double>(c.disk_refs) &&
      all["bus.calls"] == static_cast<double>(c.exchanges) &&
      all["txn.log.forces"] == static_cast<double>(c.forces)) {
    return true;
  }
  std::fprintf(stderr,
               "perfbench: AGREEMENT CHECK FAILED: driver summed refs=%" PRIu64
               " exchanges=%" PRIu64 " forces=%" PRIu64
               ", registry says refs=%.0f exchanges=%.0f forces=%.0f\n",
               c.disk_refs, c.exchanges, c.forces, refs, all["bus.calls"],
               all["txn.log.forces"]);
  return false;
}

// One round: a fresh facility is set up (timed: construct, preload, warm
// up), then the measured prefix runs on it. Every round of a run repeats
// the same seeded work, so rounds spread the set-up and throughput samples
// over the whole run and must reproduce each other's sim results exactly.
struct Round {
  std::unique_ptr<Workload> wl;
  std::unique_ptr<core::DistributedFileFacility> f;
  std::unique_ptr<Driver> d;  // declared after f: it points into f
  double setup_s = 0;
  sim::DiskGeometry geometry;
  obs::MetricsSnapshot snap0;  // before the prefix
  obs::MetricsSnapshot snap1;  // after it
  SimTime prefix_sim = 0;

  // What must repeat exactly from round to round.
  std::vector<SimTime> Fingerprint() const {
    std::vector<SimTime> v = {static_cast<SimTime>(d->ops()), prefix_sim,
                              static_cast<SimTime>(d->counted().disk_refs),
                              static_cast<SimTime>(d->counted().exchanges),
                              static_cast<SimTime>(d->counted().forces)};
    for (int c = 0; c < kClassCount; ++c) {
      const auto& lat = d->latencies(static_cast<OpClass>(c));
      v.push_back(static_cast<SimTime>(lat.size()));
      for (SimTime t : lat) v.back() += t;
    }
    return v;
  }
};

// Returns null (after saying why) when set-up or warm-up failed.
std::unique_ptr<Round> RunRound(const Args& args) {
  auto r = std::make_unique<Round>();
  const auto t0 = WallClock::now();
  r->wl = MakeWorkload(args.workload, args.seed);
  r->f = std::make_unique<core::DistributedFileFacility>(r->wl->Config());
  r->geometry = r->f->config().geometry;
  if (Status st = r->wl->Setup(*r->f); !st.ok()) {
    std::fprintf(stderr, "perfbench: setup failed: %s\n",
                 st.error().ToString().c_str());
    return nullptr;
  }
  Driver warm(r->f.get(), r->wl->block_ops);
  for (std::size_t s = 0; s < r->wl->warmup_steps; ++s) r->wl->Step(warm);
  if (warm.failed() != 0) {
    std::fprintf(stderr, "perfbench: %" PRIu64 " warm-up ops failed\n",
                 warm.failed());
    return nullptr;
  }
  r->setup_s = WallSeconds(t0, WallClock::now());

  r->d = std::make_unique<Driver>(r->f.get(), r->wl->block_ops);
  r->snap0 = r->f->StatsSnapshot();
  const SimTime sim0 = r->f->clock().Now();
  r->d->SetPhase(Phase::kPrefix);
  for (std::size_t s = 0; s < r->wl->prefix_steps; ++s) r->wl->Step(*r->d);
  r->snap1 = r->f->StatsSnapshot();
  r->prefix_sim = r->f->clock().Now() - sim0;
  return r;
}

int Run(const Args& args) {
  if (!MakeWorkload(args.workload, args.seed)) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const auto start = WallClock::now();
  const auto deadline =
      start + std::chrono::duration_cast<WallClock::duration>(
                  std::chrono::duration<double>(args.seconds));
  const auto untraced_end = args.trace ? start + (deadline - start) / 2
                                       : deadline;

  // --- Rounds: set-up + measured prefix, until the untraced time is up ---
  std::unique_ptr<Round> first;  // its prefix gives every sim/count metric
  std::unique_ptr<Round> last;   // the traced phase continues on it
  std::vector<double> setup_s;
  std::vector<double> wall_blocks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double peak_rss_mib = 0;
  bool correct = true;
  for (int round = 0; round < kMinRounds || WallClock::now() < untraced_end;
       ++round) {
    last.reset();  // one facility alive at a time
    std::unique_ptr<Round> r = RunRound(args);
    if (!r) return 1;
    if (!Agrees(r->d->counted(), r->snap0, r->snap1)) return 4;
    if (first && r->Fingerprint() != first->Fingerprint()) {
      std::fprintf(stderr, "perfbench: round %d did not repeat round 0's "
                   "simulation exactly\n", round);
      return 4;
    }
    if (!r->wl->Audit(*r->f)) {
      std::fprintf(stderr, "perfbench: end-of-round audit failed\n");
      correct = false;
    }
    setup_s.push_back(r->setup_s);
    wall_blocks.insert(wall_blocks.end(), r->d->wall_blocks().begin(),
                       r->d->wall_blocks().end());
    attempted += r->d->ops();
    failed += r->d->failed();
    if (!first) {
      // Peak memory over set-up and the prefix; later rounds free their
      // facility before building the next, so they repeat it.
      rusage ru{};
      getrusage(RUSAGE_SELF, &ru);
      peak_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;
      first = std::move(r);
      first->wl.reset();  // only the driver's records are read from here on
      first->d->Detach();
      first->f.reset();
    } else {
      last = std::move(r);
    }
  }

  // --- Traced phase (per-layer self times) on the last round's facility ---
  if (args.trace) {
    Driver& t = *last->d;
    const std::uint64_t ops_before = t.ops();
    const std::uint64_t failed_before = t.failed();
    const Counted counted_before = t.counted();
    const obs::MetricsSnapshot snap = last->f->StatsSnapshot();
    t.SetPhase(Phase::kTraced);
    while (WallClock::now() < deadline || t.traced_blocks().size() < 3) {
      last->wl->Step(t);
    }
    t.SetPhase(Phase::kDone);
    if (!Agrees(t.counted() - counted_before, snap,
                last->f->StatsSnapshot())) {
      return 4;
    }
    if (!last->wl->Audit(*last->f)) {
      std::fprintf(stderr, "perfbench: end-of-run audit failed\n");
      correct = false;
    }
    attempted += t.ops() - ops_before;
    failed += t.failed() - failed_before;
  }
  if (failed != 0) correct = false;

  // --- End-to-end metrics (untraced) ---
  const Driver& d = *first->d;
  const Delta p(first->snap0, first->snap1);
  const double ops = static_cast<double>(d.ops());
  const double sim_s = static_cast<double>(first->prefix_sim) / kSimSecond;
  const double ops_per_wall = Median(wall_blocks);
  std::vector<Metric> e2e;
  e2e.push_back({"sim_ops_per_s", Ratio(ops, sim_s), "1/sim_s"});
  std::size_t min_samples = SIZE_MAX;
  LatencySummary lat[kClassCount];
  for (int c = 0; c < kClassCount; ++c) {
    const auto& v = d.latencies(static_cast<OpClass>(c));
    min_samples = std::min(min_samples, v.size());
    lat[c] = SummarizeUs(v);
    const std::string cls = kClassNames[c];
    e2e.push_back({cls + "_mean_sim_us", lat[c].mean, "sim_us"});
    e2e.push_back({cls + "_tail_sim_us", lat[c].tail, "sim_us"});
  }
  e2e.push_back({"disk_refs_per_op",
                 Ratio(static_cast<double>(d.counted().disk_refs), ops),
                 "refs/op"});
  e2e.push_back({"msgs_per_op",
                 Ratio(static_cast<double>(d.counted().exchanges), ops),
                 "msgs/op"});
  e2e.push_back(
      {"write_amp",
       Ratio((p["disk.fragments_written"] +
              p["disk.stable.fragments_written"]) * kFragmentSize,
             static_cast<double>(d.user_bytes_written())),
       "ratio"});
  e2e.push_back({"setup_s", Median(setup_s), "s"});
  e2e.push_back({"peak_rss_mib", peak_rss_mib, "MiB"});
  if (min_samples < 1000) {
    std::fprintf(stderr,
                 "perfbench: a latency class has only %zu samples (< 1000)\n",
                 min_samples);
    correct = false;
  }

  // --- Per-layer metrics ---
  std::vector<Metric> layer;
  auto add = [&](const std::string& name, double v, const std::string& unit) {
    layer.push_back({name, v, unit});
  };
  add("ops_per_wall_s", ops_per_wall, "1/s");
  const double reads =
      static_cast<double>(d.latencies(OpClass::kRead).size());
  const double updates =
      static_cast<double>(d.latencies(OpClass::kUpdate).size());
  add("agent.cache_hit_ratio", p.HitRatio("agent.cache"), "ratio");
  add("agent.fast_open_ratio",
      Ratio(p["agent.callback_fast_opens"], p["agent.descriptors_issued"]),
      "ratio");
  add("agent.peer_fetch_ratio",
      Ratio(p["agent.peer_fetches"],
            p["agent.peer_fetches"] + p["agent.peer_fallbacks"]),
      "ratio");
  add("agent.writeback_blocks_per_batch",
      Ratio(p["agent.cache.writebacks"], p["agent.writeback_batches"]),
      "blocks");
  add("agent.name_cache_hit_ratio",
      Ratio(p["agent.name_cache_hits"], static_cast<double>(d.name_opens())),
      "ratio");
  for (int a = 0; a < static_cast<int>(Api::kCount); ++a) {
    if (!kApis[a].reported) continue;
    std::vector<double> ns(d.call_wall_ns(static_cast<Api>(a)).begin(),
                           d.call_wall_ns(static_cast<Api>(a)).end());
    add(std::string(kApis[a].layer) + ".call_wall_ns." + kApis[a].name,
        Median(std::move(ns)), "ns");
  }
  add("service.grants_per_read", Ratio(p["file.callback_grants"], reads),
      "count/op");
  add("service.redirects_per_read", Ratio(p["file.redirects_issued"], reads),
      "count/op");
  add("service.breaks_per_update", Ratio(p["file.callback_breaks"], updates),
      "count/op");
  add("txn_agent.page_cache_hit_ratio", p.HitRatio("txn_agent.page_cache"),
      "ratio");
  add("bus.sim_us_per_op",
      Ratio(p["bus.time_charged_ns"] / kSimMicrosecond, ops), "sim_us/op");
  add("bus.kib_per_op", Ratio(p["bus.bytes_moved"] / 1024.0, ops), "KiB/op");
  add("rpc.retries_per_op", Ratio(p["rpc.retries"], ops), "count/op");
  add("placement.lookups_per_op", Ratio(p["placement.lookups"], ops),
      "count/op");
  add("placement.reroutes", p["placement.reroutes"], "count");
  add("naming.index_probes_per_open",
      Ratio(p["naming.index_probes"], static_cast<double>(d.name_opens())),
      "count/op");
  add("file.cache_hit_ratio", p.HitRatio("file.cache"), "ratio");
  add("file.fit_loads_per_op", Ratio(p["file.fit_loads"], ops), "count/op");
  add("file.fit_stores_per_op", Ratio(p["file.fit_stores"], ops), "count/op");
  add("file.readahead_useful_ratio",
      Ratio(p["file.readahead_hits"], p["file.readahead_issued"]), "ratio");
  add("disk.read_refs_per_op", Ratio(p["disk.read_references"], ops),
      "count/op");
  add("disk.write_refs_per_op", Ratio(p["disk.write_references"], ops),
      "count/op");
  add("disk.stable_write_refs_per_op",
      Ratio(p["disk.stable.write_references"], ops), "count/op");
  // The main devices' time split, derived from DiskStats and DiskGeometry
  // (every disk of a workload shares one geometry). It must add up to the
  // time the disks charged — a third consistency check.
  {
    const sim::DiskGeometry& g = first->geometry;
    const double refs =
        p["disk.read_references"] + p["disk.write_references"];
    const double seek = refs * static_cast<double>(g.seek_base) +
                        p["disk.tracks_seeked"] *
                            static_cast<double>(g.seek_per_track);
    const double rotate = refs * static_cast<double>(g.rotational_latency);
    const double transfer =
        (p["disk.fragments_read"] + p["disk.fragments_written"]) *
        static_cast<double>(g.transfer_per_fragment);
    if (seek + rotate + transfer != p["disk.time_charged_ns"]) {
      std::fprintf(stderr,
                   "perfbench: AGREEMENT CHECK FAILED: disk time split "
                   "%.0f ns != charged %.0f ns\n",
                   seek + rotate + transfer, p["disk.time_charged_ns"]);
      return 4;
    }
    add("disk.seek_sim_us_per_op", Ratio(seek / kSimMicrosecond, ops),
        "sim_us/op");
    add("disk.rotate_sim_us_per_op", Ratio(rotate / kSimMicrosecond, ops),
        "sim_us/op");
    add("disk.transfer_sim_us_per_op", Ratio(transfer / kSimMicrosecond, ops),
        "sim_us/op");
    add("disk.tracks_per_seek", Ratio(p["disk.tracks_seeked"], refs),
        "tracks");
  }
  add("disk.track_cache_hit_ratio", p.HitRatio("disk.cache"), "ratio");
  add("disk.vec_merge_ratio",
      Ratio(p["disk.vec_merged_runs"], p["disk.vec_runs"]), "ratio");
  add("disk.stable_sim_us_per_op",
      Ratio(p["disk.stable.time_charged_ns"] / kSimMicrosecond, ops),
      "sim_us/op");
  add("txn.forces_per_commit", Ratio(p["txn.log.forces"], p["txn.commits"]),
      "count/op");
  add("txn.records_per_batch",
      Ratio(p["txn.group_commit.records"], p["txn.group_commit.batches"]),
      "count");
  add("txn.wal_share",
      Ratio(p["txn.wal_commits"],
            p["txn.wal_commits"] + p["txn.shadow_commits"]),
      "ratio");
  add("lock.grants_per_txn", Ratio(p["lock.grants"], p["txn.begins"]),
      "count/op");
  // With one driver thread no transaction can wait for another's lock.
  if (p["lock.wait_time_ns"] != 0) {
    std::fprintf(stderr, "perfbench: %.0f ns of lock waits in a closed loop\n",
                 p["lock.wait_time_ns"]);
    correct = false;
  }
  std::uint64_t traced_ops = 0;
  if (args.trace) {
    const Driver& t = *last->d;
    traced_ops = t.traced_ops();
    const double traced = static_cast<double>(traced_ops);
    for (std::size_t l = 0; l < kTraceLayerCount; ++l) {
      add(std::string(kTraceLayers[l]) + ".self_sim_us_per_op",
          Ratio(static_cast<double>(t.layer_self_ns(l)) / kSimMicrosecond,
                traced),
          "sim_us/op");
    }
    add("trace.unattributed_sim_us_per_op",
        Ratio(static_cast<double>(t.unattributed_ns()) / kSimMicrosecond,
              traced),
        "sim_us/op");
    add("trace.overhead_ratio",
        Ratio(Median(t.traced_blocks()), ops_per_wall), "ratio");
    if (!args.spans_path.empty()) t.WriteSpans(args.spans_path);
  }

  // --- Output: a readable table, then the one-line JSON result ---
  std::printf("workload %s  seed %" PRIu64 "  ops %" PRIu64
              " (%zu rounds of %" PRIu64 ", traced %" PRIu64
              ")  failed %" PRIu64 "  error_rate %.6g\n",
              args.workload.c_str(), args.seed, attempted, setup_s.size(),
              d.ops(), traced_ops, failed,
              Ratio(static_cast<double>(failed),
                    static_cast<double>(attempted)));
  std::printf("samples: read %zu  update %zu  meta %zu\n",
              d.latencies(OpClass::kRead).size(),
              d.latencies(OpClass::kUpdate).size(),
              d.latencies(OpClass::kMeta).size());
  std::printf("p50/p99 sim_us: read %g/%g  update %g/%g  meta %g/%g\n",
              lat[0].p50, lat[0].p99, lat[1].p50, lat[1].p99, lat[2].p50,
              lat[2].p99);
  std::printf("-- end-to-end (untraced) --\n");
  for (const Metric& m : e2e) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("-- per layer%s --\n",
              args.trace ? " (self times from the traced phase)" : "");
  for (const Metric& m : layer) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const std::vector<Metric>& reported = args.trace ? layer : e2e;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + reported[i].name + "\": {\"value\": " +
            FormatNumber(reported[i].value) + ", \"unit\": \"" +
            reported[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace rhodos::perfbench

int main(int argc, char** argv) {
  // Keep freed memory in the heap rather than returning it to the kernel:
  // every round after the first then rebuilds its facility in memory that
  // is already mapped. Otherwise glibc hands some rounds' large blocks back
  // and forth with mmap, and whether a round pays ~20k page faults (a third
  // of a small set-up) would depend on heap layout, not on the facility.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
  const auto args = rhodos::perfbench::ParseArgs(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench --workload hot_read_fanout|sharded_mixed_io|"
                 "txn_ledger --seed N --seconds S [--trace 0|1] "
                 "[--spans FILE]\n");
    return 2;
  }
  return rhodos::perfbench::Run(*args);
}
