// E16 — messages per operation, regenerated from the MetricsRegistry.
//
// The paper's agent layer exists to keep client operations off the
// network: "caching at each level" (§2.2) means a warm read or a
// delayed write costs ZERO messages, and the idempotent protocol (§3)
// means every cold operation is a fixed, small number of request/reply
// exchanges. This bench measures the exchange count per open / read /
// write / write+close straight from the facility's metrics registry (`bus.calls` in
// `Facility::StatsSnapshot()`), not from ad-hoc bus counters — the same
// numbers an operator would read out of DumpStats().
#include <algorithm>
#include <cstdint>
#include <vector>

#include "bench/bench_util.h"

namespace rhodos::bench {
namespace {

constexpr std::size_t kBlock = 8 * 1024;  // one service block

std::uint64_t BusCalls(core::DistributedFileFacility& f) {
  for (const auto& [name, v] : f.StatsSnapshot().counters) {
    if (name == "bus.calls") return v;
  }
  return 0;
}

struct Client {
  core::DistributedFileFacility facility;
  core::Machine* machine = nullptr;

  explicit Client(bool delayed_write) : facility([&] {
    core::FacilityConfig c = DefaultFacility();
    c.agent.delayed_write = delayed_write;
    return c;
  }()) {
    machine = &facility.AddMachine();
    auto od = *machine->file_agent->Create(naming::ByName("target"),
                                           file::ServiceType::kBasic);
    (void)machine->file_agent->Write(od, Pattern(4 * kBlock));
    (void)machine->file_agent->Close(od);
  }
};

// Exchanges to open an existing file by attributed name and close it
// again. The agent that created the file still holds its callback
// promise, so even this first open is zero-exchange; the cold cost
// (resolution + open) lives in BM_MessagesPerRead's cold row, which
// crashes the agent first.
void BM_MessagesPerOpen(benchmark::State& state) {
  Client c(/*delayed_write=*/true);
  std::uint64_t ops = 0, calls = 0;
  for (auto _ : state) {
    c.facility.ResetStats();
    auto od = c.machine->file_agent->Open(naming::ByName("target"));
    if (!od.ok()) state.SkipWithError("open failed");
    calls += BusCalls(c.facility);
    (void)c.machine->file_agent->Close(*od);
    ++ops;
  }
  state.counters["msgs_per_open"] =
      static_cast<double>(calls) / static_cast<double>(ops);
}
BENCHMARK(BM_MessagesPerOpen)->Iterations(16);

// Warm re-open: the binding sits in the agent's name cache (validated by
// the naming generation counter) and the open reply carries attributes +
// version token, so a re-open is ONE exchange and zero naming
// resolutions — the open row used to cost two exchanges plus a
// resolution.
void BM_MessagesPerWarmReopen(benchmark::State& state) {
  Client c(/*delayed_write=*/true);
  // Prime the name cache.
  auto warm = c.machine->file_agent->Open(naming::ByName("target"));
  if (!warm.ok()) state.SkipWithError("open failed");
  (void)c.machine->file_agent->Close(*warm);
  const std::uint64_t resolutions_before =
      c.facility.naming().stats().resolutions;
  std::uint64_t ops = 0, calls = 0;
  for (auto _ : state) {
    c.facility.ResetStats();
    auto od = c.machine->file_agent->Open(naming::ByName("target"));
    if (!od.ok()) state.SkipWithError("open failed");
    calls += BusCalls(c.facility);
    (void)c.machine->file_agent->Close(*od);
    ++ops;
  }
  state.counters["msgs_per_warm_reopen"] =
      static_cast<double>(calls) / static_cast<double>(ops);
  state.counters["naming_resolutions"] = static_cast<double>(
      c.facility.naming().stats().resolutions - resolutions_before);
}
BENCHMARK(BM_MessagesPerWarmReopen)->Iterations(16);

// Warm open under a held callback promise: the server promised to notify
// us of any change, so there is NOTHING to validate — the open is
// assembled entirely from the agent's cached attributes. This row is a
// GATE, not a measurement: any exchange at all fails the bench.
void BM_MessagesPerWarmOpenUnderCallback(benchmark::State& state) {
  Client c(/*delayed_write=*/true);
  // Prime: one open grants the callback and fills the name cache.
  auto warm = c.machine->file_agent->Open(naming::ByName("target"));
  if (!warm.ok()) state.SkipWithError("open failed");
  (void)c.machine->file_agent->Close(*warm);
  std::uint64_t ops = 0, calls = 0;
  for (auto _ : state) {
    c.facility.ResetStats();
    auto od = c.machine->file_agent->Open(naming::ByName("target"));
    if (!od.ok()) state.SkipWithError("open failed");
    calls += BusCalls(c.facility);
    (void)c.machine->file_agent->Close(*od);
    ++ops;
  }
  if (calls != 0) {
    state.SkipWithError("warm open under callback cost an exchange");
  }
  state.counters["msgs_per_warm_open_cb"] =
      static_cast<double>(calls) / static_cast<double>(ops);
  state.counters["callback_fast_opens"] =
      static_cast<double>(c.machine->file_agent->stats().callback_fast_opens);
}
BENCHMARK(BM_MessagesPerWarmOpenUnderCallback)->Iterations(16);

// Warm read under a held callback promise — same gate: zero exchanges, or
// the bench fails itself.
void BM_MessagesPerWarmReadUnderCallback(benchmark::State& state) {
  Client c(/*delayed_write=*/true);
  auto od = *c.machine->file_agent->Open(naming::ByName("target"));
  std::vector<std::uint8_t> out(kBlock);
  (void)c.machine->file_agent->Pread(od, 0, out);  // prime the block
  std::uint64_t ops = 0, calls = 0;
  for (auto _ : state) {
    c.facility.ResetStats();
    if (!c.machine->file_agent->Pread(od, 0, out).ok()) {
      state.SkipWithError("read failed");
    }
    calls += BusCalls(c.facility);
    ++ops;
  }
  if (calls != 0) {
    state.SkipWithError("warm read under callback cost an exchange");
  }
  state.counters["msgs_per_warm_read_cb"] =
      static_cast<double>(calls) / static_cast<double>(ops);
  (void)c.machine->file_agent->Close(od);
}
BENCHMARK(BM_MessagesPerWarmReadUnderCallback)->Iterations(16);

// One-block positional read: first cold (descends to the service), then
// warm (the agent cache answers — the §2.2 zero-message case).
void BM_MessagesPerRead(benchmark::State& state) {
  const bool warm = state.range(0) == 1;
  Client c(/*delayed_write=*/true);
  auto od = *c.machine->file_agent->Open(naming::ByName("target"));
  std::vector<std::uint8_t> out(kBlock);
  // Warm the agent cache once for the warm case.
  if (warm) (void)c.machine->file_agent->Pread(od, 0, out);
  std::uint64_t ops = 0, calls = 0;
  for (auto _ : state) {
    ObjectDescriptor target = od;
    if (!warm) {
      c.machine->file_agent->Crash();  // drop the agent cache
      target = *c.machine->file_agent->Open(naming::ByName("target"));
    }
    c.facility.ResetStats();
    if (!c.machine->file_agent->Pread(target, 0, out).ok()) {
      state.SkipWithError("read failed");
    }
    calls += BusCalls(c.facility);
    ++ops;
  }
  state.counters["msgs_per_read"] =
      static_cast<double>(calls) / static_cast<double>(ops);
}
BENCHMARK(BM_MessagesPerRead)
    ->Arg(0)  // cold: agent cache dropped first
    ->Arg(1)  // warm: served from the agent cache
    ->Iterations(16);

// Cold four-block positional read: the agent cache is dropped, so every
// block misses, and the missing blocks form one contiguous run that
// travels in ONE exchange (§4: one reference per contiguous span). This
// row is a GATE: a cold run that costs more than one exchange fails the
// bench, as does a read that returns the wrong bytes.
void BM_MessagesPerColdRunRead(benchmark::State& state) {
  Client c(/*delayed_write=*/true);
  const auto expected = Pattern(4 * kBlock);
  std::vector<std::uint8_t> out(4 * kBlock);
  std::uint64_t ops = 0, calls = 0, worst = 0;
  for (auto _ : state) {
    c.machine->file_agent->Crash();  // drop the agent cache
    auto od = *c.machine->file_agent->Open(naming::ByName("target"));
    c.facility.ResetStats();
    auto n = c.machine->file_agent->Pread(od, 0, out);
    const std::uint64_t exchanges = BusCalls(c.facility);
    if (!n.ok() || *n != out.size() || out != expected) {
      state.SkipWithError("cold run read failed or returned wrong bytes");
    }
    worst = std::max(worst, exchanges);
    calls += exchanges;
    ++ops;
  }
  if (worst > 1) {
    state.SkipWithError("a cold four-block read cost more than one exchange");
  }
  state.counters["msgs_per_cold_run_read"] =
      static_cast<double>(calls) / static_cast<double>(ops);
}
BENCHMARK(BM_MessagesPerColdRunRead)->Iterations(16);

// One-block positional write under both agent policies: delayed write
// buffers locally (0 messages until close), write-through pays per write.
void BM_MessagesPerWrite(benchmark::State& state) {
  const bool delayed = state.range(0) == 1;
  Client c(delayed);
  auto od = *c.machine->file_agent->Open(naming::ByName("target"));
  const auto data = Pattern(kBlock);
  std::uint64_t ops = 0, calls = 0;
  for (auto _ : state) {
    c.facility.ResetStats();
    if (!c.machine->file_agent->Pwrite(od, 0, data).ok()) {
      state.SkipWithError("write failed");
    }
    calls += BusCalls(c.facility);
    ++ops;
  }
  state.counters["msgs_per_write"] =
      static_cast<double>(calls) / static_cast<double>(ops);
  (void)c.machine->file_agent->Close(od);
}
BENCHMARK(BM_MessagesPerWrite)
    ->Arg(0)  // write-through
    ->Arg(1)  // delayed write
    ->Iterations(16);

// One-block write then close with a delayed-write agent: the dirty block
// and the close travel as ONE PwriteVec batch. Warm, the agent holds its
// callback promise, so the open is agent-local and the batch carries a
// sync; after an agent crash the open goes to the server and the batch
// carries the close. This row is a GATE: a write+close that costs more
// than one exchange fails the bench.
void BM_MessagesPerWriteClose(benchmark::State& state) {
  const bool warm = state.range(0) == 1;
  Client c(/*delayed_write=*/true);
  const auto data = Pattern(kBlock);
  std::uint64_t ops = 0, calls = 0, worst = 0;
  for (auto _ : state) {
    if (!warm) c.machine->file_agent->Crash();  // forget the promise
    auto od = c.machine->file_agent->Open(naming::ByName("target"));
    if (!od.ok()) state.SkipWithError("open failed");
    c.facility.ResetStats();
    if (!c.machine->file_agent->Pwrite(*od, 0, data).ok() ||
        !c.machine->file_agent->Close(*od).ok()) {
      state.SkipWithError("write or close failed");
    }
    const std::uint64_t exchanges = BusCalls(c.facility);
    worst = std::max(worst, exchanges);
    calls += exchanges;
    ++ops;
  }
  if (worst > 1) {
    state.SkipWithError("a one-block write and close cost more than one "
                        "exchange");
  }
  state.counters["msgs_per_write_close"] =
      static_cast<double>(calls) / static_cast<double>(ops);
}
BENCHMARK(BM_MessagesPerWriteClose)
    ->Arg(0)  // after an agent crash: the batch closes the server's open
    ->Arg(1)  // warm: callback-local open, the batch syncs
    ->Iterations(16);

}  // namespace
}  // namespace rhodos::bench

RHODOS_BENCH_MAIN();
