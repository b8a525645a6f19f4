// E13 — idempotent operations make the file service "nearly stateless"
// (§3): "certain errors caused by computer failures and communication
// delays may lead to repeated execution of some operations. However, their
// repetition in RHODOS does not produce any uncertain effect."
//
// Workload: a positional write/read stream over a network that drops and
// duplicates messages at increasing rates. Columns: agent retries, handler
// executions beyond the logical operation count (the repetition the quote
// refers to), token-table replays (non-idempotent ops), and a correctness
// bit — the file must be byte-exact no matter the loss rate.
//
// Expected shape: retries and duplicate executions grow with the loss
// rate; correctness stays at 1 throughout.
#include "bench/bench_util.h"

namespace rhodos::bench {
namespace {

constexpr int kOps = 64;
constexpr std::size_t kOpBytes = 4096;

void BM_LossyWorkload(benchmark::State& state) {
  const double rate = static_cast<double>(state.range(0)) / 100.0;
  std::uint64_t retries = 0, extra_exec = 0, replays = 0, rounds = 0;
  std::uint64_t correct = 0;
  for (auto _ : state) {
    core::FacilityConfig cfg = DefaultFacility();
    cfg.network.drop_rate = rate;
    cfg.network.duplicate_rate = rate;
    cfg.agent.rpc.max_attempts = 128;
    cfg.agent.delayed_write = false;  // every op crosses the wire
    core::DistributedFileFacility facility(cfg);
    core::Machine& m = facility.AddMachine();

    auto od = m.file_agent->Create(naming::ByName("wire"),
                                   file::ServiceType::kBasic);
    if (!od.ok()) {
      state.SkipWithError("create failed");
      return;
    }
    const auto data = Pattern(kOps * kOpBytes, 7);
    bool all_ok = true;
    for (int i = 0; i < kOps; ++i) {
      all_ok &= m.file_agent
                    ->Pwrite(*od, static_cast<std::uint64_t>(i) * kOpBytes,
                             {data.data() + static_cast<std::size_t>(i) *
                                                kOpBytes,
                              kOpBytes})
                    .ok();
    }
    std::vector<std::uint8_t> out(data.size());
    m.file_agent->Crash();  // force reads through the wire too
    auto od2 = m.file_agent->Open(naming::ByName("wire"));
    all_ok &= od2.ok() && m.file_agent->Pread(*od2, 0, out).ok();
    correct += (all_ok && out == data) ? 1 : 0;

    retries += m.file_agent->rpc_retries();
    const auto& net = facility.bus().stats();
    extra_exec += net.duplicates + net.drops_reply;  // re-executed work
    replays += facility.file_server().stats().duplicate_replays;
    ++rounds;
  }
  state.counters["loss_rate_pct"] = static_cast<double>(state.range(0));
  state.counters["rpc_retries"] = static_cast<double>(retries) / rounds;
  state.counters["repeated_executions"] =
      static_cast<double>(extra_exec) / rounds;
  state.counters["token_replays"] = static_cast<double>(replays) / rounds;
  state.counters["correct"] = static_cast<double>(correct) / rounds;
}
BENCHMARK(BM_LossyWorkload)->Arg(0)->Arg(5)->Arg(15)->Arg(30)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

// The "nearly stateless" server: per-client state is bounded by the token
// table, not by the number of operations served.
void BM_ServerStatePerClient(benchmark::State& state) {
  for (auto _ : state) {
    core::FacilityConfig cfg = DefaultFacility();
    cfg.agent.delayed_write = false;  // every operation crosses the wire
    core::DistributedFileFacility facility(cfg);
    core::Machine& m = facility.AddMachine();
    auto od = m.file_agent->Create(naming::ByName("f"),
                                   file::ServiceType::kBasic);
    const auto chunk = Pattern(kOpBytes);
    for (int i = 0; i < 500; ++i) {
      (void)m.file_agent->Pwrite(*od, (i % 64) * kOpBytes, chunk);
    }
    // Positional data ops needed NO server-side memory: only the (single)
    // create consumed a token slot.
    state.counters["ops_served"] = 500;
    state.counters["requests_seen"] =
        static_cast<double>(facility.file_server().stats().requests);
  }
}
BENCHMARK(BM_ServerStatePerClient)->Iterations(1);

}  // namespace
}  // namespace rhodos::bench

RHODOS_BENCH_MAIN();
