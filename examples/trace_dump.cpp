// Trace dump: Figure 1 drawn from a live run.
//
// Enables the facility's TraceRecorder, drives three representative client
// operations (an agent write-through, an agent cold read, a replicated
// write) and prints each operation's span tree — the layers the request
// actually crossed, with simulated-time offsets. This is the tool
// docs/OBSERVABILITY.md walks through.
//
// Build & run:  ./build/examples/trace_dump
//   --schema    print the metric catalogue (one name per line) and exit;
//               it matches docs/metrics_schema.golden byte for byte
//   --json      print Facility::DumpStats(json=true) after the workload
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/facility.h"

using namespace rhodos;

namespace {

// The span trees read best when every operation descends the full stack,
// so the agent runs write-through and with a tiny cache.
core::FacilityConfig TraceFriendlyConfig() {
  core::FacilityConfig config;
  config.disk_count = 3;
  config.geometry.total_fragments = 16 * 1024;  // 32 MiB per disk
  config.agent.delayed_write = false;           // write-through
  config.agent.cache_blocks = 4;
  return config;
}

void PrintLatestTrace(core::DistributedFileFacility& facility,
                      const char* heading) {
  obs::TraceRecorder& tracer = facility.observability().tracer;
  std::printf("--- %s ---\n%s\n", heading,
              tracer.Render(tracer.LatestTraceId()).c_str());
}

int RunWorkload(bool dump_json) {
  core::DistributedFileFacility facility(TraceFriendlyConfig());
  core::Machine& machine = facility.AddMachine();
  facility.observability().tracer.Enable(true);

  // Op 1: create + write a file through the agent. Write-through, so the
  // write crosses agent -> rpc -> bus -> service -> file -> disk.
  auto od = machine.file_agent->Create(
      naming::AttributedName{{"name", "trace.txt"}}, file::ServiceType::kBasic);
  if (!od.ok()) {
    std::fprintf(stderr, "create failed: %s\n", od.error().ToString().c_str());
    return 1;
  }
  PrintLatestTrace(facility, "agent create");

  const std::string text = "every layer leaves a span";
  auto wrote = machine.file_agent->Pwrite(
      *od, 0,
      {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
  if (!wrote.ok()) {
    std::fprintf(stderr, "write failed: %s\n",
                 wrote.error().ToString().c_str());
    return 1;
  }
  PrintLatestTrace(facility, "agent write (write-through)");

  // Op 2: read it back cold — drop the agent cache first so the read has
  // to descend to the disk instead of stopping at the client cache.
  machine.file_agent->Crash();
  auto od2 = machine.file_agent->Open(naming::ByName("trace.txt"));
  if (!od2.ok()) {
    std::fprintf(stderr, "open failed: %s\n", od2.error().ToString().c_str());
    return 1;
  }
  std::vector<std::uint8_t> buffer(text.size());
  if (auto read = machine.file_agent->Pread(*od2, 0, buffer); !read.ok()) {
    std::fprintf(stderr, "read failed: %s\n",
                 read.error().ToString().c_str());
    return 1;
  }
  PrintLatestTrace(facility, "agent read (cold cache)");

  // Op 3: a replicated write-all — one client operation fanning out to
  // three replicas on three disks.
  auto group = facility.replication().CreateReplicated(
      file::ServiceType::kBasic, /*replica_count=*/3);
  if (!group.ok()) {
    std::fprintf(stderr, "replica group failed: %s\n",
                 group.error().ToString().c_str());
    return 1;
  }
  auto rep = facility.replication().Write(
      *group, 0,
      {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
  if (!rep.ok()) {
    std::fprintf(stderr, "replicated write failed: %s\n",
                 rep.error().ToString().c_str());
    return 1;
  }
  PrintLatestTrace(facility, "replicated write (write-all, 3 replicas)");

  if (dump_json) {
    std::printf("%s\n", facility.DumpStats(/*json=*/true).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool dump_json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--schema") == 0) {
      // The catalogue is fixed at construction; an empty facility carries
      // the complete name set.
      core::DistributedFileFacility facility;
      for (const auto& [name, kind] : facility.StatsSnapshot().Names()) {
        std::printf("%s %s\n", name.c_str(), kind.c_str());
      }
      return 0;
    }
    if (std::strcmp(argv[i], "--json") == 0) {
      dump_json = true;
      continue;
    }
    std::fprintf(stderr, "usage: %s [--schema] [--json]\n", argv[0]);
    return 2;
  }
  return RunWorkload(dump_json);
}
