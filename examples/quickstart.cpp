// Quickstart: bring up the RHODOS distributed file facility, create a file
// through a client machine's file agent, write and read it back.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <string>

#include "core/facility.h"

using namespace rhodos;

int main() {
  // 1. Assemble the facility: two simulated disks, one file service, a
  //    message bus, and the service layers of the paper's Figure 1.
  core::FacilityConfig config;
  config.disk_count = 2;
  config.geometry.total_fragments = 16 * 1024;  // 32 MiB per disk
  core::DistributedFileFacility facility(config);

  // 2. Add a client workstation. Every machine gets a file agent, a device
  //    agent and a transaction agent host (paper §3).
  core::Machine& machine = facility.AddMachine();

  // 3. Create a file under an attributed name. The agent returns an object
  //    descriptor (> 100000 for files).
  auto od = machine.file_agent->Create(
      naming::AttributedName{{"name", "hello.txt"}, {"owner", "demo"}},
      file::ServiceType::kBasic);
  if (!od.ok()) {
    std::fprintf(stderr, "create failed: %s\n",
                 od.error().ToString().c_str());
    return 1;
  }
  std::printf("created 'hello.txt', object descriptor = %lld\n",
              static_cast<long long>(*od));

  // 4. Write through the agent's cursor; the agent caches the data
  //    (delayed write) and pushes it to the file service at close.
  const std::string text = "Hello from the RHODOS distributed file facility!";
  auto wrote = machine.file_agent->Write(
      *od, {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
  if (!wrote.ok()) {
    std::fprintf(stderr, "write failed: %s\n",
                 wrote.error().ToString().c_str());
    return 1;
  }
  if (auto closed = machine.file_agent->Close(*od); !closed.ok()) {
    std::fprintf(stderr, "close failed: %s\n",
                 closed.error().ToString().c_str());
    return 1;
  }

  // 5. Re-open by attributed name (resolved by the naming service) and read.
  auto od2 = machine.file_agent->Open(naming::ByName("hello.txt"));
  std::vector<std::uint8_t> buffer(text.size());
  auto read = machine.file_agent->Pread(*od2, 0, buffer);
  std::printf("read back %llu bytes: \"%s\"\n",
              static_cast<unsigned long long>(*read),
              std::string(buffer.begin(), buffer.end()).c_str());

  // 6. A peek at the instrumentation the benchmarks use.
  const auto& net = facility.bus().stats();
  std::printf("bus: %llu calls, %llu bytes moved\n",
              static_cast<unsigned long long>(net.calls),
              static_cast<unsigned long long>(net.bytes_moved));
  for (const auto& d : facility.disks().disks()) {
    std::printf("disk %u: %llu read refs, %llu write refs, cache hit rate "
                "%.0f%%\n",
                d->id().value,
                static_cast<unsigned long long>(
                    d->main_stats().read_references),
                static_cast<unsigned long long>(
                    d->main_stats().write_references),
                100.0 * d->cache_stats().HitRate());
  }
  return 0;
}
