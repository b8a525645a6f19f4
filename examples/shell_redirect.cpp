// Devices, standard streams and redirection (paper §3).
//
// A tiny "shell" session: a process writes to its stdout (the console
// device), then redirects stdout to a file — its environment variable
// flips to the fixed constant 100001 — and writes again; the text lands in
// the file. Finally a mediumweight twin inherits the parent's descriptors,
// and the twin refusal rule for transactional processes is demonstrated.
//
// Build & run:  ./build/examples/shell_redirect
#include <cstdio>
#include <cstring>
#include <string>

#include "core/facility.h"

using namespace rhodos;

namespace {

std::span<const std::uint8_t> AsBytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

// Reports a failed step; the session stops at the first one.
template <typename T>
bool Failed(const Result<T>& result, const char* step) {
  if (result.ok()) return false;
  std::fprintf(stderr, "%s failed: %s\n", step,
               result.error().ToString().c_str());
  return true;
}

}  // namespace

int main() {
  core::DistributedFileFacility facility;
  core::Machine& m = facility.AddMachine();
  auto shell = facility.CreateProcess();

  std::printf("stdout variable = %lld (console)\n",
              static_cast<long long>(shell.stdout_fd()));

  // echo to the console
  if (Failed(facility.WriteStream(m, shell, shell.stdout_fd(),
                                  AsBytes("shell$ hello on the console\n")),
             "console write")) {
    return 1;
  }

  // shell$ echo "into the log" > session.log
  auto log_od = m.file_agent->Create(naming::ByName("session.log"),
                                     file::ServiceType::kBasic);
  if (!log_od.ok()) return 1;
  if (Failed(shell.RedirectStdout(*log_od), "redirect")) return 1;
  std::printf("after redirection stdout variable = %lld (the fixed "
              "constant for redirected stdout)\n",
              static_cast<long long>(shell.stdout_fd()));
  if (Failed(facility.WriteStream(m, shell, shell.stdout_fd(),
                                  AsBytes("this line went to session.log")),
             "redirected write") ||
      Failed(m.file_agent->Flush(*log_od), "flush")) {
    return 1;
  }

  // Show both sinks.
  auto console = m.device_agent->OutputOf("console");
  std::printf("console device shows: %s",
              std::string(console->begin(), console->end()).c_str());
  auto check = m.file_agent->Open(naming::ByName("session.log"));
  std::vector<std::uint8_t> content(64);
  auto n = m.file_agent->Pread(*check, 0, content);
  std::printf("session.log contains: \"%s\"\n",
              std::string(content.begin(),
                          content.begin() + static_cast<long>(*n))
                  .c_str());

  // Mediumweight process-twin: the child inherits every descriptor.
  shell.AddDescriptor(*log_od);
  auto twin = shell.Twin(ProcessId{99});
  std::printf("twin created: inherits %zu descriptor(s), stdout variable "
              "= %lld\n",
              twin->descriptors().size(),
              static_cast<long long>(twin->stdout_fd()));

  // A process with a live transaction may NOT twin (§3: inherited
  // transaction descriptors would threaten serializability).
  auto t = m.txn_agent->TBegin(shell);
  auto refused = shell.Twin(ProcessId{100});
  std::printf("twin while a transaction is open: %s\n",
              refused.ok() ? "ALLOWED (bug!)"
                           : refused.error().ToString().c_str());
  if (Failed(m.txn_agent->TAbort(*t, shell), "tabort")) return 1;
  std::printf("after tabort the twin succeeds again: %s\n",
              shell.Twin(ProcessId{101}).ok() ? "yes" : "no");
  return 0;
}
