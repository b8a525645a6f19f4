// Crash recovery walkthrough: the intentions list, stable storage, and the
// WAL / shadow-page commit techniques (paper §6.6–§6.7).
//
// The example runs three scenarios against the same facility:
//   1. a transaction that commits, then the servers crash -> after
//      recovery the update is there (redo from the intentions list);
//   2. a transaction interrupted BEFORE its commit point -> after recovery
//      there is no trace of it (atomicity);
//   3. a main-platter corruption of a file index table -> the stable
//      storage mirror restores it.
//
// Build & run:  ./build/examples/crash_recovery
#include <cstdio>
#include <cstring>
#include <vector>

#include "core/facility.h"

using namespace rhodos;

namespace {

std::vector<std::uint8_t> Bytes(const char* s) {
  return {reinterpret_cast<const std::uint8_t*>(s),
          reinterpret_cast<const std::uint8_t*>(s) + std::strlen(s)};
}

std::string ReadString(core::DistributedFileFacility& f, FileId id,
                       std::size_t n) {
  std::vector<std::uint8_t> buf(n, 0);
  auto got = f.files().Read(id, 0, buf);
  if (!got.ok()) return "<unreadable: " + got.error().ToString() + ">";
  return std::string(buf.begin(), buf.begin() + static_cast<long>(*got));
}

// Reports a failed step; the walkthrough stops at the first one.
template <typename T>
bool Failed(const Result<T>& result, const char* step) {
  if (result.ok()) return false;
  std::fprintf(stderr, "%s failed: %s\n", step,
               result.error().ToString().c_str());
  return true;
}

}  // namespace

int main() {
  core::FacilityConfig config;
  config.geometry.total_fragments = 16 * 1024;
  core::DistributedFileFacility facility(config);
  auto& txns = facility.transactions();

  // --- Scenario 1: committed work survives a crash --------------------------
  std::printf("== scenario 1: committed transaction vs crash ==\n");
  auto t1 = txns.Begin(ProcessId{1});
  auto account = txns.TCreate(*t1, file::LockLevel::kPage, 0);
  if (Failed(txns.TWrite(*t1, *account, 0, Bytes("balance=100")), "twrite") ||
      Failed(txns.End(*t1), "tend")) {
    return 1;
  }

  auto t2 = txns.Begin(ProcessId{1});
  if (Failed(txns.TWrite(*t2, *account, 0, Bytes("balance=250")), "twrite") ||
      // COMMITTED: intention flag = commit on stable storage
      Failed(txns.End(*t2), "tend")) {
    return 1;
  }

  facility.CrashServers();
  std::printf("  ...servers crashed...\n");
  if (Failed(facility.RecoverServers(), "recovery")) return 1;
  std::printf("  after recovery: \"%s\"  (expected balance=250)\n",
              ReadString(facility, *account, 11).c_str());

  // --- Scenario 2: an uncommitted transaction leaves no trace ----------------
  std::printf("== scenario 2: in-flight transaction vs crash ==\n");
  auto t3 = txns.Begin(ProcessId{1});
  if (Failed(txns.TWrite(*t3, *account, 0, Bytes("balance=999")), "twrite")) {
    return 1;
  }
  // No tend: the write exists only as a tentative data item.
  facility.CrashServers();
  std::printf("  ...servers crashed mid-transaction...\n");
  if (Failed(facility.RecoverServers(), "recovery")) return 1;
  std::printf("  after recovery: \"%s\"  (tentative 999 discarded)\n",
              ReadString(facility, *account, 11).c_str());

  // --- Scenario 3: stable storage saves a corrupted index table --------------
  std::printf("== scenario 3: media damage vs stable storage ==\n");
  auto server = facility.disks().Get(file::FileDisk(*account));
  std::vector<std::uint8_t> garbage(kFragmentSize, 0xFF);
  (*server)->main_device().RawOverwrite(file::FileFitFragment(*account),
                                        garbage);
  facility.files().Crash();  // force a reload from disk
  std::printf("  ...main copy of the file index table overwritten...\n");
  std::printf("  read through stable-storage fallback: \"%s\"\n",
              ReadString(facility, *account, 11).c_str());

  std::printf("recovery stats: %llu transactions redone, %llu discarded\n",
              static_cast<unsigned long long>(
                  txns.stats().recovered_redone),
              static_cast<unsigned long long>(
                  txns.stats().recovered_discarded));
  return 0;
}
