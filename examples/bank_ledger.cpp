// Bank ledger: concurrent money transfers through the RHODOS transaction
// service (paper §6).
//
// N worker threads move money between accounts stored in one transaction
// file with record-level locking. Every transfer is a transaction: tbegin,
// tread (for update), twrite x2, tend. The 2PL lock manager serializes
// conflicting transfers; the LT/N*LT timeout rule resolves deadlocks by
// aborting a victim, whose transfer simply retries.
//
// The invariant — total money is conserved — holds at the end despite
// conflicts, aborts and retries. The facility runs 4 file shards: the one
// transaction service reaches the ledger through the shard that serves it,
// and the audit reads it back through the same owner. The exit code is the
// conservation check.
//
// Build & run:  ./build/examples/bank_ledger
#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "core/facility.h"

using namespace rhodos;

namespace {

constexpr int kAccounts = 16;
constexpr std::int64_t kInitialBalance = 1000;
constexpr int kWorkers = 4;
constexpr int kTransfersPerWorker = 50;

std::uint64_t AccountOffset(int account) { return account * 8; }

std::int64_t DecodeBalance(const std::uint8_t* p) {
  std::int64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

void EncodeBalance(std::int64_t v, std::uint8_t* p) {
  std::memcpy(p, &v, 8);
}

}  // namespace

int main() {
  core::FacilityConfig config;
  config.disk_count = 1;
  config.geometry.total_fragments = 16 * 1024;
  config.sharding.file_shards = 4;
  config.txn.lock_timeout.lt = std::chrono::milliseconds(10);
  config.txn.lock_timeout.n = 4;
  core::DistributedFileFacility facility(config);
  core::Machine& m = facility.AddMachine();
  auto process = facility.CreateProcess();

  // Set up the ledger: one transaction file, record-level locking so
  // transfers touching different accounts run fully in parallel (§6.1).
  {
    auto t = m.txn_agent->TBegin(process);
    auto od = m.txn_agent->TCreate(*t, naming::ByName("ledger"),
                                   file::LockLevel::kRecord, 0);
    std::vector<std::uint8_t> init(kAccounts * 8);
    for (int a = 0; a < kAccounts; ++a) {
      EncodeBalance(kInitialBalance, init.data() + AccountOffset(a));
    }
    if (auto wrote = m.txn_agent->TPwrite(*t, *od, 0, init); !wrote.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   wrote.error().ToString().c_str());
      return 1;
    }
    if (auto st = m.txn_agent->TEnd(*t, process); !st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   st.error().ToString().c_str());
      return 1;
    }
  }
  const FileId ledger = *facility.naming().ResolveFile(
      naming::ByName("ledger"));

  std::atomic<int> committed{0}, aborted{0};
  auto& txns = facility.transactions();

  auto worker = [&](int id) {
    Rng rng(1000 + id);
    for (int i = 0; i < kTransfersPerWorker; ++i) {
      const int from = static_cast<int>(rng.Below(kAccounts));
      int to = static_cast<int>(rng.Below(kAccounts));
      if (to == from) to = (to + 1) % kAccounts;
      const std::int64_t amount = 1 + static_cast<std::int64_t>(
                                          rng.Below(20));
      // Retry the transfer until it commits.
      while (true) {
        auto t = txns.Begin(ProcessId{static_cast<std::uint64_t>(id)});
        std::uint8_t buf[8];
        auto ok = [&]() -> bool {
          // Read both balances with intent to update (Iread locks).
          if (!txns.TRead(*t, ledger, AccountOffset(from), buf,
                          txn::ReadIntent::kForUpdate)
                   .ok()) {
            return false;
          }
          const std::int64_t from_bal = DecodeBalance(buf);
          if (!txns.TRead(*t, ledger, AccountOffset(to), buf,
                          txn::ReadIntent::kForUpdate)
                   .ok()) {
            return false;
          }
          const std::int64_t to_bal = DecodeBalance(buf);
          // Write both back (IW conversion).
          EncodeBalance(from_bal - amount, buf);
          if (!txns.TWrite(*t, ledger, AccountOffset(from), buf).ok()) {
            return false;
          }
          EncodeBalance(to_bal + amount, buf);
          return txns.TWrite(*t, ledger, AccountOffset(to), buf).ok();
        }();
        if (ok && txns.End(*t).ok()) {
          ++committed;
          break;
        }
        if (txns.IsActive(*t)) (void)txns.Abort(*t);
        ++aborted;  // deadlock victim or conflict: retry
      }
    }
  };

  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) threads.emplace_back(worker, w);
  for (auto& th : threads) th.join();

  // Audit: total money must be conserved.
  std::vector<std::uint8_t> final_state(kAccounts * 8);
  file::FileService& owner = facility.OwnerOf(ledger);
  if (auto read = owner.Read(ledger, 0, final_state); !read.ok()) {
    std::fprintf(stderr, "audit read failed: %s\n",
                 read.error().ToString().c_str());
    return 1;
  }
  std::int64_t total = 0;
  std::printf("final balances:");
  for (int a = 0; a < kAccounts; ++a) {
    const std::int64_t bal = DecodeBalance(final_state.data() +
                                           AccountOffset(a));
    total += bal;
    std::printf(" %lld", static_cast<long long>(bal));
  }
  std::printf("\n");
  std::printf("ledger served by file shard %u of %u\n",
              facility.placement().Serving(ledger).shard,
              facility.file_shard_count());
  const std::int64_t expected = kAccounts * kInitialBalance;
  std::printf("transfers committed: %d, aborted+retried: %d\n",
              committed.load(), aborted.load());
  std::printf("lock stats: %llu grants, %llu waits, %llu broken by "
              "timeout\n",
              static_cast<unsigned long long>(txns.locks().stats().grants),
              static_cast<unsigned long long>(txns.locks().stats().waits),
              static_cast<unsigned long long>(txns.locks().stats().breaks));
  std::printf("total = %lld (expected %lld) -> %s\n",
              static_cast<long long>(total),
              static_cast<long long>(expected),
              total == expected ? "CONSERVED" : "VIOLATED");
  return total == expected ? 0 : 1;
}
