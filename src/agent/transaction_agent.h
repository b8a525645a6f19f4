// The transaction agent (paper §3, §6).
//
// "The transaction agent process is highly dynamic because the first
// request to initiate a transaction in a client's machine brings this
// process into existence and it ceases to exist as soon as the last
// transaction in the client's machine either completes successfully or
// aborts." — the configurability goal of §2.1.
//
// TransactionAgentHost models the per-machine supervisor: TBegin spawns the
// agent when none is running; TEnd/TAbort retire it when the last local
// transaction finishes. The agent itself carries the client-side state —
// object descriptors (> 100 000) and cursors for the t-operations — and
// forwards the semantic work to the transaction service.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "agent/file_agent.h"  // SeekWhence
#include "agent/process.h"
#include "common/result.h"
#include "common/types.h"
#include "naming/naming_service.h"
#include "obs/metrics.h"
#include "txn/transaction_service.h"

namespace rhodos::agent {

struct TxnAgentStats {
  std::uint64_t spawns = 0;       // agent processes brought into existence
  std::uint64_t retirements = 0;  // agent processes that ceased to exist
  std::uint64_t descriptors_issued = 0;
};

inline constexpr obs::CounterField<TxnAgentStats> kTxnAgentCounters[] = {
    {"txn_agent.spawns", &TxnAgentStats::spawns},
    {"txn_agent.retirements", &TxnAgentStats::retirements},
    {"txn_agent.descriptors_issued", &TxnAgentStats::descriptors_issued},
};

class TransactionAgentHost {
 public:
  TransactionAgentHost(MachineId machine, txn::TransactionService* service,
                       naming::NamingFacade* naming)
      : machine_(machine), service_(service), naming_(naming) {}

  // --- The paper's t-operations --------------------------------------------

  // tbegin: spawns the agent if this is the machine's first transaction.
  Result<TxnId> TBegin(ProcessContext& process);

  // tcreate: create a transaction file, register its name, open it.
  Result<ObjectDescriptor> TCreate(TxnId txn,
                                   const naming::AttributedName& name,
                                   file::LockLevel level,
                                   std::uint64_t size_hint = 0);

  // topen: resolve + open, descriptor > 100000.
  Result<ObjectDescriptor> TOpen(TxnId txn,
                                 const naming::AttributedName& name);

  Status TClose(TxnId txn, ObjectDescriptor od);

  Status TDelete(TxnId txn, const naming::AttributedName& name);

  // tread / twrite at the descriptor cursor; tpread / tpwrite positional.
  Result<std::uint64_t> TRead(TxnId txn, ObjectDescriptor od,
                              std::span<std::uint8_t> out,
                              txn::ReadIntent intent = txn::ReadIntent::kQuery);
  Result<std::uint64_t> TWrite(TxnId txn, ObjectDescriptor od,
                               std::span<const std::uint8_t> in);
  Result<std::uint64_t> TPread(TxnId txn, ObjectDescriptor od,
                               std::uint64_t offset,
                               std::span<std::uint8_t> out,
                               txn::ReadIntent intent =
                                   txn::ReadIntent::kQuery);
  Result<std::uint64_t> TPwrite(TxnId txn, ObjectDescriptor od,
                                std::uint64_t offset,
                                std::span<const std::uint8_t> in);

  Result<std::int64_t> TLseek(TxnId txn, ObjectDescriptor od,
                              std::int64_t offset, SeekWhence whence);

  Result<file::FileAttributes> TGetAttribute(TxnId txn, ObjectDescriptor od);

  // tend / tabort: finish the transaction; the agent retires with the last
  // one.
  Status TEnd(TxnId txn, ProcessContext& process);
  Status TAbort(TxnId txn, ProcessContext& process);

  // --- Introspection --------------------------------------------------------

  // Event-driven existence: true only while transactions are in flight.
  bool AgentAlive() const { return agent_ != nullptr; }
  const TxnAgentStats& stats() const { return stats_; }
  void ResetStats() {
    stats_ = TxnAgentStats{};
    cache_stats_ = CacheStats{};
  }

  // Installed by the facility; null means no tracing/metrics.
  void SetObservability(obs::Observability* o) { obs_ = o; }

 private:
  struct Handle {
    FileId file{};
    std::uint64_t cursor = 0;
  };
  // Per-transaction page cache (§7: the agent "improves performance by
  // allowing maximum processing of transactions at the client computer by
  // intelligently caching the relevant information"). Safe because 2PL
  // isolation freezes everything this transaction has read: once a page
  // is locked and cached, no other transaction can change it until we
  // finish. Writes update the cached copy; the cache dies with the txn.
  struct PageKey {
    std::uint64_t file;
    std::uint64_t page;
    friend bool operator==(const PageKey&, const PageKey&) = default;
  };
  struct PageKeyHash {
    std::size_t operator()(const PageKey& k) const {
      return std::hash<std::uint64_t>{}(k.file * 786433ULL ^ k.page);
    }
  };
  using TxnPageCache =
      std::unordered_map<PageKey, std::vector<std::uint8_t>, PageKeyHash>;
  // The dynamic agent process: exists only between the first tbegin and the
  // last tend/tabort on this machine.
  struct Agent {
    std::unordered_set<TxnId> local_txns;
    std::unordered_map<ObjectDescriptor, Handle> handles;
    std::unordered_map<TxnId, TxnPageCache> read_caches;
    ObjectDescriptor next_descriptor = 200'000;  // distinct from file agent
  };

  Result<Agent*> Alive();
  Result<Handle*> HandleOf(ObjectDescriptor od);
  void RetireIfIdle(TxnId txn, ProcessContext& process);

  // Cached positional read/write (page-grained overlay on the service).
  Result<std::uint64_t> CachedRead(TxnId txn, FileId file,
                                   std::uint64_t offset,
                                   std::span<std::uint8_t> out,
                                   txn::ReadIntent intent);
  Result<std::uint64_t> CachedWrite(TxnId txn, FileId file,
                                    std::uint64_t offset,
                                    std::span<const std::uint8_t> in);

 public:
  struct CacheStats {
    std::uint64_t page_hits = 0;
    std::uint64_t page_misses = 0;
  };
  const CacheStats& cache_stats() const { return cache_stats_; }

 private:
  CacheStats cache_stats_;

  MachineId machine_;
  txn::TransactionService* service_;
  naming::NamingFacade* naming_;
  std::unique_ptr<Agent> agent_;
  TxnAgentStats stats_;
  obs::Observability* obs_ = nullptr;
};

inline constexpr obs::CounterField<TransactionAgentHost::CacheStats>
    kTxnAgentCacheCounters[] = {
        {"txn_agent.page_cache.hits",
         &TransactionAgentHost::CacheStats::page_hits},
        {"txn_agent.page_cache.misses",
         &TransactionAgentHost::CacheStats::page_misses},
};

}  // namespace rhodos::agent
