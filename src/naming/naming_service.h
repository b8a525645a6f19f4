// The RHODOS naming service (paper §3).
//
// "Processes in the RHODOS system use the attributed names of these
// devices, TTY objects, and files, FILE objects. ... the process of
// evaluation and resolution of an attributed name of a device or file to
// its system name is performed by the RHODOS naming service."
//
// An attributed name is a set of attribute=value pairs. Resolution matches
// a query against registered names: every query attribute must match; a
// unique match yields the system name, several matches are ambiguous, none
// is unresolved. Files resolve to their FileId (the system name encodes
// the index-table location); devices resolve to a device system name
// string the device agent understands.
//
// Evaluation is served from an inverted index: each attribute=value pair
// maps to the posting set of files registered with that pair. A query is
// answered by intersecting its posting sets starting from the smallest, so
// cost is proportional to the smallest posting list rather than to the
// whole registry. Results are emitted in registration order — exactly what
// the original linear scan over the registry produced (a property test pins
// the equivalence against a shadow linear scan).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "obs/metrics.h"

namespace rhodos::naming {

// Attribute set, e.g. {name: "ledger", owner: "alice", type: "data"}.
// Ordered map so names have a canonical form.
using AttributedName = std::map<std::string, std::string>;

// Convenience: the common single-attribute name {"name": value}.
AttributedName ByName(std::string value);

// Canonical human-readable rendering, e.g. "{name=ledger, owner=alice}".
// Used in ambiguity diagnostics so operators see *which* files collided.
std::string ToString(const AttributedName& name);

struct NamingStats {
  std::uint64_t resolutions = 0;
  std::uint64_t failures = 0;
  std::uint64_t ambiguities = 0;
  // Posting-list lookups performed while evaluating queries. The old linear
  // scan did FileCount() name comparisons per query; this counts at most one
  // probe per query attribute.
  std::uint64_t index_probes = 0;
};

// Only the index probes are exported.
inline constexpr obs::CounterField<NamingStats> kNamingCounters[] = {
    {"naming.index_probes", &NamingStats::index_probes},
};

// The naming interface agents program against. One concrete NamingService
// implements it directly (the paper's single-instance topology); the
// sharded metadata plane substitutes placement::ShardedNamingService, which
// partitions the inverted index by attribute-key hash behind the same
// contract (see docs/SHARDING.md).
class NamingFacade {
 public:
  virtual ~NamingFacade() = default;

  // --- Files ---------------------------------------------------------------

  virtual Status RegisterFile(const AttributedName& name, FileId file) = 0;
  virtual Status UnregisterFile(FileId file) = 0;

  // Resolves an attributed name to a file's system name. All attributes of
  // `query` must match (registered names may carry extra attributes).
  virtual Result<FileId> ResolveFile(const AttributedName& query) = 0;

  // All files matching the query (directory-listing style evaluation),
  // in registration order.
  virtual std::vector<FileId> EvaluateFiles(
      const AttributedName& query) const = 0;

  // The full attributed name under which a file was registered.
  virtual Result<AttributedName> NameOf(FileId file) const = 0;

  // Re-binds an existing registration (e.g. rename, attribute change).
  // The file keeps its registration-order position.
  virtual Status UpdateFile(FileId file, const AttributedName& name) = 0;

  // --- Devices -------------------------------------------------------------

  virtual Status RegisterDevice(const AttributedName& name,
                                std::string system_name) = 0;
  virtual Result<std::string> ResolveDevice(const AttributedName& query) = 0;

  virtual const NamingStats& stats() const = 0;
  virtual std::size_t FileCount() const = 0;

  // Bumped on every mutation of the file registry (register / unregister /
  // update). Agents key their name→FileId caches off this: a cached binding
  // is valid only while the generation it was filled at is still current.
  virtual std::uint64_t generation() const = 0;
};

class NamingService : public NamingFacade {
 public:
  // --- Files ---------------------------------------------------------------

  Status RegisterFile(const AttributedName& name, FileId file) override;
  Status UnregisterFile(FileId file) override;

  // Registration with a caller-assigned sequence number. The sharded naming
  // layer duplicates a registration onto every shard owning one of its
  // attribute keys; a shared global seq keeps EvaluateFiles emitting the
  // same registration order from every shard.
  Status RegisterFileAt(const AttributedName& name, FileId file,
                        std::uint64_t seq);

  Result<FileId> ResolveFile(const AttributedName& query) override;
  std::vector<FileId> EvaluateFiles(
      const AttributedName& query) const override;
  Result<AttributedName> NameOf(FileId file) const override;
  Status UpdateFile(FileId file, const AttributedName& name) override;

  // --- Devices -------------------------------------------------------------

  Status RegisterDevice(const AttributedName& name,
                        std::string system_name) override;
  Result<std::string> ResolveDevice(const AttributedName& query) override;

  const NamingStats& stats() const override { return stats_; }
  void ResetStats() { stats_ = NamingStats{}; }
  std::size_t FileCount() const override { return files_.size(); }
  std::uint64_t generation() const override { return generation_; }

 private:
  struct FileEntry {
    AttributedName name;
    std::uint64_t seq = 0;  // registration order, stable across UpdateFile
  };

  static bool Matches(const AttributedName& query,
                      const AttributedName& candidate);

  void IndexInsert(const AttributedName& name, FileId file);
  void IndexRemove(const AttributedName& name, FileId file);

  std::unordered_map<FileId, FileEntry> files_;
  // attribute=value → posting set of files carrying that pair.
  std::map<std::pair<std::string, std::string>, std::set<FileId>> index_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t generation_ = 0;

  std::vector<std::pair<AttributedName, std::string>> devices_;
  mutable NamingStats stats_;
};

}  // namespace rhodos::naming
