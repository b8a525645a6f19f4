#include "placement/sharded_naming.h"

#include <algorithm>
#include <set>

namespace rhodos::placement {

ShardedNamingService::ShardedNamingService(std::uint32_t naming_shards)
    : map_(naming_shards == 0 ? 1 : naming_shards) {
  shards_.reserve(map_.ShardCount());
  for (std::uint32_t s = 0; s < map_.ShardCount(); ++s) {
    shards_.push_back(std::make_unique<naming::NamingService>());
  }
}

std::vector<std::uint32_t> ShardedNamingService::OwningShards(
    const naming::AttributedName& name) const {
  std::set<std::uint32_t> owners;
  for (const auto& [key, value] : name) {
    owners.insert(map_.ShardForKey(key));
  }
  return {owners.begin(), owners.end()};
}

Status ShardedNamingService::RegisterFile(const naming::AttributedName& name,
                                          FileId file) {
  if (name.empty()) {
    return {ErrorCode::kInvalidArgument, "empty attributed name"};
  }
  if (owners_.count(file) != 0) {
    return {ErrorCode::kAlreadyExists, "file already registered"};
  }
  const std::vector<std::uint32_t> owners = OwningShards(name);
  const std::uint64_t seq = next_seq_++;
  for (const std::uint32_t s : owners) {
    RHODOS_RETURN_IF_ERROR(shards_[s]->RegisterFileAt(name, file, seq));
    ++sharding_stats_.fanout_registrations;
  }
  owners_.emplace(file, Entry{owners, seq});
  ++generation_;
  return OkStatus();
}

Status ShardedNamingService::UnregisterFile(FileId file) {
  auto it = owners_.find(file);
  if (it == owners_.end()) {
    return {ErrorCode::kNotFound, "file not registered"};
  }
  for (const std::uint32_t s : it->second.shards) {
    // Tolerate kNotFound: a retried cross-shard delete may already have
    // removed the registration from some shards (docs/SHARDING.md).
    const Status st = shards_[s]->UnregisterFile(file);
    if (!st.ok() && st.code() != ErrorCode::kNotFound) return st;
  }
  owners_.erase(it);
  ++generation_;
  return OkStatus();
}

Result<FileId> ShardedNamingService::ResolveFile(
    const naming::AttributedName& query) {
  if (!query.empty()) {
    // Every attribute of a matching file is registered wherever any one of
    // them is, so the shard owning the first key answers exactly.
    const std::uint32_t s = map_.ShardForKey(query.begin()->first);
    ++sharding_stats_.lookups;
    Result<FileId> res = shards_[s]->ResolveFile(query);
    if (!res.ok() && (res.code() == ErrorCode::kNameNotResolved ||
                      res.code() == ErrorCode::kAmbiguousName)) {
      // Name the shard that failed the resolution, so an operator can tell
      // a partitioned index from a genuinely missing registration.
      return Error{res.error().code, res.error().message + " (naming shard " +
                                         std::to_string(s) + ")"};
    }
    return res;
  }
  // Empty query: no single shard sees the whole registry, so the router
  // resolves from the scatter-gather evaluation and keeps its own counters.
  ++router_stats_.resolutions;
  const std::vector<FileId> matches = EvaluateFiles(query);
  if (matches.empty()) {
    ++router_stats_.failures;
    return Error{ErrorCode::kNameNotResolved, "no file matches the name"};
  }
  if (matches.size() > 1) {
    ++router_stats_.ambiguities;
    constexpr std::size_t kMaxNamed = 4;
    std::string detail =
        std::to_string(matches.size()) + " files match the name: ";
    for (std::size_t i = 0; i < matches.size() && i < kMaxNamed; ++i) {
      if (i > 0) detail += ", ";
      const Result<naming::AttributedName> name = NameOf(matches[i]);
      detail += name.ok() ? naming::ToString(*name) : "{?}";
    }
    if (matches.size() > kMaxNamed) detail += ", ...";
    return Error{ErrorCode::kAmbiguousName, std::move(detail)};
  }
  return matches.front();
}

std::vector<FileId> ShardedNamingService::EvaluateFiles(
    const naming::AttributedName& query) const {
  if (!query.empty()) {
    const std::uint32_t s = map_.ShardForKey(query.begin()->first);
    ++sharding_stats_.lookups;
    return shards_[s]->EvaluateFiles(query);
  }
  // Directory-listing over the whole registry: gather every shard's view,
  // dedupe the fan-out copies, and restore global registration order.
  std::set<FileId> seen;
  std::vector<FileId> out;
  for (const auto& shard : shards_) {
    for (const FileId id : shard->EvaluateFiles(query)) {
      if (seen.insert(id).second) out.push_back(id);
    }
  }
  std::sort(out.begin(), out.end(), [this](FileId a, FileId b) {
    auto ia = owners_.find(a);
    auto ib = owners_.find(b);
    const std::uint64_t sa = ia == owners_.end() ? 0 : ia->second.seq;
    const std::uint64_t sb = ib == owners_.end() ? 0 : ib->second.seq;
    return sa < sb;
  });
  return out;
}

Result<naming::AttributedName> ShardedNamingService::NameOf(
    FileId file) const {
  auto it = owners_.find(file);
  if (it == owners_.end()) {
    return Error{ErrorCode::kNotFound, "file not registered"};
  }
  return shards_[it->second.shards.front()]->NameOf(file);
}

Status ShardedNamingService::UpdateFile(FileId file,
                                        const naming::AttributedName& name) {
  auto it = owners_.find(file);
  if (it == owners_.end()) {
    return {ErrorCode::kNotFound, "file not registered"};
  }
  if (name.empty()) {
    // The unsharded service tolerates this degenerate rebind, but a name
    // with no keys owns no shards and would strand the registration.
    return {ErrorCode::kInvalidArgument, "empty attributed name"};
  }
  const std::uint64_t seq = it->second.seq;
  for (const std::uint32_t s : it->second.shards) {
    const Status st = shards_[s]->UnregisterFile(file);
    if (!st.ok() && st.code() != ErrorCode::kNotFound) return st;
  }
  const std::vector<std::uint32_t> owners = OwningShards(name);
  for (const std::uint32_t s : owners) {
    RHODOS_RETURN_IF_ERROR(shards_[s]->RegisterFileAt(name, file, seq));
    ++sharding_stats_.fanout_registrations;
  }
  it->second.shards = owners;
  ++generation_;
  return OkStatus();
}

Status ShardedNamingService::RegisterDevice(const naming::AttributedName& name,
                                            std::string system_name) {
  return shards_[0]->RegisterDevice(name, std::move(system_name));
}

Result<std::string> ShardedNamingService::ResolveDevice(
    const naming::AttributedName& query) {
  return shards_[0]->ResolveDevice(query);
}

void ShardedNamingService::ResetStats() {
  router_stats_ = naming::NamingStats{};
  sharding_stats_ = NamingShardingStats{};
  for (auto& shard : shards_) shard->ResetStats();
}

const naming::NamingStats& ShardedNamingService::stats() const {
  agg_stats_ = router_stats_;
  for (const auto& shard : shards_) {
    const naming::NamingStats& s = shard->stats();
    agg_stats_.resolutions += s.resolutions;
    agg_stats_.failures += s.failures;
    agg_stats_.ambiguities += s.ambiguities;
    agg_stats_.index_probes += s.index_probes;
  }
  return agg_stats_;
}

}  // namespace rhodos::placement
