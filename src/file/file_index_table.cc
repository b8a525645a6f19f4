#include "file/file_index_table.h"

#include <algorithm>
#include <cassert>

namespace rhodos::file {

namespace {

constexpr std::uint32_t kFitMagic = 0x52464954;  // "RFIT"

void SerializeRun(Serializer& out, const BlockDescriptor& run) {
  out.U32(run.disk.value);
  out.U64(run.first_fragment);
  out.U16(run.contiguous_count);
  // The former pad bytes carry the run flags (kRunShared): old tables read
  // back with flags 0, which is exactly "nothing shared".
  out.U16(run.flags);
}

BlockDescriptor DeserializeRun(Deserializer& in) {
  BlockDescriptor run;
  run.disk = DiskId{in.U32()};
  run.first_fragment = in.U64();
  run.contiguous_count = in.U16();
  run.flags = in.U16();
  return run;
}

void SerializeAttributes(Serializer& out, const FileAttributes& a) {
  out.U64(a.size);
  out.I64(a.created_time);
  out.I64(a.last_read_time);
  out.U32(a.ref_count);
  out.U64(a.access_count);
  out.U8(static_cast<std::uint8_t>(a.service_type));
  out.U8(static_cast<std::uint8_t>(a.locking_level));
  out.U32(a.extra_space);
  out.U8(a.image_flags);
  out.U64(a.origin);
}

// Refuses a service type or locking level outside its enum: no writer
// produces one.
Result<FileAttributes> DeserializeAttributes(Deserializer& in) {
  FileAttributes a;
  a.size = in.U64();
  a.created_time = in.I64();
  a.last_read_time = in.I64();
  a.ref_count = in.U32();
  a.access_count = in.U64();
  const std::uint8_t service_type = in.U8();
  const std::uint8_t locking_level = in.U8();
  if (service_type > static_cast<std::uint8_t>(ServiceType::kTransaction) ||
      locking_level > static_cast<std::uint8_t>(LockLevel::kFile)) {
    return Error{ErrorCode::kMediaError,
                 "file index table attribute outside its enum"};
  }
  a.service_type = static_cast<ServiceType>(service_type);
  a.locking_level = static_cast<LockLevel>(locking_level);
  a.extra_space = in.U32();
  a.image_flags = in.U8();
  a.origin = in.U64();
  return a;
}

}  // namespace

void FileIndexTable::RecomputeTotals() {
  cumulative_.resize(runs_.size());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    cumulative_[i] = total;
    total += runs_[i].contiguous_count;
  }
  total_blocks_ = total;
}

Result<BlockLocation> FileIndexTable::Locate(std::uint64_t block_index) const {
  if (block_index >= total_blocks_) {
    return Error{ErrorCode::kBadAddress,
                 "logical block " + std::to_string(block_index) +
                     " beyond end of file"};
  }
  // Binary search over prefix sums for the run covering block_index.
  const auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(),
                                   block_index);
  const std::size_t run_idx =
      static_cast<std::size_t>(it - cumulative_.begin()) - 1;
  const BlockDescriptor& run = runs_[run_idx];
  const std::uint64_t offset_in_run = block_index - cumulative_[run_idx];
  return BlockLocation{
      run.disk,
      run.first_fragment + offset_in_run * kFragmentsPerBlock,
      static_cast<std::uint32_t>(run.contiguous_count - offset_in_run),
      run.flags};
}

Status FileIndexTable::AppendRun(DiskId disk, FragmentIndex first_fragment,
                                 std::uint32_t count, std::uint16_t flags) {
  if (count == 0) {
    return {ErrorCode::kInvalidArgument, "empty run"};
  }
  // Coalesce with the last run when physically adjacent: the contiguity
  // count is capped at 16 bits per descriptor. Never merge across a flag
  // boundary — a shared run must stay a distinct descriptor.
  if (!runs_.empty()) {
    BlockDescriptor& last = runs_.back();
    const FragmentIndex last_end =
        last.first_fragment +
        static_cast<FragmentIndex>(last.contiguous_count) *
            kFragmentsPerBlock;
    if (last.disk == disk && last_end == first_fragment &&
        last.flags == flags && last.contiguous_count + count <= 0xFFFF) {
      last.contiguous_count = static_cast<std::uint16_t>(
          last.contiguous_count + count);
      RecomputeTotals();
      return OkStatus();
    }
  }
  while (count > 0) {
    const auto chunk = static_cast<std::uint16_t>(
        std::min<std::uint32_t>(count, 0xFFFF));
    runs_.push_back(BlockDescriptor{disk, first_fragment, chunk, flags});
    first_fragment += static_cast<FragmentIndex>(chunk) * kFragmentsPerBlock;
    count -= chunk;
  }
  RecomputeTotals();
  return OkStatus();
}

Status FileIndexTable::ReplaceBlock(std::uint64_t block_index, DiskId disk,
                                    FragmentIndex fragment,
                                    std::uint16_t flags) {
  return ReplaceRange(block_index, 1, disk, fragment, flags);
}

Status FileIndexTable::ReplaceRange(std::uint64_t first_block,
                                    std::uint32_t count, DiskId disk,
                                    FragmentIndex fragment,
                                    std::uint16_t flags) {
  if (count == 0) {
    return {ErrorCode::kInvalidArgument, "empty replacement range"};
  }
  if (first_block + count > total_blocks_) {
    return {ErrorCode::kBadAddress, "replace beyond end of file"};
  }
  const auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(),
                                   first_block);
  const std::size_t run_idx =
      static_cast<std::size_t>(it - cumulative_.begin()) - 1;
  BlockDescriptor run = runs_[run_idx];
  const std::uint64_t off = first_block - cumulative_[run_idx];
  if (off + count > run.contiguous_count) {
    return {ErrorCode::kBadAddress, "replacement range spans runs"};
  }

  // Side pieces inherit the donor's flags (still possibly shared); the new
  // piece carries its own flags.
  std::vector<BlockDescriptor> replacement;
  if (off > 0) {
    replacement.push_back(BlockDescriptor{run.disk, run.first_fragment,
                                          static_cast<std::uint16_t>(off),
                                          run.flags});
  }
  replacement.push_back(BlockDescriptor{
      disk, fragment, static_cast<std::uint16_t>(count), flags});
  if (off + count < run.contiguous_count) {
    replacement.push_back(BlockDescriptor{
        run.disk, run.first_fragment + (off + count) * kFragmentsPerBlock,
        static_cast<std::uint16_t>(run.contiguous_count - off - count),
        run.flags});
  }
  runs_.erase(runs_.begin() + static_cast<std::ptrdiff_t>(run_idx));
  runs_.insert(runs_.begin() + static_cast<std::ptrdiff_t>(run_idx),
               replacement.begin(), replacement.end());
  RecomputeTotals();
  return OkStatus();
}

void FileIndexTable::SetAllRunsShared() {
  for (auto& r : runs_) r.flags |= kRunShared;
}

Status FileIndexTable::ClearSharedInRange(std::uint64_t first_block,
                                          std::uint32_t count) {
  if (count == 0) return OkStatus();
  if (first_block + count > total_blocks_) {
    return {ErrorCode::kBadAddress, "clear-shared beyond end of file"};
  }
  const std::uint64_t range_end = first_block + count;
  std::vector<BlockDescriptor> rebuilt;
  rebuilt.reserve(runs_.size() + 2);
  std::uint64_t start = 0;
  for (const auto& run : runs_) {
    const std::uint64_t end = start + run.contiguous_count;
    const std::uint64_t lo = std::max(start, first_block);
    const std::uint64_t hi = std::min(end, range_end);
    if (lo >= hi || !run.shared()) {
      rebuilt.push_back(run);
    } else {
      if (lo > start) {
        rebuilt.push_back(BlockDescriptor{
            run.disk, run.first_fragment,
            static_cast<std::uint16_t>(lo - start), run.flags});
      }
      rebuilt.push_back(BlockDescriptor{
          run.disk,
          run.first_fragment + (lo - start) * kFragmentsPerBlock,
          static_cast<std::uint16_t>(hi - lo),
          static_cast<std::uint16_t>(run.flags & ~kRunShared)});
      if (hi < end) {
        rebuilt.push_back(BlockDescriptor{
            run.disk,
            run.first_fragment + (hi - start) * kFragmentsPerBlock,
            static_cast<std::uint16_t>(end - hi), run.flags});
      }
    }
    start = end;
  }
  runs_ = std::move(rebuilt);
  RecomputeTotals();
  return OkStatus();
}

std::vector<BlockDescriptor> FileIndexTable::TruncateBlocks(
    std::uint64_t new_block_count) {
  std::vector<BlockDescriptor> freed;
  if (new_block_count >= total_blocks_) return freed;
  std::uint64_t kept = 0;
  std::size_t i = 0;
  for (; i < runs_.size(); ++i) {
    if (kept + runs_[i].contiguous_count > new_block_count) break;
    kept += runs_[i].contiguous_count;
  }
  // Run i straddles (or starts at) the cut.
  if (i < runs_.size() && kept < new_block_count) {
    const auto keep_in_run =
        static_cast<std::uint16_t>(new_block_count - kept);
    BlockDescriptor& run = runs_[i];
    // The cut portion keeps the run's flags: a shared straddling run must
    // release as SHARED, or the releaser frees blocks a snapshot still
    // claims.
    freed.push_back(BlockDescriptor{
        run.disk,
        run.first_fragment +
            static_cast<FragmentIndex>(keep_in_run) * kFragmentsPerBlock,
        static_cast<std::uint16_t>(run.contiguous_count - keep_in_run),
        run.flags});
    run.contiguous_count = keep_in_run;
    ++i;
  }
  for (std::size_t j = i; j < runs_.size(); ++j) freed.push_back(runs_[j]);
  runs_.resize(i);
  RecomputeTotals();
  return freed;
}

double FileIndexTable::ContiguityIndex() const {
  if (total_blocks_ <= 1) return 1.0;
  // Adjacent pairs within a run are contiguous; pairs across run boundaries
  // are not (runs are maximal by construction of AppendRun, and ReplaceBlock
  // only ever splits).
  std::uint64_t contiguous_pairs = 0;
  for (const auto& run : runs_) {
    contiguous_pairs += run.contiguous_count - 1;
  }
  return static_cast<double>(contiguous_pairs) /
         static_cast<double>(total_blocks_ - 1);
}

std::size_t FileIndexTable::IndirectBlockCount() const {
  if (runs_.size() <= kDirectRuns) return 0;
  return (runs_.size() - kDirectRuns + kRunsPerIndirectBlock - 1) /
         kRunsPerIndirectBlock;
}

void FileIndexTable::SerializeFragment(
    Serializer& out, const std::vector<BlockDescriptor>& indirect_blocks)
    const {
  assert(indirect_blocks.size() == IndirectBlockCount());
  assert(indirect_blocks.size() <= kIndirectRefs);
  out.U32(kFitMagic);
  SerializeAttributes(out, attributes_);
  const auto direct =
      static_cast<std::uint32_t>(std::min(runs_.size(), kDirectRuns));
  out.U32(direct);
  out.U32(static_cast<std::uint32_t>(runs_.size()));
  for (std::uint32_t i = 0; i < direct; ++i) SerializeRun(out, runs_[i]);
  out.U32(static_cast<std::uint32_t>(indirect_blocks.size()));
  for (const auto& ib : indirect_blocks) SerializeRun(out, ib);
  assert(out.size() <= kFragmentSize);
}

std::vector<std::uint8_t> FileIndexTable::SerializeIndirectBlock(
    std::size_t i) const {
  Serializer out;
  const std::size_t begin = kDirectRuns + i * kRunsPerIndirectBlock;
  const std::size_t end =
      std::min(runs_.size(), begin + kRunsPerIndirectBlock);
  assert(begin < runs_.size());
  out.U32(static_cast<std::uint32_t>(end - begin));
  for (std::size_t r = begin; r < end; ++r) SerializeRun(out, runs_[r]);
  std::vector<std::uint8_t> block = std::move(out).Take();
  block.resize(kBlockSize, 0);
  return block;
}

Result<FitParseResult> ParseFitFragment(
    std::span<const std::uint8_t> fragment) {
  Deserializer in{fragment};
  if (in.U32() != kFitMagic) {
    return Error{ErrorCode::kMediaError, "not a file index table"};
  }
  FitParseResult result;
  RHODOS_ASSIGN_OR_RETURN(result.table.attributes_, DeserializeAttributes(in));
  const std::uint32_t direct = in.U32();
  const std::uint32_t total_runs = in.U32();
  // The writer fills the direct runs first, then as many indirect blocks
  // as the rest needs.
  if (!in.ok() || direct != std::min<std::uint64_t>(total_runs, kDirectRuns)) {
    return Error{ErrorCode::kMediaError, "corrupt file index table header"};
  }
  for (std::uint32_t i = 0; i < direct; ++i) {
    result.table.runs_.push_back(DeserializeRun(in));
    if (result.table.runs_.back().contiguous_count == 0) {
      return Error{ErrorCode::kMediaError, "empty run in file index table"};
    }
  }
  const std::uint32_t n_indirect = in.U32();
  const std::uint64_t beyond = total_runs - direct;
  if (!in.ok() || n_indirect > kIndirectRefs ||
      n_indirect != (beyond + kRunsPerIndirectBlock - 1) /
                        kRunsPerIndirectBlock) {
    return Error{ErrorCode::kMediaError, "corrupt indirect reference list"};
  }
  for (std::uint32_t i = 0; i < n_indirect; ++i) {
    result.indirect_blocks.push_back(DeserializeRun(in));
  }
  if (!in.ok()) {
    return Error{ErrorCode::kMediaError, "truncated file index table"};
  }
  result.table.RecomputeTotals();
  return result;
}

Status FileIndexTable::ParseIndirectBlock(
    std::span<const std::uint8_t> block) {
  Deserializer in{block};
  const std::uint32_t n = in.U32();
  if (!in.ok() || n > kRunsPerIndirectBlock) {
    return {ErrorCode::kMediaError, "corrupt indirect block"};
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    runs_.push_back(DeserializeRun(in));
    if (runs_.back().contiguous_count == 0) {
      return {ErrorCode::kMediaError, "empty run in indirect block"};
    }
  }
  if (!in.ok()) {
    return {ErrorCode::kMediaError, "truncated indirect block"};
  }
  RecomputeTotals();
  return OkStatus();
}

}  // namespace rhodos::file
