#include "file/snap_journal.h"

#include <algorithm>
#include <map>
#include <optional>

namespace rhodos::file {

namespace {

constexpr std::uint32_t kLogMagic = 0x52534E4C;   // "RSNL"
constexpr std::uint32_t kCkptMagic = 0x52534E43;  // "RSNC"
constexpr std::uint8_t kPayloadOp = 1;
constexpr std::uint8_t kPayloadDone = 2;

// The payload of a checkpoint slot's frame; nullopt when the slot is
// unreadable, blank or torn. Shared by Probe and Ensure.
std::optional<std::vector<std::uint8_t>> ReadCheckpoint(
    const disk::StableRegion& slot) {
  const auto image = slot.Load();
  if (!image.ok()) return std::nullopt;
  const disk::Frame frame = disk::ReadFrame(*image, kCkptMagic, 0);
  if (frame.state != disk::FrameState::kValid) return std::nullopt;
  return std::vector<std::uint8_t>(frame.payload.begin(),
                                   frame.payload.end());
}

}  // namespace

void SerializeSnapOp(Serializer& out, const SnapOp& op) {
  out.U64(op.seq);
  out.U8(static_cast<std::uint8_t>(op.kind));
  out.U64(op.file.value);
  out.U64(op.source.value);
  out.U8(op.image_flags);
  out.U64(op.first_block);
  out.U32(op.block_count);
  out.U32(op.new_disk.value);
  out.U64(op.new_fragment);
  out.U8(op.rebind ? 1 : 0);
  out.U8(op.scrub_fit ? 1 : 0);
  out.U8(op.truncate ? 1 : 0);
  out.U32(static_cast<std::uint32_t>(op.ref_edits.size()));
  for (const auto& e : op.ref_edits) {
    out.U32(e.disk.value);
    out.U64(e.first_fragment);
    out.U32(e.block_count);
    out.U32(e.count);
  }
  out.U32(static_cast<std::uint32_t>(op.frees.size()));
  for (const auto& f : op.frees) {
    out.U32(f.disk.value);
    out.U64(f.first_fragment);
    out.U32(f.fragment_count);
  }
}

Result<SnapOp> DeserializeSnapOp(Deserializer& in) {
  SnapOp op;
  op.seq = in.U64();
  op.kind = static_cast<SnapOpKind>(in.U8());
  op.file = FileId{in.U64()};
  op.source = FileId{in.U64()};
  op.image_flags = in.U8();
  op.first_block = in.U64();
  op.block_count = in.U32();
  op.new_disk = DiskId{in.U32()};
  op.new_fragment = in.U64();
  op.rebind = in.U8() != 0;
  op.scrub_fit = in.U8() != 0;
  op.truncate = in.U8() != 0;
  const std::uint32_t n_edits = in.U32();
  if (!in.ok() || n_edits > 1u << 20) {
    return Error{ErrorCode::kMediaError, "corrupt snap op"};
  }
  for (std::uint32_t i = 0; i < n_edits; ++i) {
    SnapRefEdit e;
    e.disk = DiskId{in.U32()};
    e.first_fragment = in.U64();
    e.block_count = in.U32();
    e.count = in.U32();
    op.ref_edits.push_back(e);
  }
  const std::uint32_t n_frees = in.U32();
  if (!in.ok() || n_frees > 1u << 20) {
    return Error{ErrorCode::kMediaError, "corrupt snap op"};
  }
  for (std::uint32_t i = 0; i < n_frees; ++i) {
    SnapFree f;
    f.disk = DiskId{in.U32()};
    f.first_fragment = in.U64();
    f.fragment_count = in.U32();
    op.frees.push_back(f);
  }
  if (!in.ok()) return Error{ErrorCode::kMediaError, "truncated snap op"};
  return op;
}

SnapJournal::SnapJournal(disk::DiskRegistry* disks,
                         std::uint64_t region_fragments, std::uint32_t slot)
    : disks_(disks), region_fragments_(region_fragments), slot_(slot) {}

Result<bool> SnapJournal::Probe() {
  if (loaded_) return true;
  RHODOS_ASSIGN_OR_RETURN(disk::DiskServer * server,
                          disks_->Get(RegionDisk()));
  const std::uint64_t total = server->TotalFragmentCount();
  const std::uint64_t span = region_fragments_ * (slot_ + 1);
  if (span + server->MetadataFragments() >= total) return false;
  const FragmentIndex first = total - span;
  if (!server->IsFragmentAllocated(first)) return false;
  return ReadCheckpoint(CheckpointSlot(server, first, 0)).has_value() ||
         ReadCheckpoint(CheckpointSlot(server, first, 1)).has_value();
}

Status SnapJournal::Ensure() {
  if (loaded_) return OkStatus();
  RHODOS_ASSIGN_OR_RETURN(disk::DiskServer * server,
                          disks_->Get(RegionDisk()));
  const std::uint64_t total = server->TotalFragmentCount();
  const std::uint64_t span = region_fragments_ * (slot_ + 1);
  if (span + server->MetadataFragments() >= total) {
    return {ErrorCode::kNoSpace, "disk too small for snapshot journal"};
  }
  region_first_ = total - span;
  log_ = disk::StableRegion(server, region_first_ + 2 * SlotFragments(),
                            region_fragments_ - 2 * SlotFragments());

  map_.Clear();
  next_seq_ = 1;
  ckpt_seq_ = 0;
  ckpt_slot_ = 0;
  pending_seqs_.clear();
  pending_ops_.clear();

  if (server->AllocateSpecific(region_first_, static_cast<std::uint32_t>(
                                                  region_fragments_))
          .ok()) {
    // Fresh claim. Make the claim itself durable immediately: apply-side
    // PersistMetadata calls hit the mutated file's disk, which need not be
    // this one, and a recovered bitmap without this range would let file
    // data pave over the journal.
    RHODOS_RETURN_IF_ERROR(server->PersistMetadata());
    RHODOS_RETURN_IF_ERROR(WriteCheckpoint());
    loaded_ = true;
    return OkStatus();
  }

  // Adopt: the region is already allocated (survived a restart). Load the
  // freshest valid checkpoint of the two slots, then replay the log over it.
  std::uint64_t best_gen = 0;
  bool have_ckpt = false;
  for (std::uint8_t s = 0; s < 2; ++s) {
    const auto payload =
        ReadCheckpoint(CheckpointSlot(server, region_first_, s));
    if (!payload) continue;
    Deserializer in{*payload};
    const std::uint64_t gen = in.U64();
    ShareMap map = ShareMap::Deserialize(in);
    if (!in.ok()) continue;
    if (!have_ckpt || gen > best_gen) {
      best_gen = gen;
      map_ = std::move(map);
      ckpt_slot_ = static_cast<std::uint8_t>((s + 1) % 2);
      have_ckpt = true;
    }
  }
  if (!have_ckpt) {
    // Claimed but never initialized (crash in the claim window): start
    // empty. Committed ops always live behind a valid checkpoint, so an
    // unreadable checkpoint here can only mean nothing was ever logged.
    RHODOS_RETURN_IF_ERROR(WriteCheckpoint());
    loaded_ = true;
    return OkStatus();
  }
  ckpt_seq_ = best_gen;

  RHODOS_ASSIGN_OR_RETURN(std::vector<std::uint8_t> image, log_.Load());
  std::uint64_t pos = 0;
  std::map<std::uint64_t, SnapOp> ops;
  while (pos + disk::FrameBytes(0) <= image.size()) {
    const disk::Frame frame = disk::ReadFrame(
        std::span<const std::uint8_t>(image).subspan(pos), kLogMagic, 0);
    if (frame.state == disk::FrameState::kBlank) break;
    if (frame.state == disk::FrameState::kTorn || frame.payload.empty()) {
      // A torn tail force: the op never committed (LogOp returns only
      // after a clean force), so stopping here is all-or-nothing.
      ++stats_.torn_records_skipped;
      break;
    }
    Deserializer in{frame.payload};
    const std::uint8_t type = in.U8();
    if (type == kPayloadDone) {
      const std::uint64_t seq = in.U64();
      ops.erase(seq);
      next_seq_ = std::max(next_seq_, seq + 1);
    } else if (auto op = DeserializeSnapOp(in); type == kPayloadOp && op.ok()) {
      // Absolute piece counts: replaying the whole log in order (even ops
      // already folded into the checkpoint) converges to the final state.
      for (const auto& e : op->ref_edits) {
        map_.SetCount(e.disk, e.first_fragment, e.block_count, e.count);
      }
      next_seq_ = std::max(next_seq_, op->seq + 1);
      ops.emplace(op->seq, std::move(*op));
      ++stats_.replayed_ops;
    } else {
      ++stats_.torn_records_skipped;
      break;
    }
    pos += frame.size;
  }
  log_.Adopt(std::move(image), pos);
  for (auto& [seq, op] : ops) {
    pending_seqs_.insert(seq);
    pending_ops_.push_back(std::move(op));
  }
  loaded_ = true;
  return OkStatus();
}

Status SnapJournal::AppendRecord(std::span<const std::uint8_t> payload) {
  const std::uint64_t frame_bytes = disk::FrameBytes(payload.size());
  if (log_.head() + frame_bytes > log_.capacity()) {
    if (!pending_seqs_.empty()) {
      return {ErrorCode::kNoSpace,
              "snapshot journal full with operations in flight"};
    }
    RHODOS_RETURN_IF_ERROR(WriteCheckpoint());
    if (log_.head() + frame_bytes > log_.capacity()) {
      return {ErrorCode::kNoSpace, "snapshot op larger than journal"};
    }
  }
  disk::WriteFrame(log_.staging(), kLogMagic, 0, payload);
  ++stats_.forces;
  return log_.Append(frame_bytes);
}

Result<std::uint64_t> SnapJournal::LogOp(SnapOp& op) {
  RHODOS_RETURN_IF_ERROR(Ensure());
  op.seq = next_seq_++;
  Serializer payload;
  payload.U8(kPayloadOp);
  SerializeSnapOp(payload, op);
  RHODOS_RETURN_IF_ERROR(AppendRecord(payload.buffer()));
  // The force above is the commit point; the map reflects it immediately.
  for (const auto& e : op.ref_edits) {
    map_.SetCount(e.disk, e.first_fragment, e.block_count, e.count);
  }
  pending_seqs_.insert(op.seq);
  ++stats_.ops_logged;
  return op.seq;
}

Status SnapJournal::LogDone(std::uint64_t seq) {
  RHODOS_RETURN_IF_ERROR(Ensure());
  Serializer payload;
  payload.U8(kPayloadDone);
  payload.U64(seq);
  RHODOS_RETURN_IF_ERROR(AppendRecord(payload.buffer()));
  pending_seqs_.erase(seq);
  ++stats_.dones_logged;
  // Fold the log into a checkpoint at quiescence, before it fills.
  if (pending_seqs_.empty() && log_.head() > (log_.capacity() / 4) * 3) {
    RHODOS_RETURN_IF_ERROR(WriteCheckpoint());
  }
  return OkStatus();
}

Status SnapJournal::WriteCheckpoint() {
  RHODOS_ASSIGN_OR_RETURN(disk::DiskServer * server,
                          disks_->Get(RegionDisk()));
  Serializer payload;
  payload.U64(next_seq_);  // strictly grows: freshest slot wins at adopt
  map_.Serialize(payload);
  disk::StableRegion slot = CheckpointSlot(server, region_first_, ckpt_slot_);
  if (disk::FrameBytes(payload.size()) > slot.capacity()) {
    return {ErrorCode::kNoSpace, "share map exceeds checkpoint slot"};
  }
  disk::WriteFrame(slot.staging(), kCkptMagic, 0, payload.buffer());
  ++stats_.forces;
  RHODOS_RETURN_IF_ERROR(slot.Write(0, SlotFragments()));
  ckpt_slot_ = static_cast<std::uint8_t>((ckpt_slot_ + 1) % 2);
  ckpt_seq_ = next_seq_;
  ++stats_.checkpoints;
  // Reset the log: head to zero, and invalidate the old first record on
  // stable storage so an adopt after crash does not replay the stale log
  // over the new checkpoint's generation... which would still converge
  // (absolute counts), but pending detection must not resurrect old ops.
  log_.Clear();
  ++stats_.forces;
  return log_.WriteFirstFragment({});
}

std::vector<SnapOp> SnapJournal::TakePending() {
  std::vector<SnapOp> out = std::move(pending_ops_);
  pending_ops_.clear();
  return out;
}

void SnapJournal::Reset() {
  // Ensure re-initializes the rest of the volatile state.
  loaded_ = false;
  map_.Clear();
  log_ = disk::StableRegion();
  pending_ops_.clear();
}

}  // namespace rhodos::file
