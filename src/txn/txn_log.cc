#include "txn/txn_log.h"

#include <algorithm>
#include <utility>

namespace rhodos::txn {

namespace {

constexpr std::uint32_t kRecordMagic = 0x544E4C47;  // "TNLG"
constexpr std::uint32_t kBatchMagic = 0x544E4C42;   // "TNLB"
constexpr std::size_t kBatchWords = 2;              // records, generation

// Replays the record frames in `payload` through `fn` (if not null) and
// returns how many; sets `stopped_torn` if a frame that fails its checksum
// (under `generation`) or does not parse ended the walk.
std::uint64_t WalkRecords(std::uint32_t generation,
                          std::span<const std::uint8_t> payload,
                          const std::function<void(const IntentionRecord&)>* fn,
                          bool& stopped_torn) {
  std::uint64_t pos = 0;
  std::uint64_t replayed = 0;
  stopped_torn = false;
  while (pos + disk::FrameBytes(0) <= payload.size()) {
    const disk::Frame frame =
        disk::ReadFrame(payload.subspan(pos), kRecordMagic, generation);
    Deserializer in{frame.payload};
    auto record = DeserializeIntention(in);
    if (frame.state != disk::FrameState::kValid || !record.ok()) {
      stopped_torn = true;
      break;
    }
    if (fn != nullptr) (*fn)(*record);
    ++replayed;
    pos += frame.size;
  }
  return replayed;
}

// Walks the batch frames of a region image for Scan and Audit, filling
// `audit`; `fn` may be null.
void WalkImage(std::span<const std::uint8_t> image,
               const std::function<void(const IntentionRecord&)>* fn,
               TxnLogAudit& audit) {
  std::uint64_t pos = 0;
  for (;;) {
    disk::Frame batch = disk::ReadFrame(image.subspan(pos), kBatchMagic,
                                        audit.generation, kBatchWords);
    if (batch.state == disk::FrameState::kBlank) break;  // end of log
    if (batch.words[1] != audit.generation) {
      if (pos != 0) break;  // an earlier generation's leftovers: end of log
      // The frame at offset 0 names the log's generation.
      audit.generation = batch.words[1];
      batch = disk::ReadFrame(image, kBatchMagic, audit.generation,
                              kBatchWords);
    }
    if (batch.state == disk::FrameState::kValid && batch.words[0] == 0 &&
        !batch.payload.empty()) {
      pos += batch.size;  // padding to the end of a fragment
      continue;
    }
    bool stopped_torn = false;
    const std::uint64_t replayed =
        WalkRecords(audit.generation, batch.payload, fn, stopped_torn);
    audit.records += replayed;
    if (batch.state == disk::FrameState::kTorn || stopped_torn) {
      // A torn group-commit force (or a record that does not parse inside
      // a batch whose checksum holds, which gets the same conservative
      // answer): the record frames that checksum are the prefix the device
      // persisted, so they are replayed. The walk stops here — append order
      // means nothing after a tear is trustworthy — and the head stays at
      // the tear so new appends overwrite it.
      ++audit.torn_batches;
      audit.salvaged_records += replayed;
      if (stopped_torn) ++audit.torn_records;
      break;
    }
    ++audit.batches;
    pos += batch.size;
  }
  audit.bytes_valid = pos;
}

}  // namespace

void SerializeIntention(Serializer& out, const IntentionRecord& r) {
  out.U8(static_cast<std::uint8_t>(r.kind));
  out.U64(r.txn.value);
  out.U64(r.file.value);
  out.U64(r.block_index);
  out.U64(r.offset);
  out.U32(r.new_disk.value);
  out.U64(r.new_fragment);
  out.U8(static_cast<std::uint8_t>(r.status));
  out.Bytes(r.data);
}

Result<IntentionRecord> DeserializeIntention(Deserializer& in) {
  IntentionRecord r;
  r.kind = static_cast<IntentionKind>(in.U8());
  r.txn = TxnId{in.U64()};
  r.file = FileId{in.U64()};
  r.block_index = in.U64();
  r.offset = in.U64();
  r.new_disk = DiskId{in.U32()};
  r.new_fragment = in.U64();
  r.status = static_cast<TxnStatus>(in.U8());
  r.data = in.Bytes();
  if (!in.ok()) {
    return Error{ErrorCode::kMediaError, "truncated intention record"};
  }
  return r;
}

void AppendRecordFrame(std::vector<std::uint8_t>& out,
                       const IntentionRecord& record,
                       std::uint32_t generation) {
  Serializer payload;
  SerializeIntention(payload, record);
  const std::size_t at = out.size();
  out.resize(at + disk::FrameBytes(payload.size()));
  disk::WriteFrame(std::span<std::uint8_t>(out).subspan(at), kRecordMagic,
                   generation, payload.buffer());
}

TxnLog::TxnLog(disk::DiskServer* server, FragmentIndex first_fragment,
               std::uint64_t fragment_count)
    : region_(server, first_fragment, fragment_count) {}

Status TxnLog::Append(const IntentionRecord& record) {
  BatchFramePayload frame;
  AppendRecordFrame(frame.payload, record, generation_);
  frame.records = 1;
  return AppendFrames({&frame, 1});
}

Status TxnLog::AppendFrames(std::span<const BatchFramePayload> frames) {
  if (frames.empty()) return OkStatus();
  std::uint64_t need = 0;
  std::uint64_t largest = 0;
  for (const BatchFramePayload& f : frames) {
    need += kBatchOverhead + f.payload.size();
    largest = std::max<std::uint64_t>(largest,
                                      kBatchOverhead + f.payload.size());
  }
  if (region_.head() + need > region_.capacity()) {
    return {ErrorCode::kNoSpace, "intention log full"};
  }
  // When the fragment this force ends in has less room left than the
  // largest frame it carries, a padding frame (no records) fills it: the
  // next force then starts on a fresh fragment instead of rewriting this
  // one and likely running into the next. The force writes that fragment
  // anyway, so the padding costs no write, and the region is whole
  // fragments, so it always fits.
  const std::uint64_t end = region_.head() + need;
  const std::uint64_t room =
      (kFragmentSize - end % kFragmentSize) % kFragmentSize;
  const std::uint64_t pad = room > kBatchOverhead && room < largest ? room : 0;
  std::span<std::uint8_t> out = region_.staging();
  for (const BatchFramePayload& f : frames) {
    const std::uint32_t words[kBatchWords] = {f.records, generation_};
    disk::WriteFrame(out, kBatchMagic, generation_, f.payload, words);
    out = out.subspan(kBatchOverhead + f.payload.size());
  }
  if (pad > 0) {
    const std::vector<std::uint8_t> filler(pad - kBatchOverhead, 0);
    const std::uint32_t words[kBatchWords] = {0, generation_};
    disk::WriteFrame(out, kBatchMagic, generation_, filler, words);
  }
  // A pending reset is made durable by this force: the head is 0 and the
  // frames carry the new generation.
  const bool was_pending = std::exchange(reset_pending_, false);
  appended_ = true;  // even a failed force may have torn frames in place
  // One put however many batch frames the force carries; a failed one
  // leaves the head at the last byte known durable.
  const Status forced = region_.Append(need + pad);
  if (!forced.ok()) {
    if (was_pending) reset_pending_ = true;
    return forced;
  }
  ++stats_.forces;
  stats_.batches += frames.size();
  for (const BatchFramePayload& f : frames) {
    stats_.appends += f.records;
    stats_.bytes_logged += kBatchOverhead + f.payload.size();
  }
  return OkStatus();
}

Status TxnLog::Scan(const std::function<void(const IntentionRecord&)>& fn) {
  // Recovery path: read the whole region image back from stable storage.
  RHODOS_ASSIGN_OR_RETURN(std::vector<std::uint8_t> image, region_.Load());
  TxnLogAudit seen;
  WalkImage(image, &fn, seen);
  stats_.torn_batches += seen.torn_batches;
  stats_.salvaged_records += seen.salvaged_records;
  stats_.torn_records_skipped += seen.torn_records;
  // Adopt the persistent image so post-recovery appends continue after the
  // last fully-valid batch (overwriting any torn tail) under its
  // generation. The image is the truth now: any reset this object had
  // pending is void (a recovery redoes what the image holds), and the next
  // reset must move past the image's generation unless it held nothing
  // but empty frames.
  region_.Adopt(std::move(image), seen.bytes_valid);
  generation_ = seen.generation;
  appended_ = seen.records > 0 || seen.torn_batches > 0;
  reset_pending_ = false;
  return OkStatus();
}

Result<TxnLogAudit> TxnLog::Audit() {
  // Walk without adopting: the audit leaves the live head and stats alone.
  RHODOS_ASSIGN_OR_RETURN(std::vector<std::uint8_t> image, region_.Load());
  TxnLogAudit audit;
  WalkImage(image, nullptr, audit);
  return audit;
}

void TxnLog::ResetLazily() {
  ++stats_.truncations;
  if (!appended_) return;  // nothing forced since the last reset
  region_.Clear();
  ++generation_;
  appended_ = false;
  reset_pending_ = true;
}

Status TxnLog::ForceReset() {
  if (!std::exchange(reset_pending_, false)) return OkStatus();
  // Only the first fragment is written: a scan stops at the first frame
  // of another generation, so everything after this empty frame is dead.
  std::uint8_t empty[kBatchOverhead];
  const std::uint32_t words[kBatchWords] = {0, generation_};
  disk::WriteFrame(empty, kBatchMagic, generation_, {}, words);
  const Status written = region_.WriteFirstFragment(empty);
  if (!written.ok()) {
    reset_pending_ = true;
    return written;
  }
  ++stats_.reset_writes;
  return OkStatus();
}

Status TxnLog::Truncate() {
  ResetLazily();
  return ForceReset();
}

}  // namespace rhodos::txn
