#include "txn/txn_log.h"

#include <cstring>

namespace rhodos::txn {

namespace {

constexpr std::uint32_t kRecordMagic = 0x544E4C47;  // "TNLG"
constexpr std::uint32_t kBatchMagic = 0x544E4C42;   // "TNLB"
constexpr std::uint64_t kRecordOverhead = 16;       // 8 header + 8 checksum

// FNV-1a with the log generation folded into the offset basis: the same
// bytes framed under two generations never share a checksum (each step of
// the hash is a bijection of its state). Generation 0 is plain FNV-1a.
std::uint64_t Fnv1a(std::uint32_t generation,
                    std::span<const std::uint8_t> data) {
  std::uint64_t h = 1469598103934665603ULL ^ generation;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

void PutU64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

std::uint64_t GetU64(const std::uint8_t* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  }
  return v;
}

// Walks record frames in `payload`, invoking `fn` for each frame whose own
// checksum (under `generation`) and deserialization hold, stopping at the
// first invalid one. Returns the number of records replayed.
std::uint64_t WalkRecords(std::uint32_t generation,
                          std::span<const std::uint8_t> payload,
                          const std::function<void(const IntentionRecord&)>* fn,
                          bool* stopped_torn) {
  std::uint64_t pos = 0;
  std::uint64_t replayed = 0;
  if (stopped_torn != nullptr) *stopped_torn = false;
  while (pos + kRecordOverhead <= payload.size()) {
    Deserializer header{{payload.data() + pos, 8}};
    if (header.U32() != kRecordMagic) {
      if (stopped_torn != nullptr) *stopped_torn = true;
      break;
    }
    const std::uint32_t len = header.U32();
    if (pos + 8 + len + 8 > payload.size()) {
      if (stopped_torn != nullptr) *stopped_torn = true;
      break;
    }
    std::span<const std::uint8_t> body{payload.data() + pos + 8, len};
    if (GetU64(payload.data() + pos + 8 + len) != Fnv1a(generation, body)) {
      if (stopped_torn != nullptr) *stopped_torn = true;
      break;
    }
    Deserializer in{body};
    auto record = DeserializeIntention(in);
    if (!record.ok()) {
      if (stopped_torn != nullptr) *stopped_torn = true;
      break;
    }
    if (fn != nullptr) (*fn)(*record);
    ++replayed;
    pos += 8 + len + 8;
  }
  return replayed;
}

// Writes a batch frame header plus payload plus checksum at `out`, which
// must have room for kBatchOverhead + payload.size() bytes.
void PutBatchFrame(std::uint8_t* out, std::uint32_t generation,
                   std::span<const std::uint8_t> payload,
                   std::uint32_t records) {
  Serializer header;
  header.U32(kBatchMagic);
  header.U32(static_cast<std::uint32_t>(payload.size()));
  header.U32(records);
  header.U32(generation);
  std::memcpy(out, header.buffer().data(), 16);
  if (!payload.empty()) std::memcpy(out + 16, payload.data(), payload.size());
  PutU64(out + 16 + payload.size(), Fnv1a(generation, payload));
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
  Serializer header;
  header.U32(kRecordMagic);
  header.U32(static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), header.buffer().begin(), header.buffer().end());
  out.insert(out.end(), payload.buffer().begin(), payload.buffer().end());
  std::uint8_t sum[8];
  PutU64(sum, Fnv1a(generation, payload.buffer()));
  out.insert(out.end(), sum, sum + 8);
}

TxnLog::TxnLog(disk::DiskServer* server, FragmentIndex first_fragment,
               std::uint64_t fragment_count)
    : server_(server),
      first_fragment_(first_fragment),
      region_bytes_(fragment_count * kFragmentSize),
      buffer_(region_bytes_, 0) {}

Status TxnLog::WriteBack(std::uint64_t begin_byte, std::uint64_t end_byte) {
  // Round to fragment boundaries and push the touched fragments to stable
  // storage only (the log never occupies main-disk locations a reader would
  // consult; stable storage is its home). The touched fragments are one
  // contiguous range of the region, so they go down as one put_block: one
  // stable reference however many batch frames they carry.
  const std::uint64_t first_frag = begin_byte / kFragmentSize;
  const std::uint64_t last_frag = (end_byte - 1) / kFragmentSize;
  const auto count = static_cast<std::uint32_t>(last_frag - first_frag + 1);
  return server_->PutBlock(
      first_fragment_ + first_frag, count,
      {buffer_.data() + first_frag * kFragmentSize,
       static_cast<std::size_t>(count) * kFragmentSize},
      disk::StableMode::kStableOnly, disk::WriteSync::kSynchronous);
}

Status TxnLog::Append(const IntentionRecord& record) {
  BatchFramePayload frame;
  AppendRecordFrame(frame.payload, record, generation_);
  frame.records = 1;
  return AppendFrames({&frame, 1});
}

Status TxnLog::AppendFrames(std::span<const BatchFramePayload> frames) {
  if (frames.empty()) return OkStatus();
  std::uint64_t need = 0;
  for (const BatchFramePayload& f : frames) {
    need += kBatchOverhead + f.payload.size();
  }
  if (head_ + need > region_bytes_) {
    return {ErrorCode::kNoSpace, "intention log full"};
  }
  const std::uint64_t begin = head_;
  std::uint64_t pos = head_;
  for (const BatchFramePayload& f : frames) {
    PutBatchFrame(buffer_.data() + pos, generation_, f.payload, f.records);
    pos += kBatchOverhead + f.payload.size();
  }
  // A pending reset is made durable by this force: the head is 0 and the
  // frames carry the new generation. Clearing the mark first also keeps
  // the disk write barrier from forcing the reset under our own put.
  const bool was_pending = reset_pending_.exchange(false);
  appended_ = true;  // even a failed force may have torn frames in place
  const Status forced = WriteBack(begin, pos);
  if (!forced.ok()) {
    // The force failed (the stable device is gone or crashed): roll the
    // staged frames back so the head stays at the last byte known durable
    // and a later append overwrites whatever partial image the tear left.
    std::fill(buffer_.begin() + static_cast<std::ptrdiff_t>(begin),
              buffer_.begin() + static_cast<std::ptrdiff_t>(pos), 0);
    if (was_pending) reset_pending_.store(true);
    return forced;
  }
  head_ = pos;
  ++stats_.forces;
  stats_.batches += frames.size();
  for (const BatchFramePayload& f : frames) {
    stats_.appends += f.records;
    stats_.bytes_logged += kBatchOverhead + f.payload.size();
  }
  return OkStatus();
}

std::uint64_t TxnLog::WalkImage(
    std::span<const std::uint8_t> image,
    const std::function<void(const IntentionRecord&)>* fn,
    TxnLogAudit& audit) {
  std::uint64_t pos = 0;
  std::uint64_t valid_head = 0;
  while (pos + 16 <= image.size()) {
    Deserializer header{{image.data() + pos, 16}};
    if (header.U32() != kBatchMagic) break;  // blank tail: end of log
    const std::uint32_t len = header.U32();
    const std::uint32_t records = header.U32();
    (void)records;  // informational; the payload walk recounts
    const std::uint32_t generation = header.U32();
    if (pos == 0) {
      audit.generation = generation;
    } else if (generation != audit.generation) {
      break;  // an earlier generation's leftovers: end of log
    }
    const bool structurally_torn = pos + 16 + len + 8 > image.size();
    bool checksum_torn = false;
    std::span<const std::uint8_t> payload;
    if (!structurally_torn) {
      payload = std::span<const std::uint8_t>{image.data() + pos + 16, len};
      checksum_torn = GetU64(image.data() + pos + 16 + len) !=
                      Fnv1a(generation, payload);
    }
    if (structurally_torn || checksum_torn) {
      // Torn group-commit force: the header (or whole frame) landed but
      // the force did not complete. Each record frame inside carries its
      // own checksum, so the prefix the device did persist is replayed
      // record by record. The walk stops here — append order means
      // nothing after a tear is trustworthy — and the head stays at the
      // tear so new appends overwrite it.
      const std::span<const std::uint8_t> rest{
          image.data() + pos + 16,
          structurally_torn ? image.size() - pos - 16 : len};
      bool stopped_torn = false;
      const std::uint64_t salvaged =
          WalkRecords(generation, rest, fn, &stopped_torn);
      ++audit.torn_batches;
      audit.salvaged_records += salvaged;
      audit.records += salvaged;
      ++stats_.torn_batches;
      stats_.salvaged_records += salvaged;
      if (stopped_torn) ++stats_.torn_records_skipped;
      break;
    }
    bool stopped_torn = false;
    const std::uint64_t replayed =
        WalkRecords(generation, payload, fn, &stopped_torn);
    if (stopped_torn) {
      // The batch checksum held but a record inside does not parse — not a
      // tear the frame format can produce; treat the frame as torn and
      // stop, the same conservative answer as a failed batch checksum.
      ++audit.torn_batches;
      audit.salvaged_records += replayed;
      audit.records += replayed;
      ++stats_.torn_batches;
      stats_.salvaged_records += replayed;
      ++stats_.torn_records_skipped;
      break;
    }
    ++audit.batches;
    audit.records += replayed;
    pos += 16 + len + 8;
    valid_head = pos;
  }
  audit.bytes_valid = valid_head;
  return valid_head;
}

Status TxnLog::Scan(const std::function<void(const IntentionRecord&)>& fn) {
  // Recovery path: read the whole region image back from stable storage.
  std::vector<std::uint8_t> image(region_bytes_);
  const auto frag_count =
      static_cast<std::uint32_t>(region_bytes_ / kFragmentSize);
  RHODOS_RETURN_IF_ERROR(server_->GetBlock(first_fragment_, frag_count, image,
                                           disk::ReadSource::kStable));
  TxnLogAudit seen;
  const std::uint64_t valid_head = WalkImage(image, &fn, seen);
  // Adopt the persistent image so post-recovery appends continue after the
  // last fully-valid batch (overwriting any torn tail) under its
  // generation. The image is the truth now: any reset this object had
  // pending is void (a recovery redoes what the image holds), and the next
  // reset must move past the image's generation unless it held nothing
  // but empty frames.
  buffer_ = std::move(image);
  head_ = valid_head;
  generation_ = seen.generation;
  appended_ = seen.records > 0 || seen.torn_batches > 0;
  reset_pending_.store(false);
  return OkStatus();
}

Result<TxnLogAudit> TxnLog::Audit() {
  std::vector<std::uint8_t> image(region_bytes_);
  const auto frag_count =
      static_cast<std::uint32_t>(region_bytes_ / kFragmentSize);
  RHODOS_RETURN_IF_ERROR(server_->GetBlock(first_fragment_, frag_count, image,
                                           disk::ReadSource::kStable));
  // Walk without adopting: the audit must not disturb the live head, and
  // the walk's tear counters describe the image, not the log's history —
  // stash and restore the stats the shared walker touches.
  TxnLogAudit audit;
  const TxnLogStats saved = stats_;
  (void)WalkImage(image, nullptr, audit);
  stats_ = saved;
  return audit;
}

void TxnLog::ResetLazily() {
  ++stats_.truncations;
  if (!appended_) return;  // nothing forced since the last reset
  std::fill(buffer_.begin(), buffer_.end(), std::uint8_t{0});
  head_ = 0;
  ++generation_;
  appended_ = false;
  reset_pending_.store(true);
}

Status TxnLog::ForceReset() {
  if (!reset_pending_.exchange(false)) return OkStatus();
  // Only the first fragment is written: a scan stops at the first frame
  // of another generation, so everything after this empty frame is dead.
  std::vector<std::uint8_t> first(kFragmentSize, 0);
  PutBatchFrame(first.data(), generation_, {}, 0);
  const Status written = server_->PutBlock(first_fragment_, 1, first,
                                           disk::StableMode::kStableOnly,
                                           disk::WriteSync::kSynchronous);
  if (!written.ok()) {
    reset_pending_.store(true);
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
