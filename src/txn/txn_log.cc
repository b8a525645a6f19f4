#include "txn/txn_log.h"

#include <cstring>

namespace rhodos::txn {

namespace {

constexpr std::uint32_t kRecordMagic = 0x544E4C47;  // "TNLG"
constexpr std::uint32_t kBatchMagic = 0x544E4C42;   // "TNLB"
constexpr std::uint64_t kRecordOverhead = 16;       // 8 header + 8 checksum

std::uint64_t Fnv1a(std::span<const std::uint8_t> data) {
  std::uint64_t h = 1469598103934665603ULL;
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
// checksum and deserialization hold, stopping at the first invalid one.
// Returns the number of records replayed.
std::uint64_t WalkRecords(std::span<const std::uint8_t> payload,
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
    if (GetU64(payload.data() + pos + 8 + len) != Fnv1a(body)) {
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
                       const IntentionRecord& record) {
  Serializer payload;
  SerializeIntention(payload, record);
  Serializer header;
  header.U32(kRecordMagic);
  header.U32(static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), header.buffer().begin(), header.buffer().end());
  out.insert(out.end(), payload.buffer().begin(), payload.buffer().end());
  std::uint8_t sum[8];
  PutU64(sum, Fnv1a(payload.buffer()));
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
  AppendRecordFrame(frame.payload, record);
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
    Serializer header;
    header.U32(kBatchMagic);
    header.U32(static_cast<std::uint32_t>(f.payload.size()));
    header.U32(f.records);
    header.U32(0);
    std::memcpy(buffer_.data() + pos, header.buffer().data(), 16);
    std::memcpy(buffer_.data() + pos + 16, f.payload.data(),
                f.payload.size());
    PutU64(buffer_.data() + pos + 16 + f.payload.size(), Fnv1a(f.payload));
    pos += kBatchOverhead + f.payload.size();
  }
  const Status forced = WriteBack(begin, pos);
  if (!forced.ok()) {
    // The force failed (the stable device is gone or crashed): roll the
    // staged frames back so the head stays at the last byte known durable
    // and a later append overwrites whatever partial image the tear left.
    std::fill(buffer_.begin() + static_cast<std::ptrdiff_t>(begin),
              buffer_.begin() + static_cast<std::ptrdiff_t>(pos), 0);
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
    TxnLogAudit* audit) {
  std::uint64_t pos = 0;
  std::uint64_t valid_head = 0;
  while (pos + 16 <= image.size()) {
    Deserializer header{{image.data() + pos, 16}};
    if (header.U32() != kBatchMagic) break;  // blank tail: end of log
    const std::uint32_t len = header.U32();
    const std::uint32_t records = header.U32();
    (void)records;  // informational; the payload walk recounts
    const bool structurally_torn = pos + 16 + len + 8 > image.size();
    bool checksum_torn = false;
    std::span<const std::uint8_t> payload;
    if (!structurally_torn) {
      payload = std::span<const std::uint8_t>{image.data() + pos + 16, len};
      checksum_torn = GetU64(image.data() + pos + 16 + len) != Fnv1a(payload);
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
      const std::uint64_t salvaged = WalkRecords(rest, fn, &stopped_torn);
      if (audit != nullptr) {
        ++audit->torn_batches;
        audit->salvaged_records += salvaged;
        audit->records += salvaged;
      }
      ++stats_.torn_batches;
      stats_.salvaged_records += salvaged;
      if (stopped_torn) ++stats_.torn_records_skipped;
      break;
    }
    bool stopped_torn = false;
    const std::uint64_t replayed = WalkRecords(payload, fn, &stopped_torn);
    if (stopped_torn) {
      // The batch checksum held but a record inside does not parse — not a
      // tear the frame format can produce; treat the frame as torn and
      // stop, the same conservative answer as a failed batch checksum.
      if (audit != nullptr) {
        ++audit->torn_batches;
        audit->salvaged_records += replayed;
        audit->records += replayed;
      }
      ++stats_.torn_batches;
      stats_.salvaged_records += replayed;
      ++stats_.torn_records_skipped;
      break;
    }
    if (audit != nullptr) {
      ++audit->batches;
      audit->records += replayed;
    }
    pos += 16 + len + 8;
    valid_head = pos;
  }
  if (audit != nullptr) audit->bytes_valid = valid_head;
  return valid_head;
}

Status TxnLog::Scan(const std::function<void(const IntentionRecord&)>& fn) {
  // Recovery path: read the whole region image back from stable storage.
  std::vector<std::uint8_t> image(region_bytes_);
  const auto frag_count =
      static_cast<std::uint32_t>(region_bytes_ / kFragmentSize);
  RHODOS_RETURN_IF_ERROR(server_->GetBlock(first_fragment_, frag_count, image,
                                           disk::ReadSource::kStable));
  const std::uint64_t valid_head = WalkImage(image, &fn, nullptr);
  // Adopt the persistent image so post-recovery appends continue after the
  // last fully-valid batch (overwriting any torn tail).
  buffer_ = std::move(image);
  head_ = valid_head;
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
  (void)WalkImage(image, nullptr, &audit);
  stats_ = saved;
  return audit;
}

Status TxnLog::Truncate() {
  std::fill(buffer_.begin(), buffer_.end(), std::uint8_t{0});
  const std::uint64_t old_head = head_;
  head_ = 0;
  ++stats_.truncations;
  if (old_head == 0) return OkStatus();
  // Only the first fragment needs zeroing on stable storage: scans stop at
  // the first bad magic.
  return WriteBack(0, kFragmentSize);
}

}  // namespace rhodos::txn
