// Hostile input for every file-service request kind. kPread and
// kPwriteVec bodies sent to the file service and kPeerRead bodies sent to
// an agent's peer handler are given seeded bit flips, truncations and
// rewritten count/offset/length fields (near 0, near the file size, near
// 2^64); kPwriteVec bodies also get a rewritten finish kind and finish
// file. kCallbackBreak bodies and unknown opcodes sent to an agent's
// break handler must leave the agent serving the model's bytes. Every
// read reply must be an error or a bounded read that matches the written
// bytes, and every write reply an error that ran no close or sync, or the
// write a byte model predicts followed by the predicted close or sync,
// with no space lost to a refused write. The remaining kinds (create,
// delete, open, getattr, resize, callback renew, snapshot, clone) get the
// same treatment against a model of the files they may touch, and the
// files must audit clean afterwards. Run under the sanitizer build,
// nothing may crash or allocate by a length the caller only claimed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "agent/fs_protocol.h"
#include "common/rng.h"
#include "core/facility.h"
#include "file/fsck.h"

namespace rhodos::agent {
namespace {

using core::DistributedFileFacility;
using core::FacilityConfig;
using core::Machine;

constexpr int kTrials = 1000;
constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
// Offsets of the offset and length fields, shared by both bodies (each
// starts file u64, offset u64, length u64).
constexpr std::size_t kOffsetField = 8;
constexpr std::size_t kLengthField = 16;

FacilityConfig ReadFacility() {
  FacilityConfig c;
  c.geometry.total_fragments = 16 * 1024;
  c.geometry.fragments_per_track = 32;
  c.agent.writeback_threshold = 0;
  c.agent.writeback_age_ns = 0;
  return c;
}

std::vector<std::uint8_t> FileBytes() {
  std::vector<std::uint8_t> v(3 * kBlockSize + 700);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  return v;
}

// The bytes a read of [offset, offset + length) must return: up to EOF.
std::vector<std::uint8_t> Expected(const std::vector<std::uint8_t>& file,
                                   std::uint64_t offset, std::uint64_t length) {
  if (offset >= file.size()) return {};
  const std::uint64_t n = std::min<std::uint64_t>(length, file.size() - offset);
  return {file.begin() + static_cast<std::ptrdiff_t>(offset),
          file.begin() + static_cast<std::ptrdiff_t>(offset + n)};
}

void PutU64(std::vector<std::uint8_t>& body, std::size_t at, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    body[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

// A field value near 0, near the file size or near 2^64, or random.
std::uint64_t Boundary(Rng& rng, std::uint64_t size) {
  const std::uint64_t jitter = rng.Below(3);
  switch (rng.Below(4)) {
    case 0: return jitter;
    case 1: return size - 1 + jitter;
    case 2: return kMax - jitter;
    default: return rng.Next();
  }
}

// One seeded mutation: a bit flip, a truncation, or the offset and/or
// length field rewritten to a boundary value.
void Mutate(Rng& rng, std::vector<std::uint8_t>& body, std::uint64_t size) {
  switch (rng.Below(3)) {
    case 0:
      body[rng.Below(body.size())] ^=
          static_cast<std::uint8_t>(1u << rng.Below(8));
      return;
    case 1:
      body.resize(rng.Below(body.size()));
      return;
    default:
      if (rng.Chance(0.7)) PutU64(body, kOffsetField, Boundary(rng, size));
      if (rng.Chance(0.7)) PutU64(body, kLengthField, Boundary(rng, size));
      return;
  }
}

struct Written {
  FileId id;
  std::vector<std::uint8_t> bytes;
};

// Writes the model file through one machine and closes it (close flushes).
Written WriteModelFile(Machine& m) {
  Written w{FileId{}, FileBytes()};
  auto od = *m.file_agent->Create(naming::ByName("model"),
                                  file::ServiceType::kBasic);
  EXPECT_TRUE(m.file_agent->Pwrite(od, 0, w.bytes).ok());
  w.id = *m.file_agent->FileOf(od);
  EXPECT_TRUE(m.file_agent->Close(od).ok());
  return w;
}

// Sends `body` as `op` to `address`; returns the served bytes (none for a
// write), or the reply's error.
Result<std::vector<std::uint8_t>> Send(DistributedFileFacility& f,
                                       const std::string& address, FsOp op,
                                       const std::vector<std::uint8_t>& body) {
  auto r = f.bus().Call(address, static_cast<std::uint32_t>(op), body,
                        "hostile-caller");
  if (!r.ok()) return r.error();
  Deserializer in{*r};
  RHODOS_RETURN_IF_ERROR(DecodeStatus(in));
  if (op == FsOp::kPwriteVec) return std::vector<std::uint8_t>{};
  if (op == FsOp::kPread) {
    in.U64();  // version token
    if (in.U8() != kPreadReplyData) {
      return Error{ErrorCode::kInternal, "redirect with the tier off"};
    }
  }
  std::vector<std::uint8_t> data = in.Bytes();
  if (!in.ok()) return Error{ErrorCode::kInternal, "malformed reply"};
  return data;
}

// Regression: the service allocated its reply buffer by the requested
// length before clamping the read to the file, so a length of 2^62
// aborted the process with bad_alloc.
TEST(ReadMutationTest, PreadLengthBeyondTheAddressSpaceIsBoundedByTheFile) {
  DistributedFileFacility f(ReadFacility());
  const Written w = WriteModelFile(f.AddMachine());
  for (const std::uint64_t length : {std::uint64_t{1} << 62, kMax}) {
    PreadRequest req{w.id, 0, length, "", true};
    auto got = Send(f, core::kFileServiceAddress, FsOp::kPread, req.Encode());
    ASSERT_TRUE(got.ok()) << got.error().message;
    EXPECT_EQ(*got, w.bytes);
  }
  // A range whose end wraps past 2^64 is refused, not served.
  PreadRequest wrap{w.id, kBlockSize, kMax, "", true};
  auto refused = Send(f, core::kFileServiceAddress, FsOp::kPread,
                      wrap.Encode());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code, ErrorCode::kInvalidArgument);
}

// The same flaw in the peer handler: it reserved the requested length once
// the promise checks passed.
TEST(ReadMutationTest, PeerReadLengthBeyondTheAddressSpaceIsBoundedByTheCache) {
  DistributedFileFacility f(ReadFacility());
  const Written w = WriteModelFile(f.AddMachine());
  Machine& peer = f.AddMachine();
  auto od = *peer.file_agent->Open(naming::ByName("model"));
  std::vector<std::uint8_t> out(w.bytes.size());
  ASSERT_EQ(*peer.file_agent->Pread(od, 0, out), out.size());
  PeerReadRequest req{w.id, 0, std::uint64_t{1} << 62,
                      f.files().Version(w.id)};
  auto got = Send(f, peer.file_agent->callback_address(), FsOp::kPeerRead,
                  req.Encode());
  ASSERT_TRUE(got.ok()) << got.error().message;
  EXPECT_EQ(*got, w.bytes);
}

TEST(ReadMutationTest, HostilePreadBodiesGetAnErrorOrABoundedRead) {
  DistributedFileFacility f(ReadFacility());
  const Written w = WriteModelFile(f.AddMachine());
  const std::uint64_t size = w.bytes.size();
  Rng rng(20);
  int served = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    PreadRequest base{w.id, rng.Below(size), rng.Below(2 * kBlockSize),
                      trial % 2 == 0 ? "" : "cb-hostile", rng.Chance(0.5)};
    std::vector<std::uint8_t> body = base.Encode();
    Mutate(rng, body, size);
    auto decoded = PreadRequest::Decode(body);
    auto got = Send(f, core::kFileServiceAddress, FsOp::kPread, body);
    if (!decoded.ok()) {
      ASSERT_FALSE(got.ok()) << "trial " << trial;
      continue;
    }
    if (decoded->file != w.id) {
      // Another file id may name nothing, or some other file: either way
      // the reply is an error or at most the requested length.
      if (got.ok()) {
        EXPECT_LE(got->size(), decoded->length) << "trial " << trial;
      }
      continue;
    }
    ASSERT_TRUE(got.ok()) << "trial " << trial << ": "
                          << got.error().message;
    ASSERT_EQ(*got, Expected(w.bytes, decoded->offset, decoded->length))
        << "trial " << trial << " offset " << decoded->offset << " length "
        << decoded->length;
    ++served;
  }
  EXPECT_GT(served, kTrials / 4) << "most mutations must still reach a read";
}

TEST(ReadMutationTest, HostilePeerReadBodiesGetAnErrorOrTheCachedBytes) {
  DistributedFileFacility f(ReadFacility());
  const Written w = WriteModelFile(f.AddMachine());
  const std::uint64_t size = w.bytes.size();
  Machine& peer = f.AddMachine();
  auto od = *peer.file_agent->Open(naming::ByName("model"));
  std::vector<std::uint8_t> out(size);
  ASSERT_EQ(*peer.file_agent->Pread(od, 0, out), size);
  const std::string address = peer.file_agent->callback_address();
  Rng rng(21);
  int served = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    // A cached read re-arms the peer's promise should its lease lapse.
    ASSERT_TRUE(peer.file_agent->Pread(od, 0, out).ok());
    const std::uint64_t version = f.files().Version(w.id);
    PeerReadRequest base{w.id, rng.Below(size), rng.Below(2 * kBlockSize),
                         version};
    std::vector<std::uint8_t> body = base.Encode();
    Mutate(rng, body, size);
    auto decoded = PeerReadRequest::Decode(body);
    auto got = Send(f, address, FsOp::kPeerRead, body);
    if (!decoded.ok() || decoded->file != w.id ||
        decoded->expected_version != version) {
      ASSERT_FALSE(got.ok()) << "trial " << trial;
      continue;
    }
    // The peer may refuse a range it does not hold; what it serves is
    // exactly the file's bytes up to EOF.
    if (!got.ok()) continue;
    ASSERT_EQ(*got, Expected(w.bytes, decoded->offset, decoded->length))
        << "trial " << trial << " offset " << decoded->offset << " length "
        << decoded->length;
    ++served;
  }
  EXPECT_GT(served, kTrials / 4) << "most mutations must still reach a read";
}

// --- kCallbackBreak ---------------------------------------------------------

constexpr int kBreakTrials = 600;
// Body layout: file u64, version u64.
constexpr std::size_t kBreakBodySize = 16;

// Sends `body` as `opcode` to an agent's callback address. The reply must
// be one status and nothing after it.
Status SendToAgent(DistributedFileFacility& f, const std::string& address,
                   std::uint32_t opcode,
                   const std::vector<std::uint8_t>& body) {
  auto r = f.bus().Call(address, opcode, body, "hostile-caller");
  if (!r.ok()) return r.error();
  Deserializer in{*r};
  const Status status = DecodeStatus(in);
  EXPECT_TRUE(in.ok()) << "reply is not a status";
  EXPECT_EQ(in.remaining(), 0u) << "reply carries more than a status";
  return status;
}

// Seeded bit flips, truncations and extensions of break bodies whose
// version is the current token, 0, near 2^64 or random, mixed with unknown
// opcodes, against an agent that caches the whole model file under a
// promise while another machine keeps rewriting it. After every message
// the agent's own pread returns the model's bytes, and a peer read at a
// token the agent no longer vouches for is refused.
TEST(ReadMutationTest, HostileBreakBodiesLeaveTheAgentServingTheModel) {
  DistributedFileFacility f(ReadFacility());
  Machine& writer = f.AddMachine();
  Written w = WriteModelFile(writer);
  const std::uint64_t size = w.bytes.size();
  auto wd = *writer.file_agent->Open(naming::ByName("model"));
  Machine& peer = f.AddMachine();
  auto od = *peer.file_agent->Open(naming::ByName("model"));
  const std::string address = peer.file_agent->callback_address();
  std::vector<std::uint8_t> out(size);
  ASSERT_EQ(*peer.file_agent->Pread(od, 0, out), size);
  const auto peer_read = [&](std::uint64_t version) {
    return Send(f, address, FsOp::kPeerRead,
                PeerReadRequest{w.id, 0, size, version}.Encode());
  };

  Rng rng(24);
  int breaks = 0;
  int served = 0;
  for (int trial = 0; trial < kBreakTrials; ++trial) {
    const std::string where = "trial " + std::to_string(trial);
    if (trial % 16 == 15) {
      // A real write: the server breaks the peer's promise and the model
      // moves on.
      const std::uint64_t at = rng.Below(size);
      std::vector<std::uint8_t> patch(1 + rng.Below(size - at));
      for (auto& b : patch) b = static_cast<std::uint8_t>(rng.Next());
      ASSERT_TRUE(writer.file_agent->Pwrite(wd, at, patch).ok()) << where;
      ASSERT_TRUE(writer.file_agent->Flush(wd).ok()) << where;
      std::copy(patch.begin(), patch.end(),
                w.bytes.begin() + static_cast<std::ptrdiff_t>(at));
    }
    const std::uint64_t held = f.files().Version(w.id);
    const std::uint64_t versions[] = {held, held - 1, held + 1, 0,
                                      kMax - rng.Below(3), rng.Next()};
    CallbackBreak base{rng.Chance(0.9) ? w.id : FileId{rng.Next()},
                       versions[rng.Below(6)]};
    std::vector<std::uint8_t> body = base.Encode();
    switch (rng.Below(4)) {
      case 0:
        body[rng.Below(body.size())] ^=
            static_cast<std::uint8_t>(1u << rng.Below(8));
        break;
      case 1:
        body.resize(rng.Below(kBreakBodySize));
        break;
      case 2:
        for (std::uint64_t n = 1 + rng.Below(kBreakBodySize); n > 0; --n) {
          body.push_back(static_cast<std::uint8_t>(rng.Next()));
        }
        break;
      default:
        break;  // unmutated
    }
    // One message in eight carries an opcode the agent does not serve.
    std::uint32_t opcode = static_cast<std::uint32_t>(FsOp::kCallbackBreak);
    if (rng.Below(8) == 0) {
      do {
        opcode = rng.Chance(0.5) ? static_cast<std::uint32_t>(rng.Below(32))
                                 : static_cast<std::uint32_t>(rng.Next());
      } while (opcode == static_cast<std::uint32_t>(FsOp::kCallbackBreak) ||
               opcode == static_cast<std::uint32_t>(FsOp::kPeerRead));
    }

    const Status st = SendToAgent(f, address, opcode, body);
    auto decoded = CallbackBreak::Decode(body);
    bool broke = false;
    if (opcode != static_cast<std::uint32_t>(FsOp::kCallbackBreak)) {
      ASSERT_FALSE(st.ok()) << where;
      EXPECT_EQ(st.error().code, ErrorCode::kNotSupported) << where;
    } else if (!decoded.ok()) {
      ASSERT_FALSE(st.ok()) << where;
    } else {
      ASSERT_TRUE(st.ok()) << where << ": " << st.error().message;
      broke = decoded->file == w.id;
      breaks += broke ? 1 : 0;
    }

    // A broken promise vouches for nothing, not even the bytes the agent
    // still caches at the token it held.
    auto before = peer_read(held);
    if (broke) {
      EXPECT_FALSE(peer.file_agent->HoldsCallback(w.id)) << where;
      ASSERT_FALSE(before.ok()) << where << ": served after its break";
    } else if (before.ok()) {
      ASSERT_EQ(*before, w.bytes) << where;
      ++served;
    }

    ASSERT_EQ(*peer.file_agent->Pread(od, 0, out), size) << where;
    ASSERT_EQ(out, w.bytes) << where;

    // The pread re-armed the promise at the current token: the agent serves
    // that token and no other.
    if (broke) {
      auto after = peer_read(decoded->version);
      if (decoded->version == f.files().Version(w.id)) {
        ASSERT_TRUE(after.ok()) << where << ": " << after.error().message;
        ASSERT_EQ(*after, w.bytes) << where;
      } else {
        ASSERT_FALSE(after.ok()) << where << ": served a token it lost";
      }
    }
  }
  EXPECT_GT(breaks, kBreakTrials / 4) << "most breaks must still decode";
  EXPECT_GT(served, kBreakTrials / 4) << "most promises must still serve";
  // Breaks naming files the agent never touched leave nothing behind.
  EXPECT_EQ(peer.file_agent->VersionTokenCount(), 1u);
}

// --- kPwriteVec ------------------------------------------------------------

// Body layout: count u32, then per extent file u64, offset u64, data
// (u32 length + bytes); the first extent's offset sits after count + file.
// The callback address (u32 length + bytes) follows the extents, and the
// body ends with the finish kind u8, the finish's file u64 and the token
// u64 (a closing batch's idempotency token).
constexpr std::size_t kCountField = 0;
constexpr std::size_t kFirstExtentOffset = 4 + 8;
constexpr std::size_t kFinishFromEnd = 1 + 8 + 8;
constexpr std::size_t kFinishFileFromEnd = 8 + 8;
constexpr std::size_t kTokenFromEnd = 8;
constexpr int kWriteTrials = 300;
// ReadFacility()'s one disk, in bytes.
constexpr std::uint64_t kDiskBytes = 16 * 1024 * kFragmentSize;

// `file` with `data` written at `offset`, zero-filling any gap.
void ApplyWrite(std::vector<std::uint8_t>& file, std::uint64_t offset,
                const std::vector<std::uint8_t>& data) {
  if (data.empty()) return;
  if (file.size() < offset + data.size()) file.resize(offset + data.size());
  std::copy(data.begin(), data.end(),
            file.begin() + static_cast<std::ptrdiff_t>(offset));
}

// A kPwriteVec reply: the batch's status, then the status of the finish
// it carried (OK when the batch failed or carried none).
struct BatchReply {
  Status batch;
  Status finish;
};

std::string Why(const Status& st) {
  return st.ok() ? "ok" : st.error().ToString();
}

BatchReply SendBatch(DistributedFileFacility& f,
                     const std::vector<std::uint8_t>& body) {
  auto r = f.bus().Call(core::kFileServiceAddress,
                        static_cast<std::uint32_t>(FsOp::kPwriteVec), body,
                        "hostile-caller");
  if (!r.ok()) return {Status{r.error()}, OkStatus()};
  Deserializer in{*r};
  Status batch = DecodeStatus(in);
  if (!batch.ok()) return {std::move(batch), OkStatus()};
  in.U64();  // bytes applied
  const std::uint32_t files = in.U32();
  for (std::uint32_t i = 0; i < files && in.ok(); ++i) {
    in.U64();  // file
    in.U64();  // version token
  }
  Status finish = DecodeStatus(in);
  if (!in.ok()) return {Status{ErrorCode::kInternal, "malformed reply"}, {}};
  return {std::move(batch), std::move(finish)};
}

std::vector<std::uint8_t> ReadAll(DistributedFileFacility& f, FileId id) {
  auto attrs = f.OwnerOf(id).GetAttributes(id);
  EXPECT_TRUE(attrs.ok());
  std::vector<std::uint8_t> out(attrs.ok() ? attrs->size : 0);
  EXPECT_TRUE(f.OwnerOf(id).Read(id, 0, out).ok());
  return out;
}

// Regression: a write whose end passes 2^64 used to be accepted and land
// its tail at the start of the file.
TEST(ReadMutationTest, PwriteVecExtentWrappingPastTheAddressSpaceIsRefused) {
  DistributedFileFacility f(ReadFacility());
  const Written w = WriteModelFile(f.AddMachine());
  const std::uint64_t free_before = f.disks().TotalFreeFragments();
  PwriteVecRequest req;
  req.extents.push_back(
      PwriteExtent{w.id, kMax - 50, std::vector<std::uint8_t>(200, 9)});
  auto got = Send(f, core::kFileServiceAddress, FsOp::kPwriteVec,
                  req.Encode());
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.error().code, ErrorCode::kInvalidArgument);
  EXPECT_EQ(ReadAll(f, w.id), w.bytes);
  EXPECT_EQ(f.disks().TotalFreeFragments(), free_before);
}

TEST(ReadMutationTest, HostilePwriteVecBodiesGetAnErrorOrThePredictedWrite) {
  DistributedFileFacility f(ReadFacility());
  const Written w = WriteModelFile(f.AddMachine());
  file::FileService& owner = f.OwnerOf(w.id);
  // Enough pins that no close a batch runs can drop the file's last one:
  // each close shows as one reference fewer.
  for (int i = 0; i < kWriteTrials; ++i) ASSERT_TRUE(owner.Open(w.id).ok());
  const auto refs = [&] { return owner.GetAttributes(w.id)->ref_count; };
  std::uint32_t open_refs = refs();
  std::vector<std::uint8_t> model = w.bytes;
  Rng rng(22);
  int applied = 0;
  int refused = 0;
  int closed = 0;
  int replayed = 0;
  // Tokens of the closing batches the server applied: a body that closes
  // under one of them gets the remembered reply and changes nothing.
  std::set<std::uint64_t> remembered;
  constexpr std::uint64_t kFirstToken = 1000;
  for (int trial = 0; trial < kWriteTrials; ++trial) {
    PwriteVecRequest base;
    const std::uint64_t extents = 1 + rng.Below(3);
    for (std::uint64_t e = 0; e < extents; ++e) {
      std::vector<std::uint8_t> data(1 + rng.Below(2 * kBlockSize));
      for (auto& b : data) b = static_cast<std::uint8_t>(rng.Next());
      base.extents.push_back(
          PwriteExtent{w.id, rng.Below(model.size() + kBlockSize), data});
    }
    base.finish = static_cast<PwriteFinish>(rng.Below(3));
    base.finish_file = w.id;
    base.token = kFirstToken + static_cast<std::uint64_t>(trial);
    std::vector<std::uint8_t> body = base.Encode();
    switch (rng.Below(7)) {
      case 0:
        body[rng.Below(body.size())] ^=
            static_cast<std::uint8_t>(1u << rng.Below(8));
        break;
      case 1:
        body.resize(rng.Below(body.size()));
        break;
      case 2: {
        const std::uint32_t counts[] = {0, 1, 2, 4, 0xFFFFFFFFu};
        const std::uint32_t count = counts[rng.Below(5)];
        for (std::size_t i = 0; i < 4; ++i) {
          body[kCountField + i] = static_cast<std::uint8_t>(count >> (8 * i));
        }
        break;
      }
      case 3:
        PutU64(body, kFirstExtentOffset, Boundary(rng, model.size()));
        break;
      case 4: {
        const std::uint8_t kinds[] = {0, 1, 2, 3, 0xFF};
        body[body.size() - kFinishFromEnd] = kinds[rng.Below(5)];
        break;
      }
      case 5:
        // An earlier trial's token (a replay when that trial closed), or 0.
        PutU64(body, body.size() - kTokenFromEnd,
               rng.Below(4) == 0 ? 0 : kFirstToken + rng.Below(trial + 1));
        break;
      default:
        PutU64(body, body.size() - kFinishFileFromEnd,
               Boundary(rng, w.id.value + 1));
        break;
    }
    auto decoded = PwriteVecRequest::Decode(body);
    const std::uint64_t free_before = f.disks().TotalFreeFragments();
    const std::uint64_t blocks_before = *owner.BlockCount(w.id);
    const bool replay = decoded.ok() &&
                        decoded->finish == PwriteFinish::kClose &&
                        remembered.contains(decoded->token);
    const BatchReply got = SendBatch(f, body);
    if (decoded.ok() && decoded->finish == PwriteFinish::kClose &&
        got.batch.ok()) {
      remembered.insert(decoded->token);
    }
    const std::vector<std::uint8_t> now = ReadAll(f, w.id);
    const std::string where = "trial " + std::to_string(trial);
    // Space may only go to blocks the file now maps (plus at most one
    // indirect block): a refused write gives back whatever it allocated.
    const std::uint64_t blocks_after = *owner.BlockCount(w.id);
    EXPECT_LE(free_before - f.disks().TotalFreeFragments(),
              (blocks_after - blocks_before + 1) * kFragmentsPerBlock)
        << where;
    if (!decoded.ok()) {
      ASSERT_FALSE(got.batch.ok()) << where;
      ASSERT_EQ(got.batch.code(), ErrorCode::kInvalidArgument) << where;
      ASSERT_EQ(now, model) << where;
      ASSERT_EQ(refs(), open_refs) << where << ": a refused body closed";
      continue;
    }
    if (replay) {
      ASSERT_TRUE(got.batch.ok()) << where << ": " << Why(got.batch);
      ASSERT_EQ(now, model) << where << ": a replay wrote";
      ASSERT_EQ(refs(), open_refs) << where << ": a replay closed";
      ++replayed;
      continue;
    }
    const bool foreign = std::any_of(
        decoded->extents.begin(), decoded->extents.end(),
        [&w](const PwriteExtent& e) { return e.file != w.id; });
    if (foreign) {
      // A rewritten file id names nothing or some other file; whatever the
      // reply, resume from the bytes and pins the model file now holds.
      model = now;
      open_refs = refs();
      continue;
    }
    // Extents apply in order; a failure leaves a prefix applied. An extent
    // ending past the disk's capacity cannot apply, nor can any after it.
    std::vector<std::vector<std::uint8_t>> prefixes{model};
    bool fits = true;
    for (const PwriteExtent& e : decoded->extents) {
      fits = e.offset + e.data.size() <= kDiskBytes;
      if (!fits) break;
      prefixes.push_back(prefixes.back());
      ApplyWrite(prefixes.back(), e.offset, e.data);
    }
    const bool closes = decoded->finish == PwriteFinish::kClose &&
                        decoded->finish_file == w.id;
    if (got.batch.ok()) {
      ASSERT_TRUE(fits) << where << ": a write past the disk";
      ASSERT_EQ(now, prefixes.back()) << where;
      // The finish ran after the write: a close of the pinned file drops
      // one reference, a sync of it or a batch with no finish succeeds and
      // keeps them all, and a finish aimed elsewhere leaves them alone.
      if (closes) {
        ASSERT_TRUE(got.finish.ok()) << where << ": " << Why(got.finish);
        ASSERT_EQ(refs(), open_refs - 1) << where;
        ++closed;
      } else {
        if (decoded->finish_file == w.id) {
          ASSERT_TRUE(got.finish.ok()) << where << ": " << Why(got.finish);
        }
        ASSERT_EQ(refs(), open_refs) << where;
      }
      ++applied;
    } else {
      const auto last = fits ? prefixes.end() - 1 : prefixes.end();
      ASSERT_NE(std::find(prefixes.begin(), last, now), last)
          << where << ": " << Why(got.batch);
      ASSERT_EQ(refs(), open_refs) << where << ": a refused batch closed";
      ++refused;
    }
    model = now;
    open_refs = refs();
  }
  EXPECT_GT(applied, kWriteTrials / 4) << "most mutations must still write";
  EXPECT_GT(refused, 0) << "some offsets must be refused";
  EXPECT_GT(closed, 0) << "some batches must close";
  EXPECT_GT(replayed, 0) << "some closing batches must reuse a token";
}

// --- every other request kind ---------------------------------------------

// Body layouts: FileRequest is token u64, file u64, cb; ResizeRequest is
// token u64, file u64, size u64, cb; CreateRequest is token u64, type u8,
// size hint u64, cb.
constexpr std::size_t kFileField = 8;
constexpr std::size_t kResizeSizeField = 16;
constexpr std::size_t kCreateHintField = 9;
constexpr int kKindTrials = 600;

// Sends `body` as `op` to the file service: the whole reply when its
// status is OK, else the status's error.
Result<sim::Payload> Call(DistributedFileFacility& f, FsOp op,
                          const std::vector<std::uint8_t>& body) {
  auto r = f.bus().Call(core::kFileServiceAddress,
                        static_cast<std::uint32_t>(op), body,
                        "hostile-caller");
  if (!r.ok()) return r.error();
  Deserializer in{*r};
  RHODOS_RETURN_IF_ERROR(DecodeStatus(in));
  return *r;
}

// What the model expects of one live file. Bytes a file never wrote read
// as zeros, those a create's size hint mapped included.
struct ModelFile {
  std::vector<std::uint8_t> bytes;
  bool immutable = false;
};

// Regression: a kResize body whose size sat within a block of 2^64 was
// rounded up to 0 blocks, freed the file's every block and succeeded.
TEST(ReadMutationTest, ResizeNearTheAddressSpaceLimitIsRefused) {
  DistributedFileFacility f(ReadFacility());
  const Written w = WriteModelFile(f.AddMachine());
  const std::uint64_t free_before = f.disks().TotalFreeFragments();
  for (const std::uint64_t size : {kMax, kMax - kBlockSize + 2,
                                   std::uint64_t{1} << 63}) {
    ResizeRequest req{size, w.id, size, ""};
    auto got = Call(f, FsOp::kResize, req.Encode());
    ASSERT_FALSE(got.ok()) << size;
    EXPECT_EQ(got.error().code, ErrorCode::kNoSpace) << size;
    EXPECT_EQ(ReadAll(f, w.id), w.bytes) << size;
    EXPECT_EQ(f.disks().TotalFreeFragments(), free_before) << size;
  }
}

TEST(ReadMutationTest, HostileBodiesOfEveryOtherKindGetAnErrorOrThePrediction) {
  DistributedFileFacility f(ReadFacility());
  const Written w = WriteModelFile(f.AddMachine());
  std::map<std::uint64_t, ModelFile> live{{w.id.value, {w.bytes, false}}};
  constexpr FsOp kKinds[] = {
      FsOp::kResize,  FsOp::kCreate,        FsOp::kDelete,
      FsOp::kOpen,    FsOp::kGetAttr,       FsOp::kCallbackRenew,
      FsOp::kSnapshot, FsOp::kClone};
  Rng rng(23);
  int succeeded = 0;
  int refused = 0;
  for (int trial = 0; trial < kKindTrials; ++trial) {
    const FsOp op = live.empty() ? FsOp::kCreate : kKinds[rng.Below(std::size(kKinds))];
    auto pick = live.begin();
    std::advance(pick, static_cast<std::ptrdiff_t>(
                           rng.Below(std::max<std::size_t>(live.size(), 1))));
    const FileId target = live.empty() ? FileId{} : FileId{pick->first};
    const std::uint64_t size =
        live.empty() ? 0 : static_cast<std::uint64_t>(pick->second.bytes.size());
    const std::uint64_t token = rng.Next() | 1;
    const std::string cb = trial % 2 == 0 ? "" : "cb-hostile";

    // Build, then mutate: a bit flip, a truncation, or the kind's
    // size field rewritten to a boundary value.
    std::vector<std::uint8_t> body;
    std::size_t size_field = 0;
    if (op == FsOp::kResize) {
      body = ResizeRequest{token, target, rng.Below(size + 2 * kBlockSize), cb}
                 .Encode();
      size_field = kResizeSizeField;
    } else if (op == FsOp::kCreate) {
      body = CreateRequest{token, file::ServiceType::kBasic,
                           rng.Below(4 * kBlockSize), cb}
                 .Encode();
      size_field = kCreateHintField;
    } else {
      body = FileRequest{token, target, cb}.Encode();
    }
    switch (rng.Below(4)) {
      case 0:
        body[rng.Below(body.size())] ^=
            static_cast<std::uint8_t>(1u << rng.Below(8));
        break;
      case 1:
        body.resize(rng.Below(body.size()));
        break;
      case 2:
        if (size_field != 0) {
          const std::uint64_t sizes[] = {0, size, std::uint64_t{1} << 63,
                                         kMax};
          PutU64(body, size_field, sizes[rng.Below(4)]);
        }
        break;
      default:
        break;  // unmutated
    }

    const std::uint64_t free_before = f.disks().TotalFreeFragments();
    auto got = Call(f, op, body);
    got.ok() ? ++succeeded : ++refused;
    const std::string where = "trial " + std::to_string(trial) + " op " +
                              std::to_string(static_cast<std::uint32_t>(op));

    if (op == FsOp::kCreate) {
      auto decoded = CreateRequest::Decode(body);
      if (!decoded.ok()) {
        ASSERT_FALSE(got.ok()) << where;
        continue;
      }
      if (!got.ok()) {
        EXPECT_EQ(f.disks().TotalFreeFragments(), free_before) << where;
        continue;
      }
      ASSERT_LE(decoded->size_hint, kDiskBytes) << where;
      Deserializer in{*got};
      (void)DecodeStatus(in);
      const FileId made{in.U64()};
      ASSERT_EQ(live.count(made.value), 0u) << where << ": id reused";
      ASSERT_EQ(*f.OwnerOf(made).BlockCount(made),
                BlocksCovering(decoded->size_hint))
          << where;
      live[made.value] = ModelFile{{}, false};
      ASSERT_TRUE(ReadAll(f, made).empty()) << where;
      continue;
    }

    auto resize = ResizeRequest::Decode(body);
    auto decoded = op == FsOp::kResize
                       ? resize.ok() ? Result<FileRequest>{FileRequest{
                                           resize->token, resize->file, ""}}
                                     : Result<FileRequest>{resize.error()}
                       : FileRequest::Decode(body);
    if (!decoded.ok()) {
      ASSERT_FALSE(got.ok()) << where;
      continue;
    }
    auto it = live.find(decoded->file.value);
    if (it == live.end()) {
      // A rewritten id names nothing the model tracks: whatever the reply,
      // the tracked files are checked below and audited at the end.
      continue;
    }
    ModelFile& m = it->second;
    switch (op) {
      case FsOp::kResize: {
        if (got.ok()) {
          ASSERT_FALSE(m.immutable) << where << ": resized a snapshot";
          ASSERT_LE(resize->size, kDiskBytes) << where;
          m.bytes.resize(resize->size, 0);
        } else {
          EXPECT_EQ(f.disks().TotalFreeFragments(), free_before)
              << where << ": a refused resize kept space";
        }
        break;
      }
      case FsOp::kDelete:
        if (got.ok()) live.erase(it);
        break;
      case FsOp::kOpen:
      case FsOp::kGetAttr:
        if (got.ok()) {
          Deserializer in{*got};
          (void)DecodeStatus(in);
          in.U64();  // version token
          EXPECT_EQ(DecodeAttributes(in).size, m.bytes.size()) << where;
        }
        break;
      case FsOp::kSnapshot:
      case FsOp::kClone:
        if (got.ok()) {
          Deserializer in{*got};
          (void)DecodeStatus(in);
          const FileId image{in.U64()};
          ASSERT_EQ(live.count(image.value), 0u) << where << ": id reused";
          live[image.value] =
              ModelFile{m.bytes, op == FsOp::kSnapshot};
        }
        break;
      default:  // renew changes no bytes
        break;
    }
    if (live.count(decoded->file.value) != 0) {
      ASSERT_EQ(ReadAll(f, decoded->file), live[decoded->file.value].bytes)
          << where;
    }
  }
  EXPECT_GT(succeeded, kKindTrials / 4) << "most mutations must still apply";
  EXPECT_GT(refused, 0) << "some bodies must be refused";

  // Every tracked file still holds what the model says, and the volume
  // audits clean: no block claimed twice, no share count off.
  std::vector<FileId> ids;
  for (const auto& [id, m] : live) {
    ids.push_back(FileId{id});
    EXPECT_EQ(ReadAll(f, FileId{id}), m.bytes) << "file " << id;
  }
  const file::AuditReport report = file::AuditFiles(
      [&f](FileId id) -> file::FileService& { return f.OwnerOf(id); }, ids);
  EXPECT_TRUE(report.clean()) << report.issues.size() << " issues";
}

}  // namespace
}  // namespace rhodos::agent
