// Hostile input for the two read message kinds: kPread bodies sent to the
// file service and kPeerRead bodies sent to an agent's peer handler are
// given seeded bit flips, truncations and rewritten offset/length fields
// (near 0, near the file size, near 2^64). Every reply must be an error or
// a bounded read that matches the written bytes; run under the sanitizer
// build, nothing may crash or allocate by a length the caller only claimed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "agent/fs_protocol.h"
#include "common/rng.h"
#include "core/facility.h"

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

// Sends `body` as `op` to `address`; returns the served bytes, or the
// reply's error.
Result<std::vector<std::uint8_t>> Send(DistributedFileFacility& f,
                                       const std::string& address, FsOp op,
                                       const std::vector<std::uint8_t>& body) {
  auto r = f.bus().Call(address, static_cast<std::uint32_t>(op), body,
                        "hostile-caller");
  if (!r.ok()) return r.error();
  Deserializer in{*r};
  RHODOS_RETURN_IF_ERROR(DecodeStatus(in));
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

}  // namespace
}  // namespace rhodos::agent
