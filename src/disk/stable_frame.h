// Stable-region frames: the one on-disk codec under the intention log
// (txn/txn_log.h) and the snapshot journal (file/snap_journal.h).
//
// Both keep a region of fragments on stable storage alone (put_block's
// stable-only mode: Lampson-style stable storage, paper §6.6–§6.7) and
// write it as a sequence of checksummed frames:
//
//   frame: [u32 magic][u32 len][u32 header word]*[payload, len bytes]
//          [u64 checksum(seed, payload)]
//
// Integers are little-endian. The magic names the frame kind; a scanner
// that finds another magic has reached the blank end of the region. The
// checksum covers the payload only, not the header words.
//
//   kind                    magic   header words    payload           seed
//   intention-log batch     "TNLB"  records, gen    record frames     gen
//   intention-log record    "TNLG"  -               one intention     gen
//   snapshot-journal record "RSNL"  -               u8 1 + op, or     0
//                                                   u8 2 + u64 seq
//   journal checkpoint slot "RSNC"  -               u64 seq +         0
//                                                   ShareMap image
//
// The checksum is 64-bit FNV-1a from the offset basis 1469598103934665603
// XOR the seed. That basis is standard FNV's 14695981039346656037 with the
// last digit dropped, as first written; it is part of the on-disk format
// of every region and of the bitmap checksum (disk/bitmap.h), so it stays.
// Every FNV step is a bijection of its state, so the same payload framed
// under two seeds never shares a checksum: an intention-log generation
// never replays another's frames.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "disk/disk_server.h"

namespace rhodos::disk {

inline constexpr std::uint64_t kChecksumBasis = 1469598103934665603ULL;

// Folds `data` into a running checksum. A checksum seeded with `seed`
// starts from kChecksumBasis ^ seed.
inline std::uint64_t Checksum(std::span<const std::uint8_t> data,
                              std::uint64_t state) {
  for (std::uint8_t b : data) {
    state ^= b;
    state *= 1099511628211ULL;
  }
  return state;
}

// Checksum of a block image: FNV-1a over 64-bit words read in host byte
// order, in four interleaved lanes that fold into one at the end; each
// step folds the lane back on itself so a change anywhere in a word
// reaches every bit. One multiply per 8 bytes, four in flight, instead of
// Checksum's one per byte in a chain: about 2 µs instead of 14 µs for an
// 8 KiB page on a 4-vCPU VM, paid once per shadow page a commit stages.
// Bytes past the last whole 32 go through Checksum.
inline std::uint64_t BlockChecksum(std::span<const std::uint8_t> block) {
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  auto step = [](std::uint64_t state, std::uint64_t word) {
    state = (state ^ word) * kPrime;
    return state ^ (state >> 29);
  };
  std::uint64_t lanes[4] = {kChecksumBasis, kChecksumBasis ^ 1,
                            kChecksumBasis ^ 2, kChecksumBasis ^ 3};
  std::size_t at = 0;
  for (; at + sizeof(lanes) <= block.size(); at += sizeof(lanes)) {
    for (std::size_t i = 0; i < 4; ++i) {
      std::uint64_t word;
      std::memcpy(&word, block.data() + at + i * sizeof(word), sizeof(word));
      lanes[i] = step(lanes[i], word);
    }
  }
  std::uint64_t state = kChecksumBasis;
  for (const std::uint64_t lane : lanes) state = step(state, lane);
  return Checksum(block.subspan(at), state);
}

// Bytes a frame with `header_words` header words and a `payload_len`-byte
// payload occupies.
constexpr std::uint64_t FrameBytes(std::uint64_t payload_len,
                                   std::size_t header_words = 0) {
  return 8 + 4 * header_words + payload_len + 8;
}

// Writes one frame at the start of `out`, which must have room for
// FrameBytes(payload.size(), header_words.size()).
void WriteFrame(std::span<std::uint8_t> out, std::uint32_t magic,
                std::uint32_t seed, std::span<const std::uint8_t> payload,
                std::span<const std::uint32_t> header_words = {});

enum class FrameState : std::uint8_t {
  kBlank,  // another magic, or too few bytes left for a header
  kTorn,   // a header, but the frame runs past the bytes or fails its sum
  kValid,
};

struct Frame {
  FrameState state = FrameState::kBlank;
  std::uint32_t words[2] = {};  // header words; read unless kBlank
  // kValid: the payload. kTorn: the bytes the header claims, cut short at
  // the end of the input.
  std::span<const std::uint8_t> payload;
  std::uint64_t size = 0;  // kValid: bytes the whole frame spans
};

// Parses the frame at the start of `at`, checking its checksum under
// `seed`; `header_words` is at most 2. Pure: reads nothing but `at`.
Frame ReadFrame(std::span<const std::uint8_t> at, std::uint32_t magic,
                std::uint32_t seed, std::size_t header_words = 0);

// A run of fragments on one disk's stable storage written as a frame log:
// an in-memory image of the region and an append head. Past the head the
// image is all zeros. Callers serialize access, except that
// WriteFirstFragment leaves the image alone and may overlap staging.
class StableRegion {
 public:
  StableRegion() = default;
  StableRegion(DiskServer* server, FragmentIndex first,
               std::uint64_t fragments);

  std::uint64_t capacity() const { return image_.size(); }
  std::uint64_t head() const { return head_; }

  // The bytes past the head, where the next frames are staged.
  std::span<std::uint8_t> staging() {
    return std::span<std::uint8_t>(image_).subspan(head_);
  }

  // The whole region as stable storage holds it. The image is untouched.
  Result<std::vector<std::uint8_t>> Load() const;

  // Takes `image` (as Load returned it) with the head at `head`, the end
  // of the frames a scan accepted; the bytes past the head are zeroed.
  void Adopt(std::vector<std::uint8_t> image, std::uint64_t head);

  // Empties the region in memory (zero image, head 0). Writes nothing.
  void Clear() { Adopt(std::move(image_), 0); }

  // Forces the first `bytes` of staging() with one stable-only,
  // synchronous put of exactly the fragments they touch, then moves the
  // head past them. On failure the staged bytes are zeroed and the head
  // stays, so the next append restages over whatever the failed put tore.
  Status Append(std::uint64_t bytes);

  // Writes fragments [first, first + count) of the image with one
  // stable-only, synchronous put (a checkpoint slot).
  Status Write(std::uint64_t first, std::uint64_t count);

  // Writes the region's first fragment as `frame` followed by zeros: the
  // durable half of a reset, after which a scan finds `frame` (or a blank
  // region) and stops there.
  Status WriteFirstFragment(std::span<const std::uint8_t> frame) const;

 private:
  DiskServer* server_ = nullptr;
  FragmentIndex first_ = 0;
  std::vector<std::uint8_t> image_;
  std::uint64_t head_ = 0;
};

}  // namespace rhodos::disk
