#include "disk/stable_frame.h"

#include <algorithm>

#include "common/serializer.h"

namespace rhodos::disk {

namespace {

// Stores `v` as `n` little-endian bytes at `out`; returns the next byte.
std::uint8_t* PutLittleEndian(std::uint8_t* out, std::uint64_t v, int n) {
  for (int i = 0; i < n; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return out + n;
}

}  // namespace

void WriteFrame(std::span<std::uint8_t> out, std::uint32_t magic,
                std::uint32_t seed, std::span<const std::uint8_t> payload,
                std::span<const std::uint32_t> header_words) {
  std::uint8_t* at = PutLittleEndian(out.data(), magic, 4);
  at = PutLittleEndian(at, payload.size(), 4);
  for (std::uint32_t word : header_words) at = PutLittleEndian(at, word, 4);
  at = std::copy(payload.begin(), payload.end(), at);
  PutLittleEndian(at, Checksum(payload, kChecksumBasis ^ seed), 8);
}

Frame ReadFrame(std::span<const std::uint8_t> at, std::uint32_t magic,
                std::uint32_t seed, std::size_t header_words) {
  Frame frame;
  const std::size_t header = 8 + 4 * header_words;
  if (at.size() < header) return frame;
  Deserializer in{at.first(header)};
  if (in.U32() != magic) return frame;
  const std::uint32_t len = in.U32();
  for (std::size_t i = 0; i < header_words; ++i) frame.words[i] = in.U32();
  const std::span<const std::uint8_t> body = at.subspan(header);
  frame.payload = body.first(std::min<std::size_t>(len, body.size()));
  frame.state = FrameState::kTorn;
  if (body.size() < std::uint64_t{len} + 8) return frame;
  Deserializer sum{body.subspan(len, 8)};
  if (sum.U64() != Checksum(frame.payload, kChecksumBasis ^ seed)) return frame;
  frame.state = FrameState::kValid;
  frame.size = FrameBytes(len, header_words);
  return frame;
}

StableRegion::StableRegion(DiskServer* server, FragmentIndex first,
                           std::uint64_t fragments)
    : server_(server), first_(first), image_(fragments * kFragmentSize, 0) {}

Result<std::vector<std::uint8_t>> StableRegion::Load() const {
  std::vector<std::uint8_t> image(image_.size());
  RHODOS_RETURN_IF_ERROR(server_->GetBlock(
      first_, static_cast<std::uint32_t>(image.size() / kFragmentSize), image,
      ReadSource::kStable));
  return image;
}

void StableRegion::Adopt(std::vector<std::uint8_t> image, std::uint64_t head) {
  image_ = std::move(image);
  head_ = head;
  std::fill(staging().begin(), staging().end(), std::uint8_t{0});
}

Status StableRegion::Append(std::uint64_t bytes) {
  const std::uint64_t first = head_ / kFragmentSize;
  const std::uint64_t last = (head_ + bytes - 1) / kFragmentSize;
  const Status forced = Write(first, last - first + 1);
  if (!forced.ok()) {
    std::fill_n(staging().begin(), bytes, std::uint8_t{0});
    return forced;
  }
  head_ += bytes;
  return OkStatus();
}

Status StableRegion::Write(std::uint64_t first, std::uint64_t count) {
  return server_->PutBlock(
      first_ + first, static_cast<std::uint32_t>(count),
      std::span<const std::uint8_t>(image_).subspan(first * kFragmentSize,
                                                    count * kFragmentSize),
      StableMode::kStableOnly, WriteSync::kSynchronous);
}

Status StableRegion::WriteFirstFragment(
    std::span<const std::uint8_t> frame) const {
  std::vector<std::uint8_t> fragment(kFragmentSize, 0);
  std::copy(frame.begin(), frame.end(), fragment.begin());
  return server_->PutBlock(first_, 1, fragment, StableMode::kStableOnly,
                           WriteSync::kSynchronous);
}

}  // namespace rhodos::disk
