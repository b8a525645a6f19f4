#include "disk/bitmap.h"

#include <bit>
#include <cassert>

#include "disk/stable_frame.h"

namespace rhodos::disk {

bool Bitmap::IsRangeFree(FragmentIndex first, std::uint64_t count) const {
  if (first + count > fragment_count_) return false;
  for (std::uint64_t i = first; i < first + count; ++i) {
    if (IsAllocated(i)) return false;
  }
  return true;
}

void Bitmap::AllocateRange(FragmentIndex first, std::uint64_t count) {
  assert(first + count <= fragment_count_);
  for (std::uint64_t i = first; i < first + count; ++i) {
    words_[i / 64] |= (1ULL << (i % 64));
  }
}

void Bitmap::FreeRange(FragmentIndex first, std::uint64_t count) {
  assert(first + count <= fragment_count_);
  for (std::uint64_t i = first; i < first + count; ++i) {
    words_[i / 64] &= ~(1ULL << (i % 64));
  }
}

std::uint64_t Bitmap::CountFree() const {
  std::uint64_t allocated = 0;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    std::uint64_t word = words_[w];
    // Mask tail bits beyond fragment_count_ in the last word.
    if (w == words_.size() - 1 && fragment_count_ % 64 != 0) {
      word &= (1ULL << (fragment_count_ % 64)) - 1;
    }
    allocated += static_cast<std::uint64_t>(std::popcount(word));
  }
  return fragment_count_ - allocated;
}

std::optional<FragmentIndex> Bitmap::FindFreeRun(
    std::uint64_t count, FragmentIndex start_hint) const {
  if (count == 0 || count > fragment_count_) return std::nullopt;
  auto scan = [&](std::uint64_t from,
                  std::uint64_t to) -> std::optional<FragmentIndex> {
    std::uint64_t run = 0;
    for (std::uint64_t i = from; i < to; ++i) {
      run = IsFree(i) ? run + 1 : 0;
      if (run == count) return i + 1 - count;
    }
    return std::nullopt;
  };
  if (start_hint >= fragment_count_) start_hint = 0;
  if (auto hit = scan(start_hint, fragment_count_)) return hit;
  // Wrap: rescan from the start; overlap by count-1 would be needed for runs
  // spanning the hint, but allocations never wrap the disk edge anyway.
  return scan(0, std::min(start_hint + count - 1, fragment_count_));
}

std::uint64_t Bitmap::Checksum() const {
  // The stable-frame checksum over the size and then the words, each as
  // little-endian bytes: cheap and adequate to detect a torn metadata write
  // at recovery time.
  std::uint64_t h = kChecksumBasis;
  auto mix = [&h](std::uint64_t v) {
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    h = disk::Checksum(b, h);
  };
  mix(fragment_count_);
  for (std::uint64_t w : words_) mix(w);
  return h;
}

void Bitmap::SerializeTo(Serializer& out) const {
  out.U64(fragment_count_);
  out.U32(static_cast<std::uint32_t>(words_.size()));
  for (std::uint64_t w : words_) out.U64(w);
  out.U64(Checksum());
}

std::optional<Bitmap> Bitmap::Deserialize(Deserializer& in) {
  const std::uint64_t count = in.U64();
  const std::uint32_t n_words = in.U32();
  if (!in.ok() || count == 0 || n_words != (count + 63) / 64) {
    return std::nullopt;
  }
  Bitmap bm(count);
  for (std::uint32_t i = 0; i < n_words; ++i) bm.words_[i] = in.U64();
  const std::uint64_t stored = in.U64();
  if (!in.ok() || stored != bm.Checksum()) return std::nullopt;
  return bm;
}

}  // namespace rhodos::disk
