// Flat binary serialization used for two purposes:
//   * on-disk structures (file index tables, intention records, WAL entries)
//     that must survive a simulated crash and be re-parsed at recovery, and
//   * request/reply payloads on the simulated message bus.
//
// Little-endian, length-prefixed; a Reader never reads past its buffer and
// reports truncation through its ok() flag so corrupt media degrade to
// recoverable errors instead of UB.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace rhodos {

class Serializer {
 public:
  void U8(std::uint8_t v) { Raw(&v, 1); }
  void U16(std::uint16_t v) { Fixed(v); }
  void U32(std::uint32_t v) { Fixed(v); }
  void U64(std::uint64_t v) { Fixed(v); }
  void I64(std::int64_t v) { Fixed(static_cast<std::uint64_t>(v)); }

  void Bytes(std::span<const std::uint8_t> data) {
    U32(static_cast<std::uint32_t>(data.size()));
    Raw(data.data(), data.size());
  }

  void String(std::string_view s) {
    U32(static_cast<std::uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }

  const std::vector<std::uint8_t>& buffer() const { return buffer_; }
  std::vector<std::uint8_t> Take() && { return std::move(buffer_); }
  std::size_t size() const { return buffer_.size(); }

 private:
  template <typename T>
  void Fixed(T v) {
    std::uint8_t bytes[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    Raw(bytes, sizeof(T));
  }

  void Raw(const void* data, std::size_t n) {
    const std::size_t at = buffer_.size();
    buffer_.resize(at + n);
    if (n > 0) std::memcpy(buffer_.data() + at, data, n);
  }

  std::vector<std::uint8_t> buffer_;
};

class Deserializer {
 public:
  explicit Deserializer(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t U8() { return FixedAt<std::uint8_t>(); }
  std::uint16_t U16() { return FixedAt<std::uint16_t>(); }
  std::uint32_t U32() { return FixedAt<std::uint32_t>(); }
  std::uint64_t U64() { return FixedAt<std::uint64_t>(); }
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }

  std::vector<std::uint8_t> Bytes() {
    const std::uint32_t n = U32();
    std::vector<std::uint8_t> out;
    if (!Check(n)) return out;
    out.assign(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
               data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }

  std::string String() {
    const std::uint32_t n = U32();
    if (!Check(n)) return {};
    std::string out(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return out;
  }

  // True iff no read has run past the end of the buffer.
  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  template <typename T>
  T FixedAt() {
    if (!Check(sizeof(T))) return T{};
    T v{};
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    return v;
  }

  bool Check(std::size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_{0};
  bool ok_{true};
};

}  // namespace rhodos
