// Fragment-pool and block-pool (paper §5).
//
// "The space for caching a fragment and block is acquired from a
// fragment-pool and block-pool, respectively. The size of these pools is
// determined on the basis of the amount of main memory available. These
// pools of free buffers are maintained by the file agent, transaction agent
// and the file service."
//
// A BufferPool hands out fixed-size buffers through RAII handles; when the
// pool is exhausted the caller must evict (or degrade to uncached
// operation), which is how cache capacity limits propagate to the caching
// layers above.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/types.h"

namespace rhodos::file {

class BufferPool;

// RAII handle to one pooled buffer; returns it to the pool on destruction.
class PooledBuffer {
 public:
  PooledBuffer() = default;
  PooledBuffer(BufferPool* pool, std::vector<std::uint8_t> storage)
      : pool_(pool), storage_(std::move(storage)) {}

  PooledBuffer(PooledBuffer&& other) noexcept { *this = std::move(other); }
  PooledBuffer& operator=(PooledBuffer&& other) noexcept {
    Release();
    pool_ = std::exchange(other.pool_, nullptr);
    storage_ = std::move(other.storage_);
    return *this;
  }
  PooledBuffer(const PooledBuffer&) = delete;
  PooledBuffer& operator=(const PooledBuffer&) = delete;
  ~PooledBuffer() { Release(); }

  bool valid() const { return pool_ != nullptr; }
  std::uint8_t* data() { return storage_.data(); }
  const std::uint8_t* data() const { return storage_.data(); }
  std::size_t size() const { return storage_.size(); }
  std::span<std::uint8_t> span() { return storage_; }
  std::span<const std::uint8_t> span() const { return storage_; }

 private:
  void Release();

  BufferPool* pool_{nullptr};
  std::vector<std::uint8_t> storage_;
};

struct BufferPoolStats {
  std::uint64_t acquires = 0;
  std::uint64_t exhaustions = 0;  // Acquire() refused: pool empty
  std::size_t outstanding = 0;
};

class BufferPool {
 public:
  // `buffer_bytes` is the size of every buffer (kBlockSize for the file
  // service's block pool); `capacity` is the number of buffers it owns.
  BufferPool(std::size_t buffer_bytes, std::size_t capacity)
      : buffer_bytes_(buffer_bytes), capacity_(capacity) {
    free_.reserve(capacity);
    for (std::size_t i = 0; i < capacity; ++i) {
      free_.emplace_back(buffer_bytes, 0);
    }
  }

  std::size_t buffer_bytes() const { return buffer_bytes_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t available() const { return free_.size(); }

  // Returns a zero-filled buffer, or nullopt when the pool is exhausted.
  std::optional<PooledBuffer> Acquire() {
    ++stats_.acquires;
    if (free_.empty()) {
      ++stats_.exhaustions;
      return std::nullopt;
    }
    std::vector<std::uint8_t> storage = std::move(free_.back());
    free_.pop_back();
    std::fill(storage.begin(), storage.end(), std::uint8_t{0});
    ++stats_.outstanding;
    return PooledBuffer{this, std::move(storage)};
  }

  const BufferPoolStats& stats() const { return stats_; }

 private:
  friend class PooledBuffer;

  void Return(std::vector<std::uint8_t> storage) {
    assert(storage.size() == buffer_bytes_);
    free_.push_back(std::move(storage));
    --stats_.outstanding;
  }

  std::size_t buffer_bytes_;
  std::size_t capacity_;
  std::vector<std::vector<std::uint8_t>> free_;
  BufferPoolStats stats_;
};

inline void PooledBuffer::Release() {
  if (pool_ != nullptr) {
    pool_->Return(std::move(storage_));
    pool_ = nullptr;
  }
}

}  // namespace rhodos::file
