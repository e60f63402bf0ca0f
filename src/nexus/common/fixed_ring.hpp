// Power-of-two ring buffer: the FIFO behind every hardware buffer model.
//
// The storage stays fixed in place while the ring has room, so the event
// hot loop pushes and pops without touching the heap; a push onto a full
// ring doubles the storage (unwrapping the contents), so a ring only
// allocates until it reaches its high-water mark. A default-constructed
// ring owns no storage at all, which keeps tables of idle rings free; its
// first push allocates kFirstCapacity elements at once.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "nexus/common/assert.hpp"
#include "nexus/common/bit_ops.hpp"

namespace nexus {

template <typename T>
class FixedRing {
 public:
  static constexpr std::size_t kFirstCapacity = 8;

  FixedRing() = default;
  /// Pre-size for `capacity` elements (rounded up to a power of two).
  explicit FixedRing(std::size_t capacity) {
    if (capacity > 0) buf_.resize(ceil_pow2(capacity));
  }

  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Push to the back, doubling the storage first when the ring is full.
  void push(T v) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(v);
    ++size_;
  }

  [[nodiscard]] T& front() {
    NEXUS_ASSERT_MSG(!empty(), "front on empty FixedRing");
    return buf_[head_];
  }
  [[nodiscard]] const T& front() const {
    NEXUS_ASSERT_MSG(!empty(), "front on empty FixedRing");
    return buf_[head_];
  }

  T pop() {
    NEXUS_ASSERT_MSG(!empty(), "pop on empty FixedRing");
    T v = std::move(buf_[head_]);
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
    return v;
  }

  /// Empty the ring, keeping its storage.
  void clear() {
    head_ = 0;
    size_ = 0;
  }

  /// Element i positions from the front (0 = front). For inspection in tests.
  [[nodiscard]] const T& at(std::size_t i) const {
    NEXUS_ASSERT(i < size_);
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }

 private:
  void grow() {
    std::vector<T> next(buf_.empty() ? kFirstCapacity : 2 * buf_.size());
    for (std::size_t i = 0; i < size_; ++i)
      next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    buf_.swap(next);
    head_ = 0;
  }

  std::vector<T> buf_;  ///< size is zero or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace nexus
