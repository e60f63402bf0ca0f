// Inline fixed-capacity vector (no heap allocation).
//
// Task descriptors carry at most a handful of parameters (the paper's
// benchmarks use 1-6); storing them inline keeps descriptors contiguous and
// trivially copyable, which matters because the simulator copies them into
// hardware-model queues. The count is one byte: it adds at most the
// elements' alignment to the vector, never a whole size_t.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>

#include "nexus/common/assert.hpp"

namespace nexus {

template <typename T, std::size_t N>
class InlineVec {
  static_assert(N <= 255, "the count is kept in one byte");

 public:
  InlineVec() = default;
  InlineVec(std::initializer_list<T> init) {
    NEXUS_ASSERT(init.size() <= N);
    for (const T& v : init) push_back(v);
  }

  [[nodiscard]] static constexpr std::size_t capacity() { return N; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] bool full() const { return size_ == N; }

  void push_back(T v) {
    NEXUS_ASSERT_MSG(size_ < N, "InlineVec overflow");
    data_[size_++] = v;
  }
  void clear() { size_ = 0; }

  [[nodiscard]] T& operator[](std::size_t i) {
    NEXUS_DCHECK(i < size_);
    return data_[i];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    NEXUS_DCHECK(i < size_);
    return data_[i];
  }

  [[nodiscard]] T* begin() { return data_.data(); }
  [[nodiscard]] T* end() { return data_.data() + size_; }
  [[nodiscard]] const T* begin() const { return data_.data(); }
  [[nodiscard]] const T* end() const { return data_.data() + size_; }

  friend bool operator==(const InlineVec& a, const InlineVec& b) {
    if (a.size_ != b.size_) return false;
    for (std::size_t i = 0; i < a.size_; ++i)
      if (!(a.data_[i] == b.data_[i])) return false;
    return true;
  }

 private:
  std::array<T, N> data_{};
  std::uint8_t size_ = 0;
};

}  // namespace nexus
