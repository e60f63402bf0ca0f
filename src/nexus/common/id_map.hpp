// Open-addressed hash map keyed by 32-bit ids (task ids).
//
// The hardware tables indexed by task id (Task Pool, Dep Counts table, the
// arbiters' Sim Tasks buffers) are fixed-size structures; this map keeps
// their contents in one flat slot array, so inserting and erasing allocate
// nothing once the map has reached its high-water mark. Linear probing
// from a Fibonacci hash of the id: live task ids form runs that span more
// than the table, and with the id's low bits as the home slot those runs
// would alias onto each other as long clusters. The all-ones id
// (kInvalidTask) marks an empty slot, and erase shifts the rest of the
// cluster back instead of leaving tombstones. There is deliberately no
// iteration API: no slot order can leak into a schedule.
//
// Pointers and references into the map stay valid until the next insert
// that grows it or the next erase. Sized for its maximum occupancy up
// front, a map never grows.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "nexus/common/assert.hpp"
#include "nexus/common/bit_ops.hpp"

namespace nexus {

template <typename V>
class IdMap {
 public:
  using Key = std::uint32_t;
  static constexpr Key kEmpty = ~Key{0};

  /// Room for `expected` entries before the first growth.
  explicit IdMap(std::size_t expected = 0) {
    resize(ceil_pow2(std::max<std::size_t>(8, 2 * expected)));
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  /// Slot count (a power of two); the map grows past half occupancy.
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  [[nodiscard]] V* find(Key k) {
    for (std::size_t i = home(k);; i = next(i)) {
      if (slots_[i].key == k) return &slots_[i].value;
      if (slots_[i].key == kEmpty) return nullptr;
    }
  }
  [[nodiscard]] const V* find(Key k) const {
    return const_cast<IdMap*>(this)->find(k);
  }
  [[nodiscard]] bool contains(Key k) const { return find(k) != nullptr; }

  /// The slot where `k`'s probe starts (exposed so tests can build
  /// collisions).
  [[nodiscard]] std::size_t home(Key k) const {
    return static_cast<std::size_t>((k * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  /// Insert {k, v} unless `k` is present. Returns the entry's value and
  /// whether it was inserted.
  std::pair<V*, bool> try_emplace(Key k, V v) {
    NEXUS_ASSERT_MSG(k != kEmpty, "IdMap key is the empty marker");
    std::size_t i = home(k);
    for (; slots_[i].key != kEmpty; i = next(i))
      if (slots_[i].key == k) return {&slots_[i].value, false};
    if (2 * (size_ + 1) > slots_.size()) {
      grow();
      for (i = home(k); slots_[i].key != kEmpty; i = next(i)) {
      }
    }
    slots_[i].key = k;
    slots_[i].value = std::move(v);
    ++size_;
    return {&slots_[i].value, true};
  }

  /// The value for `k`, value-initialised and inserted if absent.
  V& operator[](Key k) { return *try_emplace(k, V{}).first; }

  /// Remove `k`; returns whether it was present.
  bool erase(Key k) {
    std::size_t hole = home(k);
    for (; slots_[hole].key != k; hole = next(hole))
      if (slots_[hole].key == kEmpty) return false;
    // Backward-shift: pull up each later cluster member whose home does not
    // lie cyclically in (hole, j], so every probe path stays unbroken.
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t j = next(hole); slots_[j].key != kEmpty; j = next(j)) {
      if (((j - home(slots_[j].key)) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole].key = kEmpty;
    --size_;
    return true;
  }

 private:
  struct Slot {
    Key key = kEmpty;
    V value{};
  };

  [[nodiscard]] std::size_t next(std::size_t i) const {
    return (i + 1) & (slots_.size() - 1);
  }

  void resize(std::size_t slots) {
    slots_.assign(slots, Slot{});
    shift_ = 64 - log2_pow2(slots);
  }

  void grow() {
    std::vector<Slot> old;
    old.swap(slots_);
    resize(2 * old.size());
    for (Slot& s : old) {
      if (s.key == kEmpty) continue;
      std::size_t i = home(s.key);
      while (slots_[i].key != kEmpty) i = next(i);
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  unsigned shift_ = 64;  ///< 64 - log2(slot count)
  std::size_t size_ = 0;
};

}  // namespace nexus
