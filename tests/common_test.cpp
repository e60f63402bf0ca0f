#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "nexus/common/bit_ops.hpp"
#include "nexus/common/fixed_ring.hpp"
#include "nexus/common/flags.hpp"
#include "nexus/common/id_map.hpp"
#include "nexus/common/inline_vec.hpp"
#include "nexus/common/rng.hpp"
#include "nexus/common/stats.hpp"
#include "nexus/common/table.hpp"

namespace nexus {
namespace {

// ---------- bit_ops ----------

TEST(BitOps, BitsExtractsInclusiveRange) {
  EXPECT_EQ(bits(0xABCD, 3, 0), 0xDu);
  EXPECT_EQ(bits(0xABCD, 7, 4), 0xCu);
  EXPECT_EQ(bits(0xABCD, 15, 12), 0xAu);
  EXPECT_EQ(bits(~0ULL, 63, 0), ~0ULL);
}

TEST(BitOps, XorFoldMatchesPaperFormula) {
  // addr(19..15) ^ addr(14..10) ^ addr(9..5) ^ addr(4..0)
  const std::uint64_t addr = 0xF5ACAu;  // 1111_0101_1010_1100_1010
  const std::uint64_t expect =
      ((addr >> 15) & 0x1F) ^ ((addr >> 10) & 0x1F) ^ ((addr >> 5) & 0x1F) ^ (addr & 0x1F);
  EXPECT_EQ(xor_fold20_5(addr), expect);
}

TEST(BitOps, XorFoldIgnoresHighBits) {
  // The paper observes application addresses differ only in the low 20 bits;
  // the fold must be insensitive to everything above bit 19.
  EXPECT_EQ(xor_fold20_5(0x12345), xor_fold20_5(0xFFF0000012345ULL & 0xFFFFF0012345ULL));
  EXPECT_EQ(xor_fold20_5(0xABC12345ULL), xor_fold20_5(0x12345ULL));
}

TEST(BitOps, XorFoldRange) {
  for (std::uint64_t a = 0; a < 4096; ++a) EXPECT_LT(xor_fold20_5(a * 977), 32u);
}

TEST(BitOps, Pow2Helpers) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(256));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_EQ(ceil_pow2(5), 8u);
  EXPECT_EQ(log2_pow2(1024), 10u);
}

// ---------- FixedRing ----------

TEST(FixedRing, FifoOrderAndWraparound) {
  FixedRing<int> r(2);
  EXPECT_TRUE(r.empty());
  r.push(1);
  r.push(2);
  EXPECT_EQ(r.pop(), 1);
  r.push(3);  // wraps
  EXPECT_EQ(r.pop(), 2);
  r.push(4);
  EXPECT_EQ(r.pop(), 3);
  EXPECT_EQ(r.pop(), 4);
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.capacity(), 2u);
}

TEST(FixedRing, AtInspectsWithoutPopping) {
  FixedRing<int> r(4);
  r.push(10);
  r.push(20);
  EXPECT_EQ(r.at(0), 10);
  EXPECT_EQ(r.at(1), 20);
  EXPECT_EQ(r.size(), 2u);
}

TEST(FixedRing, StressWraparound) {
  FixedRing<std::size_t> r(7);  // rounded up to 8
  std::size_t next_in = 0;
  std::size_t next_out = 0;
  for (int round = 0; round < 1000; ++round) {
    while (r.size() < r.capacity()) r.push(next_in++);
    const std::size_t drain = 1 + static_cast<std::size_t>(round % 7);
    for (std::size_t i = 0; i < drain && !r.empty(); ++i) {
      EXPECT_EQ(r.pop(), next_out++);
    }
  }
  EXPECT_EQ(r.capacity(), 8u);
}

// ---------- IdMap ----------

/// Applies every operation to an IdMap and to std::unordered_map, and
/// after each one checks that both agree on size() and on every key used.
class IdMapOracle {
 public:
  explicit IdMapOracle(std::size_t expected = 0) : map_(expected) {}

  void insert(std::uint32_t k, std::uint64_t v) {
    const auto [value, fresh] = map_.try_emplace(k, v);
    EXPECT_EQ(fresh, ref_.try_emplace(k, v).second) << "key " << k;
    EXPECT_EQ(*value, ref_.at(k)) << "key " << k;
    keys_.push_back(k);
    check();
  }
  void bump(std::uint32_t k) {  // operator[] inserts a zero when absent
    ++map_[k];
    ++ref_[k];
    keys_.push_back(k);
    check();
  }
  void erase(std::uint32_t k) {
    EXPECT_EQ(map_.erase(k), ref_.erase(k) == 1) << "key " << k;
    check();
  }
  void check() {
    ASSERT_EQ(map_.size(), ref_.size());
    for (const std::uint32_t k : keys_) {
      const std::uint64_t* v = map_.find(k);
      const auto it = ref_.find(k);
      if (it == ref_.end()) {
        EXPECT_EQ(v, nullptr) << "erased key " << k << " still found";
      } else {
        ASSERT_NE(v, nullptr) << "key " << k << " lost";
        EXPECT_EQ(*v, it->second) << "key " << k;
      }
    }
  }
  [[nodiscard]] std::size_t capacity() const { return map_.capacity(); }
  /// The first `n` keys whose probe starts at `slot` at the current size.
  [[nodiscard]] std::vector<std::uint32_t> keys_homed_at(std::size_t slot,
                                                         std::size_t n) const {
    std::vector<std::uint32_t> keys;
    for (std::uint32_t k = 0; keys.size() < n; ++k)
      if (map_.home(k) == slot) keys.push_back(k);
    return keys;
  }

 private:
  IdMap<std::uint64_t> map_;
  std::unordered_map<std::uint32_t, std::uint64_t> ref_;
  std::vector<std::uint32_t> keys_;
};

TEST(IdMap, DenseIdsInASlidingWindow) {
  // The driver issues consecutive task ids and retires them roughly in
  // order: a window of live ids slides across the slot array.
  IdMapOracle m(64);
  Xoshiro256 rng(11);
  std::vector<std::uint32_t> live;
  for (std::uint32_t id = 0; id < 600; ++id) {
    m.insert(id, id * 3ULL);
    live.push_back(id);
    if (live.size() > 40) {
      const std::size_t pick = rng.below(8);  // mostly the oldest ids
      m.erase(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
  EXPECT_EQ(m.capacity(), 128u);  // sized once, never grew
}

TEST(IdMap, KeysCollidingOnOneHomeSlot) {
  IdMapOracle m;
  const std::size_t c = m.capacity();
  const auto k = m.keys_homed_at(3, 4);
  for (std::size_t i = 0; i < 3; ++i) m.insert(k[i], i);
  m.erase(k[1]);  // the middle of the cluster: the tail shifts back
  m.insert(k[3], 9);
  m.erase(k[0]);  // the cluster head
  m.bump(k[2]);
  m.erase(k[2]);
  m.erase(k[3]);
  EXPECT_EQ(m.capacity(), c);
}

TEST(IdMap, ClusterWrappingTheTableEnd) {
  IdMapOracle m;
  const std::size_t c = m.capacity();
  const auto a = m.keys_homed_at(c - 2, 2);
  const auto b = m.keys_homed_at(c - 1, 2);
  m.insert(a[0], 1);  // slot c-2
  m.insert(a[1], 2);  // probes to c-1
  m.insert(b[0], 3);  // home c-1, wraps to slot 0
  m.erase(a[0]);      // both successors shift back across the end
  m.insert(b[1], 4);  // home c-1, wraps again
  m.erase(a[1]);
  m.erase(b[0]);
  m.erase(b[1]);
  EXPECT_EQ(m.capacity(), c);
}

TEST(IdMap, GrowthInTheMiddleOfACluster) {
  IdMapOracle m;
  const std::size_t c = m.capacity();
  // Half the slots form one cluster of colliding keys; the next insert
  // grows the map while that cluster is in place.
  const auto k = m.keys_homed_at(1, c / 2 + 1);
  for (std::size_t i = 0; i < c / 2; ++i) m.insert(k[i], i);
  EXPECT_EQ(m.capacity(), c);
  m.insert(k[c / 2], 99);
  EXPECT_EQ(m.capacity(), 2 * c);
  for (std::size_t i = 0; i <= c / 2; i += 2) m.erase(k[i]);
}

TEST(IdMap, EraseInInsertionReverseAndRandomOrder) {
  for (const int order : {0, 1, 2}) {
    SCOPED_TRACE(order == 0 ? "insertion" : order == 1 ? "reverse" : "random");
    IdMapOracle m;
    Xoshiro256 rng(200 + static_cast<std::uint64_t>(order));
    std::vector<std::uint32_t> keys;
    while (keys.size() < 200) {
      // A narrow key range forces collisions and long clusters.
      const auto k = static_cast<std::uint32_t>(rng.below(1024));
      if (std::find(keys.begin(), keys.end(), k) != keys.end()) continue;
      keys.push_back(k);
      m.insert(k, rng());
    }
    if (order == 1) std::reverse(keys.begin(), keys.end());
    if (order == 2) std::shuffle(keys.begin(), keys.end(), rng);
    for (const std::uint32_t k : keys) m.erase(k);
  }
}

TEST(IdMap, RandomOperationsMatchUnorderedMap) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    IdMapOracle m;
    Xoshiro256 rng(seed);
    for (int op = 0; op < 1500; ++op) {
      const auto k = static_cast<std::uint32_t>(rng.below(96));
      switch (rng.below(3)) {
        case 0: m.insert(k, static_cast<std::uint64_t>(op)); break;
        case 1: m.bump(k); break;
        default: m.erase(k); break;
      }
    }
  }
}

TEST(IdMapDeathTest, EmptyMarkerKeyAborts) {
  IdMap<int> m;
  EXPECT_DEATH((void)m.try_emplace(IdMap<int>::kEmpty, 1), "empty marker");
}

// ---------- InlineVec ----------

TEST(InlineVec, BasicOps) {
  InlineVec<int, 4> v;
  EXPECT_TRUE(v.empty());
  v.push_back(1);
  v.push_back(2);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[1], 2);
  int sum = 0;
  for (int x : v) sum += x;
  EXPECT_EQ(sum, 3);
}

TEST(InlineVec, Equality) {
  InlineVec<int, 4> a{1, 2, 3};
  InlineVec<int, 4> b{1, 2, 3};
  InlineVec<int, 4> c{1, 2};
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

// ---------- RNG ----------

TEST(Rng, Deterministic) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 g(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = g.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, NormalMoments) {
  Xoshiro256 g(123);
  Accumulator acc;
  for (int i = 0; i < 200000; ++i) acc.add(g.normal());
  EXPECT_NEAR(acc.mean(), 0.0, 0.02);
  EXPECT_NEAR(acc.stddev(), 1.0, 0.02);
}

TEST(Rng, LognormalMedian) {
  Xoshiro256 g(99);
  std::vector<double> x(50000);
  for (double& v : x) v = g.lognormal(std::log(100.0), 0.5);
  std::nth_element(x.begin(), x.begin() + 25000, x.end());
  EXPECT_NEAR(x[25000], 100.0, 5.0);
}

// ---------- Stats ----------

TEST(Stats, AccumulatorBasics) {
  Accumulator a;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.add(x);
  EXPECT_EQ(a.count(), 8u);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
  EXPECT_NEAR(a.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(a.sum(), 40.0);
}

TEST(Stats, BalanceReportPerfect) {
  const BalanceReport r = balance_report({100, 100, 100, 100});
  EXPECT_DOUBLE_EQ(r.max_over_mean, 1.0);
  EXPECT_DOUBLE_EQ(r.cv, 0.0);
}

TEST(Stats, BalanceReportSkewed) {
  const BalanceReport r = balance_report({400, 0, 0, 0});
  EXPECT_DOUBLE_EQ(r.max_over_mean, 4.0);
  EXPECT_GT(r.cv, 1.0);
}

// ---------- Flags ----------

TEST(Flags, ParsesKeyValueForms) {
  const char* argv[] = {"prog", "--cores=8", "--freq", "55.56", "--csv"};
  const std::map<std::string, std::string> spec = {
      {"cores", ""}, {"freq", ""}, {"csv", ""}};
  Flags f(5, argv, spec);
  EXPECT_EQ(f.get_int("cores", 0), 8);
  EXPECT_EQ(f.get("freq", ""), "55.56");
  EXPECT_TRUE(f.get_bool("csv", false));
  EXPECT_EQ(f.get_int("absent", 17), 17);
}

TEST(Flags, ParsesIntList) {
  const char* argv[] = {"prog", "--cores=1,2,4,8"};
  Flags f(2, argv, {{"cores", ""}});
  const auto v = f.get_int_list("cores", {});
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[3], 8);
}

TEST(Flags, ListGetterSplitsOnCommasAndDropsEmptyItems) {
  const char* argv[] = {"prog", "--workloads=sparselu,,gaussian-250:mesh,"};
  Flags f(2, argv, {{"workloads", ""}, {"managers", ""}});
  EXPECT_EQ(f.get_list("workloads", {}),
            (std::vector<std::string>{"sparselu", "gaussian-250:mesh"}));
  // An absent flag yields the default; a present one replaces it.
  EXPECT_EQ(f.get_list("managers", {"nexus#-2TG"}),
            (std::vector<std::string>{"nexus#-2TG"}));
  const char* empty[] = {"prog", "--managers="};
  EXPECT_TRUE(Flags(2, empty, {{"managers", ""}}).get_list("managers", {"x"}).empty());
}

// ---------- TextTable ----------

TEST(TextTable, AlignsAndCsv) {
  TextTable t({"bench", "tasks", "speedup"});
  t.add_row({"c-ray", "1200", "194.00"});
  t.add_row({"h264dec-1x1-10f", "139961", "6.90"});
  const std::string s = t.str();
  EXPECT_NE(s.find("c-ray"), std::string::npos);
  EXPECT_NE(s.find("139961"), std::string::npos);
  const std::string csv = t.csv();
  EXPECT_NE(csv.find("bench,tasks,speedup"), std::string::npos);
  EXPECT_NE(csv.find("c-ray,1200,194.00"), std::string::npos);
}

TEST(TextTable, CsvQuotesCellsWithSeparators) {
  TextTable t({"a", "b"});
  t.add_row({"plain", "has,comma"});
  t.add_row({"has\"quote", "two\nlines"});
  EXPECT_EQ(t.csv(), "a,b\nplain,\"has,comma\"\n\"has\"\"quote\",\"two\nlines\"\n");
}

TEST(TextTable, NumFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::integer(42), "42");
}

}  // namespace
}  // namespace nexus
