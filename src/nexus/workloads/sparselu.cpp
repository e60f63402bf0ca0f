#include <algorithm>
#include <bit>
#include <utility>

#include "nexus/workloads/duration_model.hpp"
#include "nexus/workloads/workloads.hpp"

namespace nexus::workloads {
namespace {

constexpr Addr kBlockBase = 0x0E000000;
constexpr Addr kBlockStride = 0x40;
constexpr std::uint32_t kFnLu0 = 1;
constexpr std::uint32_t kFnFwd = 2;
constexpr std::uint32_t kFnBdiv = 3;
constexpr std::uint32_t kFnBmod = 4;

// Relative FLOP weights of the four kernels on equal-sized blocks
// (lu0 ~ (2/3)B^3, fwd/bdiv ~ B^3, bmod ~ 2B^3).
constexpr double kWeightLu0 = 0.67;
constexpr double kWeightFwd = 1.0;
constexpr double kWeightBdiv = 1.0;
constexpr double kWeightBmod = 2.0;

Addr block_addr(int nb, int i, int j) {
  return (kBlockBase + static_cast<Addr>(i * nb + j) * kBlockStride) & kAddrMask;
}

/// Emit the factorization's tasks over a non-null mask (bmod fill-in
/// included) into `trace`, with each task's relative FLOP weight appended to
/// `weights` when given.
void run_factorization(int nb, std::vector<std::uint8_t> nonnull, Trace& trace,
                       std::vector<double>* weights) {
  auto at = [nb, &nonnull](int i, int j) -> std::uint8_t& {
    return nonnull[static_cast<std::size_t>(i * nb + j)];
  };
  auto emit = [&](std::uint32_t fn, double weight,
                  std::initializer_list<Param> params) {
    ParamList pl;
    for (const auto& p : params) pl.push_back(p);
    // Duration placeholder 1; make_sparselu patches real durations from the
    // scaled weight vector (tasks are stored densely by id).
    trace.submit(fn, 1, pl);
    if (weights != nullptr) weights->push_back(weight);
  };

  for (int k = 0; k < nb; ++k) {
    emit(kFnLu0, kWeightLu0, {{block_addr(nb, k, k), Dir::kInOut}});
    for (int j = k + 1; j < nb; ++j) {
      if (at(k, j) != 0) {
        emit(kFnFwd, kWeightFwd,
             {{block_addr(nb, k, k), Dir::kIn}, {block_addr(nb, k, j), Dir::kInOut}});
      }
    }
    for (int i = k + 1; i < nb; ++i) {
      if (at(i, k) != 0) {
        emit(kFnBdiv, kWeightBdiv,
             {{block_addr(nb, k, k), Dir::kIn}, {block_addr(nb, i, k), Dir::kInOut}});
      }
    }
    for (int i = k + 1; i < nb; ++i) {
      if (at(i, k) == 0) continue;
      for (int j = k + 1; j < nb; ++j) {
        if (at(k, j) == 0) continue;
        emit(kFnBmod, kWeightBmod,
             {{block_addr(nb, i, k), Dir::kIn},
              {block_addr(nb, k, j), Dir::kIn},
              {block_addr(nb, i, j), Dir::kInOut}});
        at(i, j) = 1;  // fill-in
      }
    }
  }
}

std::vector<std::uint8_t> to_nonnull(const std::vector<std::uint8_t>& null_mask) {
  std::vector<std::uint8_t> nn(null_mask.size());
  for (std::size_t i = 0; i < null_mask.size(); ++i) nn[i] = null_mask[i] == 0 ? 1 : 0;
  return nn;
}

/// Deterministic search: flip initially-null blocks until the task count
/// matches the target exactly (or no flip fits). Deltas are estimated once
/// per block ("stale"), then each accepted flip is verified against an exact
/// recount, so overshoot is impossible. Returns the null mask; `*final_count`
/// receives its task count.
std::vector<std::uint8_t> searched_mask(int nb, std::uint64_t target,
                                        std::uint64_t* final_count) {
  auto null_mask = sparselu_structural_mask(nb);
  std::uint64_t count = sparselu_task_count(nb, null_mask);
  NEXUS_ASSERT_MSG(count <= target,
                   "sparselu base mask already exceeds the target; reduce nb");

  // One-time stale delta estimation. Candidates are restricted to the
  // bottom-right band of the matrix: flips there have small task-count
  // deltas (they join the factorization late), which is what a fine-grained
  // search needs.
  constexpr int kBand = 10;
  struct Candidate {
    std::uint64_t stale_delta;
    int i, j;
  };
  std::vector<Candidate> candidates;
  for (int i = 0; i < nb; ++i) {
    for (int j = 0; j < nb; ++j) {
      if (std::max(i, j) < nb - kBand) continue;
      auto& cell = null_mask[static_cast<std::size_t>(i * nb + j)];
      if (cell == 0) continue;
      cell = 0;
      const std::uint64_t c = sparselu_task_count(nb, null_mask);
      cell = 1;
      if (c > count) candidates.push_back({c - count, i, j});
    }
  }
  // Largest first; ties resolved by position for determinism.
  std::sort(candidates.begin(), candidates.end(), [](const auto& a, const auto& b) {
    if (a.stale_delta != b.stale_delta) return a.stale_delta > b.stale_delta;
    return std::make_pair(a.i, a.j) < std::make_pair(b.i, b.j);
  });

  for (const auto& cand : candidates) {
    if (count == target) break;
    if (cand.stale_delta > target - count) continue;
    auto& cell = null_mask[static_cast<std::size_t>(cand.i * nb + cand.j)];
    cell = 0;
    const std::uint64_t c = sparselu_task_count(nb, null_mask);
    if (c > target) {
      cell = 1;  // interactions with earlier flips grew the delta; undo
    } else {
      count = c;
    }
  }

  *final_count = count;
  return null_mask;
}

}  // namespace

std::vector<std::uint8_t> sparselu_structural_mask(int nb) {
  // The canonical sparselu initialization (BSC application kernels): a band
  // around the diagonal stays allocated, everything else is structurally
  // null in a 2/3-periodic pattern.
  std::vector<std::uint8_t> null_mask(static_cast<std::size_t>(nb * nb), 0);
  for (int ii = 0; ii < nb; ++ii) {
    for (int jj = 0; jj < nb; ++jj) {
      bool null_entry = false;
      if (ii < jj && ii % 3 != 0) null_entry = true;
      if (ii > jj && jj % 3 != 0) null_entry = true;
      if (ii % 2 == 1) null_entry = true;
      if (jj % 2 == 1) null_entry = true;
      if (ii == jj) null_entry = false;
      if (ii == jj - 1) null_entry = false;
      if (ii - 1 == jj) null_entry = false;
      null_mask[static_cast<std::size_t>(ii * nb + jj)] = null_entry ? 1 : 0;
    }
  }
  return null_mask;
}

std::uint64_t sparselu_task_count(int nb, const std::vector<std::uint8_t>& null_mask) {
  // Row i's non-null blocks as a bitset of `words` 64-bit words. Step k
  // emits lu0, one fwd per non-null (k, j > k) (a of them), one bdiv per
  // non-null (i > k, k) (b of them) and one bmod per such (i, j) pair; each
  // bmod makes (i, j) non-null, i.e. ORs row k's tail into row i. Fill-in
  // at step k touches only i, j > k, so it never changes that step's a or b.
  const auto n = static_cast<std::size_t>(nb);
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> rows(n * words, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (null_mask[i * n + j] == 0)
        rows[i * words + j / 64] |= std::uint64_t{1} << (j % 64);
    }
  }

  std::vector<std::uint64_t> tail(words);
  std::uint64_t count = 0;
  for (std::size_t k = 0; k < n; ++k) {
    // Row k restricted to columns > k.
    const std::size_t first = (k + 1) / 64;
    std::uint64_t a = 0;
    for (std::size_t w = first; w < words; ++w) {
      tail[w] = rows[k * words + w];
      if (w == first) tail[w] &= ~std::uint64_t{0} << ((k + 1) % 64);
      a += static_cast<std::uint64_t>(std::popcount(tail[w]));
    }
    std::uint64_t b = 0;
    const std::uint64_t col = std::uint64_t{1} << (k % 64);
    for (std::size_t i = k + 1; i < n; ++i) {
      std::uint64_t* row = &rows[i * words];
      if ((row[k / 64] & col) == 0) continue;
      ++b;
      for (std::size_t w = first; w < words; ++w) row[w] |= tail[w];
    }
    count += 1 + a + b + a * b;
  }
  return count;
}

Trace sparselu_factorization(int nb, const std::vector<std::uint8_t>& null_mask) {
  Trace tr("sparselu");
  run_factorization(nb, to_nonnull(null_mask), tr, nullptr);
  return tr;
}

Trace make_sparselu(const SparseLuConfig& cfg) {
  std::uint64_t count = 0;
  const auto null_mask = searched_mask(cfg.nb, cfg.target_tasks, &count);

  Trace tr("sparselu");
  tr.reserve(count);
  std::vector<double> weights;
  weights.reserve(count);
  run_factorization(cfg.nb, to_nonnull(null_mask), tr, &weights);
  tr.taskwait();

  // Patch durations: lognormal jitter on the per-kernel FLOP weights,
  // rescaled to the exact Table II total.
  Xoshiro256 rng(cfg.seed);
  for (auto& w : weights) w *= rng.lognormal(0.0, cfg.sigma);
  const auto durations = scale_to_total(weights, cfg.total_work);
  for (TaskId id = 0; id < tr.num_tasks(); ++id) tr.set_duration(id, durations[id]);
  return tr;
}

}  // namespace nexus::workloads
