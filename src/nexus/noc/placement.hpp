// Tile placement search: where should the logical endpoints sit on the
// fabric?
//
// The Network records a flit-weighted traffic matrix between logical
// endpoints; given a topology, a placement assigns each endpoint a router
// tile, and its quality is the weighted hop distance the measured traffic
// would pay under that layout. This header provides the cost function and a
// deterministic two-phase optimizer — steepest-descent pairwise swaps to a
// local optimum, then a seeded simulated-annealing refinement — so the same
// traffic matrix and seed always produce the same assignment (a tested
// determinism contract, like every other search in this repo). Filler
// routers of a mesh/torus count as legal tiles: pulling a hot endpoint onto
// a central filler is often the winning move.
#pragma once

#include <cstdint>
#include <vector>

#include "nexus/noc/topology.hpp"

namespace nexus::noc {

/// Flit-weighted message volume between logical endpoints, row-major
/// src x dst. Build one from Network::traffic() or synthesize one.
struct TrafficMatrix {
  explicit TrafficMatrix(std::uint32_t endpoint_count)
      : endpoints(endpoint_count),
        flits(static_cast<std::size_t>(endpoint_count) * endpoint_count, 0) {}

  /// Wrap a measured Network traffic vector (endpoints x endpoints).
  static TrafficMatrix from_network(std::uint32_t endpoint_count,
                                    std::vector<std::uint64_t> measured);

  std::uint32_t endpoints;
  std::vector<std::uint64_t> flits;

  [[nodiscard]] std::uint64_t at(NodeId src, NodeId dst) const {
    return flits[static_cast<std::size_t>(src) * endpoints + dst];
  }
  void add(NodeId src, NodeId dst, std::uint64_t n) {
    flits[static_cast<std::size_t>(src) * endpoints + dst] += n;
  }
};

struct PlacementOptions {
  /// Annealing RNG seed; the whole search is a pure function of
  /// (topology, traffic, options).
  std::uint64_t seed = 0x9E3779B97F4A7C15ULL;
  /// Annealing proposals after the greedy descent; 0 disables the phase
  /// (pure greedy stays a deterministic local optimum).
  std::uint32_t anneal_iterations = 4000;
  /// Initial temperature as a fraction of the greedy-optimum cost.
  double initial_temperature_frac = 0.05;
  /// Geometric cooling applied every proposal.
  double cooling = 0.999;
};

struct PlacementResult {
  /// endpoint -> tile; install as NocConfig::placement.
  std::vector<std::uint32_t> assignment;
  std::uint64_t initial_cost = 0;  ///< identity-layout cost
  std::uint64_t cost = 0;          ///< optimized cost (<= initial_cost)
  std::uint32_t greedy_swaps = 0;
  std::uint32_t anneal_accepts = 0;
};

/// Weighted hop distance of `assignment` (endpoint -> tile) under `topo`:
/// sum over endpoint pairs of traffic * hops(tile(src), tile(dst)).
std::uint64_t placement_cost(const Topology& topo,
                             const std::vector<std::uint32_t>& assignment,
                             const TrafficMatrix& traffic);

/// Search for a low-cost placement. Deterministic: identical inputs yield
/// an identical assignment. On the ideal crossbar every layout costs the
/// same; the identity assignment is returned unchanged.
PlacementResult optimize_placement(const Topology& topo,
                                   const TrafficMatrix& traffic,
                                   const PlacementOptions& opts = {});

}  // namespace nexus::noc
