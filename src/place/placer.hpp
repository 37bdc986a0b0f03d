// Device-allocation search — the PlaceTool [16] substitute.
//
// Three strategies with the usual quality/cost trade-off:
//   * exhaustive : provably optimal; enumeration with first-occupant
//                  symmetry breaking (segments are interchangeable labels
//                  only up to the linear topology, so only a prefix rule is
//                  applied); practical to ~12 processes x 3 segments.
//   * greedy     : traffic-descending constructive heuristic.
//   * annealing  : simulated annealing over move/swap neighborhoods,
//                  deterministic for a fixed seed. The package-hop total
//                  and the per-segment loads are running state, so a move
//                  is priced in O(degree) from a PartnerList and a swap as
//                  two moves; the cost comes from cost_from_terms, the
//                  formula allocation_cost uses, so results are the same
//                  bits as re-pricing the whole matrix every step.
#pragma once

#include <cstdint>
#include <string>

#include "place/cost.hpp"
#include "psdf/comm_matrix.hpp"
#include "support/status.hpp"

namespace segbus::place {

/// Outcome of one search.
struct PlacementResult {
  Allocation allocation;
  double cost = 0.0;
  std::uint64_t evaluations = 0;  ///< cost evaluations performed
  std::string strategy;

  /// "0 1 2 3 || 4 5 || 6" rendering with the paper's Figure 9 segment
  /// separators.
  std::string render(const psdf::PsdfModel& model) const;
};

/// Options for the annealer.
struct AnnealOptions {
  std::uint64_t seed = 1;
  std::uint64_t iterations = 200000;
  double initial_temperature = 0.0;  ///< 0 = auto (from matrix magnitude)
  double cooling = 0.9995;           ///< geometric cooling factor per step
};

/// Exhaustive search. Fails (InvalidArgument) when the search space exceeds
/// `max_states` (default 20M) to keep runtimes bounded.
Result<PlacementResult> exhaustive_place(const psdf::CommMatrix& matrix,
                                         std::uint32_t num_segments,
                                         const CostModel& cost,
                                         std::uint64_t max_states = 20000000);

/// Greedy constructive placement (always succeeds for feasible inputs).
Result<PlacementResult> greedy_place(const psdf::CommMatrix& matrix,
                                     std::uint32_t num_segments,
                                     const CostModel& cost);

/// Simulated annealing seeded with the greedy solution.
Result<PlacementResult> anneal_place(const psdf::CommMatrix& matrix,
                                     std::uint32_t num_segments,
                                     const CostModel& cost,
                                     const AnnealOptions& options = {});

}  // namespace segbus::place
