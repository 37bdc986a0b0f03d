// Candidate generators seeding the guided search's incumbent.
//
// Three sources, all deterministic:
//   - greedy      : place::greedy_place (no randomness);
//   - annealing   : place::anneal_place restarts, each on its own
//                   support/rng substream derived from the search seed —
//                   worker-count-independent like the scen campaigns;
//   - beam search : width-B deterministic beam over partial placements in
//                   traffic-descending process order, scored by the
//                   traffic x hop-distance the prefix already commits to.
//                   A child's score is its parent's plus the new process's
//                   terms against its placed partners: O(degree) per child.
//
// A strong incumbent is what makes the branch-and-bound bound bite: every
// subtree whose admissible lower bound exceeds the best heuristic time is
// pruned without a single engine run.
#pragma once

#include <cstdint>
#include <vector>

#include "place/cost.hpp"
#include "psdf/comm_matrix.hpp"
#include "support/status.hpp"

namespace segbus::search {

struct HeuristicOptions {
  std::uint64_t seed = 1;           ///< search seed; substreams derive from it
  std::uint32_t anneal_restarts = 4;
  std::uint64_t anneal_iterations = 20000;
  std::uint32_t beam_width = 8;
  std::uint32_t package_size = 36;  ///< for the cost model / packages
};

/// Process ids ordered by descending total traffic (sent + received),
/// ties by ascending id — the branching order of the beam and the
/// branch-and-bound.
std::vector<std::uint32_t> traffic_descending_order(
    const psdf::CommMatrix& matrix);

/// Deterministic beam search; returns up to `beam_width` feasible
/// (every-segment-populated) allocations, best partial score first.
Result<std::vector<place::Allocation>> beam_allocations(
    const psdf::CommMatrix& matrix, std::uint32_t num_segments,
    std::uint32_t package_size, std::uint32_t beam_width);

/// The combined, deduplicated seed set: greedy, annealing restarts, beam.
Result<std::vector<place::Allocation>> heuristic_allocations(
    const psdf::CommMatrix& matrix, std::uint32_t num_segments,
    const HeuristicOptions& options);

}  // namespace segbus::search
