#include "search/heuristics.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "place/placer.hpp"
#include "support/rng.hpp"

namespace segbus::search {

std::vector<std::uint32_t> traffic_descending_order(
    const psdf::CommMatrix& matrix) {
  std::vector<std::uint32_t> order(matrix.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<std::uint32_t>(i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&matrix](std::uint32_t a, std::uint32_t b) {
                     const std::uint64_t ta =
                         matrix.row_sum(a) + matrix.column_sum(a);
                     const std::uint64_t tb =
                         matrix.row_sum(b) + matrix.column_sum(b);
                     if (ta != tb) return ta > tb;
                     return a < b;
                   });
  return order;
}

Result<std::vector<place::Allocation>> beam_allocations(
    const psdf::CommMatrix& matrix, std::uint32_t num_segments,
    std::uint32_t package_size, std::uint32_t beam_width) {
  const std::size_t n = matrix.size();
  if (n == 0) return invalid_argument_error("empty communication matrix");
  if (num_segments == 0) {
    return invalid_argument_error("at least one segment is required");
  }
  if (n < num_segments) {
    return invalid_argument_error(
        "fewer processes than segments: no feasible placement");
  }
  if (beam_width == 0) beam_width = 1;

  const std::vector<std::uint32_t> order = traffic_descending_order(matrix);
  // rank[p] = depth at which p is placed; partners with a lower rank are
  // the placed prefix a new process pays against.
  std::vector<std::size_t> rank(n);
  for (std::size_t depth = 0; depth < n; ++depth) rank[order[depth]] = depth;
  const place::PartnerList partners(matrix, package_size);

  struct Partial {
    place::Allocation allocation;       ///< process-id indexed
    std::vector<std::uint32_t> counts;  ///< processes per segment
    /// Traffic x hop-distance the prefix commits to: every placed pair
    /// pays its packages (both directions) times the segment distance.
    /// Lower is better; place-cost-correlated but much cheaper.
    std::uint64_t score = 0;
  };
  std::vector<Partial> beam(1);
  beam[0].allocation.assign(n, 0);
  beam[0].counts.assign(num_segments, 0);

  for (std::size_t depth = 0; depth < n; ++depth) {
    const std::uint32_t process = order[depth];
    std::vector<Partial> expanded;
    expanded.reserve(beam.size() * num_segments);
    for (const Partial& parent : beam) {
      for (std::uint32_t seg = 0; seg < num_segments; ++seg) {
        Partial child = parent;
        child.allocation[process] = seg;
        ++child.counts[seg];
        // Feasibility: the processes still unplaced must be able to
        // populate every still-empty segment.
        const std::size_t remaining = n - depth - 1;
        const std::size_t empty = static_cast<std::size_t>(std::count(
            child.counts.begin(), child.counts.end(), 0u));
        if (empty > remaining) continue;
        // The parent's score plus the new process's terms against the
        // placed prefix.
        for (const place::PartnerList::Partner& partner :
             partners.of(process)) {
          if (rank[partner.process] >= depth) continue;
          const std::uint32_t at = parent.allocation[partner.process];
          child.score += partner.packages * (seg > at ? seg - at : at - seg);
        }
        expanded.push_back(std::move(child));
      }
    }
    // Keep the best `beam_width`, ties broken by the allocation bytes so
    // the beam is a pure function of its inputs.
    std::stable_sort(expanded.begin(), expanded.end(),
                     [](const Partial& a, const Partial& b) {
                       if (a.score != b.score) return a.score < b.score;
                       return a.allocation < b.allocation;
                     });
    if (expanded.size() > beam_width) expanded.resize(beam_width);
    beam = std::move(expanded);
  }

  std::vector<place::Allocation> out;
  out.reserve(beam.size());
  for (Partial& partial : beam) out.push_back(std::move(partial.allocation));
  return out;
}

Result<std::vector<place::Allocation>> heuristic_allocations(
    const psdf::CommMatrix& matrix, std::uint32_t num_segments,
    const HeuristicOptions& options) {
  place::CostModel cost;
  cost.package_size = options.package_size;

  std::vector<place::Allocation> out;
  std::set<place::Allocation> seen;
  auto keep = [&out, &seen](place::Allocation allocation) {
    if (seen.insert(allocation).second) out.push_back(std::move(allocation));
  };

  SEGBUS_ASSIGN_OR_RETURN(place::PlacementResult greedy,
                          place::greedy_place(matrix, num_segments, cost));
  keep(std::move(greedy.allocation));

  // Restarts on independent substreams: restart k's stream depends only
  // on (seed, k), never on evaluation order.
  const std::uint64_t anneal_seed = derive_seed(options.seed, "search/anneal");
  for (std::uint32_t k = 0; k < options.anneal_restarts; ++k) {
    place::AnnealOptions anneal;
    anneal.seed = derive_seed(anneal_seed, static_cast<std::uint64_t>(k));
    anneal.iterations = options.anneal_iterations;
    SEGBUS_ASSIGN_OR_RETURN(
        place::PlacementResult annealed,
        place::anneal_place(matrix, num_segments, cost, anneal));
    keep(std::move(annealed.allocation));
  }

  SEGBUS_ASSIGN_OR_RETURN(
      std::vector<place::Allocation> beam,
      beam_allocations(matrix, num_segments, options.package_size,
                       options.beam_width));
  for (place::Allocation& allocation : beam) keep(std::move(allocation));
  return out;
}

}  // namespace segbus::search
