#include "place/placer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "support/rng.hpp"
#include "support/strings.hpp"

namespace segbus::place {

std::string PlacementResult::render(const psdf::PsdfModel& model) const {
  std::uint32_t num_segments = 0;
  for (std::uint32_t s : allocation) {
    num_segments = std::max(num_segments, s + 1);
  }
  std::string out;
  for (std::uint32_t segment = 0; segment < num_segments; ++segment) {
    if (segment != 0) out += " || ";
    bool first = true;
    for (std::size_t i = 0; i < allocation.size(); ++i) {
      if (allocation[i] != segment) continue;
      if (!first) out += ' ';
      first = false;
      out += i < model.process_count() ? model.process(
                                             static_cast<psdf::ProcessId>(i))
                                             .name
                                       : str_format("P%zu", i);
    }
  }
  return out;
}

namespace {

Status check_inputs(const psdf::CommMatrix& matrix,
                    std::uint32_t num_segments) {
  if (matrix.size() == 0) {
    return invalid_argument_error("communication matrix is empty");
  }
  if (num_segments == 0) {
    return invalid_argument_error("platform must have at least one segment");
  }
  if (matrix.size() < num_segments) {
    return invalid_argument_error(
        str_format("%zu processes cannot populate %u segments (every "
                   "segment needs at least one FU)",
                   matrix.size(), num_segments));
  }
  return Status::ok();
}

}  // namespace

Result<PlacementResult> exhaustive_place(const psdf::CommMatrix& matrix,
                                         std::uint32_t num_segments,
                                         const CostModel& cost,
                                         std::uint64_t max_states) {
  SEGBUS_RETURN_IF_ERROR(check_inputs(matrix, num_segments));
  const std::size_t n = matrix.size();
  double states = std::pow(static_cast<double>(num_segments),
                           static_cast<double>(n));
  if (states > static_cast<double>(max_states)) {
    return invalid_argument_error(str_format(
        "exhaustive search space %.3g exceeds the %llu-state limit; use "
        "greedy or annealing",
        states, static_cast<unsigned long long>(max_states)));
  }

  PlacementResult best;
  best.strategy = "exhaustive";
  best.cost = std::numeric_limits<double>::infinity();
  Allocation current(n, 0);
  std::uint64_t evaluations = 0;
  while (true) {
    double c = allocation_cost(matrix, current, num_segments, cost);
    ++evaluations;
    if (c < best.cost) {
      best.cost = c;
      best.allocation = current;
    }
    // Odometer increment.
    std::size_t i = 0;
    while (i < n) {
      if (++current[i] < num_segments) break;
      current[i] = 0;
      ++i;
    }
    if (i == n) break;
  }
  best.evaluations = evaluations;
  if (!std::isfinite(best.cost)) {
    return invalid_argument_error(
        "no feasible allocation exists under the given capacity limits");
  }
  return best;
}

Result<PlacementResult> greedy_place(const psdf::CommMatrix& matrix,
                                     std::uint32_t num_segments,
                                     const CostModel& cost) {
  SEGBUS_RETURN_IF_ERROR(check_inputs(matrix, num_segments));
  const std::size_t n = matrix.size();

  // Order processes by total traffic (row + column sums), descending.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return matrix.row_sum(a) + matrix.column_sum(a) >
                            matrix.row_sum(b) + matrix.column_sum(b);
                   });

  constexpr std::uint32_t kUnassigned = 0xFFFFFFFFu;
  Allocation allocation(n, kUnassigned);
  std::vector<std::uint32_t> load(num_segments, 0);
  std::uint64_t evaluations = 0;

  // Seed every segment with one of the heaviest processes so the
  // every-segment-nonempty constraint holds by construction.
  for (std::uint32_t segment = 0; segment < num_segments; ++segment) {
    allocation[order[segment]] = segment;
    ++load[segment];
  }

  auto partner_cost = [&](std::size_t p, std::uint32_t segment) {
    // Incremental package-hops of putting p on `segment`, counting only
    // already-placed partners.
    double c = 0.0;
    for (std::size_t q = 0; q < n; ++q) {
      if (allocation[q] == kUnassigned || q == p) continue;
      std::uint64_t packages =
          matrix.packages_at(p, q, cost.package_size) +
          matrix.packages_at(q, p, cost.package_size);
      std::uint32_t d = segment > allocation[q] ? segment - allocation[q]
                                                : allocation[q] - segment;
      c += cost.hop_weight * static_cast<double>(packages * d);
    }
    return c;
  };

  for (std::size_t p : order) {
    if (allocation[p] != kUnassigned) continue;
    double best_cost = std::numeric_limits<double>::infinity();
    std::uint32_t best_segment = 0;
    for (std::uint32_t segment = 0; segment < num_segments; ++segment) {
      if (cost.max_fus_per_segment != 0 &&
          load[segment] >= cost.max_fus_per_segment) {
        continue;
      }
      double c = partner_cost(p, segment);
      ++evaluations;
      // Light load-balancing tiebreak even when imbalance_weight is zero.
      c += 1e-6 * static_cast<double>(load[segment]);
      if (cost.imbalance_weight > 0.0) {
        c += cost.imbalance_weight * static_cast<double>(load[segment]);
      }
      if (c < best_cost) {
        best_cost = c;
        best_segment = segment;
      }
    }
    if (!std::isfinite(best_cost)) {
      return invalid_argument_error(
          "greedy placement failed: capacity limits leave no room");
    }
    allocation[p] = best_segment;
    ++load[best_segment];
  }

  PlacementResult result;
  result.strategy = "greedy";
  result.allocation = std::move(allocation);
  result.cost = allocation_cost(matrix, result.allocation, num_segments, cost);
  result.evaluations = evaluations;
  return result;
}

Result<PlacementResult> anneal_place(const psdf::CommMatrix& matrix,
                                     std::uint32_t num_segments,
                                     const CostModel& cost,
                                     const AnnealOptions& options) {
  SEGBUS_ASSIGN_OR_RETURN(PlacementResult seed_result,
                          greedy_place(matrix, num_segments, cost));
  if (num_segments == 1) {
    seed_result.strategy = "annealing";
    return seed_result;  // nothing to move
  }

  const std::size_t n = matrix.size();
  Xoshiro256 rng(options.seed);
  Allocation current = seed_result.allocation;
  double current_cost = seed_result.cost;
  Allocation best = current;
  double best_cost = current_cost;
  std::uint64_t evaluations = seed_result.evaluations;

  // Running cost terms of `current`; a candidate is priced from the
  // change its move makes to them, never from a full recount.
  const PartnerList partners(matrix, cost.package_size);
  std::uint64_t hops = package_hops(matrix, current, cost.package_size);
  std::vector<std::uint32_t> load(num_segments, 0);
  for (std::uint32_t segment : current) ++load[segment];
  std::vector<std::uint32_t> candidate_load;

  // Package-hop change of moving `p` to `to`, with process `moved` seen
  // at `moved_to`: a swap's second move sees its first (`moved` == n
  // for none).
  auto move_delta = [&](std::size_t p, std::uint32_t to, std::size_t moved,
                        std::uint32_t moved_to) {
    const std::uint32_t from = current[p];
    std::int64_t delta = 0;
    for (const PartnerList::Partner& partner : partners.of(p)) {
      const std::uint32_t at =
          partner.process == moved ? moved_to : current[partner.process];
      const auto before = static_cast<std::int64_t>(from > at ? from - at
                                                              : at - from);
      const auto after =
          static_cast<std::int64_t>(to > at ? to - at : at - to);
      delta += static_cast<std::int64_t>(partner.packages) * (after - before);
    }
    return delta;
  };

  double temperature = options.initial_temperature;
  if (temperature <= 0.0) {
    temperature = std::max(
        1.0, static_cast<double>(matrix.total()) /
                 static_cast<double>(std::max<std::uint32_t>(
                     cost.package_size, 1)));
  }

  for (std::uint64_t step = 0; step < options.iterations; ++step) {
    std::size_t a = 0;
    std::size_t b = 0;  // == a for a single move
    std::uint32_t to = 0;
    std::uint64_t candidate_hops = hops;
    double c = 0.0;
    if (rng.next_bool(0.5) && n >= 2) {
      // Swap two processes on different segments: loads are unchanged.
      a = static_cast<std::size_t>(rng.next_below(n));
      b = static_cast<std::size_t>(rng.next_below(n));
      if (current[a] == current[b]) continue;
      to = current[b];
      candidate_hops += static_cast<std::uint64_t>(
          move_delta(a, to, n, 0) + move_delta(b, current[a], a, to));
      c = cost_from_terms(candidate_hops, load, n, cost);
    } else {
      // Move one process to another segment.
      a = b = static_cast<std::size_t>(rng.next_below(n));
      to = static_cast<std::uint32_t>(rng.next_below(num_segments));
      if (current[a] == to) continue;
      candidate_hops += static_cast<std::uint64_t>(move_delta(a, to, n, 0));
      candidate_load = load;
      --candidate_load[current[a]];
      ++candidate_load[to];
      c = cost_from_terms(candidate_hops, candidate_load, n, cost);
    }
    ++evaluations;
    bool accept = false;
    if (c <= current_cost) {
      accept = true;
    } else if (std::isfinite(c) && temperature > 1e-12) {
      accept = rng.next_bool(std::exp((current_cost - c) / temperature));
    }
    if (accept) {
      if (a == b) {
        load.swap(candidate_load);
      } else {
        current[b] = current[a];
      }
      current[a] = to;
      hops = candidate_hops;
      current_cost = c;
      if (c < best_cost) {
        best = current;
        best_cost = c;
      }
    }
    temperature *= options.cooling;
  }

  PlacementResult result;
  result.strategy = "annealing";
  result.allocation = std::move(best);
  result.cost = best_cost;
  result.evaluations = evaluations;
  return result;
}

}  // namespace segbus::place
