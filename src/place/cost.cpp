#include "place/cost.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/strings.hpp"

namespace segbus::place {

namespace {
std::uint32_t hop_distance(std::uint32_t a, std::uint32_t b) {
  return a > b ? a - b : b - a;
}
}  // namespace

std::uint64_t inter_segment_packages(const psdf::CommMatrix& matrix,
                                     const Allocation& allocation,
                                     std::uint32_t package_size) {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < matrix.size(); ++s) {
    for (std::size_t t = 0; t < matrix.size(); ++t) {
      if (matrix.at(s, t) == 0) continue;
      if (allocation[s] != allocation[t]) {
        total += matrix.packages_at(s, t, package_size);
      }
    }
  }
  return total;
}

std::uint64_t package_hops(const psdf::CommMatrix& matrix,
                           const Allocation& allocation,
                           std::uint32_t package_size) {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < matrix.size(); ++s) {
    for (std::size_t t = 0; t < matrix.size(); ++t) {
      if (matrix.at(s, t) == 0) continue;
      total += matrix.packages_at(s, t, package_size) *
               hop_distance(allocation[s], allocation[t]);
    }
  }
  return total;
}

namespace {

/// Counts processes per segment; false when a segment index is out of
/// range.
bool count_loads(const Allocation& allocation, std::uint32_t num_segments,
                 std::vector<std::uint32_t>& load) {
  load.assign(num_segments, 0);
  for (std::uint32_t segment : allocation) {
    if (segment >= num_segments) return false;
    ++load[segment];
  }
  return true;
}

bool loads_feasible(std::span<const std::uint32_t> load,
                    std::uint32_t max_fus_per_segment) {
  for (std::uint32_t count : load) {
    if (count == 0) return false;  // psm.segment.fus would fail
    if (max_fus_per_segment != 0 && count > max_fus_per_segment) return false;
  }
  return true;
}

}  // namespace

bool allocation_feasible(const Allocation& allocation,
                         std::uint32_t num_segments,
                         std::uint32_t max_fus_per_segment) {
  std::vector<std::uint32_t> load;
  return count_loads(allocation, num_segments, load) &&
         loads_feasible(load, max_fus_per_segment);
}

double cost_from_terms(std::uint64_t package_hops,
                       std::span<const std::uint32_t> load,
                       std::size_t processes, const CostModel& model) {
  if (!loads_feasible(load, model.max_fus_per_segment)) {
    return std::numeric_limits<double>::infinity();
  }
  double cost = model.hop_weight * static_cast<double>(package_hops);
  if (model.imbalance_weight > 0.0) {
    const double ideal = static_cast<double>(processes) /
                         static_cast<double>(load.size());
    const double max_load =
        static_cast<double>(*std::max_element(load.begin(), load.end()));
    const double excess = max_load - ideal;
    cost += model.imbalance_weight * excess * excess;
  }
  return cost;
}

double allocation_cost(const psdf::CommMatrix& matrix,
                       const Allocation& allocation,
                       std::uint32_t num_segments, const CostModel& model) {
  std::vector<std::uint32_t> load;
  if (!count_loads(allocation, num_segments, load) ||
      !loads_feasible(load, model.max_fus_per_segment)) {
    return std::numeric_limits<double>::infinity();
  }
  return cost_from_terms(package_hops(matrix, allocation, model.package_size),
                         load, allocation.size(), model);
}

PartnerList::PartnerList(const psdf::CommMatrix& matrix,
                         std::uint32_t package_size) {
  const std::size_t n = matrix.size();
  offsets_.reserve(n + 1);
  offsets_.push_back(0);
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t q = 0; q < n; ++q) {
      if (q == p) continue;  // a self-flow never crosses a border
      const std::uint64_t packages = matrix.packages_at(p, q, package_size) +
                                     matrix.packages_at(q, p, package_size);
      if (packages != 0) {
        partners_.push_back({static_cast<std::uint32_t>(q), packages});
      }
    }
    offsets_.push_back(partners_.size());
  }
}

Status validate_allocation(const psdf::CommMatrix& matrix,
                           const Allocation& allocation,
                           std::uint32_t num_segments) {
  if (allocation.size() != matrix.size()) {
    return invalid_argument_error(
        str_format("allocation covers %zu processes but the matrix has %zu",
                   allocation.size(), matrix.size()));
  }
  if (num_segments == 0) {
    return invalid_argument_error("platform must have at least one segment");
  }
  for (std::size_t i = 0; i < allocation.size(); ++i) {
    if (allocation[i] >= num_segments) {
      return invalid_argument_error(
          str_format("process %zu is allocated to segment %u but the "
                     "platform has only %u segments",
                     i, allocation[i] + 1, num_segments));
    }
  }
  return Status::ok();
}

}  // namespace segbus::place
