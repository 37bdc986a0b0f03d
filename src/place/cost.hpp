// Allocation cost model for the PlaceTool substitute.
//
// The paper (§3.5) delegates device allocation to PlaceTool [16]: "Based on
// the matrix, the PlaceTool application finds the optimal device allocation
// solution, given the platform specifics (the number of segments)."  The
// dominant cost on SegBus is inter-segment traffic: every package crossing
// k segment borders occupies k+1 segment buses and k BUs, so we score an
// allocation by package-hops, optionally with a load-balance term.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "psdf/comm_matrix.hpp"
#include "support/status.hpp"

namespace segbus::place {

/// An allocation: allocation[i] = segment index hosting process i.
using Allocation = std::vector<std::uint32_t>;

/// Cost-model weights.
struct CostModel {
  std::uint32_t package_size = 36;
  /// Weight of one package crossing one border (the communication term).
  double hop_weight = 1.0;
  /// Weight of the load-imbalance term: (max FUs per segment - ideal)^2.
  double imbalance_weight = 0.0;
  /// Hard limit on FUs per segment; 0 means unconstrained.
  std::uint32_t max_fus_per_segment = 0;
};

/// Total cost of `allocation` (lower is better). Allocations violating the
/// hard capacity limit or leaving a segment empty cost +infinity.
double allocation_cost(const psdf::CommMatrix& matrix,
                       const Allocation& allocation,
                       std::uint32_t num_segments, const CostModel& model);

/// The same cost from its integer terms: the package-hop total and the
/// processes per segment (`load`, one entry per segment, summing to
/// `processes`). allocation_cost is this over a full recount, so a search
/// that keeps the terms as running state gets bit-identical costs.
double cost_from_terms(std::uint64_t package_hops,
                       std::span<const std::uint32_t> load,
                       std::size_t processes, const CostModel& model);

/// Symmetric traffic adjacency at one package size: for each process,
/// every other process it exchanges packages with, and the packages in
/// both directions summed. Moving one process changes the package-hop
/// total only through its partners, so a move prices in O(degree).
class PartnerList {
 public:
  struct Partner {
    std::uint32_t process = 0;
    std::uint64_t packages = 0;  ///< both directions
  };

  PartnerList(const psdf::CommMatrix& matrix, std::uint32_t package_size);

  /// Partners of `process`, ascending by id.
  std::span<const Partner> of(std::size_t process) const {
    return {partners_.data() + offsets_[process],
            partners_.data() + offsets_[process + 1]};
  }

 private:
  std::vector<std::size_t> offsets_;  ///< CSR row starts, size n + 1
  std::vector<Partner> partners_;
};

/// Total packages crossing at least one border under `allocation`.
std::uint64_t inter_segment_packages(const psdf::CommMatrix& matrix,
                                     const Allocation& allocation,
                                     std::uint32_t package_size);

/// Total package-hops (each crossing of one border counts once).
std::uint64_t package_hops(const psdf::CommMatrix& matrix,
                           const Allocation& allocation,
                           std::uint32_t package_size);

/// True when every segment in [0, num_segments) hosts at least one process
/// and no segment exceeds the capacity limit.
bool allocation_feasible(const Allocation& allocation,
                         std::uint32_t num_segments,
                         std::uint32_t max_fus_per_segment);

/// Validates allocation size/indices against the matrix and segment count.
Status validate_allocation(const psdf::CommMatrix& matrix,
                           const Allocation& allocation,
                           std::uint32_t num_segments);

}  // namespace segbus::place
