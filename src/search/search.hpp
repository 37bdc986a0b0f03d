// Guided design-space exploration (ROADMAP item 2): placement + platform
// sizing + package-size choice as one search problem.
//
// Strategy "guided" (the default), per (segment count, package size)
// combination:
//   1. heuristics seed the incumbent: greedy, seeded annealing restarts,
//      and a deterministic beam (heuristics.hpp), all scored by the
//      emulator in one wave;
//   2. best-first branch-and-bound over partial placements, processes in
//      traffic-descending order; every node carries the admissible
//      partial-placement lower bound (bound.hpp) and a node whose bound
//      exceeds the incumbent is pruned with its whole subtree — no
//      emulation;
//   3. surviving leaves get the full `analysis::compute_static_bounds` v2
//      check, then are emulated in fixed-size waves fanned out through a
//      dedicated `service::JobServer`; the incumbent only advances at
//      wave boundaries, so the node/prune/emulation sequence — and the
//      byte-exact report — is independent of the worker count.
//
// Because every prune is justified by an admissible bound (strict
// `bound > incumbent`), all time-optimal placements are emulated, and the
// winner — ties broken by (BU traffic, energy, digest) — is bit-identical
// with strategy "exhaustive" on the same space.
//
// Strategy "exhaustive" enumerates every feasible (segment-populating)
// allocation through the same evaluator; it is the oracle the guided
// strategy is tested against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/energy.hpp"
#include "obs/metrics.hpp"
#include "psdf/model.hpp"
#include "search/evaluator.hpp"
#include "search/pareto.hpp"
#include "support/json.hpp"
#include "support/status.hpp"

namespace segbus::search {

enum class Strategy : std::uint8_t { kGuided, kExhaustive };

const char* to_string(Strategy strategy) noexcept;
Result<Strategy> parse_strategy(std::string_view name);

/// The search space and budgets. Defaults mirror the paper's platform
/// (91/98/89 MHz segments, 111 MHz CA).
struct SearchSpec {
  std::vector<std::uint32_t> segment_counts{1, 2, 3};
  /// Package sizes to explore (empty = the application's own).
  std::vector<std::uint32_t> package_sizes;
  std::vector<Frequency> segment_clocks{Frequency::from_mhz(91.0),
                                        Frequency::from_mhz(98.0),
                                        Frequency::from_mhz(89.0)};
  Frequency ca_clock = Frequency::from_mhz(111.0);
  Strategy strategy = Strategy::kGuided;
  std::uint64_t seed = 1;  ///< heuristic substream seed

  std::uint32_t anneal_restarts = 4;
  std::uint64_t anneal_iterations = 20000;
  std::uint32_t beam_width = 8;

  /// Engine-run budget across the whole search (0 = unlimited). When it
  /// runs out the search stops early and reports proven_optimal = false.
  std::uint64_t max_emulations = 0;
  /// Branch-and-bound node-expansion budget (0 = unlimited).
  std::uint64_t max_nodes = 0;
  /// Leaves per emulation wave. The incumbent advances only between
  /// waves; the value trades pruning sharpness against fan-out width.
  std::size_t wave_size = 16;

  unsigned workers = 4;         ///< evaluation worker threads
  std::string engine = "fast";  ///< scoring backend (all are bit-identical)
  bool reference_timing = false;
  std::uint64_t max_ticks = 20'000'000;  ///< per-candidate tick budget
  core::EnergyModel energy;

  /// Optional counters sink: segbus_search_candidates_total{outcome=...},
  /// segbus_search_nodes_total, segbus_search_front_size.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Per-(segments, package) statistics.
struct ComboReport {
  std::uint32_t segments = 0;
  std::uint32_t package_size = 0;
  /// Feasible (every segment populated) allocation count — the
  /// exhaustive space the coverage figures are measured against.
  double space = 0.0;
  std::uint64_t nodes_expanded = 0;
  std::uint64_t bound_pruned = 0;   ///< partial-bound prune events
  double leaves_pruned = 0.0;       ///< feasible leaves those events covered
  std::uint64_t oracle_pruned = 0;  ///< leaf prunes by the full v2 bound
  std::uint64_t emulated = 0;
  std::uint64_t deduplicated = 0;
  /// Feasible leaves accounted for: pruned (bound or oracle) plus scored
  /// (emulated or deduplicated). Equals `space` when the combo ran to
  /// completion — the coverage invariant behind proven_optimal.
  double covered = 0.0;
  /// True when the combo's space was fully accounted for (emulated,
  /// deduplicated or provably pruned) within the budgets.
  bool proven_optimal = false;
  bool has_best = false;
  MeasuredCandidate best;  ///< the combo's time-optimal configuration
};

struct SearchReport {
  Strategy strategy = Strategy::kGuided;
  std::uint64_t seed = 1;
  std::string engine;
  bool reference_timing = false;
  std::vector<ComboReport> combos;
  ParetoFront front;  ///< over every evaluated configuration
  bool has_winner = false;
  MeasuredCandidate winner;  ///< global best (time, BU, energy, digest)
  double space_total = 0.0;
  std::uint64_t emulated = 0;
  std::uint64_t deduplicated = 0;
  std::uint64_t nodes_expanded = 0;
  bool proven_optimal = false;  ///< every combo proven

  double emulated_fraction() const noexcept {
    return space_total <= 0.0
               ? 0.0
               : static_cast<double>(emulated) / space_total;
  }
  std::string render() const;
};

/// Runs the search. Creates a dedicated JobServer (spec.workers) for the
/// candidate fan-out; deterministic for a fixed spec — byte-identical
/// reports across worker counts and engine backends.
Result<SearchReport> run_search(const psdf::PsdfModel& application,
                                const SearchSpec& spec);

/// Stable JSON export (schema "segbus-search/1"); contains no wall-clock
/// fields, so byte-level comparison is the determinism test.
JsonValue search_to_json(const SearchReport& report);

/// Feasible-allocation count: surjections of `processes` onto `segments`
/// (inclusion-exclusion, evaluated in doubles for the big spaces).
double feasible_space(std::uint32_t processes, std::uint32_t segments);

}  // namespace segbus::search
