// Unit tests for the PlaceTool substitute: cost model, exhaustive / greedy /
// annealing placement, allocation application.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "apps/mp3.hpp"
#include "place/apply.hpp"
#include "place/cost.hpp"
#include "place/placer.hpp"
#include "platform/constraints.hpp"
#include "support/rng.hpp"

namespace segbus::place {
namespace {

/// 4 processes: heavy A<->B pair, heavy C<->D pair, light A->C bridge.
psdf::CommMatrix clustered_matrix() {
  psdf::CommMatrix matrix(4);
  matrix.set(0, 1, 1000);
  matrix.set(1, 0, 1000);
  matrix.set(2, 3, 1000);
  matrix.set(3, 2, 1000);
  matrix.set(0, 2, 36);
  return matrix;
}

// --- cost model -----------------------------------------------------------------

TEST(PlaceCost, PackageHopsCountCrossings) {
  psdf::CommMatrix matrix(3);
  matrix.set(0, 2, 72);  // 2 packages at s=36
  Allocation allocation = {0, 1, 2};
  EXPECT_EQ(package_hops(matrix, allocation, 36), 4u);  // 2 pkg x 2 hops
  EXPECT_EQ(inter_segment_packages(matrix, allocation, 36), 2u);
  Allocation local = {0, 1, 0};
  EXPECT_EQ(package_hops(matrix, local, 36), 0u);
}

TEST(PlaceCost, FeasibilityRequiresNonEmptySegments) {
  Allocation allocation = {0, 0, 0};
  EXPECT_TRUE(allocation_feasible(allocation, 1, 0));
  EXPECT_FALSE(allocation_feasible(allocation, 2, 0));  // segment 2 empty
  EXPECT_FALSE(allocation_feasible({0, 1, 5}, 2, 0));   // out of range
}

TEST(PlaceCost, CapacityLimitEnforced) {
  Allocation allocation = {0, 0, 0, 1};
  EXPECT_TRUE(allocation_feasible(allocation, 2, 3));
  EXPECT_FALSE(allocation_feasible(allocation, 2, 2));
}

TEST(PlaceCost, InfeasibleAllocationCostsInfinity) {
  psdf::CommMatrix matrix = clustered_matrix();
  CostModel cost;
  Allocation bad = {0, 0, 0, 0};
  EXPECT_TRUE(std::isinf(allocation_cost(matrix, bad, 2, cost)));
}

TEST(PlaceCost, ImbalancePenaltyIncreasesCost) {
  psdf::CommMatrix matrix(4);  // no traffic at all
  CostModel balanced;
  balanced.imbalance_weight = 1.0;
  double lop_sided =
      allocation_cost(matrix, {0, 0, 0, 1}, 2, balanced);
  double even = allocation_cost(matrix, {0, 0, 1, 1}, 2, balanced);
  EXPECT_GT(lop_sided, even);
}

TEST(PlaceCost, ValidateAllocationChecksShape) {
  psdf::CommMatrix matrix(3);
  EXPECT_FALSE(validate_allocation(matrix, {0, 1}, 2).is_ok());
  EXPECT_FALSE(validate_allocation(matrix, {0, 1, 5}, 2).is_ok());
  EXPECT_FALSE(validate_allocation(matrix, {0, 1, 1}, 0).is_ok());
  EXPECT_TRUE(validate_allocation(matrix, {0, 1, 1}, 2).is_ok());
}

// --- exhaustive -----------------------------------------------------------------

TEST(PlaceExhaustive, FindsClusteredOptimum) {
  psdf::CommMatrix matrix = clustered_matrix();
  CostModel cost;
  auto result = exhaustive_place(matrix, 2, cost);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  // Optimal: {A,B} together and {C,D} together; only the light A->C flow
  // (1 package) crosses.
  EXPECT_EQ(result->allocation[0], result->allocation[1]);
  EXPECT_EQ(result->allocation[2], result->allocation[3]);
  EXPECT_NE(result->allocation[0], result->allocation[2]);
  EXPECT_DOUBLE_EQ(result->cost, 1.0);
}

TEST(PlaceExhaustive, SingleSegmentIsZeroCost) {
  psdf::CommMatrix matrix = clustered_matrix();
  CostModel cost;
  auto result = exhaustive_place(matrix, 1, cost);
  ASSERT_TRUE(result.is_ok());
  EXPECT_DOUBLE_EQ(result->cost, 0.0);
}

TEST(PlaceExhaustive, RefusesHugeSearchSpaces) {
  psdf::CommMatrix matrix(30);
  CostModel cost;
  auto result = exhaustive_place(matrix, 3, cost, /*max_states=*/1000);
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(PlaceExhaustive, MoreSegmentsThanProcessesRejected) {
  psdf::CommMatrix matrix(2);
  CostModel cost;
  EXPECT_FALSE(exhaustive_place(matrix, 3, cost).is_ok());
}

// --- greedy ---------------------------------------------------------------------

TEST(PlaceGreedy, ProducesFeasibleAllocation) {
  psdf::CommMatrix matrix = clustered_matrix();
  CostModel cost;
  auto result = greedy_place(matrix, 2, cost);
  ASSERT_TRUE(result.is_ok());
  EXPECT_TRUE(allocation_feasible(result->allocation, 2, 0));
  EXPECT_TRUE(std::isfinite(result->cost));
}

TEST(PlaceGreedy, KeepsHeavyPairsTogether) {
  psdf::CommMatrix matrix = clustered_matrix();
  CostModel cost;
  auto result = greedy_place(matrix, 2, cost);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result->allocation[0], result->allocation[1]);
  EXPECT_EQ(result->allocation[2], result->allocation[3]);
}

TEST(PlaceGreedy, RespectsCapacity) {
  psdf::CommMatrix matrix = clustered_matrix();
  CostModel cost;
  cost.max_fus_per_segment = 2;
  auto result = greedy_place(matrix, 2, cost);
  ASSERT_TRUE(result.is_ok());
  EXPECT_TRUE(allocation_feasible(result->allocation, 2, 2));
}

// --- annealing ------------------------------------------------------------------

TEST(PlaceAnneal, MatchesExhaustiveOnSmallInstance) {
  psdf::CommMatrix matrix = clustered_matrix();
  CostModel cost;
  auto best = exhaustive_place(matrix, 2, cost);
  ASSERT_TRUE(best.is_ok());
  AnnealOptions options;
  options.iterations = 20000;
  auto annealed = anneal_place(matrix, 2, cost, options);
  ASSERT_TRUE(annealed.is_ok());
  EXPECT_DOUBLE_EQ(annealed->cost, best->cost);
}

TEST(PlaceAnneal, DeterministicForSeed) {
  psdf::CommMatrix matrix = clustered_matrix();
  CostModel cost;
  AnnealOptions options;
  options.seed = 42;
  options.iterations = 5000;
  auto a = anneal_place(matrix, 2, cost, options);
  auto b = anneal_place(matrix, 2, cost, options);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(a->allocation, b->allocation);
  EXPECT_DOUBLE_EQ(a->cost, b->cost);
}

TEST(PlaceAnneal, NeverWorseThanGreedySeed) {
  psdf::CommMatrix matrix =
      psdf::CommMatrix::from_model(*apps::mp3_decoder_psdf());
  CostModel cost;
  auto greedy = greedy_place(matrix, 3, cost);
  AnnealOptions options;
  options.iterations = 30000;
  auto annealed = anneal_place(matrix, 3, cost, options);
  ASSERT_TRUE(greedy.is_ok());
  ASSERT_TRUE(annealed.is_ok());
  EXPECT_LE(annealed->cost, greedy->cost);
}

TEST(PlaceAnneal, SingleSegmentShortCircuits) {
  psdf::CommMatrix matrix = clustered_matrix();
  CostModel cost;
  auto result = anneal_place(matrix, 1, cost);
  ASSERT_TRUE(result.is_ok());
  EXPECT_DOUBLE_EQ(result->cost, 0.0);
}

/// One seeded random annealing instance: up to 31 processes on 1-5
/// segments, a sparse matrix, and every cost-model term switched on at
/// random (imbalance weight, capacity limit, hop weight other than 1,
/// custom temperature and cooling).
struct AnnealInstance {
  psdf::CommMatrix matrix;
  std::uint32_t segments = 1;
  CostModel cost;
  AnnealOptions options;
};

AnnealInstance random_anneal_instance(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  AnnealInstance instance;
  instance.segments = static_cast<std::uint32_t>(rng.next_in(1, 5));
  const auto n = static_cast<std::size_t>(
      rng.next_in(static_cast<std::int64_t>(instance.segments), 31));
  instance.matrix = psdf::CommMatrix(n);
  const double density = 0.05 + 0.5 * rng.next_double();
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t t = 0; t < n; ++t) {
      if (rng.next_bool(density)) {
        instance.matrix.set(s, t, rng.next_below(5000));
      }
    }
  }
  instance.cost.package_size =
      static_cast<std::uint32_t>(rng.next_in(1, 64));
  instance.cost.hop_weight = 0.25 + 3.0 * rng.next_double();
  if (rng.next_bool(0.6)) {
    instance.cost.imbalance_weight = 50.0 * rng.next_double();
  }
  if (rng.next_bool(0.4)) {
    // Tight but satisfiable: room for every process plus some slack.
    const std::size_t tight = (n + instance.segments - 1) / instance.segments;
    instance.cost.max_fus_per_segment =
        static_cast<std::uint32_t>(tight + rng.next_below(3));
  }
  instance.options.seed = rng.next();
  instance.options.iterations = 500 + rng.next_below(1500);
  if (rng.next_bool(0.5)) {
    instance.options.initial_temperature = 1.0 + 100.0 * rng.next_double();
  }
  if (rng.next_bool(0.5)) {
    instance.options.cooling = 0.99 + 0.0099 * rng.next_double();
  }
  return instance;
}

/// FNV-1a over (allocation, cost bits, evaluations) of one result.
std::uint64_t fold_result(std::uint64_t hash, const PlacementResult& result) {
  auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xFFu;
      hash *= 0x100000001B3ull;
    }
  };
  mix(result.allocation.size());
  for (std::uint32_t segment : result.allocation) mix(segment);
  mix(std::bit_cast<std::uint64_t>(result.cost));
  mix(result.evaluations);
  return hash;
}

TEST(PlaceAnneal, ReportedCostIsTheFullRecomputeOnRandomInstances) {
  std::uint64_t hash = 0xCBF29CE484222325ull;
  for (std::uint64_t k = 0; k < 1000; ++k) {
    const AnnealInstance instance =
        random_anneal_instance(derive_seed(2024, k));
    auto result = anneal_place(instance.matrix, instance.segments,
                               instance.cost, instance.options);
    ASSERT_TRUE(result.is_ok()) << "instance " << k << ": "
                                << result.status().to_string();
    // Exact equality: the running total must reproduce the one formula.
    EXPECT_EQ(result->cost,
              allocation_cost(instance.matrix, result->allocation,
                              instance.segments, instance.cost))
        << "instance " << k;
    hash = fold_result(hash, *result);
  }
  // Every allocation, cost bit pattern and evaluation count of the sweep,
  // pinned: the annealer's accept/reject sequence may not drift.
  EXPECT_EQ(hash, 0x13FF6A2D26426828ull);
}

TEST(PlaceAnneal, PinnedResultsOnMp3) {
  const psdf::CommMatrix matrix =
      psdf::CommMatrix::from_model(*apps::mp3_decoder_psdf());
  struct Pin {
    std::uint32_t segments;
    std::uint64_t seed;
    double imbalance_weight;
    Allocation allocation;
    double cost;
    std::uint64_t evaluations;
  };
  const Pin pins[] = {
      {2, 1, 0.0, {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1}, 2.0, 8601},
      {3, 7, 0.0, {1, 1, 1, 1, 0, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1}, 4.0, 11081},
      {3, 99, 2.5, {1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 2, 1, 0, 0, 0}, 44.0, 12813},
      {4, 5, 0.0, {2, 2, 2, 2, 0, 2, 2, 2, 2, 2, 1, 3, 3, 3, 2}, 38.0, 13220},
  };
  for (const Pin& pin : pins) {
    CostModel cost;
    cost.imbalance_weight = pin.imbalance_weight;
    AnnealOptions options;
    options.seed = pin.seed;
    options.iterations = 20000;
    auto result = anneal_place(matrix, pin.segments, cost, options);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_EQ(result->allocation, pin.allocation) << "seed " << pin.seed;
    EXPECT_EQ(result->cost, pin.cost) << "seed " << pin.seed;
    EXPECT_EQ(result->evaluations, pin.evaluations) << "seed " << pin.seed;
  }
}

// --- rendering & application -------------------------------------------------------

TEST(PlaceResult, RenderUsesFigure9Separators) {
  auto app = apps::mp3_decoder_psdf();
  ASSERT_TRUE(app.is_ok());
  PlacementResult result;
  result.allocation = apps::mp3_allocation(3);
  std::string text = result.render(*app);
  EXPECT_NE(text.find("||"), std::string::npos);
  EXPECT_NE(text.find("P0 P1 P2 P3 P8 P9 P10"), std::string::npos);
  EXPECT_NE(text.find("P4"), std::string::npos);
}

TEST(PlaceApply, BuildsValidMapping) {
  auto app = apps::mp3_decoder_psdf();
  ASSERT_TRUE(app.is_ok());
  platform::PlatformModel platform("T");
  ASSERT_TRUE(platform.set_ca_clock(Frequency::from_mhz(111)).is_ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(platform.add_segment(Frequency::from_mhz(100)).is_ok());
  }
  ASSERT_TRUE(
      apply_allocation(*app, apps::mp3_allocation(3), platform).is_ok());
  EXPECT_TRUE(platform::validate_mapping(platform, *app).ok());
  auto extracted = extract_allocation(*app, platform);
  ASSERT_TRUE(extracted.is_ok());
  EXPECT_EQ(*extracted, apps::mp3_allocation(3));
}

TEST(PlaceApply, RejectsWrongSizeAllocation) {
  auto app = apps::mp3_decoder_psdf();
  ASSERT_TRUE(app.is_ok());
  platform::PlatformModel platform("T");
  ASSERT_TRUE(platform.add_segment(Frequency::from_mhz(100)).is_ok());
  Allocation wrong(3, 0);
  EXPECT_FALSE(apply_allocation(*app, wrong, platform).is_ok());
}

TEST(PlaceApply, SinkGetsSlaveOnlyMaster) {
  auto app = apps::mp3_decoder_psdf();
  ASSERT_TRUE(app.is_ok());
  platform::PlatformModel platform("T");
  ASSERT_TRUE(platform.set_ca_clock(Frequency::from_mhz(100)).is_ok());
  ASSERT_TRUE(platform.add_segment(Frequency::from_mhz(100)).is_ok());
  Allocation all_zero(app->process_count(), 0);
  ASSERT_TRUE(apply_allocation(*app, all_zero, platform).is_ok());
  // P14 (the PCM sink) must have a slave but needs no master.
  for (const platform::FunctionalUnit& fu : platform.segment(0).fus) {
    if (fu.process == "P14") {
      EXPECT_EQ(fu.masters, 0u);
      EXPECT_GE(fu.slaves, 1u);
    }
    if (fu.process == "P0") {
      EXPECT_GE(fu.masters, 1u);
    }
  }
}

}  // namespace
}  // namespace segbus::place
