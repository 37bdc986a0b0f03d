// Tests of the analytic (closed-form) performance analysis: the lower
// bound must never exceed the emulated time, and the per-stage breakdown
// must sum to it.
#include <gtest/gtest.h>

#include "apps/jpeg.hpp"
#include "apps/mp3.hpp"
#include "apps/synthetic.hpp"
#include "analysis/bounds.hpp"
#include "emu/backend.hpp"
#include "place/apply.hpp"

namespace segbus::core {
namespace {

Picoseconds emulate(const psdf::PsdfModel& app,
                    const platform::PlatformModel& platform,
                    const emu::TimingModel& timing =
                        emu::TimingModel::emulator()) {
  auto result = emu::run_emulation(app, platform, timing);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_TRUE(result->completed);
  return result->total_execution_time;
}

TEST(AnalyticLowerBound, HoldsForMp3AllConfigurations) {
  for (std::uint32_t segments : {1u, 2u, 3u}) {
    for (std::uint32_t package : {36u, 18u}) {
      auto app = apps::mp3_decoder_psdf(package);
      ASSERT_TRUE(app.is_ok());
      auto platform = apps::mp3_platform(
          *app, apps::mp3_allocation(segments), segments, package);
      ASSERT_TRUE(platform.is_ok());
      auto bound = analysis::compute_static_bounds(*app, *platform);
      ASSERT_TRUE(bound.is_ok()) << bound.status().to_string();
      Picoseconds emulated = emulate(*app, *platform);
      EXPECT_LE(bound->lower, emulated)
          << segments << " segments, s=" << package;
      // The bound is not vacuous: at least 75 % of the emulated figure
      // for this compute-dominated workload.
      EXPECT_GT(bound->lower.count(),
                3 * emulated.count() / 4);
    }
  }
}

TEST(AnalyticLowerBound, HoldsUnderReferenceTiming) {
  auto app = apps::mp3_decoder_psdf();
  ASSERT_TRUE(app.is_ok());
  auto platform = apps::mp3_platform_three_segments(*app);
  ASSERT_TRUE(platform.is_ok());
  auto bound = analysis::compute_static_bounds(*app, *platform);
  ASSERT_TRUE(bound.is_ok());
  EXPECT_LE(bound->lower,
            emulate(*app, *platform, emu::TimingModel::reference()));
}

TEST(AnalyticLowerBound, HoldsForJpegAndSynthetics) {
  struct Case {
    psdf::PsdfModel app;
    std::vector<std::uint32_t> allocation;
    std::uint32_t segments;
  };
  std::vector<Case> cases;
  {
    auto jpeg = apps::jpeg_encoder_psdf();
    ASSERT_TRUE(jpeg.is_ok());
    cases.push_back({*jpeg, apps::jpeg_allocation_two_segments(), 2});
  }
  {
    apps::PipelineOptions options;
    options.stages = 6;
    auto pipe = apps::synthetic_pipeline(options);
    ASSERT_TRUE(pipe.is_ok());
    std::vector<std::uint32_t> alloc(pipe->process_count());
    for (std::size_t i = 0; i < alloc.size(); ++i) {
      alloc[i] = static_cast<std::uint32_t>(i % 3);
    }
    cases.push_back({*pipe, alloc, 3});
  }
  {
    apps::ForkJoinOptions options;
    options.width = 4;
    auto fj = apps::synthetic_fork_join(options);
    ASSERT_TRUE(fj.is_ok());
    std::vector<std::uint32_t> alloc(fj->process_count());
    for (std::size_t i = 0; i < alloc.size(); ++i) {
      alloc[i] = static_cast<std::uint32_t>(i % 2);
    }
    cases.push_back({*fj, alloc, 2});
  }
  for (Case& c : cases) {
    platform::PlatformModel platform("an");
    ASSERT_TRUE(
        platform.set_package_size(c.app.package_size()).is_ok());
    ASSERT_TRUE(platform.set_ca_clock(Frequency::from_mhz(111)).is_ok());
    for (std::uint32_t s = 0; s < c.segments; ++s) {
      ASSERT_TRUE(
          platform.add_segment(Frequency::from_mhz(90.0 + s)).is_ok());
    }
    ASSERT_TRUE(
        place::apply_allocation(c.app, c.allocation, platform).is_ok());
    auto bound = analysis::compute_static_bounds(c.app, platform);
    ASSERT_TRUE(bound.is_ok());
    EXPECT_LE(bound->lower, emulate(c.app, platform)) << c.app.name();
  }
}

TEST(AnalyticStages, BreakdownCoversEveryStage) {
  auto app = apps::mp3_decoder_psdf();
  ASSERT_TRUE(app.is_ok());
  auto platform = apps::mp3_platform_three_segments(*app);
  ASSERT_TRUE(platform.is_ok());
  auto bound = analysis::compute_static_bounds(*app, *platform);
  ASSERT_TRUE(bound.is_ok());
  EXPECT_EQ(bound->stages.size(), 10u);  // orderings 1..10
  Picoseconds sum{0};
  for (const analysis::StageBounds& stage : bound->stages) {
    EXPECT_GT(stage.lower.count(), 0);
    EXPECT_FALSE(stage.lower_binding.empty());
    sum += stage.lower;
  }
  EXPECT_EQ(sum, bound->lower);
  // Stage 1 (P0's serial fan-out) binds on the P0 master's v2 chain.
  EXPECT_EQ(bound->stages[0].lower_binding, "master P0 chain");
}

TEST(Analytic, RejectsUnmappedApplications) {
  auto app = apps::mp3_decoder_psdf();
  ASSERT_TRUE(app.is_ok());
  platform::PlatformModel empty("E");
  ASSERT_TRUE(empty.set_ca_clock(Frequency::from_mhz(100)).is_ok());
  ASSERT_TRUE(empty.add_segment(Frequency::from_mhz(100)).is_ok());
  EXPECT_FALSE(analysis::compute_static_bounds(*app, empty).is_ok());
}

}  // namespace
}  // namespace segbus::core
