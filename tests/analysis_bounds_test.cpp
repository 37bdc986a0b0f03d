// Tests of the static performance bounds: the [lower, upper] bracket must
// contain the emulated total execution time on every standard
// configuration, and the lower half must agree with the core analytic
// bound it now backs.
#include <gtest/gtest.h>

#include "analysis/bounds.hpp"
#include "apps/jpeg.hpp"
#include "apps/mp3.hpp"
#include "apps/synthetic.hpp"
#include "emu/backend.hpp"

namespace segbus::analysis {
namespace {

Picoseconds emulate(const psdf::PsdfModel& app,
                    const platform::PlatformModel& platform,
                    const emu::TimingModel& timing =
                        emu::TimingModel::emulator()) {
  auto result = emu::run_emulation(app, platform, timing);
  EXPECT_TRUE(result.is_ok());
  EXPECT_TRUE(result->completed);
  return result->total_execution_time;
}

void expect_bracket(const psdf::PsdfModel& app,
                    const platform::PlatformModel& platform,
                    const emu::TimingModel& timing,
                    const std::string& label) {
  auto bounds = compute_static_bounds(app, platform, timing);
  ASSERT_TRUE(bounds.is_ok()) << label << ": " << bounds.status().to_string();
  Picoseconds emulated = emulate(app, platform, timing);
  // The full five-term monotonicity chain: the v2 generation nests
  // strictly inside the v1 envelope around the measurement.
  EXPECT_LE(bounds->lower_v1, bounds->lower) << label;
  EXPECT_LE(bounds->lower, emulated) << label;
  EXPECT_LE(emulated, bounds->upper) << label;
  EXPECT_LE(bounds->upper, bounds->upper_v1) << label;
  EXPECT_TRUE(bounds->brackets(emulated)) << label;
  EXPECT_TRUE(bounds->dominates_v1()) << label;
  // The bracket is not vacuous: the full-serialization ceiling stays
  // within an order of magnitude of reality on these pipelines.
  EXPECT_LT(bounds->upper.count(), 10 * emulated.count()) << label;
}

TEST(StaticBounds, BracketMp3AllConfigurations) {
  for (std::uint32_t segments : {1u, 2u, 3u}) {
    for (std::uint32_t package : {36u, 18u}) {
      auto app = apps::mp3_decoder_psdf(package);
      ASSERT_TRUE(app.is_ok());
      auto platform = apps::mp3_platform(
          *app, apps::mp3_allocation(segments), segments, package);
      ASSERT_TRUE(platform.is_ok());
      expect_bracket(*app, *platform, emu::TimingModel::emulator(),
                     "mp3 " + std::to_string(segments) + "seg s=" +
                         std::to_string(package));
    }
  }
}

TEST(StaticBounds, BracketHoldsUnderReferenceTiming) {
  auto app = apps::mp3_decoder_psdf();
  ASSERT_TRUE(app.is_ok());
  for (std::uint32_t segments : {1u, 2u, 3u}) {
    auto platform = apps::mp3_platform(
        *app, apps::mp3_allocation(segments), segments, 36);
    ASSERT_TRUE(platform.is_ok());
    expect_bracket(*app, *platform, emu::TimingModel::reference(),
                   "mp3 reference " + std::to_string(segments) + "seg");
  }
}

TEST(StaticBounds, BracketP9MovedPlacement) {
  auto app = apps::mp3_decoder_psdf();
  ASSERT_TRUE(app.is_ok());
  auto platform = apps::mp3_platform_p9_moved(*app);
  ASSERT_TRUE(platform.is_ok());
  expect_bracket(*app, *platform, emu::TimingModel::emulator(),
                 "mp3 p9-moved");
}

TEST(StaticBounds, BracketJpegTwoSegments) {
  auto app = apps::jpeg_encoder_psdf();
  ASSERT_TRUE(app.is_ok());
  auto platform = apps::jpeg_platform(
      *app, apps::jpeg_allocation_two_segments(), 2, app->package_size());
  ASSERT_TRUE(platform.is_ok());
  expect_bracket(*app, *platform, emu::TimingModel::emulator(), "jpeg 2seg");
}

TEST(StaticBounds, BracketSyntheticPipeline) {
  apps::PipelineOptions options;
  options.stages = 6;
  auto app = apps::synthetic_pipeline(options);
  ASSERT_TRUE(app.is_ok());
  platform::PlatformModel platform("synthetic");
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(platform.add_segment(Frequency::from_mhz(100)).is_ok());
  }
  for (std::uint32_t p = 0; p < app->process_count(); ++p) {
    ASSERT_TRUE(platform
                    .map_process(app->process(p).name,
                                 static_cast<platform::SegmentId>(p % 3))
                    .is_ok());
  }
  expect_bracket(*app, platform, emu::TimingModel::emulator(),
                 "synthetic pipeline");
}

TEST(StaticBounds, GoldenTightnessMp3AllConfigurations) {
  // Golden tightness fixtures: on the paper's compute-dominated MP3
  // workload the v2 lower bound lands within a few percent of the
  // emulated figure, and strictly improves on v1, on every standard
  // configuration.
  for (std::uint32_t segments : {1u, 2u, 3u}) {
    for (std::uint32_t package : {36u, 18u}) {
      auto app = apps::mp3_decoder_psdf(package);
      ASSERT_TRUE(app.is_ok());
      auto platform = apps::mp3_platform(
          *app, apps::mp3_allocation(segments), segments, package);
      ASSERT_TRUE(platform.is_ok());
      auto bounds = compute_static_bounds(*app, *platform);
      ASSERT_TRUE(bounds.is_ok());
      const std::string label = "mp3 " + std::to_string(segments) +
                                "seg s=" + std::to_string(package);
      // Per-package handshake ticks make v2 strictly tighter than v1
      // whenever any flow moves data.
      EXPECT_GT(bounds->lower, bounds->lower_v1) << label;
      Picoseconds emulated = emulate(*app, *platform);
      EXPECT_GE(bounds->tightness(emulated), 0.95) << label;
      EXPECT_LE(bounds->tightness(emulated), 1.0) << label;
    }
  }
}

TEST(StaticBounds, GoldenTightnessJpeg) {
  auto app = apps::jpeg_encoder_psdf();
  ASSERT_TRUE(app.is_ok());
  auto platform = apps::jpeg_platform(
      *app, apps::jpeg_allocation_two_segments(), 2, app->package_size());
  ASSERT_TRUE(platform.is_ok());
  auto bounds = compute_static_bounds(*app, *platform);
  ASSERT_TRUE(bounds.is_ok());
  EXPECT_GT(bounds->lower, bounds->lower_v1);
  Picoseconds emulated = emulate(*app, *platform);
  EXPECT_GE(bounds->tightness(emulated), 0.90);
  EXPECT_LE(bounds->tightness(emulated), 1.0);
}

TEST(StaticBounds, V2UpperStrictlyTightensMultiClockConfigs) {
  // Three segments at three different clocks: charging per-package
  // overhead at the involved-domain period instead of the global slowest
  // must strictly lower the ceiling.
  auto app = apps::mp3_decoder_psdf();
  ASSERT_TRUE(app.is_ok());
  auto platform = apps::mp3_platform_three_segments(*app);
  ASSERT_TRUE(platform.is_ok());
  auto bounds = compute_static_bounds(*app, *platform);
  ASSERT_TRUE(bounds.is_ok());
  EXPECT_LT(bounds->upper, bounds->upper_v1);
}

TEST(StaticBounds, StageSumsMatchTotals) {
  auto app = apps::mp3_decoder_psdf();
  ASSERT_TRUE(app.is_ok());
  auto platform = apps::mp3_platform_three_segments(*app);
  ASSERT_TRUE(platform.is_ok());
  auto bounds = compute_static_bounds(*app, *platform);
  ASSERT_TRUE(bounds.is_ok());
  EXPECT_EQ(bounds->stages.size(), 10u);  // the MP3 schedule's tiers
  Picoseconds lower{0}, upper{0};
  for (const StageBounds& stage : bounds->stages) {
    EXPECT_LT(stage.lower, stage.upper);
    EXPECT_FALSE(stage.lower_binding.empty());
    lower += stage.lower;
    upper += stage.upper;
  }
  EXPECT_EQ(lower, bounds->lower);
  EXPECT_EQ(upper, bounds->upper);
}

TEST(StaticBounds, RejectsUnmappedSystems) {
  auto app = apps::mp3_decoder_psdf();
  ASSERT_TRUE(app.is_ok());
  platform::PlatformModel platform("empty");
  ASSERT_TRUE(platform.add_segment(Frequency::from_mhz(100)).is_ok());
  auto bounds = compute_static_bounds(*app, platform);
  EXPECT_FALSE(bounds.is_ok());
}

TEST(StaticBounds, JsonShape) {
  auto app = apps::mp3_decoder_psdf();
  ASSERT_TRUE(app.is_ok());
  auto platform = apps::mp3_platform_three_segments(*app);
  ASSERT_TRUE(platform.is_ok());
  auto bounds = compute_static_bounds(*app, *platform);
  ASSERT_TRUE(bounds.is_ok());
  std::string json = bounds_to_json(*bounds).to_string();
  EXPECT_NE(json.find("\"lower_ps\":"), std::string::npos);
  EXPECT_NE(json.find("\"upper_ps\":"), std::string::npos);
  EXPECT_NE(json.find("\"lower_v1_ps\":"), std::string::npos);
  EXPECT_NE(json.find("\"upper_v1_ps\":"), std::string::npos);
  EXPECT_NE(json.find("\"lower_binding\":\"master P0 chain\""),
            std::string::npos);
  std::string text = bounds->to_string();
  EXPECT_NE(text.find("lower bound ="), std::string::npos);
  EXPECT_NE(text.find("; 10 stages)"), std::string::npos);
}

}  // namespace
}  // namespace segbus::analysis
