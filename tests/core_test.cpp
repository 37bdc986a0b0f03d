// Tests of the core API: sessions, paper-style reporting, accuracy
// comparison.
#include <gtest/gtest.h>

#include "apps/mp3.hpp"
#include "core/accuracy.hpp"
#include "core/report.hpp"
#include "core/session.hpp"
#include "platform/platform_xml.hpp"
#include "psdf/psdf_xml.hpp"
#include "xml/writer.hpp"

namespace segbus::core {
namespace {

psdf::PsdfModel mp3_app() {
  auto app = apps::mp3_decoder_psdf();
  EXPECT_TRUE(app.is_ok());
  return std::move(app).value();
}

platform::PlatformModel mp3_3seg(const psdf::PsdfModel& app) {
  auto platform = apps::mp3_platform_three_segments(app);
  EXPECT_TRUE(platform.is_ok());
  return std::move(platform).value();
}

// --- sessions ------------------------------------------------------------------

TEST(Session, FromModelsRunsToCompletion) {
  psdf::PsdfModel app = mp3_app();
  auto session = EmulationSession::from_models(app, mp3_3seg(app));
  ASSERT_TRUE(session.is_ok()) << session.status().to_string();
  auto result = session->emulate();
  ASSERT_TRUE(result.is_ok());
  EXPECT_TRUE(result->completed);
}

TEST(Session, RepeatedEmulationsAreDeterministic) {
  psdf::PsdfModel app = mp3_app();
  auto session = EmulationSession::from_models(app, mp3_3seg(app));
  ASSERT_TRUE(session.is_ok());
  auto first = session->emulate();
  auto second = session->emulate();
  ASSERT_TRUE(first.is_ok());
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(first->total_execution_time, second->total_execution_time);
}

TEST(Session, ParallelConfigMatchesSequential) {
  psdf::PsdfModel app = mp3_app();
  SessionConfig config;
  config.backend.backend = emu::EngineBackend::kParallel;
  config.backend.parallel_threads = 2;
  auto parallel_session =
      EmulationSession::from_models(app, mp3_3seg(app), config);
  auto sequential_session = EmulationSession::from_models(app, mp3_3seg(app));
  ASSERT_TRUE(parallel_session.is_ok());
  ASSERT_TRUE(sequential_session.is_ok());
  auto p = parallel_session->emulate();
  auto s = sequential_session->emulate();
  ASSERT_TRUE(p.is_ok());
  ASSERT_TRUE(s.is_ok());
  EXPECT_EQ(p->total_execution_time, s->total_execution_time);
}

TEST(Session, FromXmlStringsMatchesDirectModels) {
  psdf::PsdfModel app = mp3_app();
  platform::PlatformModel platform = mp3_3seg(app);
  std::string psdf_xml = xml::write_document(psdf::to_xml(app));
  std::string psm_xml = xml::write_document(platform::to_xml(platform));

  auto from_xml = EmulationSession::from_xml_strings(psdf_xml, psm_xml);
  ASSERT_TRUE(from_xml.is_ok()) << from_xml.status().to_string();
  auto direct = EmulationSession::from_models(app, platform);
  ASSERT_TRUE(direct.is_ok());

  auto a = from_xml->emulate();
  auto b = direct->emulate();
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(a->total_execution_time, b->total_execution_time);
  EXPECT_EQ(a->ca.inter_requests, b->ca.inter_requests);
}

TEST(Session, PackageSizeOverrideAppliesToBothModels) {
  psdf::PsdfModel app = mp3_app();
  platform::PlatformModel platform = mp3_3seg(app);
  std::string psdf_xml = xml::write_document(psdf::to_xml(app));
  std::string psm_xml = xml::write_document(platform::to_xml(platform));
  auto session =
      EmulationSession::from_xml_strings(psdf_xml, psm_xml, {}, 18);
  ASSERT_TRUE(session.is_ok());
  EXPECT_EQ(session->application().package_size(), 18u);
  EXPECT_EQ(session->platform().package_size(), 18u);
}

TEST(Session, InvalidApplicationRejected) {
  psdf::PsdfModel bad("bad");
  ASSERT_TRUE(bad.add_process("A").is_ok());
  ASSERT_TRUE(bad.add_process("B").is_ok());
  ASSERT_TRUE(bad.add_flow(0, 1, 10, 1, 1).is_ok());
  ASSERT_TRUE(bad.add_flow(1, 0, 10, 2, 1).is_ok());  // cycle
  platform::PlatformModel platform("P");
  ASSERT_TRUE(platform.set_ca_clock(Frequency::from_mhz(100)).is_ok());
  ASSERT_TRUE(platform.add_segment(Frequency::from_mhz(100)).is_ok());
  ASSERT_TRUE(platform.map_process("A", 0).is_ok());
  ASSERT_TRUE(platform.map_process("B", 0).is_ok());
  auto session = EmulationSession::from_models(bad, platform);
  ASSERT_FALSE(session.is_ok());
  EXPECT_EQ(session.status().code(), StatusCode::kValidationError);
}

TEST(Session, MissingXmlFileIsNotFound) {
  auto session =
      EmulationSession::from_xml_files("/nonexistent/a.xml",
                                       "/nonexistent/b.xml");
  ASSERT_FALSE(session.is_ok());
  EXPECT_EQ(session.status().code(), StatusCode::kNotFound);
}

// --- reports -------------------------------------------------------------------

class ReportTest : public testing::Test {
 protected:
  void SetUp() override {
    psdf::PsdfModel app = mp3_app();
    platform_ = mp3_3seg(app);
    SessionConfig config;
    config.engine.record_activity = true;
    auto session = EmulationSession::from_models(app, platform_, config);
    ASSERT_TRUE(session.is_ok());
    auto result = session->emulate();
    ASSERT_TRUE(result.is_ok());
    result_ = std::move(result).value();
  }
  platform::PlatformModel platform_;
  emu::EmulationResult result_;
};

TEST_F(ReportTest, PaperReportHasAllSections) {
  std::string report = render_paper_report(result_, platform_);
  EXPECT_NE(report.find("P0, Start Time = 10989ps"), std::string::npos);
  EXPECT_NE(report.find("P14 received last package at"), std::string::npos);
  EXPECT_NE(report.find("CA TCT = "), std::string::npos);
  EXPECT_NE(report.find("Execution time = "), std::string::npos);
  EXPECT_NE(report.find("@ 111.00MHz"), std::string::npos);
  EXPECT_NE(report.find("BU12:"), std::string::npos);
  EXPECT_NE(report.find("Package Received from Segment 1 = 32"),
            std::string::npos);
  EXPECT_NE(report.find("Segment 1:"), std::string::npos);
  EXPECT_NE(report.find("SA1:"), std::string::npos);
  EXPECT_NE(report.find("Total intra-segment requests = 95"),
            std::string::npos);
  EXPECT_NE(report.find("@ 91.00MHz"), std::string::npos);
  EXPECT_NE(report.find("@ 89.01MHz"), std::string::npos);
}

TEST_F(ReportTest, BuAnalysisMatchesPaperValues) {
  std::string analysis = render_bu_analysis(result_, platform_);
  EXPECT_NE(analysis.find("UP12 = 2304"), std::string::npos);
  EXPECT_NE(analysis.find("TCT12 = 2336"), std::string::npos);
  EXPECT_NE(analysis.find("mean WP12 = 1.00"), std::string::npos);
  EXPECT_NE(analysis.find("UP23 = 144"), std::string::npos);
  EXPECT_NE(analysis.find("TCT23 = 146"), std::string::npos);
}

TEST_F(ReportTest, TimelineRendersEveryProcess) {
  std::string timeline = render_timeline(result_);
  for (int p = 0; p < 15; ++p) {
    EXPECT_NE(timeline.find("P" + std::to_string(p)), std::string::npos);
  }
  EXPECT_NE(timeline.find("["), std::string::npos);
  EXPECT_NE(timeline.find("]"), std::string::npos);
}

TEST_F(ReportTest, ActivityRendersEveryElement) {
  std::string activity = render_activity(result_);
  for (const char* element : {"SA1", "SA2", "SA3", "CA", "BU12", "BU23"}) {
    EXPECT_NE(activity.find(element), std::string::npos) << element;
  }
}

TEST_F(ReportTest, ActivityWithoutRecordingExplains) {
  emu::EmulationResult empty;
  EXPECT_NE(render_activity(empty).find("record_activity"),
            std::string::npos);
}

TEST_F(ReportTest, CsvExports) {
  CsvWriter timeline = timeline_csv(result_);
  EXPECT_EQ(timeline.row_count(), 15u);
  CsvWriter activity = activity_csv(result_);
  EXPECT_GT(activity.row_count(), 0u);
  EXPECT_NE(activity.to_string().find("BU12"), std::string::npos);
}

// --- accuracy -------------------------------------------------------------------

TEST(Accuracy, EstimateIsCloseButBelowReference) {
  psdf::PsdfModel app = mp3_app();
  auto report = compare_accuracy(app, mp3_3seg(app));
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_LT(report->estimated, report->actual);
  // The paper's band: accuracy settles around 93-95%; our reference model
  // restores the same omitted costs, so the estimate must be in the
  // 90-100% range.
  EXPECT_GT(report->accuracy_percent(), 90.0);
  EXPECT_LT(report->accuracy_percent(), 100.0);
  EXPECT_NEAR(report->accuracy_percent() + report->error_percent(), 100.0,
              1e-9);
}

TEST(Accuracy, ErrorShrinksWithPackageSize) {
  // Paper §4 Discussion: "the higher the data package, the less impact of
  // these figures should be observed".
  auto app36 = apps::mp3_decoder_psdf(36);
  auto app18 = apps::mp3_decoder_psdf(18);
  ASSERT_TRUE(app36.is_ok());
  ASSERT_TRUE(app18.is_ok());
  auto plat36 = apps::mp3_platform_three_segments(*app36, 36);
  auto plat18 = apps::mp3_platform_three_segments(*app18, 18);
  ASSERT_TRUE(plat36.is_ok());
  ASSERT_TRUE(plat18.is_ok());
  auto report36 = compare_accuracy(*app36, *plat36);
  auto report18 = compare_accuracy(*app18, *plat18);
  ASSERT_TRUE(report36.is_ok());
  ASSERT_TRUE(report18.is_ok());
  EXPECT_LT(report36->error_percent(), report18->error_percent());
}

}  // namespace
}  // namespace segbus::core
