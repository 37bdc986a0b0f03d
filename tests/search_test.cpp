// Guided design-space exploration (src/search): Pareto-front canonical
// order, partial-bound admissibility against the v2 static bound and the
// emulator, guided-vs-exhaustive bit-identical winners, byte-identical
// reports across worker counts and engine backends, coverage accounting,
// budget exhaustion, and the "search" service request kind.
#include "search/search.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/critical_path.hpp"
#include "apps/mp3.hpp"
#include "apps/synthetic.hpp"
#include "core/session.hpp"
#include "place/apply.hpp"
#include "platform/model.hpp"
#include "psdf/psdf_xml.hpp"
#include "search/bound.hpp"
#include "search/heuristics.hpp"
#include "search/service.hpp"
#include "service/server.hpp"
#include "support/json.hpp"
#include "xml/writer.hpp"

namespace segbus {
namespace {

// --- pareto front -----------------------------------------------------------

search::ParetoPoint point(std::int64_t time_ps, std::uint64_t bu,
                          double energy, const std::string& digest) {
  search::ParetoPoint p;
  p.objectives.execution_time = Picoseconds(time_ps);
  p.objectives.bu_transfers = bu;
  p.objectives.energy_pj = energy;
  p.digest = digest;
  p.label = digest;
  return p;
}

TEST(Pareto, DominatesIsTheStrictProductOrder) {
  const auto a = point(100, 5, 1.0, "a").objectives;
  const auto b = point(100, 5, 2.0, "b").objectives;
  const auto c = point(90, 6, 1.0, "c").objectives;
  EXPECT_TRUE(search::dominates(a, b));   // equal, equal, better
  EXPECT_FALSE(search::dominates(b, a));
  EXPECT_FALSE(search::dominates(a, a));  // never itself (needs a strict win)
  EXPECT_FALSE(search::dominates(a, c));  // trade-off: incomparable
  EXPECT_FALSE(search::dominates(c, a));
}

TEST(Pareto, OfferKeepsOnlyNonDominatedPoints) {
  search::ParetoFront front;
  EXPECT_TRUE(front.offer(point(100, 5, 1.0, "mid")));
  EXPECT_TRUE(front.offer(point(90, 6, 1.0, "fast")));   // trade-off: kept
  EXPECT_FALSE(front.offer(point(110, 7, 2.0, "worse")));  // dominated
  ASSERT_EQ(front.size(), 2u);
  // A newcomer dominating both sweeps the front.
  EXPECT_TRUE(front.offer(point(80, 4, 0.5, "best")));
  ASSERT_EQ(front.size(), 1u);
  EXPECT_EQ(front.points()[0].digest, "best");
}

TEST(Pareto, DuplicateDigestsAreDropped) {
  search::ParetoFront front;
  EXPECT_TRUE(front.offer(point(100, 5, 1.0, "same")));
  EXPECT_FALSE(front.offer(point(100, 5, 1.0, "same")));
  EXPECT_EQ(front.size(), 1u);
}

TEST(Pareto, CanonicalOrderIsInsertionOrderIndependent) {
  std::vector<search::ParetoPoint> points = {
      point(100, 5, 1.0, "aa"), point(90, 6, 1.0, "bb"),
      point(95, 5, 2.0, "cc"), point(100, 4, 3.0, "dd"),
      point(85, 9, 9.0, "ee")};
  search::ParetoFront forward;
  for (const auto& p : points) forward.offer(p);
  std::reverse(points.begin(), points.end());
  search::ParetoFront backward;
  for (const auto& p : points) backward.offer(p);
  EXPECT_EQ(forward.to_json().to_string(), backward.to_json().to_string());
  // Canonical order: ascending (time, bu, energy, digest).
  for (std::size_t i = 1; i < forward.points().size(); ++i) {
    EXPECT_TRUE(search::pareto_less(forward.points()[i - 1],
                                    forward.points()[i]));
  }
}

// --- feasible space ---------------------------------------------------------

TEST(FeasibleSpace, MatchesSurjectionCounts) {
  EXPECT_DOUBLE_EQ(search::feasible_space(15, 1), 1.0);
  EXPECT_DOUBLE_EQ(search::feasible_space(3, 2), 6.0);    // 2^3 - 2
  EXPECT_DOUBLE_EQ(search::feasible_space(15, 2), 32766.0);  // 2^15 - 2
  EXPECT_DOUBLE_EQ(search::feasible_space(15, 3), 14250606.0);
  EXPECT_DOUBLE_EQ(search::feasible_space(2, 3), 0.0);  // infeasible
}

// --- partial bound ----------------------------------------------------------

std::vector<Frequency> paper_clocks(std::uint32_t segments) {
  const std::vector<Frequency> base{Frequency::from_mhz(91.0),
                                    Frequency::from_mhz(98.0),
                                    Frequency::from_mhz(89.0)};
  std::vector<Frequency> clocks;
  for (std::uint32_t s = 0; s < segments; ++s) {
    clocks.push_back(base[s % base.size()]);
  }
  return clocks;
}

Result<platform::PlatformModel> paper_platform(
    const psdf::PsdfModel& app, const place::Allocation& allocation,
    std::uint32_t segments) {
  platform::PlatformModel platform("search-test");
  SEGBUS_RETURN_IF_ERROR(platform.set_package_size(app.package_size()));
  SEGBUS_RETURN_IF_ERROR(
      platform.set_ca_clock(Frequency::from_mhz(111.0)));
  for (const Frequency& clock : paper_clocks(segments)) {
    auto added = platform.add_segment(clock);
    if (!added.is_ok()) return added.status();
  }
  SEGBUS_RETURN_IF_ERROR(place::apply_allocation(app, allocation, platform));
  return platform;
}

// Complete allocations the bound must price exactly like the v2 static
// bound (deterministic hand-picked spread: paper-style, interleaved,
// lopsided).
std::vector<place::Allocation> complete_allocations_15() {
  return {
      {0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1},
      {0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0},
      {1, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
      {0, 0, 1, 1, 2, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2},
      {2, 1, 0, 2, 1, 0, 2, 1, 0, 2, 1, 0, 2, 1, 0},
  };
}

TEST(PartialBound, ReproducesTheV2BoundOnCompleteAllocations) {
  auto app = apps::mp3_decoder_psdf();
  ASSERT_TRUE(app.is_ok());
  for (const place::Allocation& allocation : complete_allocations_15()) {
    const std::uint32_t segments =
        *std::max_element(allocation.begin(), allocation.end()) + 1;
    auto oracle = search::PartialBoundOracle::create(
        *app, paper_clocks(segments), Frequency::from_mhz(111.0),
        app->package_size());
    ASSERT_TRUE(oracle.is_ok()) << oracle.status().to_string();
    auto platform = paper_platform(*app, allocation, segments);
    ASSERT_TRUE(platform.is_ok()) << platform.status().to_string();
    auto v2 = analysis::critical_path_lower_bound(*app, *platform);
    ASSERT_TRUE(v2.is_ok()) << v2.status().to_string();
    EXPECT_EQ(oracle->lower_bound(allocation).count(), v2->lower.count())
        << "allocation " << ::testing::PrintToString(allocation);
  }
}

TEST(PartialBound, PrefixBoundsNeverExceedTheLeafBound) {
  auto app = apps::mp3_decoder_psdf();
  ASSERT_TRUE(app.is_ok());
  for (const place::Allocation& allocation : complete_allocations_15()) {
    const std::uint32_t segments =
        *std::max_element(allocation.begin(), allocation.end()) + 1;
    auto oracle = search::PartialBoundOracle::create(
        *app, paper_clocks(segments), Frequency::from_mhz(111.0),
        app->package_size());
    ASSERT_TRUE(oracle.is_ok());
    const Picoseconds leaf = oracle->lower_bound(allocation);
    std::vector<std::uint32_t> partial(allocation.size(),
                                       search::kUnassigned);
    // Assign one process at a time; every prefix bound must stay
    // admissible for this completion.
    for (std::size_t i = 0; i < allocation.size(); ++i) {
      EXPECT_LE(oracle->lower_bound(partial).count(), leaf.count())
          << "prefix length " << i;
      partial[i] = allocation[i];
    }
    EXPECT_EQ(oracle->lower_bound(partial).count(), leaf.count());
  }
}

TEST(PartialBound, LeafBoundNeverExceedsTheEmulatedTime) {
  auto app = apps::mp3_decoder_psdf();
  ASSERT_TRUE(app.is_ok());
  for (const place::Allocation& allocation : complete_allocations_15()) {
    const std::uint32_t segments =
        *std::max_element(allocation.begin(), allocation.end()) + 1;
    auto oracle = search::PartialBoundOracle::create(
        *app, paper_clocks(segments), Frequency::from_mhz(111.0),
        app->package_size());
    ASSERT_TRUE(oracle.is_ok());
    auto platform = paper_platform(*app, allocation, segments);
    ASSERT_TRUE(platform.is_ok());
    auto session = core::EmulationSession::from_models(*app, *platform);
    ASSERT_TRUE(session.is_ok()) << session.status().to_string();
    auto result = session->emulate();
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_LE(oracle->lower_bound(allocation).count(),
              result->total_execution_time.count());
  }
}

// --- search runs ------------------------------------------------------------

psdf::PsdfModel small_synthetic() {
  apps::RandomWorkloadOptions options;
  options.seed = 7;
  options.min_width = options.max_width = 5;
  options.min_layers = options.max_layers = 2;  // 10 processes
  auto app = apps::synthetic_random(options);
  EXPECT_TRUE(app.is_ok());
  return *app;
}

search::SearchSpec small_spec() {
  search::SearchSpec spec;
  spec.segment_counts = {1, 2};
  spec.workers = 2;
  return spec;
}

TEST(Search, GuidedWinnerIsBitIdenticalWithExhaustive) {
  const psdf::PsdfModel app = small_synthetic();

  search::SearchSpec guided_spec = small_spec();
  auto guided = search::run_search(app, guided_spec);
  ASSERT_TRUE(guided.is_ok()) << guided.status().to_string();

  search::SearchSpec exhaustive_spec = small_spec();
  exhaustive_spec.strategy = search::Strategy::kExhaustive;
  auto exhaustive = search::run_search(app, exhaustive_spec);
  ASSERT_TRUE(exhaustive.is_ok()) << exhaustive.status().to_string();

  ASSERT_TRUE(guided->has_winner);
  ASSERT_TRUE(exhaustive->has_winner);
  EXPECT_EQ(guided->winner.digest, exhaustive->winner.digest);
  EXPECT_EQ(guided->winner.objectives, exhaustive->winner.objectives);
  EXPECT_EQ(guided->winner.candidate.allocation,
            exhaustive->winner.candidate.allocation);
  EXPECT_TRUE(guided->proven_optimal);
  EXPECT_TRUE(exhaustive->proven_optimal);
  // Exhaustive scores the whole space; guided emulates a fraction of it.
  EXPECT_EQ(exhaustive->emulated + exhaustive->deduplicated,
            static_cast<std::uint64_t>(exhaustive->space_total));
  EXPECT_LT(guided->emulated, exhaustive->emulated);
}

TEST(Search, CoverageAccountsForTheWholeSpaceWhenProven) {
  auto report = search::run_search(small_synthetic(), small_spec());
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_TRUE(report->proven_optimal);
  double space_total = 0.0;
  for (const search::ComboReport& combo : report->combos) {
    EXPECT_TRUE(combo.proven_optimal)
        << "s" << combo.segments << "/p" << combo.package_size;
    EXPECT_DOUBLE_EQ(combo.covered, combo.space)
        << "s" << combo.segments << "/p" << combo.package_size;
    space_total += combo.space;
  }
  EXPECT_DOUBLE_EQ(report->space_total, space_total);
}

TEST(Search, ReportsAreByteIdenticalAcrossWorkerCounts) {
  const psdf::PsdfModel app = small_synthetic();
  std::string baseline;
  for (unsigned workers : {1u, 2u, 8u}) {
    search::SearchSpec spec = small_spec();
    spec.workers = workers;
    auto report = search::run_search(app, spec);
    ASSERT_TRUE(report.is_ok()) << report.status().to_string();
    const std::string json =
        search::search_to_json(*report).to_string();
    if (baseline.empty()) {
      baseline = json;
    } else {
      EXPECT_EQ(json, baseline) << workers << " workers";
    }
  }
}

TEST(Search, FrontAndWinnerAreIdenticalAcrossEngineBackends) {
  const psdf::PsdfModel app = small_synthetic();
  std::string front_baseline;
  std::string winner_baseline;
  for (const char* engine : {"fast", "reference"}) {
    search::SearchSpec spec = small_spec();
    spec.engine = engine;
    auto report = search::run_search(app, spec);
    ASSERT_TRUE(report.is_ok()) << report.status().to_string();
    const JsonValue json = search::search_to_json(*report);
    const std::string front = json.get("front").to_string();
    const std::string winner = json.get("winner").to_string();
    if (front_baseline.empty()) {
      front_baseline = front;
      winner_baseline = winner;
    } else {
      EXPECT_EQ(front, front_baseline) << engine;
      EXPECT_EQ(winner, winner_baseline) << engine;
    }
  }
}

TEST(Search, EmulationBudgetExhaustionIsReportedNotFatal) {
  search::SearchSpec spec = small_spec();
  spec.max_emulations = 3;
  auto report = search::run_search(small_synthetic(), spec);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_FALSE(report->proven_optimal);
  EXPECT_LE(report->emulated, 3u + spec.wave_size);  // soft budget: <1 wave over
}

TEST(Search, ExhaustiveRefusesUnboundedHugeSpaces) {
  search::SearchSpec spec;
  spec.segment_counts = {3};
  spec.strategy = search::Strategy::kExhaustive;
  auto app = apps::mp3_decoder_psdf();  // 3-seg space: 14 250 606
  ASSERT_TRUE(app.is_ok());
  auto report = search::run_search(*app, spec);
  EXPECT_FALSE(report.is_ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(Search, MetricsCountersMatchTheReport) {
  obs::MetricsRegistry metrics;
  search::SearchSpec spec = small_spec();
  spec.metrics = &metrics;
  auto report = search::run_search(small_synthetic(), spec);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  const std::uint64_t emulated =
      metrics
          .counter("segbus_search_candidates_total",
                   {{"outcome", "emulated"}})
          .value();
  EXPECT_EQ(emulated, report->emulated);
}

// Pinned guided-search results on MP3: every count and winner below is
// what the heuristics, the bound and the evaluator produce together, so a
// change to any of them that alters a single decision shows up here.
TEST(Search, PinnedMp3GuidedReport) {
  auto app = apps::mp3_decoder_psdf();
  ASSERT_TRUE(app.is_ok());
  search::SearchSpec spec;
  spec.segment_counts = {2, 3};
  spec.package_sizes = {36, 18};
  spec.seed = 1;
  spec.strategy = search::Strategy::kGuided;
  spec.engine = "fast";
  spec.workers = 2;
  auto report = search::run_search(*app, spec);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();

  struct Pin {
    std::uint32_t segments;
    std::uint32_t package_size;
    std::uint64_t nodes_expanded;
    std::uint64_t emulated;
    std::uint64_t deduplicated;
    std::uint64_t bound_pruned;
    std::int64_t best_ps;
    const char* best_digest;
  };
  const Pin pins[] = {
      {2, 36, 19, 9, 3, 16, 429630201,
       "0af8a5859d04039f561d330524efa973964cd0c4df5e96c337932ab77c620090"},
      {2, 18, 24, 9, 3, 21, 434314881,
       "26cc1e754d6be326c84c28a190c20f60d56fa60bfed41494d98bb68a16701bdf"},
      {3, 36, 25, 10, 2, 42, 430675245,
       "c29865540aa8b9acb908894202ddce739569bc527a8363a74a0e58cea0f7bd25"},
      {3, 18, 41, 9, 2, 72, 435107673,
       "287323d00789d8bf6ba531cb5738e5591378d8b6a7907fcb1486b371e38fab18"},
  };
  ASSERT_EQ(report->combos.size(), std::size(pins));
  for (std::size_t i = 0; i < std::size(pins); ++i) {
    const search::ComboReport& combo = report->combos[i];
    const Pin& pin = pins[i];
    SCOPED_TRACE("s" + std::to_string(pin.segments) + "/p" +
                 std::to_string(pin.package_size));
    EXPECT_EQ(combo.segments, pin.segments);
    EXPECT_EQ(combo.package_size, pin.package_size);
    EXPECT_EQ(combo.nodes_expanded, pin.nodes_expanded);
    EXPECT_EQ(combo.emulated, pin.emulated);
    EXPECT_EQ(combo.deduplicated, pin.deduplicated);
    EXPECT_EQ(combo.bound_pruned, pin.bound_pruned);
    EXPECT_TRUE(combo.proven_optimal);
    ASSERT_TRUE(combo.has_best);
    EXPECT_EQ(combo.best.objectives.execution_time.count(), pin.best_ps);
    EXPECT_EQ(combo.best.digest, pin.best_digest);
  }
  EXPECT_EQ(report->nodes_expanded, 109u);
  EXPECT_EQ(report->emulated, 37u);
  EXPECT_EQ(report->deduplicated, 10u);
  EXPECT_TRUE(report->proven_optimal);
  ASSERT_TRUE(report->has_winner);
  EXPECT_EQ(report->winner.objectives.execution_time.count(), 429630201);
  EXPECT_EQ(report->winner.digest,
            "0af8a5859d04039f561d330524efa973964cd0c4df5e96c337932ab77c620090");
}

// --- heuristics -------------------------------------------------------------

std::string render_allocations(const std::vector<place::Allocation>& all) {
  std::string out;
  for (const place::Allocation& allocation : all) {
    for (std::uint32_t segment : allocation) out += std::to_string(segment);
    out += ';';
  }
  return out;
}

TEST(Heuristics, PinnedBeamOnMp3) {
  const psdf::CommMatrix matrix =
      psdf::CommMatrix::from_model(*apps::mp3_decoder_psdf());
  auto s2 = search::beam_allocations(matrix, 2, 36, 8);
  ASSERT_TRUE(s2.is_ok()) << s2.status().to_string();
  EXPECT_EQ(render_allocations(*s2),
            "000000000010000;000010000000000;111101111111111;111111111101111;"
            "000010000010000;111101111101111;000000000100000;001000000000000;");
  auto s3 = search::beam_allocations(matrix, 3, 18, 8);
  ASSERT_TRUE(s3.is_ok()) << s3.status().to_string();
  EXPECT_EQ(render_allocations(*s3),
            "111101111121111;111121111101111;000010000020000;000020000010000;"
            "111111111021111;111111111201111;000000000120000;000010000120000;");
}

TEST(Heuristics, PinnedBeamOnASyntheticWorkload) {
  apps::RandomWorkloadOptions options;
  options.seed = 7;
  options.min_width = options.max_width = 5;
  options.min_layers = options.max_layers = 8;  // 40 processes
  auto app = apps::synthetic_random(options);
  ASSERT_TRUE(app.is_ok()) << app.status().to_string();
  const psdf::CommMatrix matrix = psdf::CommMatrix::from_model(*app);
  auto beam = search::beam_allocations(matrix, 3, 36, 8);
  ASSERT_TRUE(beam.is_ok()) << beam.status().to_string();
  EXPECT_EQ(render_allocations(*beam),
            "0001000000000000000000000000000000020000;"
            "0001010000010000000000000000000000020000;"
            "0002000000000000000000000000000000010000;"
            "0000010000010000000000000000000000020000;"
            "0002010000010000000000000000000000000000;"
            "0002010000010000000000000000000000010000;"
            "0002010000010000000000000000000000020000;"
            "0000000000000000000000000000001000020100;");
}

// --- service request kind ---------------------------------------------------

TEST(SearchService, SearchRequestsRoundTripThroughTheServer) {
  service::ServerConfig config;
  config.workers = 2;
  config.search_handler = search::service_search_handler;
  service::JobServer server(config);

  service::JobRequest request;
  request.id = "search-1";
  request.kind = "search";
  request.psdf_xml = xml::write_document(psdf::to_xml(small_synthetic()));
  request.search.segments = "1,2";
  request.search.strategy = "guided";

  service::JobResponse response = server.submit(std::move(request));
  ASSERT_TRUE(response.ok) << response.error_message;
  EXPECT_EQ(response.id, "search-1");
  EXPECT_EQ(response.digest.size(), 64u);
  auto report = JsonValue::parse(response.report_json);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report->get("schema").as_string(), "segbus-search/1");
  EXPECT_EQ(report->get("winner").get("digest").as_string(),
            response.digest);
}

TEST(SearchService, InvalidSearchParamsAreValidationErrors) {
  service::ServerConfig config;
  config.workers = 1;
  config.search_handler = search::service_search_handler;
  service::JobServer server(config);

  service::JobRequest request;
  request.id = "bad-search";
  request.kind = "search";
  request.psdf_xml = xml::write_document(psdf::to_xml(small_synthetic()));
  request.search.strategy = "sideways";
  service::JobResponse response = server.submit(std::move(request));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error_code, "validation");
}

TEST(SearchService, ServersWithoutAHandlerRejectSearches) {
  service::ServerConfig config;
  config.workers = 1;
  service::JobServer server(config);
  service::JobRequest request;
  request.id = "nohandler";
  request.kind = "search";
  request.psdf_xml = "<a/>";
  service::JobResponse response = server.submit(std::move(request));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error_code, "validation");
}

}  // namespace
}  // namespace segbus
