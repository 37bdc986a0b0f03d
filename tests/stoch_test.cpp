// Stochastic workload subsystem: distribution spec parsing and seeded
// moments, degenerate-realization bit-identity on every backend, and the
// replicated estimator's determinism contract (byte-identical reports
// across worker counts and engine backends).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "apps/mp3.hpp"
#include "core/fingerprint.hpp"
#include "core/json_export.hpp"
#include "core/session.hpp"
#include "emu/backend.hpp"
#include "service/server.hpp"
#include "stoch/distribution.hpp"
#include "stoch/estimator.hpp"
#include "stoch/workload.hpp"
#include "support/rng.hpp"

namespace segbus {
namespace {

std::string digest_of(const psdf::PsdfModel& application,
                      const platform::PlatformModel& platform) {
  auto digest =
      core::scheme_digest(application, platform, core::SessionConfig{});
  EXPECT_TRUE(digest.is_ok()) << digest.status().to_string();
  return digest.is_ok() ? *digest : std::string();
}

// --- distribution specs ------------------------------------------------------

TEST(Distribution, SpecRoundTripsForEveryKind) {
  const std::vector<stoch::Distribution> catalogue = {
      stoch::Distribution::point(1.0),
      stoch::Distribution::uniform(0.5, 1.5),
      stoch::Distribution::normal(1.0, 0.2),
      stoch::Distribution::lognormal(-0.02, 0.2),
      // Spec strings print decimal parameters, so round-trip checks use
      // exactly representable ones (2/3 would come back as 0.666667).
      stoch::Distribution::pareto(3.0, 0.5),
  };
  for (const stoch::Distribution& dist : catalogue) {
    auto parsed = stoch::Distribution::parse(dist.spec());
    ASSERT_TRUE(parsed.is_ok()) << dist.spec();
    EXPECT_EQ(*parsed, dist) << dist.spec();
    auto from_json = stoch::Distribution::from_json(dist.to_json());
    ASSERT_TRUE(from_json.is_ok()) << dist.spec();
    EXPECT_EQ(*from_json, dist) << dist.spec();
  }
}

TEST(Distribution, RejectsMalformedSpecs) {
  for (const char* bad :
       {"", "point", "point:", "nope:1", "uniform:2,1", "uniform:-1,2",
        "normal:1,-0.5", "pareto:0,1", "pareto:3,0", "point:nan"}) {
    EXPECT_FALSE(stoch::Distribution::parse(bad).is_ok()) << bad;
  }
}

TEST(Distribution, PointDetectionCoversDegenerateFamilies) {
  EXPECT_TRUE(stoch::Distribution::point(1.0).is_point());
  EXPECT_TRUE(stoch::Distribution::uniform(2.0, 2.0).is_point());
  EXPECT_TRUE(stoch::Distribution::normal(1.0, 0.0).is_point());
  EXPECT_FALSE(stoch::Distribution::uniform(0.5, 1.5).is_point());
  EXPECT_FALSE(stoch::Distribution::pareto(3.0, 1.0).is_point());
}

// --- seeded moments ----------------------------------------------------------

// Draws n samples and checks the sample mean/variance against the
// analytic values. The generators are deterministic, so these are exact
// regression pins, not flaky statistical assertions — the tolerances just
// leave room for genuine Monte-Carlo error at n = 40000.
void expect_moments(const stoch::Distribution& dist, double mean_tol,
                    double var_tol) {
  constexpr std::size_t kSamples = 40'000;
  Xoshiro256 rng(substream(99, "stoch"));
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::size_t i = 0; i < kSamples; ++i) {
    const double x = dist.sample(rng);
    sum += x;
    sum_sq += x * x;
  }
  const double sample_mean = sum / kSamples;
  const double sample_var =
      sum_sq / kSamples - sample_mean * sample_mean;
  EXPECT_NEAR(sample_mean, dist.mean(), mean_tol) << dist.spec();
  EXPECT_NEAR(sample_var, dist.variance(), var_tol) << dist.spec();
}

TEST(DistributionMoments, PointIsExact) {
  Xoshiro256 rng(1);
  const stoch::Distribution dist = stoch::Distribution::point(1.25);
  EXPECT_EQ(dist.mean(), 1.25);
  EXPECT_EQ(dist.variance(), 0.0);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(dist.sample(rng), 1.25);
}

TEST(DistributionMoments, UniformMatchesAnalyticValues) {
  // mean (a+b)/2 = 1.0, variance (b-a)^2/12 = 1/12.
  expect_moments(stoch::Distribution::uniform(0.5, 1.5), 0.01, 0.005);
}

TEST(DistributionMoments, NormalMatchesAnalyticValues) {
  // mean = 1, sd = 0.2: the zero-truncation is 5 sigma away, so the
  // untruncated analytic moments apply to ~1e-6.
  expect_moments(stoch::Distribution::normal(1.0, 0.2), 0.01, 0.005);
}

TEST(DistributionMoments, LognormalMatchesAnalyticValues) {
  // mu = -sigma^2/2 gives mean exp(0) = 1.
  const double sigma = 0.25;
  expect_moments(
      stoch::Distribution::lognormal(-0.5 * sigma * sigma, sigma), 0.01,
      0.01);
}

TEST(DistributionMoments, ParetoMatchesAnalyticValues) {
  // alpha = 5, xm = 0.8: mean = alpha*xm/(alpha-1) = 1, variance =
  // xm^2*alpha/((alpha-1)^2*(alpha-2)) = 1/15. The sample variance needs
  // a finite 4th moment to converge, hence alpha > 4 here; the estimator
  // itself is exercised with heavier tails (alpha = 3) elsewhere.
  expect_moments(stoch::Distribution::pareto(5.0, 0.8), 0.01, 0.01);
}

TEST(DistributionMoments, InfiniteMomentsAreReportedAsInfinity) {
  EXPECT_TRUE(std::isinf(stoch::Distribution::pareto(1.0, 1.0).mean()));
  EXPECT_TRUE(
      std::isinf(stoch::Distribution::pareto(2.0, 1.0).variance()));
}

// --- realization -------------------------------------------------------------

TEST(Workload, DegenerateSpecRealizesTheModelBitIdentically) {
  auto app = apps::mp3_decoder_psdf();
  ASSERT_TRUE(app.is_ok());
  auto platform = apps::mp3_platform_three_segments(*app);
  ASSERT_TRUE(platform.is_ok());

  stoch::StochasticSpec identity;
  ASSERT_TRUE(identity.is_identity());
  for (std::uint64_t replication : {0ULL, 1ULL, 17ULL}) {
    auto realized = stoch::realize(*app, identity, 5, replication);
    ASSERT_TRUE(realized.is_ok());
    EXPECT_EQ(digest_of(*realized, *platform), digest_of(*app, *platform));
  }

  // ... and the realized model emulates identically on every backend.
  auto realized = stoch::realize(*app, identity, 5, 0);
  ASSERT_TRUE(realized.is_ok());
  for (emu::EngineBackend backend :
       {emu::EngineBackend::kReference, emu::EngineBackend::kParallel,
        emu::EngineBackend::kFast}) {
    core::SessionConfig config;
    config.backend.backend = backend;
    auto base =
        core::EmulationSession::from_models(*app, *platform, config);
    ASSERT_TRUE(base.is_ok());
    auto base_result = base->emulate();
    ASSERT_TRUE(base_result.is_ok());
    auto session = core::EmulationSession::from_models(*realized, *platform,
                                                       config);
    ASSERT_TRUE(session.is_ok());
    auto result = session->emulate();
    ASSERT_TRUE(result.is_ok());
    EXPECT_EQ(core::result_to_json(*result, *platform).to_string(),
              core::result_to_json(*base_result, *platform).to_string())
        << emu::to_string(backend);
  }
}

TEST(Workload, RealizationsAreDeterministicPerReplication) {
  auto app = apps::mp3_decoder_psdf();
  ASSERT_TRUE(app.is_ok());
  stoch::StochasticSpec spec;
  spec.compute_scale = stoch::Distribution::uniform(0.5, 1.5);
  spec.items_scale = stoch::Distribution::normal(1.0, 0.1);

  auto first = stoch::realize(*app, spec, 11, 3);
  auto again = stoch::realize(*app, spec, 11, 3);
  auto other = stoch::realize(*app, spec, 11, 4);
  ASSERT_TRUE(first.is_ok());
  ASSERT_TRUE(again.is_ok());
  ASSERT_TRUE(other.is_ok());
  auto platform = apps::mp3_platform_three_segments(*app);
  ASSERT_TRUE(platform.is_ok());
  EXPECT_EQ(digest_of(*first, *platform), digest_of(*again, *platform));
  EXPECT_NE(digest_of(*first, *platform), digest_of(*other, *platform));
}

TEST(Workload, MeanModelOfIdentitySpecIsTheInputModel) {
  auto app = apps::mp3_decoder_psdf();
  ASSERT_TRUE(app.is_ok());
  auto platform = apps::mp3_platform_three_segments(*app);
  ASSERT_TRUE(platform.is_ok());
  auto mean = stoch::mean_model(*app, stoch::StochasticSpec{});
  ASSERT_TRUE(mean.is_ok());
  EXPECT_EQ(digest_of(*mean, *platform), digest_of(*app, *platform));

  stoch::StochasticSpec infinite;
  infinite.compute_scale = stoch::Distribution::pareto(1.0, 1.0);
  EXPECT_FALSE(stoch::mean_model(*app, infinite).is_ok());
}

// --- replicated estimator ----------------------------------------------------

stoch::EstimatorOptions stochastic_options() {
  stoch::EstimatorOptions options;
  options.spec.compute_scale = stoch::Distribution::uniform(0.6, 1.4);
  options.seed = 21;
  options.min_replications = 8;
  options.max_replications = 16;
  options.round_replications = 8;
  return options;
}

service::ServerConfig estimator_server_config(unsigned workers) {
  service::ServerConfig config;
  config.workers = workers;
  config.queue_depth = 64;
  return config;
}

TEST(Estimator, ReportsAreByteIdenticalAcrossWorkerCounts) {
  auto app = apps::mp3_decoder_psdf();
  ASSERT_TRUE(app.is_ok());
  auto platform = apps::mp3_platform_three_segments(*app);
  ASSERT_TRUE(platform.is_ok());

  std::string expected;
  for (unsigned workers : {1u, 2u, 4u}) {
    service::JobServer server(estimator_server_config(workers));
    stoch::Estimator estimator(server);
    auto estimate = estimator.run(*app, *platform, stochastic_options());
    ASSERT_TRUE(estimate.is_ok()) << estimate.status().to_string();
    const std::string report = estimate->to_json().to_string();
    if (expected.empty()) {
      expected = report;
    } else {
      EXPECT_EQ(report, expected) << "workers=" << workers;
    }
  }
  // The server-free inline path honors the same contract.
  auto inline_estimate =
      stoch::estimate_inline(*app, *platform, stochastic_options());
  ASSERT_TRUE(inline_estimate.is_ok());
  EXPECT_EQ(inline_estimate->to_json().to_string(), expected);
}

TEST(Estimator, RoundLargerThanTheQueueDepthCompletes) {
  auto app = apps::mp3_decoder_psdf();
  ASSERT_TRUE(app.is_ok());
  auto platform = apps::mp3_platform_three_segments(*app);
  ASSERT_TRUE(platform.is_ok());

  // One round of 32 replications against a depth-16 queue with a single
  // worker on the slow engine: submitting the whole round at once would
  // overflow the queue and fail with backpressure.
  stoch::EstimatorOptions options = stochastic_options();
  options.min_replications = 32;
  options.max_replications = 32;
  options.engine = "reference";
  service::ServerConfig config;
  config.workers = 1;
  config.queue_depth = 16;
  service::JobServer server(config);
  stoch::Estimator estimator(server);
  auto estimate = estimator.run(*app, *platform, options);
  ASSERT_TRUE(estimate.is_ok()) << estimate.status().to_string();
  EXPECT_EQ(estimate->replications.size(), 32u);
  EXPECT_GT(estimate->unique_runs, 16u);
  // Same report as the unbounded inline path (on its default, fast engine;
  // reports are byte-identical across backends).
  options.engine.clear();
  auto inline_estimate = stoch::estimate_inline(*app, *platform, options);
  ASSERT_TRUE(inline_estimate.is_ok());
  EXPECT_EQ(estimate->to_json().to_string(),
            inline_estimate->to_json().to_string());
}

TEST(Estimator, ReportsAreByteIdenticalAcrossBackends) {
  auto app = apps::mp3_decoder_psdf();
  ASSERT_TRUE(app.is_ok());
  auto platform = apps::mp3_platform_three_segments(*app);
  ASSERT_TRUE(platform.is_ok());

  service::JobServer server(estimator_server_config(2));
  stoch::Estimator estimator(server);
  std::string expected;
  for (const char* engine : {"reference", "fast", "parallel"}) {
    stoch::EstimatorOptions options = stochastic_options();
    options.engine = engine;
    auto estimate = estimator.run(*app, *platform, options);
    ASSERT_TRUE(estimate.is_ok()) << engine;
    const std::string report = estimate->to_json().to_string();
    if (expected.empty()) {
      expected = report;
    } else {
      EXPECT_EQ(report, expected) << engine;
    }
  }
}

TEST(Estimator, DegenerateSpecCollapsesToOneUniqueRun) {
  auto app = apps::mp3_decoder_psdf();
  ASSERT_TRUE(app.is_ok());
  auto platform = apps::mp3_platform_three_segments(*app);
  ASSERT_TRUE(platform.is_ok());

  stoch::EstimatorOptions options;
  options.min_replications = 4;
  options.max_replications = 4;
  options.round_replications = 4;
  auto estimate = stoch::estimate_inline(*app, *platform, options);
  ASSERT_TRUE(estimate.is_ok());
  EXPECT_EQ(estimate->unique_runs, 1u);
  EXPECT_EQ(estimate->replications.size(), 4u);
  EXPECT_EQ(estimate->stddev_ps, 0.0);
  EXPECT_EQ(estimate->half_width_ps, 0.0);
  // The degenerate mean IS the deterministic TCT of the input model.
  core::SessionConfig config;
  auto session = core::EmulationSession::from_models(*app, *platform);
  ASSERT_TRUE(session.is_ok());
  auto result = session->emulate();
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(static_cast<std::int64_t>(estimate->mean_ps),
            result->total_execution_time.count());
  EXPECT_TRUE(estimate->ci_contains_mean_model);
}

TEST(Estimator, StoppingRuleHaltsBeforeTheBudgetWhenConverged) {
  auto app = apps::mp3_decoder_psdf();
  ASSERT_TRUE(app.is_ok());
  auto platform = apps::mp3_platform_three_segments(*app);
  ASSERT_TRUE(platform.is_ok());

  stoch::EstimatorOptions options;
  options.spec.compute_scale = stoch::Distribution::uniform(0.95, 1.05);
  options.seed = 3;
  options.min_replications = 8;
  options.max_replications = 64;
  options.round_replications = 8;
  options.target_relative_half_width = 0.05;
  auto estimate = stoch::estimate_inline(*app, *platform, options);
  ASSERT_TRUE(estimate.is_ok());
  EXPECT_TRUE(estimate->converged);
  EXPECT_LE(estimate->relative_half_width, 0.05);
  EXPECT_LT(estimate->replications.size(), 64u);
  EXPECT_GE(estimate->replications.size(), 8u);
  EXPECT_LE(estimate->ci_low_ps, estimate->mean_ps);
  EXPECT_GE(estimate->ci_high_ps, estimate->mean_ps);
}

}  // namespace
}  // namespace segbus
