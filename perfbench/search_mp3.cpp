// search_mp3 — one guided design-space search per op: MP3 over segments
// {2,3} x packages {36,18} on the fast engine, heuristic seed derived from
// the workload seed and the op index. Place annealing and the
// partial-bound branch-and-bound dominate. The proven-optimal winner
// (s2/p36, 429 630 201 ps) is the same for every seed, so every op is
// checked against it.
#include "analysis/bounds.hpp"
#include "apps/mp3.hpp"
#include "emu/backend.hpp"
#include "harness.hpp"
#include "platform/platform_xml.hpp"
#include "psdf/comm_matrix.hpp"
#include "search/evaluator.hpp"
#include "search/heuristics.hpp"
#include "search/search.hpp"
#include "service/server.hpp"
#include "support/rng.hpp"
#include "xml/writer.hpp"

namespace perfbench {
namespace {

using namespace segbus;

constexpr unsigned kWorkers = 2;
constexpr std::uint64_t kWarmupOps = 2;

class SearchMp3 final : public Workload {
 public:
  explicit SearchMp3(const RunSettings& settings) : settings_(settings) {}

  void setup() override {
    app_ = expect(apps::mp3_decoder_psdf(apps::kPackage36), "mp3 psdf");
    app18_ = expect(app_->rescaled_for_package_size(apps::kPackage18),
                    "rescale to package 18");
    matrix_ = psdf::CommMatrix::from_model(*app_);
    spec_ = search::SearchSpec{};
    spec_.segment_counts = {2, 3};
    spec_.package_sizes = {apps::kPackage36, apps::kPackage18};
    spec_.strategy = search::Strategy::kGuided;
    spec_.workers = kWorkers;
    spec_.engine = "fast";
    replay_totals_ = ServerCounters{};
    // Warm-up searches must finish; their winner is checked by the ops.
    for (std::uint64_t k = 0; k < kWarmupOps; ++k) {
      expect(search::run_search(*app_, spec_for(kWarmupSeed, k)),
             "warm-up search");
    }
  }

  void teardown() override {}

  bool run_op(std::uint64_t index) override {
    const Result<search::SearchReport> report =
        search::run_search(*app_, spec_for(settings_.seed, index));
    return report.is_ok() && proven_winner(*report);
  }

  double trace_op(std::uint64_t index, Layers& layers) override {
    const search::SearchSpec spec = spec_for(settings_.seed, index);
    const Clock::time_point start = Clock::now();
    const Result<search::SearchReport> report =
        search::run_search(*app_, spec);
    const double latency = ms_between(start, Clock::now());
    if (!report.is_ok() || !proven_winner(*report)) return -1.0;
    layers.count("search.nodes_per_op",
                 static_cast<double>(report->nodes_expanded));
    layers.count("search.emulated_per_op",
                 static_cast<double>(report->emulated));
    layers.count("search.deduplicated_per_op",
                 static_cast<double>(report->deduplicated));

    // Replay each combo's heuristic seeding and its first evaluation wave
    // on a fresh evaluation server, as run_search does per op.
    service::ServerConfig server_config;
    server_config.workers = kWorkers;
    server_config.cache_entries = 16;
    server_config.max_ticks = spec.max_ticks;
    service::JobServer server(server_config);
    search::EvaluatorContext context;
    context.segment_clocks = spec.segment_clocks;
    context.ca_clock = spec.ca_clock;
    context.engine = spec.engine;
    search::CandidateEvaluator evaluator = expect(
        search::CandidateEvaluator::create(server, *app_, context),
        "evaluator");
    const emu::TimingModel timing = emu::TimingModel::emulator();
    emu::BackendOptions fast;
    fast.backend = emu::EngineBackend::kFast;
    for (const std::uint32_t segments : spec.segment_counts) {
      for (const std::uint32_t package : spec.package_sizes) {
        search::HeuristicOptions heuristics;
        heuristics.seed = derive_seed(
            derive_seed(spec.seed, static_cast<std::uint64_t>(segments)),
            static_cast<std::uint64_t>(package));
        heuristics.anneal_restarts = spec.anneal_restarts;
        heuristics.anneal_iterations = spec.anneal_iterations;
        heuristics.beam_width = spec.beam_width;
        heuristics.package_size = package;
        std::vector<place::Allocation> seeds =
            layers.time("search.heuristics_ms", [&] {
              return expect(
                  search::heuristic_allocations(matrix_, segments, heuristics),
                  "heuristic allocations");
            });
        std::vector<search::SearchCandidate> wave;
        for (place::Allocation& allocation : seeds) {
          search::SearchCandidate candidate;
          candidate.segments = segments;
          candidate.package_size = package;
          candidate.allocation = std::move(allocation);
          candidate.origin = "heuristic";
          wave.push_back(std::move(candidate));
        }
        layers.time("search.evaluate_ms", [&] {
          return expect(evaluator.evaluate(wave), "evaluate wave");
        });
        const psdf::PsdfModel& app =
            package == apps::kPackage36 ? *app_ : *app18_;
        for (const search::SearchCandidate& candidate : wave) {
          const platform::PlatformModel platform =
              expect(evaluator.build_platform(candidate), "build platform");
          layers.time("analysis.bounds_ms", [&] {
            return expect(analysis::compute_static_bounds(app, platform,
                                                          timing),
                          "static bounds");
          });
          layers.time("model.to_xml_ms", [&] {
            return xml::write_document(platform::to_xml(platform));
          });
          layers.time("emu.fast_ms", [&] {
            return expect(emu::run_emulation(app, platform, timing, {}, fast),
                          "fast emulation");
          });
        }
      }
    }
    server.stop();
    const ServerCounters used = ServerCounters::of(server);
    replay_totals_.queue_wait_ms += used.queue_wait_ms;
    replay_totals_.run_ms += used.run_ms;
    replay_totals_.jobs += used.jobs;
    replay_totals_.cache_hits += used.cache_hits;
    replay_totals_.cache_lookups += used.cache_lookups;
    replay_totals_.cache_evictions += used.cache_evictions;
    return latency;
  }

  void finish_trace(Layers& layers, double wall_ms) override {
    record_server(layers, ServerCounters{}, replay_totals_, kWorkers,
                  wall_ms);
  }

 private:
  /// Op `index` of the sequence `seed` draws.
  search::SearchSpec spec_for(std::uint64_t seed, std::uint64_t index) const {
    search::SearchSpec spec = spec_;
    spec.seed = derive_seed(seed, index);
    return spec;
  }

  bool proven_winner(const search::SearchReport& report) const {
    return report.proven_optimal && report.has_winner &&
           report.winner.candidate.segments == 2 &&
           report.winner.candidate.package_size == apps::kPackage36 &&
           report.winner.objectives.execution_time.count() ==
               settings_.expect_winner_ps;
  }

  const RunSettings settings_;
  std::optional<psdf::PsdfModel> app_;
  std::optional<psdf::PsdfModel> app18_;
  psdf::CommMatrix matrix_;
  search::SearchSpec spec_;
  ServerCounters replay_totals_;
};

}  // namespace

std::unique_ptr<Workload> make_search_mp3(const RunSettings& settings) {
  return std::make_unique<SearchMp3>(settings);
}

}  // namespace perfbench
