// fuzz_campaign — one generated scenario per op, checked by the
// differential oracle on one thread with the campaign's default
// invariants (parallel-equivalence sampled on every 16th index, as
// scen::run_campaign does). This is the only workload that runs the
// reference and parallel engines and the scen generator and oracle.
//
// The scenarios are the first kCorpus of the default campaign (seed 1);
// the workload seed fixes the order the loop cycles through them. Scenario
// cost is heavy-tailed (a few scenarios take a fifth of a run), so a
// corpus drawn per workload seed moved every metric by 20-26 % from seed
// to seed; a fixed corpus that each run covers more than once does not.
#include <array>
#include <cstdio>
#include <numeric>
#include <utility>

#include "analysis/bounds.hpp"
#include "core/fingerprint.hpp"
#include "emu/backend.hpp"
#include "harness.hpp"
#include "scen/campaign.hpp"
#include "scen/generator.hpp"
#include "scen/oracle.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

using namespace segbus;

constexpr std::uint64_t kCorpus = 128;
constexpr std::uint64_t kWarmupOps = 8;

/// One toggleable oracle invariant: its name and its option flag.
struct Toggle {
  const char* metric;
  bool scen::OracleOptions::*flag;
};

constexpr std::array<Toggle, 10> kToggles = {{
    {"scen.oracle.bounds-bracket_ms", &scen::OracleOptions::check_bounds},
    {"scen.oracle.conservation_ms", &scen::OracleOptions::check_conservation},
    {"scen.oracle.fingerprint-equivalence_ms",
     &scen::OracleOptions::check_fingerprint},
    {"scen.oracle.clock-scaling_ms",
     &scen::OracleOptions::check_clock_scaling},
    {"scen.oracle.parallel-equivalence_ms",
     &scen::OracleOptions::check_parallel},
    {"scen.oracle.fast-equivalence_ms", &scen::OracleOptions::check_fast},
    {"scen.oracle.bounds-dominance_ms", &scen::OracleOptions::check_dominance},
    {"scen.oracle.stoch-degenerate_ms",
     &scen::OracleOptions::check_stoch_degenerate},
    {"scen.oracle.mode-chaining_ms",
     &scen::OracleOptions::check_mode_chaining},
    {"scen.oracle.replication-bounds_ms",
     &scen::OracleOptions::check_replication_bounds},
}};

class FuzzCampaign final : public Workload {
 public:
  explicit FuzzCampaign(const RunSettings& settings) : settings_(settings) {}

  void setup() override {
    const scen::CampaignOptions campaign;
    campaign_seed_ = campaign.seed;
    order_.resize(kCorpus);
    std::iota(order_.begin(), order_.end(), std::uint64_t{0});
    Xoshiro256 rng(derive_seed(settings_.seed, "perfbench/fuzz_campaign"));
    for (std::uint64_t i = kCorpus - 1; i > 0; --i) {  // Fisher-Yates
      std::swap(order_[i], order_[rng.next_below(i + 1)]);
    }
    generator_ = campaign.generator;
    oracle_ = campaign.oracle;
    parallel_period_ = campaign.parallel_sample_period;
    checked_ = 0;
    skipped_ = 0;
    // Warm up on the same corpus entries whatever the order.
    for (std::uint64_t entry = 1; entry <= kWarmupOps; ++entry) {
      if (!check(entry)) throw std::runtime_error("warm-up scenario failed");
    }
  }

  void teardown() override {}

  /// The oracle's thread, and the parallel engine's two (every 16th
  /// scenario) that then run in its place.
  unsigned cpus() const override { return 2; }

  bool run_op(std::uint64_t index) override {
    return check(order_[index % kCorpus]);
  }

  double trace_op(std::uint64_t index, Layers& layers) override {
    const std::uint64_t entry = order_[index % kCorpus];
    const Clock::time_point start = Clock::now();
    const Result<scen::Scenario> scenario =
        scen::generate_scenario(scenario_seed(entry), generator_);
    if (!scenario.is_ok()) return -1.0;
    scen::OracleOptions traced = oracle_for(entry);
    traced.tracer = &layers.tracer();
    traced.parent = layers.op_span().context();
    const Result<scen::OracleOutcome> outcome =
        scen::run_oracle(*scenario, traced);
    const double latency = ms_between(start, Clock::now());
    if (!outcome.is_ok()) return -1.0;
    if (!outcome->passed()) {
      report(entry, *outcome);
      return -1.0;
    }
    layers.count("scen.checks_per_op", outcome->invariants_checked);
    checked_ += outcome->invariants_checked;
    skipped_ += outcome->invariants_skipped;

    // Replay: the generator, then the oracle with every toggle off (the
    // base: bind, fingerprint, one reference run) and with each toggle
    // this op checks alone on; an invariant's time is its run's excess
    // over the base. Parallel-equivalence keeps the campaign's sampling:
    // replayed on every scenario it trips over a parallel-engine race on
    // campaign index 88 in about half of the runs.
    layers.time("scen.generate_ms", [&] {
      return expect(scen::generate_scenario(scenario_seed(entry), generator_),
                    "generate scenario");
    });
    scen::OracleOptions base = oracle_;
    for (const Toggle& toggle : kToggles) base.*toggle.flag = false;
    const double base_ms = layers.time("scen.oracle.base_ms", [&] {
      return timed_oracle(entry, *scenario, base);
    });
    for (const Toggle& toggle : kToggles) {
      if (!(traced.*toggle.flag)) continue;
      scen::OracleOptions only = base;
      only.*toggle.flag = true;
      const std::uint64_t start_us = layers.tracer().now_us();
      layers.add(toggle.metric, timed_oracle(entry, *scenario, only) - base_ms,
                 start_us);
    }

    // The engines and static layers the oracle calls, one call each.
    const scen::Scenario& s = *scenario;
    emu::BackendOptions backend;
    layers.time("emu.reference_ms", [&] {
      return expect(emu::run_emulation(s.application, s.platform, s.timing,
                                       {}, backend),
                    "reference emulation");
    });
    backend.backend = emu::EngineBackend::kParallel;
    backend.parallel_threads = oracle_.parallel_threads;
    layers.time("emu.parallel_ms", [&] {
      return expect(emu::run_emulation(s.application, s.platform, s.timing,
                                       {}, backend),
                    "parallel emulation");
    });
    backend.backend = emu::EngineBackend::kFast;
    backend.parallel_threads = 0;
    layers.time("emu.fast_ms", [&] {
      return expect(emu::run_emulation(s.application, s.platform, s.timing,
                                       {}, backend),
                    "fast emulation");
    });
    layers.time("analysis.bounds_ms", [&] {
      return expect(
          analysis::compute_static_bounds(s.application, s.platform, s.timing),
          "static bounds");
    });
    layers.time("core.digest_ms", [&] {
      return expect(core::scheme_digest(s.application, s.platform, s.timing),
                    "digest");
    });
    return latency;
  }

  void finish_trace(Layers& layers, double wall_ms) override {
    (void)wall_ms;
    const std::uint64_t total = checked_ + skipped_;
    layers.set("scen.skipped_ratio",
               total == 0 ? 0.0
                          : static_cast<double>(skipped_) /
                                static_cast<double>(total));
  }

 private:
  /// Generates and checks the scenario of campaign index `entry`.
  bool check(std::uint64_t entry) const {
    const Result<scen::Scenario> scenario =
        scen::generate_scenario(scenario_seed(entry), generator_);
    if (!scenario.is_ok()) return false;
    const Result<scen::OracleOutcome> outcome =
        scen::run_oracle(*scenario, oracle_for(entry));
    if (outcome.is_ok() && !outcome->passed()) report(entry, *outcome);
    return outcome.is_ok() && outcome->passed();
  }

  std::uint64_t scenario_seed(std::uint64_t entry) const {
    return derive_seed(campaign_seed_, entry);
  }

  scen::OracleOptions oracle_for(std::uint64_t entry) const {
    scen::OracleOptions options = oracle_;
    options.check_parallel =
        oracle_.check_parallel ||
        (parallel_period_ != 0 && entry % parallel_period_ == 0);
    return options;
  }

  /// Names the campaign index and its violations, to reproduce them.
  void report(std::uint64_t entry, const scen::OracleOutcome& outcome) const {
    for (const scen::Violation& violation : outcome.violations) {
      std::fprintf(
          stderr, "perfbench: campaign index %llu (seed %llu): %s: %s\n",
          static_cast<unsigned long long>(entry),
          static_cast<unsigned long long>(scenario_seed(entry)),
          std::string(scen::invariant_name(violation.invariant)).c_str(),
          violation.detail.c_str());
    }
  }

  /// Runs the oracle; returns its wall time in ms (throws on violation).
  double timed_oracle(std::uint64_t entry, const scen::Scenario& scenario,
                      const scen::OracleOptions& options) const {
    const Clock::time_point start = Clock::now();
    const scen::OracleOutcome outcome =
        expect(scen::run_oracle(scenario, options), "oracle");
    if (!outcome.passed()) {
      report(entry, outcome);
      throw std::runtime_error("oracle violation in a replayed check");
    }
    return ms_between(start, Clock::now());
  }

  const RunSettings settings_;
  std::uint64_t campaign_seed_ = 1;
  std::vector<std::uint64_t> order_;  ///< campaign indices in op order
  scen::GeneratorOptions generator_;
  scen::OracleOptions oracle_;
  std::uint64_t parallel_period_ = 16;
  std::uint64_t checked_ = 0;
  std::uint64_t skipped_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_fuzz_campaign(const RunSettings& settings) {
  return std::make_unique<FuzzCampaign>(settings);
}

}  // namespace perfbench
