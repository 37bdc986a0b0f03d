// estimate_mp3 — one replicated estimation per op through an in-process
// JobServer: MP3 on 3 segments, package 36, compute scale pareto:3,0.667,
// exactly 32 replications (stopping rule off), estimator seed derived
// from the workload seed and the op index. Every replication is a
// distinct scheme, so the result cache only inserts and evicts — the
// write side of the layer submit_hit reads.
#include "analysis/analyzer.hpp"
#include "apps/mp3.hpp"
#include "core/fingerprint.hpp"
#include "core/json_export.hpp"
#include "core/session.hpp"
#include "emu/backend.hpp"
#include "harness.hpp"
#include "platform/platform_xml.hpp"
#include "psdf/psdf_xml.hpp"
#include "service/server.hpp"
#include "stoch/estimator.hpp"
#include "support/rng.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace perfbench {
namespace {

using namespace segbus;

constexpr unsigned kWorkers = 2;
constexpr std::uint32_t kReplications = 32;
constexpr std::uint64_t kWarmupOps = 12;

class EstimateMp3 final : public Workload {
 public:
  explicit EstimateMp3(const RunSettings& settings) : settings_(settings) {}

  void setup() override {
    app_ = expect(apps::mp3_decoder_psdf(apps::kPackage36), "mp3 psdf");
    platform_ = expect(apps::mp3_platform(*app_, apps::mp3_allocation(3), 3,
                                          apps::kPackage36),
                       "mp3 platform");
    psm_xml_ = xml::write_document(platform::to_xml(*platform_));
    spec_.compute_scale =
        expect(stoch::Distribution::parse("pareto:3,0.667"), "distribution");
    service::ServerConfig config;
    config.workers = kWorkers;
    // Estimator::run submits a whole round at once and does not wait for
    // queue room: a queue shallower than the round answers backpressure.
    config.queue_depth = 2 * kReplications;
    server_ = std::make_unique<service::JobServer>(config);
    // Traced ops go to a twin server: the untraced run of the same op
    // must not warm the cache the traced one reads.
    traced_server_ = std::make_unique<service::JobServer>(config);
    traced_before_.reset();
    replications_ = 0;
    deduplicated_ = 0;
    for (std::uint64_t k = 0; k < kWarmupOps; ++k) {
      if (!attempt(*server_, options(kWarmupSeed, k))) {
        throw std::runtime_error("warm-up estimate failed");
      }
    }
  }

  /// Two workers plus the estimator thread that realizes and collects.
  unsigned cpus() const override { return kWorkers + 1; }

  void teardown() override {
    server_.reset();
    traced_server_.reset();
  }

  bool run_op(std::uint64_t index) override {
    return attempt(*server_, options(settings_.seed, index));
  }

  double trace_op(std::uint64_t index, Layers& layers) override {
    if (!traced_before_) {
      traced_before_ = ServerCounters::of(*traced_server_);
    }
    const stoch::EstimatorOptions opts = options(settings_.seed, index);
    stoch::Estimator estimator(*traced_server_);
    const Clock::time_point start = Clock::now();
    const Result<stoch::Estimate> estimate =
        estimator.run(*app_, *platform_, opts);
    const double latency = ms_between(start, Clock::now());
    if (!estimate.is_ok() || !plausible(*estimate)) return -1.0;

    // The same estimate computed inline must serialize byte-identically.
    const Result<stoch::Estimate> inline_estimate =
        stoch::estimate_inline(*app_, *platform_, opts);
    if (!inline_estimate.is_ok() ||
        inline_estimate->to_json().to_string() !=
            estimate->to_json().to_string()) {
      return -1.0;
    }

    replications_ += estimate->replications.size();
    deduplicated_ += estimate->replications.size() - estimate->unique_runs;
    core::SessionConfig config;
    config.backend.backend = emu::EngineBackend::kFast;
    config.engine.max_ticks_per_domain = service::ServerConfig{}.max_ticks;
    analysis::AnalyzerOptions analyzer;
    analyzer.include_bounds = false;
    analyzer.timing = config.timing;
    analyzer.severity_overrides.emplace("SB050", Severity::kWarning);
    for (const stoch::Replication& replication : estimate->replications) {
      // Estimator side: realize and fingerprint every replication.
      const psdf::PsdfModel realized = layers.time("stoch.realize_ms", [&] {
        return expect(stoch::realize(*app_, opts.spec, opts.seed,
                                     replication.index),
                      "realize");
      });
      layers.time("core.digest_ms", [&] {
        return expect(core::scheme_digest(realized, *platform_, config),
                      "digest");
      });
      if (replication.deduplicated) continue;
      // Then each distinct one crosses the in-process XML boundary and
      // runs as a server job: parse, bind, analyze, digest, emulate,
      // serialize.
      const std::string psdf_xml = layers.time("model.to_xml_ms", [&] {
        return xml::write_document(psdf::to_xml(realized));
      });
      const xml::Document psdf_doc = layers.time("xml.parse_ms", [&] {
        return expect(xml::parse_document(psdf_xml), "parse psdf");
      });
      const xml::Document psm_doc = layers.time("xml.parse_ms", [&] {
        return expect(xml::parse_document(psm_xml_), "parse psm");
      });
      const psdf::PsdfModel app = layers.time("model.from_xml_ms", [&] {
        return expect(psdf::from_xml(psdf_doc), "psdf from_xml");
      });
      const platform::PlatformModel platform =
          layers.time("model.from_xml_ms", [&] {
            return expect(platform::from_xml(psm_doc), "psm from_xml");
          });
      layers.time("analysis.analyze_ms", [&] {
        return analysis::analyze_system(app, platform, analyzer);
      });
      layers.time("core.digest_ms", [&] {
        return expect(core::scheme_digest(app, platform, config), "digest");
      });
      const emu::EmulationResult result = layers.time("emu.fast_ms", [&] {
        return expect(emu::run_emulation(app, platform, config.timing,
                                         config.engine, config.backend),
                      "fast emulation");
      });
      if (result.total_execution_time != replication.execution_time) {
        return -1.0;
      }
      layers.time("core.serialize_ms", [&] {
        return core::result_to_json(result, platform).to_string();
      });
    }
    return latency;
  }

  void finish_trace(Layers& layers, double wall_ms) override {
    if (traced_before_) {
      record_server(layers, *traced_before_,
                    ServerCounters::of(*traced_server_), kWorkers, wall_ms);
    }
    layers.set("stoch.dedup_ratio",
               replications_ == 0 ? 0.0
                                  : static_cast<double>(deduplicated_) /
                                        static_cast<double>(replications_));
  }

 private:
  bool attempt(service::JobServer& server,
               const stoch::EstimatorOptions& opts) const {
    stoch::Estimator estimator(server);
    const Result<stoch::Estimate> estimate =
        estimator.run(*app_, *platform_, opts);
    return estimate.is_ok() && plausible(*estimate);
  }

  /// Op `index` of the sequence `seed` draws.
  stoch::EstimatorOptions options(std::uint64_t seed,
                                  std::uint64_t index) const {
    stoch::EstimatorOptions opts;
    opts.spec = spec_;
    opts.seed = derive_seed(seed, index);
    opts.min_replications = kReplications;
    opts.max_replications = kReplications;
    opts.round_replications = kReplications;
    opts.target_relative_half_width = 0.0;
    opts.engine = "fast";
    return opts;
  }

  /// Every op runs exactly the 32 replications, each with a positive TCT.
  static bool plausible(const stoch::Estimate& estimate) {
    if (estimate.replications.size() != kReplications ||
        estimate.unique_runs == 0 || !estimate.converged) {
      return false;
    }
    for (const stoch::Replication& replication : estimate.replications) {
      if (replication.execution_time.count() <= 0) return false;
    }
    return true;
  }

  const RunSettings settings_;
  std::optional<psdf::PsdfModel> app_;
  std::optional<platform::PlatformModel> platform_;
  std::string psm_xml_;
  stoch::StochasticSpec spec_;
  std::unique_ptr<service::JobServer> server_;
  std::unique_ptr<service::JobServer> traced_server_;
  std::optional<ServerCounters> traced_before_;
  std::uint64_t replications_ = 0;
  std::uint64_t deduplicated_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_estimate_mp3(const RunSettings& settings) {
  return std::make_unique<EstimateMp3>(settings);
}

}  // namespace perfbench
