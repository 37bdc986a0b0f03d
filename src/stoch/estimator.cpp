#include "stoch/estimator.hpp"

#include <algorithm>
#include <cmath>
#include <future>
#include <unordered_map>
#include <utility>

#include "core/fingerprint.hpp"
#include "platform/platform_xml.hpp"
#include "psdf/psdf_xml.hpp"
#include "stoch/multimode.hpp"
#include "support/statistics.hpp"
#include "support/strings.hpp"
#include "xml/writer.hpp"

namespace segbus::stoch {

namespace {

/// Builds the session config a replication runs under (inline paths).
Result<core::SessionConfig> session_config(const EstimatorOptions& options) {
  core::SessionConfig config;
  config.timing = options.reference_timing ? emu::TimingModel::reference()
                                           : emu::TimingModel::emulator();
  if (options.max_ticks > 0) {
    config.engine.max_ticks_per_domain = options.max_ticks;
  }
  if (!options.engine.empty()) {
    const auto backend = emu::parse_engine_backend(options.engine);
    if (!backend.has_value()) {
      return invalid_argument_error("unknown engine backend '" +
                                    options.engine + "'");
    }
    config.backend.backend = *backend;
  } else {
    // Inline replications default to the fast engine — bit-identical to
    // the reference engine and the right choice for sampling campaigns.
    config.backend.backend = emu::EngineBackend::kFast;
  }
  return config;
}

Status check_options(const EstimatorOptions& options) {
  SEGBUS_RETURN_IF_ERROR(options.spec.validate());
  if (options.min_replications == 0) {
    return invalid_argument_error("min_replications must be >= 1");
  }
  if (options.max_replications < options.min_replications) {
    return invalid_argument_error(
        "max_replications must be >= min_replications");
  }
  if (options.round_replications == 0) {
    return invalid_argument_error("round_replications must be >= 1");
  }
  if (!(options.confidence > 0.0) || !(options.confidence < 1.0)) {
    return invalid_argument_error("confidence must be in (0, 1)");
  }
  if (options.target_relative_half_width < 0.0) {
    return invalid_argument_error(
        "target_relative_half_width must be >= 0");
  }
  if (options.mode_table != nullptr && options.mode_schedule.empty()) {
    return invalid_argument_error(
        "multi-mode estimation requires a non-empty mode schedule");
  }
  return Status::ok();
}

/// Resolves one realized model to its TCT. Exactly one of `server` /
/// inline execution is used; multi-mode schedules always run inline.
class ReplicationRunner {
 public:
  ReplicationRunner(const platform::PlatformModel& platform,
                    const EstimatorOptions& options,
                    service::JobServer* server)
      : platform_(platform), options_(options), server_(server) {}

  Status init() {
    SEGBUS_ASSIGN_OR_RETURN(config_, session_config(options_));
    if (server_ != nullptr && options_.mode_table == nullptr) {
      psm_xml_ = xml::write_document(platform::to_xml(platform_));
    }
    return Status::ok();
  }

  const core::SessionConfig& config() const noexcept { return config_; }

  /// Fingerprint used for dedup decisions (always computed locally so
  /// decisions are independent of the server's cache state).
  Result<std::string> digest(const psdf::PsdfModel& realized) const {
    return core::scheme_digest(realized, platform_, config_);
  }

  /// Starts one replication; `tag` labels the job id. Returns a future
  /// resolving to (digest, execution time). Inline paths resolve
  /// immediately on this thread.
  Result<std::future<service::JobResponse>> submit(
      const psdf::PsdfModel& realized, const std::string& tag) {
    service::JobRequest request;
    request.id = tag;
    request.psdf_xml = xml::write_document(psdf::to_xml(realized));
    request.psm_xml = psm_xml_;
    request.reference_timing = options_.reference_timing;
    request.engine = options_.engine;
    request.max_ticks = options_.max_ticks;
    return server_->submit_async(std::move(request));
  }

  /// Inline resolution: emulates the realized model (or its mode
  /// schedule) directly. Returns the TCT.
  Result<Picoseconds> run_inline(const psdf::PsdfModel& realized,
                                 const std::string& tag) const {
    if (options_.mode_table != nullptr) {
      SEGBUS_ASSIGN_OR_RETURN(
          MultiModeResult result,
          run_multimode(realized, platform_, *options_.mode_table,
                        options_.mode_schedule, config_));
      if (!result.completed) {
        return failed_precondition_error(tag +
                                         ": a mode run hit the tick limit");
      }
      return result.total_time;
    }
    SEGBUS_ASSIGN_OR_RETURN(
        core::EmulationSession session,
        core::EmulationSession::from_models(realized, platform_, config_));
    SEGBUS_ASSIGN_OR_RETURN(emu::EmulationResult result, session.emulate());
    if (!result.completed) {
      return failed_precondition_error(tag + ": emulation hit the tick limit");
    }
    return result.total_execution_time;
  }

  bool uses_server() const noexcept {
    return server_ != nullptr && options_.mode_table == nullptr;
  }

  /// Jobs that may be outstanding at once: one queue depth's worth, so a
  /// round larger than the queue never meets backpressure.
  std::size_t max_in_flight() const noexcept {
    return std::max<std::size_t>(1, server_->config().queue_depth);
  }

 private:
  const platform::PlatformModel& platform_;
  const EstimatorOptions& options_;
  service::JobServer* server_;
  core::SessionConfig config_;
  std::string psm_xml_;
};

/// Recomputes the summary statistics over the replications so far.
void summarize(Estimate& estimate, const EstimatorOptions& options) {
  RunningStats stats;
  std::vector<double> samples;
  samples.reserve(estimate.replications.size());
  for (const Replication& replication : estimate.replications) {
    const auto value = static_cast<double>(replication.execution_time.count());
    stats.add(value);
    samples.push_back(value);
  }
  estimate.mean_ps = stats.mean();
  estimate.stddev_ps = stats.stddev();
  estimate.p50_ps = sample_quantile(samples, 0.50);
  estimate.p95_ps = sample_quantile(samples, 0.95);
  estimate.p99_ps = sample_quantile(samples, 0.99);
  estimate.confidence = options.confidence;
  double half_width = 0.0;
  if (stats.count() >= 2 && estimate.stddev_ps > 0.0) {
    const double t =
        student_t_critical(stats.count() - 1, options.confidence);
    half_width =
        t * estimate.stddev_ps / std::sqrt(static_cast<double>(stats.count()));
  }
  estimate.half_width_ps = half_width;
  estimate.ci_low_ps = estimate.mean_ps - half_width;
  estimate.ci_high_ps = estimate.mean_ps + half_width;
  estimate.relative_half_width =
      estimate.mean_ps > 0.0 ? half_width / estimate.mean_ps : 0.0;
  estimate.ci_contains_mean_model =
      estimate.mean_model_ps >= 0.0 &&
      estimate.ci_low_ps <= estimate.mean_model_ps &&
      estimate.mean_model_ps <= estimate.ci_high_ps;
}

Result<Estimate> estimate_with(const psdf::PsdfModel& application,
                               const platform::PlatformModel& platform,
                               const EstimatorOptions& options,
                               service::JobServer* server) {
  SEGBUS_RETURN_IF_ERROR(check_options(options));
  if (options.mode_table != nullptr) {
    SEGBUS_RETURN_IF_ERROR(options.mode_table->validate(application));
    for (std::size_t entry : options.mode_schedule) {
      if (entry >= options.mode_table->modes().size()) {
        return invalid_argument_error(
            str_format("mode schedule entry %zu out of range", entry));
      }
    }
  }
  ReplicationRunner runner(platform, options, server);
  SEGBUS_RETURN_IF_ERROR(runner.init());

  Estimate estimate;

  // Deterministic plug-in-the-expectation baseline, when defined.
  if (Result<psdf::PsdfModel> mean = mean_model(application, options.spec);
      mean.is_ok()) {
    SEGBUS_ASSIGN_OR_RETURN(Picoseconds mean_time,
                            runner.run_inline(*mean, "estimate-mean"));
    estimate.mean_model_ps = static_cast<double>(mean_time.count());
  }

  // Sequential replication rounds. Dedup decisions and round boundaries
  // depend only on (seed, replication index, collected values), never on
  // worker scheduling — reports are byte-identical across worker counts.
  std::unordered_map<std::string, std::size_t> first_by_digest;
  const double target = options.target_relative_half_width;
  std::uint32_t next = 0;
  while (next < options.max_replications) {
    const std::uint32_t round_end =
        next == 0 ? options.min_replications
                  : std::min(options.max_replications,
                             next + options.round_replications);
    struct PendingJob {
      std::size_t replication;
      std::future<service::JobResponse> future;
    };
    std::vector<PendingJob> pending;
    std::vector<std::pair<std::size_t, std::size_t>> duplicates;
    // Collects the outstanding jobs in submission order.
    const auto collect = [&]() -> Status {
      for (PendingJob& job : pending) {
        service::JobResponse response = job.future.get();
        if (!response.ok) {
          return internal_error(str_format(
              "replication %llu failed: %s: %s",
              static_cast<unsigned long long>(
                  estimate.replications[job.replication].index),
              response.error_code.c_str(), response.error_message.c_str()));
        }
        estimate.replications[job.replication].execution_time =
            response.execution_time;
      }
      pending.clear();
      return Status::ok();
    };
    for (std::uint32_t k = next; k < round_end; ++k) {
      SEGBUS_ASSIGN_OR_RETURN(
          psdf::PsdfModel realized,
          realize(application, options.spec, options.seed, k));
      SEGBUS_ASSIGN_OR_RETURN(std::string digest, runner.digest(realized));
      Replication replication;
      replication.index = k;
      const std::size_t slot = estimate.replications.size();
      const auto [it, inserted] = first_by_digest.emplace(digest, slot);
      if (!inserted) {
        replication.deduplicated = true;
        duplicates.emplace_back(slot, it->second);
        estimate.replications.push_back(std::move(replication));
        continue;
      }
      replication.digest = digest;
      const std::string tag = str_format("estimate-rep-%u", k);
      if (runner.uses_server()) {
        if (pending.size() == runner.max_in_flight()) {
          SEGBUS_RETURN_IF_ERROR(collect());
        }
        SEGBUS_ASSIGN_OR_RETURN(std::future<service::JobResponse> future,
                                runner.submit(realized, tag));
        pending.push_back({slot, std::move(future)});
        estimate.replications.push_back(std::move(replication));
      } else {
        SEGBUS_ASSIGN_OR_RETURN(replication.execution_time,
                                runner.run_inline(realized, tag));
        estimate.replications.push_back(std::move(replication));
      }
    }
    SEGBUS_RETURN_IF_ERROR(collect());
    // Resolve intra-round duplicates now that every original ran.
    for (const auto& [slot, first] : duplicates) {
      estimate.replications[slot].digest = estimate.replications[first].digest;
      estimate.replications[slot].execution_time =
          estimate.replications[first].execution_time;
    }
    next = round_end;
    summarize(estimate, options);
    if (target > 0.0 && estimate.relative_half_width <= target) break;
  }

  estimate.unique_runs = first_by_digest.size();
  estimate.converged =
      target <= 0.0 || estimate.relative_half_width <= target;
  return estimate;
}

}  // namespace

Result<Estimate> Estimator::run(const psdf::PsdfModel& application,
                                const platform::PlatformModel& platform,
                                const EstimatorOptions& options) {
  return estimate_with(application, platform, options, server_);
}

Result<Estimate> estimate_inline(const psdf::PsdfModel& application,
                                 const platform::PlatformModel& platform,
                                 const EstimatorOptions& options) {
  return estimate_with(application, platform, options, nullptr);
}

JsonValue Estimate::to_json() const {
  JsonValue object = JsonValue::object();
  object.set("kind", JsonValue::string("estimate"));
  object.set("replications",
             JsonValue::unsigned_integer(replications.size()));
  object.set("unique_runs", JsonValue::unsigned_integer(unique_runs));
  object.set("deduplicated", JsonValue::unsigned_integer(
                                 replications.size() >= unique_runs
                                     ? replications.size() - unique_runs
                                     : 0));
  object.set("mean_ps", JsonValue::number(mean_ps));
  object.set("stddev_ps", JsonValue::number(stddev_ps));
  object.set("p50_ps", JsonValue::number(p50_ps));
  object.set("p95_ps", JsonValue::number(p95_ps));
  object.set("p99_ps", JsonValue::number(p99_ps));
  object.set("confidence", JsonValue::number(confidence));
  object.set("ci_low_ps", JsonValue::number(ci_low_ps));
  object.set("ci_high_ps", JsonValue::number(ci_high_ps));
  object.set("half_width_ps", JsonValue::number(half_width_ps));
  object.set("relative_half_width", JsonValue::number(relative_half_width));
  object.set("converged", JsonValue::boolean(converged));
  if (mean_model_ps >= 0.0) {
    object.set("mean_model_ps", JsonValue::number(mean_model_ps));
    object.set("ci_contains_mean_model",
               JsonValue::boolean(ci_contains_mean_model));
  }
  JsonValue samples = JsonValue::array();
  for (const Replication& replication : replications) {
    JsonValue entry = JsonValue::object();
    entry.set("replication", JsonValue::unsigned_integer(replication.index));
    entry.set("digest", JsonValue::string(replication.digest));
    entry.set("execution_ps",
              JsonValue::integer(replication.execution_time.count()));
    entry.set("deduplicated", JsonValue::boolean(replication.deduplicated));
    samples.push(std::move(entry));
  }
  object.set("samples", std::move(samples));
  return object;
}

}  // namespace segbus::stoch
