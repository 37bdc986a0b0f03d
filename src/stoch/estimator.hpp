// Replicated-run confidence estimation — the statistically honest TCT.
//
// A stochastic spec turns one scheme into a distribution over schemes;
// the estimator samples it: N seeded replications are realized
// (stoch/workload.hpp), deduplicated by content-addressed fingerprint,
// fanned through a service::JobServer (or run inline for multi-mode
// schedules), and summarized as mean/p50/p95/p99 with a Student-t
// confidence interval:
//
//   mean ± t_{n-1, conf} * s / sqrt(n)
//
// Stopping rule: replications are added in rounds until the *relative
// half-width* (half-width / mean) drops to the target or the replication
// budget is exhausted — the classical sequential-replication procedure of
// discrete-event simulation practice.
//
// Determinism contract: replication k's model depends only on (seed, k);
// jobs are submitted and collected in replication order; dedup decisions
// are made locally before submission. Reports are therefore byte-identical
// across worker counts and backends (asserted by tests).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "platform/model.hpp"
#include "psdf/model.hpp"
#include "psdf/modes.hpp"
#include "service/server.hpp"
#include "stoch/workload.hpp"
#include "support/json.hpp"
#include "support/status.hpp"
#include "support/time.hpp"

namespace segbus::stoch {

/// Estimation parameters. Replication counts bound the sequential
/// procedure: at least `min_replications` always run; rounds of
/// `round_replications` are added until the stopping rule fires or
/// `max_replications` is reached.
struct EstimatorOptions {
  StochasticSpec spec;
  std::uint64_t seed = 1;
  std::uint32_t min_replications = 8;
  std::uint32_t max_replications = 64;
  std::uint32_t round_replications = 8;
  /// Two-sided confidence level of the interval.
  double confidence = 0.95;
  /// Stopping target for half_width / mean; 0 disables the rule (run
  /// exactly max_replications).
  double target_relative_half_width = 0.0;
  /// Engine backend for replication jobs ("" = server default). All
  /// backends are bit-identical, so this only affects speed.
  std::string engine;
  std::uint64_t max_ticks = 0;       ///< per-job tick budget (0 = default)
  bool reference_timing = false;     ///< reference instead of emulator preset
  /// Multi-mode estimation: when set, each replication realizes the spec
  /// and runs `schedule` over the table inline (chained sessions) instead
  /// of submitting a single static job. The table/schedule must outlive
  /// the run() call.
  const psdf::ModeTable* mode_table = nullptr;
  std::vector<std::size_t> mode_schedule;
};

/// One replication's outcome.
struct Replication {
  std::uint64_t index = 0;
  std::string digest;             ///< realized scheme fingerprint
  Picoseconds execution_time{0};  ///< realized TCT (total across modes)
  bool deduplicated = false;      ///< digest matched an earlier replication
};

/// The replicated-run estimate.
struct Estimate {
  std::vector<Replication> replications;  ///< replication order
  std::uint64_t unique_runs = 0;          ///< distinct schemes emulated
  double mean_ps = 0.0;
  double stddev_ps = 0.0;
  double p50_ps = 0.0;
  double p95_ps = 0.0;
  double p99_ps = 0.0;
  double confidence = 0.0;
  double ci_low_ps = 0.0;
  double ci_high_ps = 0.0;
  double half_width_ps = 0.0;
  double relative_half_width = 0.0;
  bool converged = false;  ///< stopping rule met (or rule disabled)
  /// Deterministic TCT of the mean-valued model (scale every flow by the
  /// analytic distribution mean); < 0 when undefined (infinite mean).
  double mean_model_ps = -1.0;
  bool ci_contains_mean_model = false;

  /// Full machine-readable report (schema: docs/WORKLOADS.md).
  JsonValue to_json() const;
};

/// Runs the replicated estimation through `server` (static specs) or
/// inline (multi-mode specs). At most one queue depth of jobs is in flight,
/// so a round larger than the server's queue does not meet backpressure.
/// Thread-compatible: one estimator per run.
class Estimator {
 public:
  explicit Estimator(service::JobServer& server) : server_(&server) {}

  Result<Estimate> run(const psdf::PsdfModel& application,
                       const platform::PlatformModel& platform,
                       const EstimatorOptions& options);

 private:
  service::JobServer* server_;
};

/// Server-free convenience used by the oracle and tests: replications run
/// through in-process sessions, same report, same determinism contract.
Result<Estimate> estimate_inline(const psdf::PsdfModel& application,
                                 const platform::PlatformModel& platform,
                                 const EstimatorOptions& options);

}  // namespace segbus::stoch
