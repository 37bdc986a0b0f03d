// Shared machinery of the perfbench program: the workload interface and
// the per-layer accumulator whose timers double as obs::Tracer spans (one
// mechanism for the numbers and the Chrome trace). The timed and traced
// run loops are in main.cpp.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "service/server.hpp"
#include "support/json.hpp"
#include "support/status.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

/// Command-line settings shared by every workload.
struct RunSettings {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the unix socket and the Chrome trace.
  std::string out_dir = ".";
  /// search_mp3's expected winner; the self-test sets a wrong one to
  /// prove that a wrong output counts as a failed op.
  std::int64_t expect_winner_ps = 429'630'201;
};

/// Per-layer accounting of the traced run. Every staged call is timed
/// once with steady_clock; the same interval becomes a child span of the
/// op's root span, so the trace file and the reported numbers agree.
class Layers {
 public:
  explicit Layers(segbus::obs::Tracer& tracer) : tracer_(&tracer) {}

  /// Opens the root span of traced op `index`.
  void begin_op(std::uint64_t index);
  /// Closes the root span and counts the op.
  void end_op();

  /// Times `fn()` as one call into `layer` (summed per op).
  template <typename F>
  decltype(auto) time(std::string_view layer, F&& fn) {
    const std::uint64_t start_us = tracer_->now_us();
    const Clock::time_point start = Clock::now();
    struct Credit {
      Layers* self;
      std::string_view layer;
      std::uint64_t start_us;
      Clock::time_point start;
      ~Credit() { self->credit(layer, start_us, start); }
    } credit{this, layer, start_us, start};
    return fn();
  }

  /// Adds an already measured interval to `layer`, recorded as a span.
  void add(std::string_view layer, double ms, std::uint64_t start_us);
  /// Adds to an exact per-op counter.
  void count(std::string_view name, double value) {
    counts_[std::string(name)] += value;
  }
  /// Sets a whole-run value (ratios measured once at the end).
  void set(std::string_view name, double value) {
    fixed_[std::string(name)] = value;
  }

  /// The traced op's root span (to fold server span trees under it).
  segbus::obs::Span& op_span() { return op_span_; }
  segbus::obs::Tracer& tracer() { return *tracer_; }
  std::uint64_t ops() const { return ops_; }
  /// Sum of every layer's time over all traced ops (ms).
  double all_layers_ms() const;

  /// Fills the per_layer metrics: layer sums and counts divided by ops,
  /// fixed values as set. Names never touched by this workload are 0.
  void report(segbus::JsonValue& metrics) const;

  /// Folds spans recorded elsewhere (the server's span tree) into the
  /// trace file.
  void fold(std::vector<segbus::obs::SpanRecord> spans);
  /// Writes every collected span as a Chrome trace.
  segbus::Status write_chrome_trace(const std::string& path);

 private:
  double total_ms(std::string_view layer) const;
  void credit(std::string_view layer, std::uint64_t start_us,
              Clock::time_point start);

  segbus::obs::Tracer* tracer_;
  segbus::obs::Span op_span_;
  std::uint64_t ops_ = 0;
  std::map<std::string, double, std::less<>> layer_ms_;
  std::map<std::string, double, std::less<>> counts_;
  std::map<std::string, double, std::less<>> fixed_;
  std::vector<segbus::obs::SpanRecord> folded_;
};

/// One benchmark workload. main() calls setup() several times (each
/// from scratch, the last one stays live), then run_op() in a closed loop
/// for the timed window, or run_op() and trace_op() for the traced run.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs, starts the servers, fills caches and runs the
  /// warm-up ops (on inputs that do not depend on the workload seed, so
  /// setup time does not either). Throws std::runtime_error when the
  /// setup cannot finish.
  virtual void setup() = 0;
  /// Stops what setup() started.
  virtual void teardown() = 0;
  /// Runs op `index` of the seeded sequence end to end. Returns whether
  /// its output was correct.
  virtual bool run_op(std::uint64_t index) = 0;
  /// Runs op `index` with tracing on, then replays its stages as direct
  /// calls into each layer. Returns the traced op's latency in ms, or a
  /// negative value when its output was wrong.
  virtual double trace_op(std::uint64_t index, Layers& layers) = 0;
  /// CPUs the process runs on at a time (main() rotates the set over
  /// the allowed CPUs every few ms): one for a workload whose serial op
  /// hands off between threads, one per busy thread for one that fans
  /// out.
  virtual unsigned cpus() const { return 1; }
  /// Whole-run layer values (cache, queue, worker counters), recorded
  /// after the traced window of `wall_ms`.
  virtual void finish_trace(Layers& layers, double wall_ms) {
    (void)layers;
    (void)wall_ms;
  }
};

std::unique_ptr<Workload> make_submit_hit(const RunSettings& settings);
std::unique_ptr<Workload> make_estimate_mp3(const RunSettings& settings);
std::unique_ptr<Workload> make_search_mp3(const RunSettings& settings);
std::unique_ptr<Workload> make_fuzz_campaign(const RunSettings& settings);

/// JobServer counters the traced run differences over its window.
struct ServerCounters {
  double queue_wait_ms = 0.0;  ///< summed queue wait of every job
  double run_ms = 0.0;         ///< summed worker run time of every job
  double jobs = 0.0;
  double cache_hits = 0.0;
  double cache_lookups = 0.0;
  double cache_evictions = 0.0;

  static ServerCounters of(const segbus::service::JobServer& server);
};

/// Records the service.* whole-run layer values from the counters taken
/// at the start (`before`) and end (`after`) of a traced window.
void record_server(Layers& layers, const ServerCounters& before,
                   const ServerCounters& after, unsigned workers,
                   double wall_ms);

/// Adds `{"value": value, "unit": unit}` under `name`.
void put_metric(segbus::JsonValue& metrics, const std::string& name,
                double value, const std::string& unit);

/// Every per-layer metric name with its unit, in report order.
const std::vector<std::pair<std::string, std::string>>& layer_metrics();

/// The seed of every warm-up op, whatever the workload seed.
inline constexpr std::uint64_t kWarmupSeed = 0;

/// Unwraps a Result or throws std::runtime_error naming `what`.
template <typename T>
T expect(segbus::Result<T> result, std::string_view what) {
  if (!result.is_ok()) {
    throw std::runtime_error(std::string(what) + ": " +
                             result.status().to_string());
  }
  return std::move(result).value();
}

}  // namespace perfbench
