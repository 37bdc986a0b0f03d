#include "harness.hpp"

#include <algorithm>

#include "obs/chrome_trace.hpp"
#include "obs/export.hpp"

namespace perfbench {

namespace obs = segbus::obs;

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"service.protocol_ms", "ms"},
      {"xml.parse_ms", "ms"},
      {"model.from_xml_ms", "ms"},
      {"model.to_xml_ms", "ms"},
      {"analysis.analyze_ms", "ms"},
      {"analysis.bounds_ms", "ms"},
      {"core.digest_ms", "ms"},
      {"core.serialize_ms", "ms"},
      {"emu.fast_ms", "ms"},
      {"emu.reference_ms", "ms"},
      {"emu.parallel_ms", "ms"},
      {"service.client_parse_ms", "ms"},
      {"service.transport_ms", "ms"},
      {"service.queue_wait_ms", "ms"},
      {"service.worker_busy_ratio", "1"},
      {"service.cache_hit_ratio", "1"},
      {"service.cache_evictions_per_op", "count"},
      {"stoch.realize_ms", "ms"},
      {"stoch.dedup_ratio", "1"},
      {"search.heuristics_ms", "ms"},
      {"search.evaluate_ms", "ms"},
      {"search.nodes_per_op", "count"},
      {"search.emulated_per_op", "count"},
      {"search.deduplicated_per_op", "count"},
      {"scen.generate_ms", "ms"},
      {"scen.oracle.base_ms", "ms"},
      {"scen.oracle.bounds-bracket_ms", "ms"},
      {"scen.oracle.conservation_ms", "ms"},
      {"scen.oracle.fingerprint-equivalence_ms", "ms"},
      {"scen.oracle.clock-scaling_ms", "ms"},
      {"scen.oracle.parallel-equivalence_ms", "ms"},
      {"scen.oracle.fast-equivalence_ms", "ms"},
      {"scen.oracle.bounds-dominance_ms", "ms"},
      {"scen.oracle.stoch-degenerate_ms", "ms"},
      {"scen.oracle.mode-chaining_ms", "ms"},
      {"scen.oracle.replication-bounds_ms", "ms"},
      {"scen.checks_per_op", "count"},
      {"scen.skipped_ratio", "1"},
      {"obs.traced_op_ms", "ms"},
      {"obs.unaccounted_share", "1"},
      {"obs.trace_overhead_pct", "%"},
  };
  return kMetrics;
}

void put_metric(segbus::JsonValue& metrics, const std::string& name,
                double value, const std::string& unit) {
  segbus::JsonValue entry = segbus::JsonValue::object();
  entry.set("value", segbus::JsonValue::number(value));
  entry.set("unit", segbus::JsonValue::string(unit));
  metrics.set(name, std::move(entry));
}

ServerCounters ServerCounters::of(const segbus::service::JobServer& server) {
  const obs::MetricsRegistry registry = server.metrics_snapshot();
  const auto sum_of = [&registry](std::string_view name) {
    const obs::Metric* metric = registry.find(name);
    return metric == nullptr ? 0.0 : metric->sum;
  };
  const obs::Metric* run = registry.find("segbus_service_run_ms");
  const segbus::service::CacheStats cache = server.cache_stats();
  ServerCounters counters;
  counters.queue_wait_ms = sum_of("segbus_service_queue_wait_ms");
  counters.run_ms = sum_of("segbus_service_run_ms");
  counters.jobs =
      run == nullptr ? 0.0 : static_cast<double>(run->observations);
  counters.cache_hits = static_cast<double>(cache.hits);
  counters.cache_lookups = static_cast<double>(cache.hits + cache.misses);
  counters.cache_evictions = static_cast<double>(cache.evictions);
  return counters;
}

void record_server(Layers& layers, const ServerCounters& before,
                   const ServerCounters& after, unsigned workers,
                   double wall_ms) {
  const auto ratio = [](double part, double whole) {
    return whole > 0.0 ? part / whole : 0.0;
  };
  layers.set("service.queue_wait_ms",
             ratio(after.queue_wait_ms - before.queue_wait_ms,
                   after.jobs - before.jobs));
  layers.set("service.worker_busy_ratio",
             ratio(after.run_ms - before.run_ms,
                   static_cast<double>(workers) * wall_ms));
  layers.set("service.cache_hit_ratio",
             ratio(after.cache_hits - before.cache_hits,
                   after.cache_lookups - before.cache_lookups));
  layers.set("service.cache_evictions_per_op",
             ratio(after.cache_evictions - before.cache_evictions,
                   static_cast<double>(layers.ops())));
}

void Layers::begin_op(std::uint64_t index) {
  op_span_ = tracer_->start_trace("op", obs::TraceId::generate(), true);
  op_span_.set_attribute("index", index);
}

void Layers::end_op() {
  op_span_.end();
  ++ops_;
}

void Layers::credit(std::string_view layer, std::uint64_t start_us,
                    Clock::time_point start) {
  add(layer, ms_between(start, Clock::now()), start_us);
}

void Layers::add(std::string_view layer, double ms, std::uint64_t start_us) {
  auto it = layer_ms_.find(layer);
  if (it == layer_ms_.end()) it = layer_ms_.emplace(layer, 0.0).first;
  it->second += ms;
  op_span_.add_child(std::string(layer), start_us,
                     static_cast<std::uint64_t>(std::max(0.0, ms) * 1000.0));
}

double Layers::total_ms(std::string_view layer) const {
  const auto it = layer_ms_.find(layer);
  return it == layer_ms_.end() ? 0.0 : it->second;
}

double Layers::all_layers_ms() const {
  double total = 0.0;
  for (const auto& [name, ms] : layer_ms_) total += ms;
  return total;
}

void Layers::report(segbus::JsonValue& metrics) const {
  const double ops = static_cast<double>(std::max<std::uint64_t>(ops_, 1));
  for (const auto& [name, unit] : layer_metrics()) {
    double value = 0.0;
    if (const auto it = fixed_.find(name); it != fixed_.end()) {
      value = it->second;
    } else if (const auto c = counts_.find(name); c != counts_.end()) {
      value = c->second / ops;
    } else {
      value = total_ms(name) / ops;
    }
    put_metric(metrics, name, value, unit);
  }
}

void Layers::fold(std::vector<obs::SpanRecord> spans) {
  // Same bound as the tracer's own buffer, so the file stays small.
  constexpr std::size_t kMaxFolded = 8192;
  if (folded_.size() + spans.size() > kMaxFolded) return;
  folded_.insert(folded_.end(), std::make_move_iterator(spans.begin()),
                 std::make_move_iterator(spans.end()));
}

segbus::Status Layers::write_chrome_trace(const std::string& path) {
  std::vector<obs::SpanRecord> spans = tracer_->collect_all();
  spans.insert(spans.end(), folded_.begin(), folded_.end());
  return obs::write_text_file(
      path, obs::chrome_trace_json(spans, nullptr).to_string());
}

}  // namespace perfbench
