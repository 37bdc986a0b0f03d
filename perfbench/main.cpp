// perfbench — the end-to-end and per-layer benchmark of the SegBus
// estimation pipeline. Usage (normally through run.py, which builds it):
//
//   perfbench --workload submit_hit|estimate_mp3|search_mp3|fuzz_campaign
//             --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// --trace 0 times the workload's seeded op sequence in a closed loop and
// prints the end-to-end metrics; --trace 1 is the separate traced run that
// prints the per-layer metrics and writes a Chrome trace to DIR. The last
// stdout line is one JSON object {correct, attempted, failed, metrics}.
#include <sched.h>
#include <sys/resource.h>

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "support/build_info.hpp"
#include "support/statistics.hpp"

using perfbench::Clock;
using perfbench::ms_between;
using segbus::JsonValue;

namespace {

/// Setups per timed run; setup_s reports their median.
constexpr int kSetups = 5;

/// Latency samples allocated and written before the timed window (2 MiB,
/// 10k ops/s for 25 s), so that the samples' own pages are a constant
/// part of peak_rss_mb instead of one that grows with the op rate.
constexpr std::size_t kLatencySlots = std::size_t{1} << 18;

/// Keeps every thread of the process on `count` CPUs at a time and, from
/// a thread of its own, moves them all on to the next CPUs of the allowed
/// set every kPeriod. On a shared VM each vCPU drifts between a fast and
/// a contended state (up to 60 % apart, for seconds at a time); one
/// pinned CPU makes whole runs fast or slow, while unpinned threads pay
/// cross-CPU wake-ups that vary even more. An op that stays on the vCPU
/// it started on takes that vCPU's state, so single op latencies come out
/// bimodal and p50/p90 follow the share of slow ops in a run; the period
/// is short against the long ops (a search takes about 150 ms, a heavy
/// fuzz scenario 100 ms), so each of them samples several vCPUs.
class CpuRotation {
 public:
  static constexpr std::chrono::milliseconds kPeriod{20};

  explicit CpuRotation(unsigned count) : count_(count) {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (std::size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) allowed_.push_back(cpu);
      }
    }
    if (allowed_.size() <= count_) return;
    apply(0);
    mover_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(mutex_);
      for (std::size_t offset = 1;
           !stopped_.wait_for(lock, kPeriod, [this] { return stop_; });
           offset = (offset + 1) % allowed_.size()) {
        apply(offset);
      }
    });
  }

  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  ~CpuRotation() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    stopped_.notify_all();
    if (mover_.joinable()) mover_.join();
  }

  JsonValue cpus_json() const {
    JsonValue cpus = JsonValue::array();
    for (const std::size_t cpu : allowed_) {
      cpus.push(JsonValue::unsigned_integer(cpu));
    }
    return cpus;
  }

 private:
  /// Puts every thread, the mover included, on the `count_` CPUs that
  /// start at `offset` in the allowed set.
  void apply(std::size_t offset) const {
    cpu_set_t set;
    CPU_ZERO(&set);
    for (unsigned i = 0; i < count_; ++i) {
      CPU_SET(allowed_[(offset + i) % allowed_.size()], &set);
    }
    std::error_code error;
    for (const auto& task :
         std::filesystem::directory_iterator("/proc/self/task", error)) {
      const auto tid = static_cast<pid_t>(
          std::strtol(task.path().filename().c_str(), nullptr, 10));
      sched_setaffinity(tid, sizeof(set), &set);  // a thread may have ended
    }
  }

  const unsigned count_;
  std::vector<std::size_t> allowed_;
  std::mutex mutex_;
  std::condition_variable stopped_;
  bool stop_ = false;
  std::thread mover_;
};

/// Process user+sys CPU time of all threads, in ms.
double cpu_ms_now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1000.0 +
           static_cast<double>(tv.tv_usec) / 1000.0;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

/// This program's peak resident set in MiB: VmHWM of /proc/self/status.
/// Not ru_maxrss, which Linux carries over an exec from the process
/// image that started this one (the runner's Python, three times larger
/// than this program), so it read the runner's size on every workload.
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  unsigned long kib = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lu kB", &kib) == 1) break;
  }
  std::fclose(status);
  return static_cast<double>(kib) / 1024.0;
}

/// Runs op `index`; an escaped exception counts as a wrong output.
bool run_checked(perfbench::Workload& workload, std::uint64_t index) {
  try {
    if (workload.run_op(index)) return true;
    std::fprintf(stderr, "perfbench: op %llu returned a wrong output\n",
                 static_cast<unsigned long long>(index));
    return false;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: op %llu failed: %s\n",
                 static_cast<unsigned long long>(index), error.what());
    return false;
  }
}

/// One setup from scratch, including the warm-up ops. Returns seconds.
double timed_setup(perfbench::Workload& workload) {
  const Clock::time_point start = Clock::now();
  workload.setup();
  return ms_between(start, Clock::now()) / 1000.0;
}

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  JsonValue metrics = JsonValue::object();
};

Outcome timed_run(perfbench::Workload& workload,
                  const perfbench::RunSettings& settings) {
  std::vector<double> latencies(kLatencySlots, -1.0);
  std::vector<double> setups;
  for (int k = 0; k < kSetups; ++k) {
    if (k > 0) workload.teardown();
    setups.push_back(timed_setup(workload));
  }

  Outcome outcome;
  std::size_t samples = 0;
  std::uint64_t index = 0;
  const double cpu_before = cpu_ms_now();
  const Clock::time_point start = Clock::now();
  const double window_ms = settings.seconds * 1000.0;
  while (ms_between(start, Clock::now()) < window_ms) {
    const Clock::time_point sent = Clock::now();
    const bool ok = run_checked(workload, index++);
    const double latency = ms_between(sent, Clock::now());
    if (samples < latencies.size()) {
      latencies[samples] = latency;
    } else {
      latencies.push_back(latency);
    }
    ++samples;
    if (!ok) ++outcome.failed;
  }
  const double wall_ms = ms_between(start, Clock::now());
  const double cpu_after = cpu_ms_now();
  workload.teardown();
  latencies.resize(samples);

  const auto ops = static_cast<double>(latencies.size());
  outcome.attempted = latencies.size();
  JsonValue& metrics = outcome.metrics;
  using perfbench::put_metric;
  put_metric(metrics, "ops_per_s", ops / (wall_ms / 1000.0), "1/s");
  put_metric(metrics, "p50_ms", segbus::sample_quantile(latencies, 0.5), "ms");
  put_metric(metrics, "p90_ms", segbus::sample_quantile(latencies, 0.9), "ms");
  put_metric(metrics, "cpu_ms_per_op", (cpu_after - cpu_before) / ops,
             "ms");
  put_metric(metrics, "setup_s", segbus::sample_quantile(setups, 0.5), "s");
  put_metric(metrics, "peak_rss_mb", peak_rss_mb(), "MiB");
  std::printf("perfbench: %zu ops in %.3f s, %zu beyond p90, fail_ratio %g\n",
              latencies.size(), wall_ms / 1000.0, latencies.size() / 10,
              static_cast<double>(outcome.failed) / ops);
  return outcome;
}

Outcome traced_run(perfbench::Workload& workload,
                   const perfbench::RunSettings& settings) {
  timed_setup(workload);
  Outcome outcome;
  segbus::obs::Tracer::Config config;
  config.sample_ratio = 1.0;
  config.buffer_capacity = 8192;
  segbus::obs::Tracer tracer(config);
  perfbench::Layers layers(tracer);

  // Each op of the sequence runs twice: untraced, then traced with its
  // stages replayed. Comparing the two latencies of the same ops gives
  // the tracing overhead without the op-to-op spread of the inputs.
  std::uint64_t index = 0;
  double untraced_ms = 0.0;
  double traced_ms = 0.0;
  const Clock::time_point start = Clock::now();
  const double window_ms = settings.seconds * 1000.0;
  while (ms_between(start, Clock::now()) < window_ms) {
    const Clock::time_point sent = Clock::now();
    const bool untraced_ok = run_checked(workload, index);
    const double untraced = ms_between(sent, Clock::now());
    double traced = -1.0;
    layers.begin_op(index);
    try {
      traced = workload.trace_op(index, layers);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "perfbench: traced op %llu failed: %s\n",
                   static_cast<unsigned long long>(index), error.what());
    }
    layers.end_op();
    ++index;
    outcome.attempted += 2;
    if (!untraced_ok) ++outcome.failed;
    if (traced < 0.0) {
      std::fprintf(stderr,
                   "perfbench: traced op %llu returned a wrong output\n",
                   static_cast<unsigned long long>(index - 1));
      ++outcome.failed;
    }
    if (untraced_ok && traced >= 0.0) {
      untraced_ms += untraced;
      traced_ms += traced;
    }
  }
  workload.finish_trace(layers, ms_between(start, Clock::now()));
  workload.teardown();

  layers.set("obs.traced_op_ms",
             traced_ms / static_cast<double>(layers.ops()));
  // (untraced ops/s - traced ops/s) / untraced ops/s, over the same ops.
  layers.set("obs.trace_overhead_pct",
             traced_ms > 0.0 ? (1.0 - untraced_ms / traced_ms) * 100.0 : 0.0);
  layers.report(outcome.metrics);

  const std::string path = settings.out_dir + "/" + settings.workload +
                           "-seed" + std::to_string(settings.seed) +
                           ".trace.json";
  if (const segbus::Status written = layers.write_chrome_trace(path);
      written.is_ok()) {
    std::printf("perfbench: Chrome trace of %llu traced ops in %s\n",
                static_cast<unsigned long long>(layers.ops()), path.c_str());
  } else {
    std::fprintf(stderr, "perfbench: %s\n", written.to_string().c_str());
  }
  return outcome;
}

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n",
               message.c_str());
  std::exit(2);
}

perfbench::RunSettings parse_args(int argc, char** argv) {
  perfbench::RunSettings settings;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      settings.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      settings.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      settings.seconds = std::strtod(value.c_str(), &end);
      if (!(settings.seconds > 0.0)) usage_error("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage_error("--trace takes 0 or 1");
      settings.trace = value == "1";
    } else if (flag == "--out-dir") {
      settings.out_dir = value;
    } else if (flag == "--expect-winner-ps") {
      settings.expect_winner_ps = std::strtoll(value.c_str(), &end, 10);
    } else {
      usage_error("unknown flag " + flag);
    }
    if (end != nullptr && *end != '\0') {
      usage_error("malformed value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage_error("--workload is required");
  return settings;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::RunSettings settings = parse_args(argc, argv);
  const segbus::BuildInfo& build = segbus::build_info();
#ifndef NDEBUG
  const bool release = false;
#else
  const bool release = build.build_type == "Release";
#endif
  if (!release) {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a '%s' build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 build.build_type.c_str());
    return 3;
  }

  std::unique_ptr<perfbench::Workload> workload;
  if (settings.workload == "submit_hit") {
    workload = perfbench::make_submit_hit(settings);
  } else if (settings.workload == "estimate_mp3") {
    workload = perfbench::make_estimate_mp3(settings);
  } else if (settings.workload == "search_mp3") {
    workload = perfbench::make_search_mp3(settings);
  } else if (settings.workload == "fuzz_campaign") {
    workload = perfbench::make_fuzz_campaign(settings);
  } else {
    usage_error("unknown workload '" + settings.workload + "'");
  }

  CpuRotation rotation(workload->cpus());

  JsonValue stamp = JsonValue::object();
  stamp.set("nproc",
            JsonValue::unsigned_integer(std::thread::hardware_concurrency()));
  stamp.set("cpus", rotation.cpus_json());
  stamp.set("cpus_at_a_time", JsonValue::unsigned_integer(workload->cpus()));
  stamp.set("rotate_ms",
            JsonValue::unsigned_integer(
                static_cast<std::uint64_t>(CpuRotation::kPeriod.count())));
  stamp.set("build_type", JsonValue::string(build.build_type));
  stamp.set("compiler", JsonValue::string(build.compiler));
  stamp.set("revision", JsonValue::string(build.git_hash));
  stamp.set("workload", JsonValue::string(settings.workload));
  stamp.set("seed", JsonValue::unsigned_integer(settings.seed));
  stamp.set("seconds", JsonValue::number(settings.seconds));
  stamp.set("trace", JsonValue::boolean(settings.trace));
  std::printf("perfbench stamp: %s\n", stamp.to_string().c_str());

  Outcome outcome;
  try {
    outcome = settings.trace ? traced_run(*workload, settings)
                             : timed_run(*workload, settings);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }

  JsonValue result = JsonValue::object();
  result.set("correct", JsonValue::boolean(outcome.failed == 0));
  result.set("attempted", JsonValue::unsigned_integer(outcome.attempted));
  result.set("failed", JsonValue::unsigned_integer(outcome.failed));
  result.set("metrics", std::move(outcome.metrics));
  std::printf("%s\n", result.to_string().c_str());
  std::fflush(stdout);
  return outcome.failed == 0 ? 0 : 1;
}
