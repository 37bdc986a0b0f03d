// Shared implementation of the `segbus_cli search` subcommand.
//
//   search  <psdf.xml> | --app mp3|jpeg|h263 | --synthetic N
//           [--segments 1,2,3] [--packages 36,18 | --package S]
//           [--strategy guided|exhaustive] [--seed K]
//           [--budget N] [--nodes N] [--beam W] [--restarts R]
//           [--iterations I] [--wave W] [--workers N]
//           [--engine reference|parallel|fast] [--reference]
//           [--max-ticks N] [--json] [--metrics-out FILE]
//           [--socket PATH | --tcp-port N]
//
// Numeric flags are range-checked before anything runs: a malformed,
// negative or out-of-range value (`--iterations -5`, `--iterations 2O00`,
// `--workers 0`) exits 1 with a message naming the flag, never a wrapped
// cast or a silent default.
//
// Without --socket/--tcp-port the search runs in-process (its own worker
// pool); with one of them the request is sent to a running server as a
// `"search"` wire request (docs/SERVICE.md). The report JSON is
// deterministic for a fixed spec — byte-identical across worker counts
// and engine backends — which is what the CI determinism smoke compares;
// wall-clock time goes to stderr only.
#pragma once

#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "apps/h263.hpp"
#include "apps/jpeg.hpp"
#include "apps/mp3.hpp"
#include "apps/synthetic.hpp"
#include "obs/export.hpp"
#include "psdf/psdf_xml.hpp"
#include "search/search.hpp"
#include "service/client.hpp"
#include "support/cli.hpp"
#include "support/strings.hpp"
#include "xml/writer.hpp"

namespace segbus::tools {

namespace search_detail {

inline Result<std::vector<std::uint32_t>> parse_u32_list(
    std::string_view text, std::string_view what) {
  std::vector<std::uint32_t> values;
  for (const std::string_view item : split_skip_empty(text, ',')) {
    const std::optional<std::uint64_t> value = parse_uint(trim(item));
    if (!value.has_value() || *value == 0 ||
        *value > std::numeric_limits<std::uint32_t>::max()) {
      return invalid_argument_error("invalid --" + std::string(what) +
                                    " entry '" + std::string(item) + "'");
    }
    values.push_back(static_cast<std::uint32_t>(*value));
  }
  if (values.empty()) {
    return invalid_argument_error("empty --" + std::string(what) + " list");
  }
  return values;
}

/// The numeric search flags, each range-checked against what the search
/// can hold: the width of its field, and for --synthetic, --beam, --wave
/// and --workers a cap that keeps memory and thread counts bounded.
struct SearchFlags {
  std::uint64_t synthetic = 0;  ///< 0 = not a synthetic workload
  std::uint32_t package = 36;
  std::uint64_t seed = 1;
  std::uint64_t budget = 0;
  std::uint64_t nodes = 0;
  std::uint32_t beam = 8;
  std::uint32_t restarts = 4;
  std::uint64_t iterations = 20000;
  std::size_t wave = 16;
  unsigned workers = 4;
  std::uint64_t max_ticks = 20'000'000;
};

inline constexpr std::uint64_t kMaxSynthetic = 5000;  ///< 25 M-cell matrix
inline constexpr std::uint64_t kMaxBeam = 1024;
inline constexpr std::uint64_t kMaxWave = 65536;
inline constexpr std::uint64_t kMaxWorkers = 256;

/// Reads every numeric search flag; an absent flag keeps its default.
inline Result<SearchFlags> parse_search_flags(const CommandLine& cli) {
  SearchFlags flags;
  Status status = Status::ok();
  auto read = [&cli, &status](std::string_view name, auto& out,
                              std::uint64_t min, std::uint64_t max) {
    using T = std::remove_reference_t<decltype(out)>;
    max = std::min<std::uint64_t>(max, std::numeric_limits<T>::max());
    const std::optional<std::string> text = cli.flag(name);
    if (!status.is_ok() || !text.has_value()) return;
    const std::optional<std::uint64_t> value = parse_uint(*text);
    if (!value.has_value() || *value < min || *value > max) {
      status = invalid_argument_error(str_format(
          "--%.*s: '%s' is not an integer in [%llu, %llu]",
          static_cast<int>(name.size()), name.data(), text->c_str(),
          static_cast<unsigned long long>(min),
          static_cast<unsigned long long>(max)));
      return;
    }
    out = static_cast<T>(*value);
  };
  constexpr std::uint64_t kAny = std::numeric_limits<std::uint64_t>::max();
  read("synthetic", flags.synthetic, 1, kMaxSynthetic);
  read("package", flags.package, 1, kAny);
  read("seed", flags.seed, 0, kAny);
  read("budget", flags.budget, 0, kAny);
  read("nodes", flags.nodes, 0, kAny);
  read("beam", flags.beam, 1, kMaxBeam);
  read("restarts", flags.restarts, 0, kAny);
  read("iterations", flags.iterations, 0, kAny);
  read("wave", flags.wave, 1, kMaxWave);
  read("workers", flags.workers, 1, kMaxWorkers);
  read("max-ticks", flags.max_ticks, 0, kAny);
  if (!status.is_ok()) return status;
  return flags;
}

/// Loads the application: a positional PSDF path, a named --app, or a
/// --synthetic N random layered workload (width 5, so N rounds up to the
/// next multiple of five; seeded by --synth-seed).
inline Result<psdf::PsdfModel> load_application(const CommandLine& cli,
                                                const SearchFlags& flags) {
  if (flags.synthetic > 0) {
    apps::RandomWorkloadOptions options;
    options.seed =
        static_cast<std::uint64_t>(cli.int_flag_or("synth-seed", 7));
    options.min_width = 5;
    options.max_width = 5;
    options.min_layers = options.max_layers = static_cast<std::uint32_t>(
        std::max<std::uint64_t>(2, (flags.synthetic + 4) / 5));
    options.package_size = flags.package;
    return apps::synthetic_random(options);
  }
  if (const auto app = cli.flag("app")) {
    if (*app == "mp3") return apps::mp3_decoder_psdf(flags.package);
    if (*app == "jpeg") return apps::jpeg_encoder_psdf(flags.package);
    if (*app == "h263") return apps::h263_encoder_psdf(flags.package);
    return invalid_argument_error("unknown --app '" + *app +
                                  "' (expected mp3, jpeg or h263)");
  }
  if (cli.positional().size() >= 2) {
    return psdf::read_psdf_file(cli.positional()[1]);
  }
  return invalid_argument_error(
      "search needs a <psdf.xml>, --app NAME or --synthetic N");
}

}  // namespace search_detail

/// `segbus_cli search`: guided (or exhaustive) design-space exploration.
inline int run_search_cmd(const CommandLine& cli) {
  auto fail = [](const Status& status) {
    std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
    return 1;
  };

  auto flags = search_detail::parse_search_flags(cli);
  if (!flags.is_ok()) return fail(flags.status());
  auto app = search_detail::load_application(cli, *flags);
  if (!app.is_ok()) return fail(app.status());

  const std::string segments = cli.flag_or("segments", "1,2,3");
  std::string packages = cli.flag_or("packages", "");
  if (packages.empty() && cli.flag("package").has_value()) {
    packages = *cli.flag("package");
  }
  const std::string strategy = cli.flag_or("strategy", "guided");

  // Client mode: ship the search to a running server over the wire.
  const auto tcp_port =
      static_cast<std::uint16_t>(cli.int_flag_or("tcp-port", 0));
  const std::string socket = cli.flag_or("socket", "");
  if (tcp_port != 0 || !socket.empty()) {
    service::JobRequest request;
    request.id = cli.flag_or("id", "cli-search");
    request.kind = "search";
    request.psdf_xml = xml::write_document(psdf::to_xml(*app));
    request.engine = cli.flag_or("engine", "");
    request.reference_timing = cli.bool_flag_or("reference", false);
    request.max_ticks = cli.has_flag("max-ticks") ? flags->max_ticks : 0;
    request.search.segments = segments;
    request.search.packages = packages;
    request.search.strategy = strategy;
    request.search.seed = flags->seed;
    request.search.max_emulations = flags->budget;
    request.search.max_nodes = flags->nodes;
    request.search.beam_width = flags->beam;
    request.search.anneal_restarts = flags->restarts;
    request.search.anneal_iterations = flags->iterations;

    Result<service::Client> client =
        tcp_port != 0 ? service::Client::connect_tcp(tcp_port)
                      : service::Client::connect_unix(socket);
    if (!client.is_ok()) return fail(client.status());
    auto response = client->call(request);
    if (!response.is_ok()) return fail(response.status());
    if (!response->ok) {
      std::fprintf(stderr, "search failed [%s]: %s\n",
                   response->error_code.c_str(),
                   response->error_message.c_str());
      return 2;
    }
    if (cli.bool_flag_or("json", false)) {
      std::printf("%s\n", response->report_json.c_str());
      return 0;
    }
    auto report = JsonValue::parse(response->report_json);
    if (!report.is_ok()) return fail(report.status());
    std::printf("%s\n", report->to_string(/*pretty=*/true).c_str());
    std::printf("winner digest: %s (%.3f us)\n", response->digest.c_str(),
                static_cast<double>(response->execution_time.count()) /
                    1e6);
    return 0;
  }

  // Local mode.
  search::SearchSpec spec;
  auto segment_counts =
      search_detail::parse_u32_list(segments, "segments");
  if (!segment_counts.is_ok()) return fail(segment_counts.status());
  spec.segment_counts = std::move(*segment_counts);
  if (!packages.empty()) {
    auto package_sizes =
        search_detail::parse_u32_list(packages, "packages");
    if (!package_sizes.is_ok()) return fail(package_sizes.status());
    spec.package_sizes = std::move(*package_sizes);
  }
  auto parsed_strategy = search::parse_strategy(strategy);
  if (!parsed_strategy.is_ok()) return fail(parsed_strategy.status());
  spec.strategy = *parsed_strategy;
  spec.seed = flags->seed;
  spec.max_emulations = flags->budget;
  spec.max_nodes = flags->nodes;
  spec.beam_width = flags->beam;
  spec.anneal_restarts = flags->restarts;
  spec.anneal_iterations = flags->iterations;
  spec.wave_size = flags->wave;
  spec.workers = flags->workers;
  spec.engine = cli.flag_or("engine", "fast");
  spec.reference_timing = cli.bool_flag_or("reference", false);
  spec.max_ticks = flags->max_ticks;

  obs::MetricsRegistry metrics;
  const std::string metrics_out = cli.flag_or("metrics-out", "");
  if (!metrics_out.empty()) spec.metrics = &metrics;

  const auto started = std::chrono::steady_clock::now();
  auto report = search::run_search(*app, spec);
  if (!report.is_ok()) return fail(report.status());
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - started)
          .count();

  if (cli.bool_flag_or("json", false)) {
    std::printf("%s\n", search::search_to_json(*report).to_string().c_str());
  } else {
    std::printf("%s", report->render().c_str());
  }
  std::fprintf(stderr, "search wall clock: %.1f ms (%u workers)\n",
               elapsed_ms, spec.workers);
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out, std::ios::binary);
    out << obs::to_prometheus(metrics);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", metrics_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "metrics written to %s\n", metrics_out.c_str());
  }
  return 0;
}

}  // namespace segbus::tools
