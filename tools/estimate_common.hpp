// Shared implementation of the `segbus_cli estimate` subcommand.
//
//   estimate <psdf.xml> <psm.xml> | --app mp3|jpeg|h263 [--segments N]
//            [--package S] [--compute-dist SPEC] [--items-dist SPEC]
//            [--seed K] [--replications N] [--min-replications N]
//            [--round N] [--confidence C] [--rhw TARGET]
//            [--engine reference|parallel|fast] [--reference]
//            [--max-ticks N] [--workers N]
//            [--modes modes.xml [--schedule-len N]]
//            [--json] [--socket PATH | --tcp-port N]
//
// Distribution SPECs use the stoch::Distribution grammar
// ("point:1", "uniform:0.8,1.2", "normal:1,0.2", "lognormal:-0.08,0.4",
// "pareto:3,0.667" — see docs/WORKLOADS.md). Replications fan through a
// local worker pool; with --socket/--tcp-port the whole estimation ships
// to a running server as an `"estimate"` wire request and the pool is the
// server's. The report JSON is deterministic for a fixed request —
// byte-identical across worker counts and engine backends.
#pragma once

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "apps/h263.hpp"
#include "apps/jpeg.hpp"
#include "apps/mp3.hpp"
#include "platform/platform_xml.hpp"
#include "psdf/modes.hpp"
#include "psdf/psdf_xml.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "stoch/estimator.hpp"
#include "support/cli.hpp"
#include "support/strings.hpp"
#include "xml/writer.hpp"

namespace segbus::tools {

namespace estimate_detail {

struct Models {
  psdf::PsdfModel application;
  platform::PlatformModel platform;
};

/// Loads the (application, platform) pair: two positional XML paths, or a
/// named --app with its canonical platform for --segments.
inline Result<Models> load_models(const CommandLine& cli) {
  const auto package =
      static_cast<std::uint32_t>(cli.int_flag_or("package", 0));
  if (const auto app_name = cli.flag("app")) {
    const auto segments =
        static_cast<std::uint32_t>(cli.int_flag_or("segments", 3));
    const std::uint32_t pkg = package != 0 ? package : 36;
    Result<psdf::PsdfModel> app = invalid_argument_error(
        "unknown --app '" + *app_name + "' (expected mp3, jpeg or h263)");
    Result<platform::PlatformModel> psm = app.status();
    if (*app_name == "mp3") {
      app = apps::mp3_decoder_psdf(pkg);
      if (app.is_ok()) {
        psm = apps::mp3_platform(*app, apps::mp3_allocation(segments),
                                 segments, pkg);
      }
    } else if (*app_name == "jpeg") {
      app = apps::jpeg_encoder_psdf(pkg);
      if (app.is_ok()) {
        std::vector<std::uint32_t> allocation =
            segments == 2
                ? apps::jpeg_allocation_two_segments()
                : std::vector<std::uint32_t>(apps::kJpegProcesses, 0);
        psm = apps::jpeg_platform(*app, allocation, segments == 2 ? 2u : 1u,
                                  pkg);
      }
    } else if (*app_name == "h263") {
      app = apps::h263_encoder_psdf(pkg);
      if (app.is_ok()) {
        const std::uint32_t n = segments == 2 ? 2u : segments >= 4 ? 4u : 1u;
        psm = apps::h263_platform(*app, apps::h263_allocation(n), n, pkg);
      }
    }
    if (!app.is_ok()) return app.status();
    if (!psm.is_ok()) return psm.status();
    return Models{std::move(*app), std::move(*psm)};
  }
  if (cli.positional().size() < 3) {
    return invalid_argument_error(
        "estimate needs <psdf.xml> <psm.xml> or --app NAME");
  }
  SEGBUS_ASSIGN_OR_RETURN(psdf::PsdfModel app,
                          psdf::read_psdf_file(cli.positional()[1], package));
  SEGBUS_ASSIGN_OR_RETURN(platform::PlatformModel psm,
                          platform::read_platform_file(cli.positional()[2]));
  if (package != 0) {
    SEGBUS_RETURN_IF_ERROR(psm.set_package_size(package));
  }
  return Models{std::move(app), std::move(psm)};
}

inline void print_estimate(const stoch::Estimate& estimate) {
  std::printf("replications : %zu (%llu unique schemes emulated)\n",
              estimate.replications.size(),
              static_cast<unsigned long long>(estimate.unique_runs));
  std::printf("mean TCT     : %.3f us  (stddev %.3f us)\n",
              estimate.mean_ps / 1e6, estimate.stddev_ps / 1e6);
  std::printf("%2.0f%% CI       : [%.3f, %.3f] us  (half-width %.3f us, "
              "%.2f%% of mean)%s\n",
              estimate.confidence * 100.0, estimate.ci_low_ps / 1e6,
              estimate.ci_high_ps / 1e6, estimate.half_width_ps / 1e6,
              estimate.relative_half_width * 100.0,
              estimate.converged ? "" : "  [NOT converged]");
  std::printf("percentiles  : p50 %.3f us, p95 %.3f us, p99 %.3f us\n",
              estimate.p50_ps / 1e6, estimate.p95_ps / 1e6,
              estimate.p99_ps / 1e6);
  if (estimate.mean_model_ps >= 0.0) {
    std::printf("mean model   : %.3f us  (%s the CI)\n",
                estimate.mean_model_ps / 1e6,
                estimate.ci_contains_mean_model ? "inside" : "OUTSIDE");
  }
}

}  // namespace estimate_detail

/// `segbus_cli estimate`: replicated-run confidence estimation.
inline int run_estimate_cmd(const CommandLine& cli) {
  auto fail = [](const Status& status) {
    std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
    return 1;
  };

  auto models = estimate_detail::load_models(cli);
  if (!models.is_ok()) return fail(models.status());

  const std::string compute = cli.flag_or("compute-dist", "point:1");
  const std::string items = cli.flag_or("items-dist", "point:1");
  const auto seed = static_cast<std::uint64_t>(cli.int_flag_or("seed", 1));
  const auto max_replications =
      static_cast<std::uint32_t>(cli.int_flag_or("replications", 64));
  const auto min_replications = static_cast<std::uint32_t>(
      cli.int_flag_or("min-replications", 8));
  const auto round_replications =
      static_cast<std::uint32_t>(cli.int_flag_or("round", 8));
  const double confidence = cli.double_flag_or("confidence", 0.95);
  const double target_rhw = cli.double_flag_or("rhw", 0.0);
  const std::string modes_path = cli.flag_or("modes", "");
  std::string modes_xml;
  if (!modes_path.empty()) {
    std::ifstream in(modes_path, std::ios::binary);
    if (!in) return fail(not_found_error("cannot open " + modes_path));
    std::ostringstream text;
    text << in.rdbuf();
    modes_xml = std::move(text).str();
  }

  // Client mode: ship the estimation to a running server over the wire.
  const auto tcp_port =
      static_cast<std::uint16_t>(cli.int_flag_or("tcp-port", 0));
  const std::string socket = cli.flag_or("socket", "");
  if (tcp_port != 0 || !socket.empty()) {
    service::JobRequest request;
    request.id = cli.flag_or("id", "cli-estimate");
    request.kind = "estimate";
    request.psdf_xml =
        xml::write_document(psdf::to_xml(models->application));
    request.psm_xml =
        xml::write_document(platform::to_xml(models->platform));
    request.engine = cli.flag_or("engine", "");
    request.reference_timing = cli.bool_flag_or("reference", false);
    request.max_ticks =
        static_cast<std::uint64_t>(cli.int_flag_or("max-ticks", 0));
    request.estimate.compute = compute;
    request.estimate.items = items;
    request.estimate.seed = seed;
    request.estimate.min_replications = min_replications;
    request.estimate.max_replications = max_replications;
    request.estimate.round_replications = round_replications;
    request.estimate.confidence = confidence;
    request.estimate.target_relative_half_width = target_rhw;
    request.estimate.modes_xml = modes_xml;
    request.estimate.schedule_length =
        static_cast<std::uint32_t>(cli.int_flag_or("schedule-len", 4));

    Result<service::Client> client =
        tcp_port != 0 ? service::Client::connect_tcp(tcp_port)
                      : service::Client::connect_unix(socket);
    if (!client.is_ok()) return fail(client.status());
    if (cli.bool_flag_or("json", false)) {
      // The full raw response line (digest/execution_ps envelope plus
      // report), exactly as `submit --json` behaves.
      auto line = client->call_raw(service::encode_request(request));
      if (!line.is_ok()) return fail(line.status());
      std::printf("%s\n", line->c_str());
      auto parsed = service::parse_response(*line);
      return parsed.is_ok() && parsed->ok ? 0 : 2;
    }
    auto response = client->call(request);
    if (!response.is_ok()) return fail(response.status());
    if (!response->ok) {
      std::fprintf(stderr, "estimate failed [%s]: %s\n",
                   response->error_code.c_str(),
                   response->error_message.c_str());
      return 2;
    }
    auto report = JsonValue::parse(response->report_json);
    if (!report.is_ok()) return fail(report.status());
    std::printf("%s\n", report->to_string(/*pretty=*/true).c_str());
    std::printf("base digest: %s\n", response->digest.c_str());
    return 0;
  }

  // Local mode: an in-process worker pool runs the replications.
  stoch::EstimatorOptions options;
  auto compute_dist = stoch::Distribution::parse(compute);
  if (!compute_dist.is_ok()) return fail(compute_dist.status());
  options.spec.compute_scale = *compute_dist;
  auto items_dist = stoch::Distribution::parse(items);
  if (!items_dist.is_ok()) return fail(items_dist.status());
  options.spec.items_scale = *items_dist;
  options.seed = seed;
  options.min_replications = min_replications;
  options.max_replications = max_replications;
  options.round_replications = round_replications;
  options.confidence = confidence;
  options.target_relative_half_width = target_rhw;
  options.engine = cli.flag_or("engine", "");
  options.reference_timing = cli.bool_flag_or("reference", false);
  options.max_ticks =
      static_cast<std::uint64_t>(cli.int_flag_or("max-ticks", 0));

  psdf::ModeTable table;
  if (!modes_xml.empty()) {
    auto parsed = psdf::modes_from_xml(modes_xml);
    if (!parsed.is_ok()) return fail(parsed.status());
    table = std::move(*parsed);
    options.mode_table = &table;
    options.mode_schedule = table.generate_schedule(
        seed, static_cast<std::size_t>(
                  std::max<std::int64_t>(1, cli.int_flag_or("schedule-len",
                                                            4))));
  }

  service::ServerConfig pool_config;
  pool_config.workers =
      static_cast<unsigned>(cli.int_flag_or("workers", 4));
  service::JobServer pool(pool_config);
  stoch::Estimator estimator(pool);
  auto estimate =
      estimator.run(models->application, models->platform, options);
  if (!estimate.is_ok()) return fail(estimate.status());

  if (cli.bool_flag_or("json", false)) {
    std::printf("%s\n", estimate->to_json().to_string().c_str());
    return 0;
  }
  estimate_detail::print_estimate(*estimate);
  return 0;
}

}  // namespace segbus::tools
