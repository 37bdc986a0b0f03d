// segbus_cli — command-line front end for the SegBus tool chain.
//
// Subcommands (first positional argument):
//   validate <psdf.xml> [<psm.xml>]     run the OCL-style model checks
//   check    <psdf.xml> [<psm.xml>] [--package S] [--reference] [--json]
//            [--no-bounds] [--emulator-host] [--explain SBxxx]
//                                       full static analysis: validation,
//                                       lint, deadlock detection and the
//                                       static performance bounds (same
//                                       engine as the segbus_lint tool;
//                                       exit 2 on diagnosed errors)
//   matrix   <psdf.xml>                 print the communication matrix
//   generate --app mp3|jpeg --segments N [--package S] <outdir>
//                                       run the M2T transformation
//   emulate  <psdf.xml> <psm.xml> [--package S] [--reference]
//            [--engine reference|parallel|fast [--threads N]] [--activity]
//            [--trace [--trace-max N]]
//            [--vcd out.vcd] [--json] [--metrics] [--telemetry DIR]
//                                       emulate and report; --metrics records
//                                       protocol counters/latency histograms,
//                                       --telemetry (implies --metrics and
//                                       --trace) also exports Prometheus/
//                                       JSON/CSV metrics and a Chrome
//                                       trace-event file under DIR
//   place    <psdf.xml> --segments N [--strategy greedy|anneal|exhaustive]
//            [--seed K] [--iterations I] search a device allocation
//   analyze  <psdf.xml> <psm.xml> [--package S] closed-form bounds &
//            per-stage breakdown without emulating
//   search   <psdf.xml> | --app mp3|jpeg|h263 | --synthetic N
//            [--segments 1,2,3] [--packages 36,18] [--strategy
//            guided|exhaustive] [--seed K] [--budget N] [--nodes N]
//            [--beam W] [--restarts R] [--iterations I] [--wave W]
//            [--workers N] [--engine E] [--reference] [--json]
//            [--metrics-out FILE] [--socket PATH | --tcp-port N]
//                                       guided design-space search:
//                                       branch-and-bound over placements
//                                       with admissible v2 bounds, seeded
//                                       by annealing + beam heuristics,
//                                       reported as a Pareto front over
//                                       time/BU traffic/energy (see
//                                       docs/SEARCH.md); with --socket or
//                                       --tcp-port the search runs on a
//                                       server as a "search" wire request
//   estimate <psdf.xml> <psm.xml> | --app mp3|jpeg|h263 [--segments N]
//            [--compute-dist SPEC] [--items-dist SPEC] [--seed K]
//            [--replications N] [--min-replications N] [--round N]
//            [--confidence C] [--rhw TARGET] [--engine E] [--reference]
//            [--modes modes.xml [--schedule-len N]] [--workers N]
//            [--json] [--socket PATH | --tcp-port N]
//                                       replicated-run confidence
//                                       estimation under stochastic
//                                       workload scales (and optional
//                                       multi-mode schedules): mean/
//                                       p50/p95/p99 with a Student-t CI
//                                       and a relative-half-width stopping
//                                       rule (docs/WORKLOADS.md); with
//                                       --socket/--tcp-port the run ships
//                                       to a server as an "estimate" wire
//                                       request
//   serve    [--socket PATH] [--tcp [--port N]] [--workers N] [--queue N]
//            [--cache-entries N] [--cache-bytes N] [--max-ticks N]
//            [--deadline-ms N] [--metrics-out FILE]
//                                       estimation job server (NDJSON over
//                                       a unix socket and/or TCP loopback)
//                                       with the content-addressed result
//                                       cache; SIGINT/SIGTERM drains
//                                       gracefully (see docs/SERVICE.md)
//   submit   <psdf.xml> <psm.xml> [--socket PATH | --tcp-port N]
//            [--package S] [--reference]
//            [--engine reference|parallel|fast] [--max-ticks N]
//            [--id ID] [--json] [--trace out.json] | --ping | --stats
//                                       submit one job to a running server;
//                                       --trace asks the server for its
//                                       span tree and writes it to the file
//   stats    [--socket PATH | --tcp-port N] [--json]
//                                       pretty-print a running server's
//                                       live stats (queue, cache, phases,
//                                       trace, build)
//   fuzz     [--seed N] [--count N] [--workers N] [--time-budget S]
//            [--corpus DIR] [--log FILE] [--replay DIR] ...
//                                       seeded scenario fuzzing through the
//                                       differential oracle (same flags as
//                                       the segbus_fuzz tool; see
//                                       tools/fuzz_common.hpp and
//                                       docs/FUZZING.md)
//
// `segbus_cli --version` prints the build identity (version, git revision,
// compiler, build type) and exits 0.
//
// Exit status: 0 on success, 1 on any error (message on stderr); submit
// exits 2 when the server answered with a job-level error.
#include <cstdio>
#include <filesystem>
#include <string>

#include "apps/h263.hpp"
#include "apps/jpeg.hpp"
#include "apps/mp3.hpp"
#include "core/advisor.hpp"
#include "core/json_export.hpp"
#include "core/segbus.hpp"
#include "emu/vcd.hpp"
#include "obs/telemetry.hpp"
#include "support/build_info.hpp"
#include "support/cli.hpp"
#include "support/strings.hpp"

#include "estimate_common.hpp"
#include "fuzz_common.hpp"
#include "lint_common.hpp"
#include "search_common.hpp"
#include "service_common.hpp"

using namespace segbus;

namespace {

int fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
  return 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: segbus_cli "
               "<validate|check|matrix|generate|emulate|place|search|"
               "analyze|estimate|serve|submit|stats|fuzz> "
               "...\n       segbus_cli --version\n"
               "(see the header comment of tools/segbus_cli.cpp)\n");
  return 1;
}

int cmd_validate(const CommandLine& cli) {
  if (cli.positional().size() < 2) return usage();
  auto app = psdf::read_psdf_file(cli.positional()[1]);
  if (!app.is_ok()) return fail(app.status());
  ValidationReport report = psdf::validate(*app);
  std::printf("PSDF %s: %s", cli.positional()[1].c_str(),
              report.to_string().c_str());
  bool ok = report.ok();
  if (cli.positional().size() >= 3) {
    auto platform = platform::read_platform_file(cli.positional()[2]);
    if (!platform.is_ok()) return fail(platform.status());
    ValidationReport mapping = platform::validate_mapping(*platform, *app);
    std::printf("PSM  %s: %s", cli.positional()[2].c_str(),
                mapping.to_string().c_str());
    ok = ok && mapping.ok();
  }
  return ok ? 0 : 1;
}

int cmd_matrix(const CommandLine& cli) {
  if (cli.positional().size() < 2) return usage();
  auto app = psdf::read_psdf_file(cli.positional()[1]);
  if (!app.is_ok()) return fail(app.status());
  psdf::CommMatrix matrix = psdf::CommMatrix::from_model(*app);
  std::printf("%s", matrix.render(*app).c_str());
  std::printf("\ntotal data items: %llu over %zu flows\n",
              static_cast<unsigned long long>(matrix.total()),
              app->flows().size());
  return 0;
}

int cmd_generate(const CommandLine& cli) {
  if (cli.positional().size() < 2) return usage();
  const std::string out_dir = cli.positional().back();
  const std::string which = cli.flag_or("app", "mp3");
  const auto segments =
      static_cast<std::uint32_t>(cli.int_flag_or("segments", 3));
  const auto package =
      static_cast<std::uint32_t>(cli.int_flag_or("package", 36));

  Result<psdf::PsdfModel> app = invalid_argument_error(
      "unknown --app '" + which + "' (expected mp3, jpeg or h263)");
  Result<platform::PlatformModel> platform = app.status();
  if (which == "mp3") {
    app = apps::mp3_decoder_psdf(package);
    if (app.is_ok()) {
      platform = apps::mp3_platform(*app, apps::mp3_allocation(segments),
                                    segments, package);
    }
  } else if (which == "jpeg") {
    app = apps::jpeg_encoder_psdf(package);
    if (app.is_ok()) {
      std::vector<std::uint32_t> allocation =
          segments == 2
              ? apps::jpeg_allocation_two_segments()
              : std::vector<std::uint32_t>(apps::kJpegProcesses, 0);
      platform = apps::jpeg_platform(*app, allocation,
                                     segments == 2 ? 2u : 1u, package);
    }
  } else if (which == "h263") {
    app = apps::h263_encoder_psdf(package);
    if (app.is_ok()) {
      const std::uint32_t n =
          segments == 2 ? 2u : segments >= 4 ? 4u : 1u;
      platform = apps::h263_platform(*app, apps::h263_allocation(n), n,
                                     package);
    }
  }
  if (!app.is_ok()) return fail(app.status());
  if (!platform.is_ok()) return fail(platform.status());

  std::filesystem::create_directories(out_dir);
  m2t::CodeEngineeringSet set(*app, *platform);
  if (Status status = set.write_to(out_dir); !status.is_ok()) {
    return fail(status);
  }
  std::printf("artifacts written to %s\n", out_dir.c_str());
  return 0;
}

int cmd_emulate(const CommandLine& cli) {
  if (cli.positional().size() < 3) return usage();
  obs::PhaseProfiler profiler;
  core::SessionConfig config;
  if (cli.bool_flag_or("reference", false)) {
    config.timing = emu::TimingModel::reference();
  }
  if (auto engine = cli.flag("engine")) {
    auto backend = emu::parse_engine_backend(*engine);
    if (!backend) {
      return fail(invalid_argument_error(
          "unknown --engine '" + *engine +
          "' (want reference | parallel | fast)"));
    }
    config.backend.backend = *backend;
  } else if (cli.bool_flag_or("parallel", false)) {
    // Legacy spelling of --engine parallel.
    config.backend.backend = emu::EngineBackend::kParallel;
  }
  if (config.backend.backend == emu::EngineBackend::kParallel) {
    config.backend.parallel_threads =
        static_cast<unsigned>(cli.int_flag_or("threads", 0));
  }
  config.engine.record_activity = cli.bool_flag_or("activity", false);
  const std::string vcd_path = cli.flag_or("vcd", "");
  const std::string telemetry_dir = cli.flag_or("telemetry", "");
  config.engine.record_trace = cli.bool_flag_or("trace", false) ||
                               !vcd_path.empty() || !telemetry_dir.empty();
  config.engine.record_metrics =
      cli.bool_flag_or("metrics", false) || !telemetry_dir.empty();

  auto parse_span = profiler.span("parse");
  auto session = core::EmulationSession::from_xml_files(
      cli.positional()[1], cli.positional()[2], config,
      static_cast<std::uint32_t>(cli.int_flag_or("package", 0)));
  parse_span.close();
  if (!session.is_ok()) return fail(session.status());
  if (!session->analysis().report.diagnostics.empty()) {
    std::fprintf(
        stderr, "static analysis:\n%s",
        analysis::render_text(session->analysis().report).c_str());
  }
  auto result = session->emulate(&profiler);
  if (!result.is_ok()) return fail(result.status());
  if (!result->completed) {
    return fail(internal_error("emulation hit the tick limit"));
  }
  auto report_span = profiler.span("report");

  if (!vcd_path.empty()) {
    if (Status status =
            emu::write_vcd_file(*result, session->platform(), vcd_path);
        !status.is_ok()) {
      return fail(status);
    }
    std::fprintf(stderr, "waveform written to %s\n", vcd_path.c_str());
  }
  if (cli.bool_flag_or("json", false)) {
    std::printf("%s",
                core::result_to_json(*result, session->platform())
                    .to_string(/*pretty=*/true)
                    .c_str());
    report_span.close();
    if (!telemetry_dir.empty()) {
      auto written =
          obs::export_telemetry(*result, session->platform(), &profiler,
                                telemetry_dir, "emulate");
      if (!written.is_ok()) return fail(written.status());
    }
    return 0;
  }
  std::printf("%s\n",
              core::render_summary(*result, session->platform()).c_str());
  std::printf("%s\n",
              core::render_paper_report(*result, session->platform())
                  .c_str());
  std::printf("%s\n",
              core::render_bu_analysis(*result, session->platform())
                  .c_str());
  std::printf("%s", core::render_timeline(*result).c_str());
  std::printf("\nper-flow latency:\n%s",
              core::render_flow_table(*result).c_str());
  std::printf("\nschedule stages:\n%s",
              core::render_stage_table(*result).c_str());
  if (auto advice = core::advise(session->application(),
                                 session->platform(), *result);
      advice.is_ok()) {
    std::printf("\nadvisor:\n%s", core::render_advice(*advice).c_str());
  }
  if (config.engine.record_activity) {
    std::printf("\n%s", core::render_activity(*result).c_str());
  }
  if (config.engine.record_trace) {
    auto max_events = static_cast<std::size_t>(
        cli.int_flag_or("trace-max", 200));
    std::printf("\nprotocol trace (%zu events):\n%s",
                result->trace.size(),
                emu::render_trace(result->trace, result->domain_names,
                                  max_events)
                    .c_str());
  }
  report_span.close();
  if (config.engine.record_metrics) {
    std::printf("\n%s", obs::render_telemetry_summary(*result, &profiler)
                            .c_str());
  }
  if (!telemetry_dir.empty()) {
    auto written = obs::export_telemetry(*result, session->platform(),
                                         &profiler, telemetry_dir, "emulate");
    if (!written.is_ok()) return fail(written.status());
    for (const std::string& path : *written) {
      std::fprintf(stderr, "telemetry written to %s\n", path.c_str());
    }
  }
  return 0;
}

int cmd_place(const CommandLine& cli) {
  if (cli.positional().size() < 2) return usage();
  auto app = psdf::read_psdf_file(cli.positional()[1]);
  if (!app.is_ok()) return fail(app.status());
  const auto segments =
      static_cast<std::uint32_t>(cli.int_flag_or("segments", 2));
  const std::string strategy = cli.flag_or("strategy", "anneal");
  psdf::CommMatrix matrix = psdf::CommMatrix::from_model(*app);
  place::CostModel cost;
  cost.package_size = app->package_size();

  Result<place::PlacementResult> result =
      invalid_argument_error("unknown --strategy '" + strategy +
                             "' (greedy|anneal|exhaustive)");
  if (strategy == "greedy") {
    result = place::greedy_place(matrix, segments, cost);
  } else if (strategy == "anneal") {
    place::AnnealOptions options;
    options.seed = static_cast<std::uint64_t>(cli.int_flag_or("seed", 1));
    options.iterations =
        static_cast<std::uint64_t>(cli.int_flag_or("iterations", 100000));
    result = place::anneal_place(matrix, segments, cost, options);
  } else if (strategy == "exhaustive") {
    result = place::exhaustive_place(matrix, segments, cost);
  }
  if (!result.is_ok()) return fail(result.status());
  std::printf("%s placement (cost %.0f, %llu evaluations):\n  %s\n",
              result->strategy.c_str(), result->cost,
              static_cast<unsigned long long>(result->evaluations),
              result->render(*app).c_str());
  return 0;
}

int cmd_analyze(const CommandLine& cli) {
  if (cli.positional().size() < 3) return usage();
  const auto package =
      static_cast<std::uint32_t>(cli.int_flag_or("package", 0));
  auto app = psdf::read_psdf_file(cli.positional()[1], package);
  if (!app.is_ok()) return fail(app.status());
  auto platform = platform::read_platform_file(cli.positional()[2]);
  if (!platform.is_ok()) return fail(platform.status());
  if (package != 0) {
    if (Status status = platform->set_package_size(package);
        !status.is_ok()) {
      return fail(status);
    }
  }
  const emu::TimingModel timing = cli.bool_flag_or("reference", false)
                                      ? emu::TimingModel::reference()
                                      : emu::TimingModel::emulator();
  auto bounds = analysis::compute_static_bounds(*app, *platform, timing);
  if (!bounds.is_ok()) return fail(bounds.status());
  std::printf("analytic lower bound: %s  (v1: %s)\n",
              format_us(bounds->lower).c_str(),
              format_us(bounds->lower_v1).c_str());
  std::printf("serialization upper : %s  (v1: %s)\n",
              format_us(bounds->upper).c_str(),
              format_us(bounds->upper_v1).c_str());
  std::printf("\nper-stage lower bound breakdown:\n");
  for (const analysis::StageBounds& stage : bounds->stages) {
    std::printf("  stage T=%u: %12s  (bound: %s)\n", stage.ordering,
                format_us(stage.lower).c_str(),
                stage.lower_binding.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto cli = CommandLine::parse(argc, argv);
  if (!cli.is_ok()) return fail(cli.status());
  if (cli->bool_flag_or("version", false)) {
    std::printf("%s\n", build_info_line().c_str());
    return 0;
  }
  if (cli->positional().empty()) return usage();
  const std::string& command = cli->positional()[0];
  if (command == "validate") return cmd_validate(*cli);
  if (command == "check") return tools::run_lint(*cli, 1);
  if (command == "matrix") return cmd_matrix(*cli);
  if (command == "generate") return cmd_generate(*cli);
  if (command == "emulate") return cmd_emulate(*cli);
  if (command == "place") return cmd_place(*cli);
  if (command == "search") return tools::run_search_cmd(*cli);
  if (command == "analyze") return cmd_analyze(*cli);
  if (command == "estimate") return tools::run_estimate_cmd(*cli);
  if (command == "serve") return tools::run_serve(*cli);
  if (command == "submit") return tools::run_submit(*cli);
  if (command == "stats") return tools::run_stats(*cli);
  if (command == "fuzz") return tools::run_fuzz(*cli);
  return usage();
}
