#include "stoch/service.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "core/fingerprint.hpp"
#include "platform/platform_xml.hpp"
#include "psdf/modes.hpp"
#include "psdf/psdf_xml.hpp"
#include "stoch/estimator.hpp"
#include "xml/parser.hpp"

namespace segbus::stoch {

namespace {

Result<service::JobResponse> run_estimate_request(
    const service::JobRequest& request, service::JobServer& server,
    obs::Span& span) {
  SEGBUS_ASSIGN_OR_RETURN(xml::Document psdf_doc,
                          xml::parse_document(request.psdf_xml));
  SEGBUS_ASSIGN_OR_RETURN(psdf::PsdfModel application,
                          psdf::from_xml(psdf_doc));
  SEGBUS_ASSIGN_OR_RETURN(xml::Document psm_doc,
                          xml::parse_document(request.psm_xml));
  SEGBUS_ASSIGN_OR_RETURN(platform::PlatformModel platform,
                          platform::from_xml(psm_doc));
  if (request.package_size != 0) {
    SEGBUS_RETURN_IF_ERROR(application.set_package_size(request.package_size));
    SEGBUS_RETURN_IF_ERROR(platform.set_package_size(request.package_size));
  }

  const service::EstimateParams& params = request.estimate;
  EstimatorOptions options;
  SEGBUS_ASSIGN_OR_RETURN(options.spec.compute_scale,
                          Distribution::parse(params.compute));
  SEGBUS_ASSIGN_OR_RETURN(options.spec.items_scale,
                          Distribution::parse(params.items));
  options.seed = params.seed;
  options.min_replications = params.min_replications;
  options.max_replications = params.max_replications;
  options.round_replications = params.round_replications;
  options.confidence = params.confidence;
  options.target_relative_half_width = params.target_relative_half_width;
  options.reference_timing = request.reference_timing;
  options.engine = request.engine;
  // Mirror submit semantics: a request may lower the tick budget, never
  // raise it past the serving configuration.
  options.max_ticks = server.config().max_ticks;
  if (request.max_ticks != 0) {
    options.max_ticks = std::min(options.max_ticks, request.max_ticks);
  }

  psdf::ModeTable mode_table;
  if (!params.modes_xml.empty()) {
    SEGBUS_ASSIGN_OR_RETURN(mode_table,
                            psdf::modes_from_xml(params.modes_xml));
    options.mode_table = &mode_table;
    options.mode_schedule = mode_table.generate_schedule(
        params.seed, std::max<std::uint32_t>(1, params.schedule_length));
  }

  // Replications fan out through an inner server sized from the serving
  // pool (see the header comment for why not the serving pool itself).
  service::ServerConfig inner_config;
  inner_config.workers = std::max(1u, server.config().workers);
  inner_config.queue_depth = server.config().queue_depth;
  inner_config.max_ticks = server.config().max_ticks;
  inner_config.default_backend = server.config().default_backend;
  service::JobServer inner(inner_config);

  obs::Span run_span = span.child("estimate/run");
  Estimator estimator(inner);
  SEGBUS_ASSIGN_OR_RETURN(Estimate estimate,
                          estimator.run(application, platform, options));
  run_span.set_attribute(
      "replications",
      static_cast<std::uint64_t>(estimate.replications.size()));
  run_span.set_attribute("unique_runs", estimate.unique_runs);

  server.count_estimate("emulated", estimate.unique_runs);
  server.count_estimate("deduplicated",
                        estimate.replications.size() - estimate.unique_runs);

  service::JobResponse response;
  response.id = request.id;
  response.ok = true;
  response.report_json = estimate.to_json().to_string();
  response.execution_time = Picoseconds(
      static_cast<std::int64_t>(std::llround(estimate.mean_ps)));
  // Fingerprint the *base* scheme so a degenerate estimate and a plain
  // submit of the same scheme answer the same digest.
  core::SessionConfig digest_config;
  digest_config.timing = request.reference_timing
                             ? emu::TimingModel::reference()
                             : emu::TimingModel::emulator();
  // Same tick-budget resolution as run_submit, so the digests line up.
  digest_config.engine.max_ticks_per_domain =
      request.max_ticks != 0
          ? std::min(request.max_ticks, server.config().max_ticks)
          : server.config().max_ticks;
  if (Result<std::string> digest =
          core::scheme_digest(application, platform, digest_config);
      digest.is_ok()) {
    response.digest = std::move(digest).value();
  }
  return response;
}

}  // namespace

service::JobResponse service_estimate_handler(
    const service::JobRequest& request, service::JobServer& server,
    obs::Span& span) {
  Result<service::JobResponse> result =
      run_estimate_request(request, server, span);
  if (result.is_ok()) return std::move(result).value();
  const Status& status = result.status();
  const std::string code =
      status.code() == StatusCode::kInvalidArgument ||
              status.code() == StatusCode::kParseError ||
              status.code() == StatusCode::kValidationError
          ? "validation"
          : "internal";
  return service::JobResponse::failure(request.id, code,
                                       std::string(status.message()));
}

}  // namespace segbus::stoch
