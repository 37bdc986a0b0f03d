// submit_hit — cache-served NDJSON submits over a unix socket.
//
// The seven paper MP3 schemes (1/2/3 segments x package 36/18, plus the
// E9 placement with P9 moved to segment 3) are submitted once cold during
// setup. Every timed op then resubmits one of them from a single client
// connection in a closed loop: half byte-identical resubmissions, half
// canonical-equivalent variants (process ids renamed, or the XML
// re-indented), so no engine runs and the op isolates protocol, XML,
// model build, analysis, fingerprint, cache, transport and client.
#include <unistd.h>

#include <algorithm>
#include <optional>

#include "analysis/analyzer.hpp"
#include "apps/mp3.hpp"
#include "core/fingerprint.hpp"
#include "core/session.hpp"
#include "harness.hpp"
#include "platform/platform_xml.hpp"
#include "psdf/psdf_xml.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace perfbench {
namespace {

using namespace segbus;

constexpr unsigned kWorkers = 2;
constexpr std::uint64_t kWarmupOps = 200;

struct Scheme {
  std::string psdf_xml;
  std::string psm_xml;
  std::string cold_report;  ///< report_json of the cold (missing) submit
  std::string digest;
};

std::vector<Scheme> build_schemes() {
  std::vector<Scheme> schemes;
  for (const std::uint32_t package : {apps::kPackage36, apps::kPackage18}) {
    const psdf::PsdfModel app =
        expect(apps::mp3_decoder_psdf(package), "mp3 psdf");
    std::vector<platform::PlatformModel> platforms;
    for (const std::uint32_t segments : {1u, 2u, 3u}) {
      platforms.push_back(expect(
          apps::mp3_platform(app, apps::mp3_allocation(segments), segments,
                             package),
          "mp3 platform"));
    }
    if (package == apps::kPackage36) {
      platforms.push_back(
          expect(apps::mp3_platform_p9_moved(app, package), "mp3 E9"));
    }
    const std::string psdf_xml = xml::write_document(psdf::to_xml(app));
    for (const platform::PlatformModel& platform : platforms) {
      schemes.push_back(
          {psdf_xml, xml::write_document(platform::to_xml(platform)), {}, {}});
    }
  }
  return schemes;
}

/// Renames every process id ("P3" -> "<prefix>3") in both documents;
/// process names are not part of the canonical digest.
void rename_processes(service::JobRequest& request, Xoshiro256& rng) {
  std::string prefix = "\"";
  for (int i = 0; i < 4; ++i) {
    prefix += static_cast<char>('A' + rng.next_below(26));
  }
  request.psdf_xml = replace_all(request.psdf_xml, "\"P", prefix);
  request.psm_xml = replace_all(request.psm_xml, "\"P", prefix);
}

/// Re-indents the documents and pads each empty-element close with a
/// seeded number of spaces; whitespace is not part of the digest.
std::string reformat(const std::string& text, Xoshiro256& rng) {
  const std::string indent(rng.next_below(7), ' ');
  std::string out;
  out.reserve(text.size() + text.size() / 8);
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') {
      out += '\n';
      out += indent;
      while (i + 1 < text.size() && text[i + 1] == ' ') ++i;
    } else if (text[i] == '/' && i + 1 < text.size() && text[i + 1] == '>') {
      out.append(rng.next_below(4), ' ');
      out += '/';
    } else {
      out += text[i];
    }
  }
  return out;
}

class SubmitHit final : public Workload {
 public:
  explicit SubmitHit(const RunSettings& settings)
      : settings_(settings),
        socket_path_(settings.out_dir + "/pb-" + std::to_string(::getpid()) +
                     ".sock") {}

  void setup() override {
    schemes_ = build_schemes();
    service::ServerConfig config;
    config.workers = kWorkers;
    config.default_backend.backend = emu::EngineBackend::kFast;
    service::ListenConfig listen;
    listen.unix_path = socket_path_;
    server_ = expect(service::SocketServer::start(config, listen),
                     "start socket server");
    client_.emplace(
        expect(service::Client::connect_unix(socket_path_), "connect"));
    for (std::size_t s = 0; s < schemes_.size(); ++s) {
      service::JobRequest request;
      request.id = "cold-" + std::to_string(s);
      request.psdf_xml = schemes_[s].psdf_xml;
      request.psm_xml = schemes_[s].psm_xml;
      const service::JobResponse response =
          expect(client_->call(request), "cold submit");
      if (!response.ok || response.cache_hit) {
        throw std::runtime_error("cold submit " + request.id +
                                 " did not run: " + response.error_message);
      }
      schemes_[s].cold_report = response.report_json;
      schemes_[s].digest = response.digest;
    }
    for (std::uint64_t k = 0; k < kWarmupOps; ++k) {
      if (!attempt(kWarmupSeed, k)) {
        throw std::runtime_error("warm-up submit failed");
      }
    }
    traced_before_.reset();
    traced_latency_ms_ = 0.0;
    transport_ms_ = 0.0;
  }

  void teardown() override {
    client_.reset();
    if (server_) server_->shutdown(false);
    server_.reset();
  }

  bool run_op(std::uint64_t index) override {
    return attempt(settings_.seed, index);
  }

  double trace_op(std::uint64_t index, Layers& layers) override {
    if (!traced_before_) {
      traced_before_ = ServerCounters::of(server_->jobs());
    }
    std::size_t scheme = 0;
    service::JobRequest request = make_request(settings_.seed, index, scheme);
    request.trace = true;
    request.trace_id = obs::TraceId::generate().to_hex();

    // The op itself, split at the client's codec calls.
    const double staged_before = layers.all_layers_ms();
    const std::uint64_t start_us = layers.tracer().now_us();
    const Clock::time_point start = Clock::now();
    const std::string line = layers.time("service.protocol_ms", [&] {
      return service::encode_request(request);
    });
    const Result<std::string> raw = client_->call_raw(line);
    if (!raw.is_ok()) return -1.0;
    const Result<service::JobResponse> response =
        layers.time("service.client_parse_ms",
                    [&] { return service::parse_response(*raw); });
    const double latency = ms_between(start, Clock::now());
    if (!response.is_ok() || !matches(*response, scheme)) return -1.0;
    fold_server_spans(*response, layers, start_us);

    // The server's stages for the same request, replayed as direct calls.
    layers.time("service.protocol_ms", [&] {
      return expect(service::parse_request(line), "parse request");
    });
    const xml::Document psdf_doc = layers.time("xml.parse_ms", [&] {
      return expect(xml::parse_document(request.psdf_xml), "parse psdf");
    });
    const xml::Document psm_doc = layers.time("xml.parse_ms", [&] {
      return expect(xml::parse_document(request.psm_xml), "parse psm");
    });
    const psdf::PsdfModel app = layers.time("model.from_xml_ms", [&] {
      return expect(psdf::from_xml(psdf_doc), "psdf from_xml");
    });
    const platform::PlatformModel platform =
        layers.time("model.from_xml_ms", [&] {
          return expect(platform::from_xml(psm_doc), "psm from_xml");
        });
    core::SessionConfig config;
    config.backend.backend = emu::EngineBackend::kFast;
    config.engine.max_ticks_per_domain = service::ServerConfig{}.max_ticks;
    analysis::AnalyzerOptions options;
    options.include_bounds = false;
    options.timing = config.timing;
    options.severity_overrides.emplace("SB050", Severity::kWarning);
    layers.time("analysis.analyze_ms", [&] {
      return analysis::analyze_system(app, platform, options);
    });
    const std::string digest = layers.time("core.digest_ms", [&] {
      return expect(core::scheme_digest(app, platform, config), "digest");
    });
    if (digest != schemes_[scheme].digest) return -1.0;
    layers.time("service.protocol_ms",
                [&] { return service::encode_response(*response); });

    // What no staged call accounts for: socket I/O and queue hand-offs.
    const double staged = layers.all_layers_ms() - staged_before;
    const double transport = std::max(0.0, latency - staged);
    layers.add("service.transport_ms", transport, start_us);
    traced_latency_ms_ += latency;
    transport_ms_ += transport;
    return latency;
  }

  void finish_trace(Layers& layers, double wall_ms) override {
    if (traced_before_) {
      record_server(layers, *traced_before_,
                    ServerCounters::of(server_->jobs()), kWorkers, wall_ms);
    }
    // The replay decomposes the op serially, so its remainder is the
    // share of op latency no layer accounts for.
    layers.set("obs.unaccounted_share",
               traced_latency_ms_ > 0.0 ? transport_ms_ / traced_latency_ms_
                                        : 0.0);
  }

 private:
  bool attempt(std::uint64_t seed, std::uint64_t index) {
    std::size_t scheme = 0;
    const service::JobRequest request = make_request(seed, index, scheme);
    const Result<service::JobResponse> response = client_->call(request);
    return response.is_ok() && matches(*response, scheme);
  }

  /// Op `index` of the sequence `seed` draws: which scheme, and whether it
  /// is resubmitted byte-identical, renamed, or re-formatted.
  service::JobRequest make_request(std::uint64_t seed, std::uint64_t index,
                                   std::size_t& scheme) const {
    Xoshiro256 rng(derive_seed(seed, index));
    scheme = static_cast<std::size_t>(rng.next_below(schemes_.size()));
    service::JobRequest request;
    request.id = std::to_string(index);
    request.psdf_xml = schemes_[scheme].psdf_xml;
    request.psm_xml = schemes_[scheme].psm_xml;
    switch (rng.next_below(4)) {
      case 0:
        rename_processes(request, rng);
        break;
      case 1:
        request.psdf_xml = reformat(request.psdf_xml, rng);
        request.psm_xml = reformat(request.psm_xml, rng);
        break;
      default:  // byte-identical resubmission (half of the ops)
        break;
    }
    return request;
  }

  /// A hit must be served from the cache with the cold report's bytes.
  bool matches(const service::JobResponse& response,
               std::size_t scheme) const {
    return response.ok && response.cache_hit &&
           response.digest == schemes_[scheme].digest &&
           response.report_json == schemes_[scheme].cold_report;
  }

  /// Re-roots the server's span tree under the op span, shifted onto the
  /// benchmark tracer's clock at the moment the request was sent.
  static void fold_server_spans(const service::JobResponse& response,
                                Layers& layers, std::uint64_t sent_us) {
    if (response.trace_json.empty()) return;
    const Result<JsonValue> doc = JsonValue::parse(response.trace_json);
    if (!doc.is_ok()) return;
    Result<std::vector<obs::SpanRecord>> spans =
        obs::span_records_from_json(*doc);
    if (!spans.is_ok() || spans->empty()) return;
    std::uint64_t earliest = spans->front().start_us;
    for (const obs::SpanRecord& span : *spans) {
      earliest = std::min(earliest, span.start_us);
    }
    // Server span ids come from another tracer: tag them apart.
    constexpr std::uint64_t kServerSpan = std::uint64_t{1} << 62;
    const obs::SpanContext op = layers.op_span().context();
    for (obs::SpanRecord& span : *spans) {
      span.start_us = span.start_us - earliest + sent_us;
      span.trace = op.trace;
      span.span_id |= kServerSpan;
      span.parent_id =
          span.parent_id == 0 ? op.span_id : span.parent_id | kServerSpan;
    }
    layers.fold(std::move(*spans));
  }

  const RunSettings settings_;
  const std::string socket_path_;
  std::vector<Scheme> schemes_;
  std::unique_ptr<service::SocketServer> server_;
  std::optional<service::Client> client_;
  std::optional<ServerCounters> traced_before_;
  double traced_latency_ms_ = 0.0;
  double transport_ms_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_submit_hit(const RunSettings& settings) {
  return std::make_unique<SubmitHit>(settings);
}

}  // namespace perfbench
