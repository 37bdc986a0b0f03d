// Estimation service: result cache semantics (LRU, counters), job-server
// admission control (backpressure, drain, deadline, tick budget), the
// NDJSON wire protocol, and the socket front end under concurrent clients
// (the suite runs under ASan and TSan in CI — this is the service smoke).
#include "service/server.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apps/mp3.hpp"
#include "core/json_export.hpp"
#include "core/session.hpp"
#include "platform/platform_xml.hpp"
#include "psdf/psdf_xml.hpp"
#include "service/client.hpp"
#include "support/strings.hpp"
#include "xml/writer.hpp"

namespace segbus {
namespace {

// --- result cache -----------------------------------------------------------

service::CachedResult entry(const std::string& digest,
                            const std::string& payload = "{}") {
  service::CachedResult result;
  result.digest = digest;
  result.report_json = payload;
  result.execution_time = Picoseconds(42);
  return result;
}

TEST(ResultCache, HitMissAndCounters) {
  service::ResultCache cache(4);
  EXPECT_FALSE(cache.lookup("a").has_value());
  cache.insert(entry("a", "{\"v\":1}"));
  auto hit = cache.lookup("a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->report_json, "{\"v\":1}");
  EXPECT_EQ(hit->execution_time.count(), 42);
  const service::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(ResultCache, LruEvictionOrder) {
  service::ResultCache cache(2);
  cache.insert(entry("a"));
  cache.insert(entry("b"));
  ASSERT_TRUE(cache.lookup("a").has_value());  // refreshes a
  cache.insert(entry("c"));                    // evicts b, not a
  EXPECT_TRUE(cache.lookup("a").has_value());
  EXPECT_FALSE(cache.lookup("b").has_value());
  EXPECT_TRUE(cache.lookup("c").has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(ResultCache, ByteBoundEvictsButKeepsAtLeastOne) {
  service::ResultCache cache(16, /*max_bytes=*/64);
  cache.insert(entry("a", std::string(60, 'x')));
  cache.insert(entry("b", std::string(60, 'y')));  // over budget -> a goes
  EXPECT_FALSE(cache.lookup("a").has_value());
  EXPECT_TRUE(cache.lookup("b").has_value());
  // A single oversized entry stays resident (the cache never thrashes to
  // empty).
  cache.insert(entry("huge", std::string(500, 'z')));
  EXPECT_TRUE(cache.lookup("huge").has_value());
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ResultCache, ReinsertUpdatesPayload) {
  service::ResultCache cache(4);
  cache.insert(entry("a", "{\"v\":1}"));
  cache.insert(entry("a", "{\"v\":2}"));
  auto hit = cache.lookup("a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->report_json, "{\"v\":2}");
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ResultCache, ExportedMetricsMatchStats) {
  service::ResultCache cache(2);
  cache.insert(entry("a"));
  (void)cache.lookup("a");
  (void)cache.lookup("nope");
  obs::MetricsRegistry registry;
  cache.export_metrics(registry);
  const obs::Metric* hits =
      registry.find("segbus_service_cache_hits_total");
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(hits->counter_value, 1u);
  const obs::Metric* misses =
      registry.find("segbus_service_cache_misses_total");
  ASSERT_NE(misses, nullptr);
  EXPECT_EQ(misses->counter_value, 1u);
  const obs::Metric* entries =
      registry.find("segbus_service_cache_entries");
  ASSERT_NE(entries, nullptr);
  EXPECT_DOUBLE_EQ(entries->gauge_value, 1.0);
}

// --- protocol ---------------------------------------------------------------

TEST(Protocol, RequestRoundTrip) {
  service::JobRequest request;
  request.id = "job-1";
  request.psdf_xml = "<a attr=\"v\">text\n</a>";
  request.psm_xml = "<b/>";
  request.package_size = 36;
  request.reference_timing = true;
  request.engine = "parallel";
  request.max_ticks = 777;
  auto parsed = service::parse_request(service::encode_request(request));
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->id, "job-1");
  EXPECT_EQ(parsed->kind, "submit");
  EXPECT_EQ(parsed->psdf_xml, request.psdf_xml);
  EXPECT_EQ(parsed->psm_xml, request.psm_xml);
  EXPECT_EQ(parsed->package_size, 36u);
  EXPECT_TRUE(parsed->reference_timing);
  EXPECT_EQ(parsed->engine, "parallel");
  EXPECT_EQ(parsed->max_ticks, 777u);
}

TEST(Protocol, ResponseRoundTripPreservesReportBytes) {
  service::JobResponse response;
  response.id = "job-1";
  response.ok = true;
  response.digest = "abc";
  response.report_json = "{\"total_execution_ps\":489792303,\"x\":[1,2]}";
  response.execution_time = Picoseconds(489792303);
  const std::string line = service::encode_response(response);
  auto parsed = service::parse_response(line);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_TRUE(parsed->ok);
  EXPECT_EQ(parsed->report_json, response.report_json);  // bit-identical
  EXPECT_EQ(parsed->execution_time.count(), 489792303);
}

TEST(Protocol, LegacyParallelFieldIsFlaggedForRejection) {
  // Pre-engine clients sent {"parallel": true}. The alias is gone: the
  // parser still accepts the document (so the server can answer with a
  // diagnostic instead of a parse error) but records the violation
  // instead of selecting a backend.
  auto parsed = service::parse_request(
      "{\"id\":\"x\",\"kind\":\"submit\",\"psdf_xml\":\"<a/>\","
      "\"psm_xml\":\"<b/>\",\"parallel\":true}");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_TRUE(parsed->legacy_parallel);
  EXPECT_EQ(parsed->engine, "");

  // Even alongside an explicit engine the stale key is still flagged —
  // the client must drop it, not rely on precedence.
  auto both = service::parse_request(
      "{\"id\":\"x\",\"kind\":\"submit\",\"psdf_xml\":\"<a/>\","
      "\"psm_xml\":\"<b/>\",\"parallel\":true,\"engine\":\"fast\"}");
  ASSERT_TRUE(both.is_ok());
  EXPECT_TRUE(both->legacy_parallel);
  EXPECT_EQ(both->engine, "fast");

  // {"parallel": false} is equally stale; the field itself is what the
  // server diagnoses.
  auto off = service::parse_request(
      "{\"id\":\"x\",\"kind\":\"submit\",\"psdf_xml\":\"<a/>\","
      "\"psm_xml\":\"<b/>\",\"parallel\":false}");
  ASSERT_TRUE(off.is_ok());
  EXPECT_TRUE(off->legacy_parallel);
}

TEST(Protocol, MalformedRequestsAreRejected) {
  EXPECT_FALSE(service::parse_request("not json").is_ok());
  EXPECT_FALSE(service::parse_request("[1,2]").is_ok());
  EXPECT_FALSE(service::parse_request("{\"kind\":\"nope\"}").is_ok());
  // submit without documents
  EXPECT_FALSE(service::parse_request("{\"id\":\"x\"}").is_ok());
}

// --- job server -------------------------------------------------------------

service::ServerConfig make_config(unsigned workers,
                                  std::size_t queue_depth = 16) {
  service::ServerConfig config;
  config.workers = workers;
  config.queue_depth = queue_depth;
  return config;
}

service::ListenConfig unix_listen(const std::string& path) {
  service::ListenConfig listen;
  listen.unix_path = path;
  return listen;
}

struct SchemeXml {
  std::string psdf;
  std::string psm;
};

SchemeXml mp3_scheme(std::uint32_t segments) {
  auto app = apps::mp3_decoder_psdf();
  EXPECT_TRUE(app.is_ok());
  auto platform = apps::mp3_platform(*app, apps::mp3_allocation(segments),
                                     segments, app->package_size());
  EXPECT_TRUE(platform.is_ok());
  return {xml::write_document(psdf::to_xml(*app)),
          xml::write_document(platform::to_xml(*platform))};
}

service::JobRequest submit_request(const SchemeXml& scheme,
                                   std::string id = "job") {
  service::JobRequest request;
  request.id = std::move(id);
  request.psdf_xml = scheme.psdf;
  request.psm_xml = scheme.psm;
  return request;
}

/// The report the server must reproduce bit-identically: a direct
/// EmulationSession run serialized with the same writer.
std::string direct_report(std::uint32_t segments) {
  auto app = apps::mp3_decoder_psdf();
  EXPECT_TRUE(app.is_ok());
  auto platform = apps::mp3_platform(*app, apps::mp3_allocation(segments),
                                     segments, app->package_size());
  EXPECT_TRUE(platform.is_ok());
  auto session = core::EmulationSession::from_models(*app, *platform);
  EXPECT_TRUE(session.is_ok());
  auto result = session->emulate();
  EXPECT_TRUE(result.is_ok());
  return core::result_to_json(*result, session->platform()).to_string();
}

TEST(JobServer, SecondSubmissionIsServedFromTheCache) {
  service::JobServer server(make_config(2));
  const SchemeXml scheme = mp3_scheme(2);

  service::JobResponse first = server.submit(submit_request(scheme, "a"));
  ASSERT_TRUE(first.ok) << first.error_message;
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.digest.size(), 64u);
  EXPECT_EQ(server.cache_stats().hits, 0u);

  service::JobResponse second = server.submit(submit_request(scheme, "b"));
  ASSERT_TRUE(second.ok) << second.error_message;
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.digest, first.digest);
  EXPECT_EQ(second.report_json, first.report_json);
  EXPECT_EQ(second.execution_time.count(), first.execution_time.count());
  EXPECT_EQ(server.cache_stats().hits, 1u);
  EXPECT_EQ(server.cache_stats().misses, 1u);
}

TEST(JobServer, ReportsAreBitIdenticalToDirectRuns) {
  service::JobServer server(make_config(2));
  for (std::uint32_t segments : {1u, 2u, 3u}) {
    service::JobResponse response = server.submit(
        submit_request(mp3_scheme(segments),
                       str_format("seg%u", segments)));
    ASSERT_TRUE(response.ok) << response.error_message;
    EXPECT_EQ(response.report_json, direct_report(segments))
        << segments << " segments";
  }
}

TEST(JobServer, CacheHitsAcrossEngineBackends) {
  // The scheme fingerprint excludes the engine backend (all backends are
  // bit-identical), so a result computed by one backend must serve
  // submissions that ask for another.
  service::JobServer server(make_config(2));
  const SchemeXml scheme = mp3_scheme(2);

  service::JobRequest reference = submit_request(scheme, "ref");
  reference.engine = "reference";
  service::JobResponse first = server.submit(std::move(reference));
  ASSERT_TRUE(first.ok) << first.error_message;
  EXPECT_FALSE(first.cache_hit);

  service::JobRequest fast = submit_request(scheme, "fast");
  fast.engine = "fast";
  service::JobResponse second = server.submit(std::move(fast));
  ASSERT_TRUE(second.ok) << second.error_message;
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.digest, first.digest);
  EXPECT_EQ(second.report_json, first.report_json);

  service::JobRequest parallel = submit_request(scheme, "par");
  parallel.engine = "parallel";
  service::JobResponse third = server.submit(std::move(parallel));
  ASSERT_TRUE(third.ok) << third.error_message;
  EXPECT_TRUE(third.cache_hit);
  EXPECT_EQ(third.digest, first.digest);
}

TEST(JobServer, FastEngineRunsProduceTheReferenceReport) {
  service::JobServer server(make_config(1));
  service::JobRequest request = submit_request(mp3_scheme(3), "fast3");
  request.engine = "fast";
  service::JobResponse response = server.submit(std::move(request));
  ASSERT_TRUE(response.ok) << response.error_message;
  EXPECT_EQ(response.report_json, direct_report(3));
}

TEST(JobServer, LegacyParallelRequestsAreRejectedWithGuidance) {
  service::JobServer server(make_config(1));
  service::JobRequest request = submit_request(mp3_scheme(2), "stale");
  request.legacy_parallel = true;
  service::JobResponse response = server.submit(std::move(request));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error_code, "validation");
  // The diagnostic must point the stale client at the replacement field.
  EXPECT_NE(response.error_message.find("\"engine\""), std::string::npos)
      << response.error_message;
}

TEST(JobServer, UnknownEngineIsRejectedBeforeRunning) {
  service::JobServer server(make_config(1));
  service::JobRequest request = submit_request(mp3_scheme(2), "warp");
  request.engine = "warp";
  service::JobResponse response = server.submit(std::move(request));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error_code, "validation");
  JsonValue stats = server.stats_json();
  EXPECT_EQ(stats.get("engine").as_string(), "reference");
}

TEST(JobServer, ValidationFailureIsReported) {
  service::JobServer server(make_config(1));
  service::JobRequest request;
  request.id = "bad";
  request.psdf_xml = "<not-a-psdf/>";
  request.psm_xml = "<not-a-psm/>";
  service::JobResponse response = server.submit(std::move(request));
  EXPECT_FALSE(response.ok);
  EXPECT_TRUE(response.error_code == "parse" ||
              response.error_code == "validation")
      << response.error_code;
}

TEST(JobServer, TickBudgetCancelsRunawayJobs) {
  service::JobServer server(make_config(1));
  service::JobRequest request = submit_request(mp3_scheme(2), "tiny");
  request.max_ticks = 16;  // far below the ~46k ticks MP3 needs
  service::JobResponse response = server.submit(std::move(request));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error_code, "tick-limit");
}

TEST(JobServer, FullQueueAnswersBackpressureImmediately) {
  // One worker blocked on a latch + a queue of depth 1 already holding a
  // job => the third submission must be rejected, not block forever.
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> started{0};
  service::ServerConfig config;
  config.workers = 1;
  config.queue_depth = 1;
  config.before_job_hook = [&](const service::JobRequest&) {
    started.fetch_add(1);
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return release; });
  };
  service::JobServer server(std::move(config));

  auto ping = [](std::string id) {
    service::JobRequest request;
    request.id = std::move(id);
    request.kind = "ping";
    return request;
  };
  std::thread first([&] {
    service::JobResponse r = server.submit(ping("in-flight"));
    EXPECT_TRUE(r.ok);
  });
  while (started.load() == 0) std::this_thread::yield();
  std::thread second([&] {
    service::JobResponse r = server.submit(ping("queued"));
    EXPECT_TRUE(r.ok);
  });
  // Wait until the second job is actually queued.
  while (true) {
    JsonValue stats = server.stats_json();
    if (stats.get("queue").get("depth").as_uint64() >= 1) break;
    std::this_thread::yield();
  }

  service::JobResponse rejected = server.submit(ping("overflow"));
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.error_code, "backpressure");

  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  first.join();
  second.join();
  JsonValue stats = server.stats_json();
  EXPECT_EQ(stats.get("jobs").get("rejected_backpressure").as_uint64(), 1u);
}

TEST(JobServer, DrainingRejectsNewJobs) {
  service::JobServer server(make_config(1));
  server.begin_drain();
  EXPECT_TRUE(server.draining());
  service::JobRequest request;
  request.id = "late";
  request.kind = "ping";
  service::JobResponse response = server.submit(std::move(request));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error_code, "draining");
}

TEST(JobServer, StopDrainsInFlightWork) {
  service::JobServer server(make_config(2));
  std::vector<std::thread> clients;
  std::atomic<int> completed{0};
  const SchemeXml scheme = mp3_scheme(1);
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&, i] {
      service::JobResponse r =
          server.submit(submit_request(scheme, str_format("d%d", i)));
      if (r.ok) completed.fetch_add(1);
    });
  }
  for (std::thread& t : clients) t.join();
  server.stop(/*drain=*/true);
  EXPECT_EQ(completed.load(), 4);
  // Idempotent.
  server.stop(true);
  server.stop(false);
}

TEST(JobServer, MetricsSnapshotCoversJobsAndCache) {
  service::JobServer server(make_config(1));
  const SchemeXml scheme = mp3_scheme(1);
  ASSERT_TRUE(server.submit(submit_request(scheme, "m1")).ok);
  ASSERT_TRUE(server.submit(submit_request(scheme, "m2")).ok);
  obs::MetricsRegistry snapshot = server.metrics_snapshot();
  const obs::Metric* completed = snapshot.find(
      "segbus_service_jobs_total", {{"outcome", "completed"}});
  ASSERT_NE(completed, nullptr);
  EXPECT_EQ(completed->counter_value, 1u);
  const obs::Metric* hits = snapshot.find(
      "segbus_service_jobs_total", {{"outcome", "cache_hit"}});
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(hits->counter_value, 1u);
  EXPECT_EQ(snapshot.family_count("segbus_service_cache_hits_total"), 1u);
  EXPECT_EQ(snapshot.family_count("segbus_service_run_ms"), 2u);
}

// --- socket front end -------------------------------------------------------

class SocketServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/segbus_svc_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    socket_path_ = dir_ + "/s.sock";
  }
  void TearDown() override {
    ::unlink(socket_path_.c_str());
    ::rmdir(dir_.c_str());
  }
  std::string dir_;
  std::string socket_path_;
};

TEST_F(SocketServerTest, ConcurrentClientsAcrossSegmentCounts) {
  service::ServerConfig config;
  config.workers = 2;
  config.queue_depth = 32;
  service::ListenConfig listen;
  listen.unix_path = socket_path_;
  auto server = service::SocketServer::start(config, listen);
  ASSERT_TRUE(server.is_ok()) << server.status().to_string();

  const std::string expected[] = {direct_report(1), direct_report(2),
                                  direct_report(3)};
  const SchemeXml schemes[] = {mp3_scheme(1), mp3_scheme(2), mp3_scheme(3)};

  // 4 clients x 2 rounds x 3 schemes: every response must be bit-identical
  // to the direct run; the second round is fully cache-served.
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      auto client = service::Client::connect_unix(socket_path_);
      if (!client.is_ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int round = 0; round < 2; ++round) {
        for (int s = 0; s < 3; ++s) {
          auto response = client->call(submit_request(
              schemes[s], str_format("c%d-r%d-s%d", c, round, s + 1)));
          if (!response.is_ok() || !response->ok ||
              response->report_json != expected[s]) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  const service::CacheStats stats = (*server)->jobs().cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, 24u);  // 4 clients x 6 submissions
  EXPECT_EQ(stats.entries, 3u);
  // Round 2 (12 submissions) is guaranteed cache-served; round-1 misses
  // can race (concurrent first submissions of the same scheme both miss).
  EXPECT_GE(stats.hits, 12u);
  EXPECT_LE(stats.misses, 12u);
  (*server)->shutdown(/*drain=*/true);
}

TEST_F(SocketServerTest, PingStatsAndParseErrorsOverTheWire) {
  auto server = service::SocketServer::start(make_config(1),
                                             unix_listen(socket_path_));
  ASSERT_TRUE(server.is_ok()) << server.status().to_string();
  auto client = service::Client::connect_unix(socket_path_);
  ASSERT_TRUE(client.is_ok());

  service::JobRequest ping;
  ping.id = "p";
  ping.kind = "ping";
  auto pong = client->call(ping);
  ASSERT_TRUE(pong.is_ok());
  EXPECT_TRUE(pong->ok);
  EXPECT_EQ(pong->id, "p");

  service::JobRequest stats;
  stats.id = "s";
  stats.kind = "stats";
  auto answer = client->call(stats);
  ASSERT_TRUE(answer.is_ok());
  ASSERT_TRUE(answer->ok);
  auto doc = JsonValue::parse(answer->report_json);
  ASSERT_TRUE(doc.is_ok());
  EXPECT_EQ(doc->get("queue").get("capacity").as_uint64(), 16u);

  auto garbage = client->call_raw("this is not json");
  ASSERT_TRUE(garbage.is_ok());
  auto parsed = service::parse_response(*garbage);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_FALSE(parsed->ok);
  EXPECT_EQ(parsed->error_code, "parse");
}

TEST_F(SocketServerTest, DeeplyNestedSchemeIsAParseErrorOverTheWire) {
  auto server = service::SocketServer::start(make_config(1),
                                             unix_listen(socket_path_));
  ASSERT_TRUE(server.is_ok()) << server.status().to_string();
  auto client = service::Client::connect_unix(socket_path_);
  ASSERT_TRUE(client.is_ok());

  const SchemeXml scheme = mp3_scheme(2);
  SchemeXml deep = scheme;
  deep.psdf.clear();
  constexpr int kLevels = 200'000;
  for (int i = 0; i < kLevels; ++i) deep.psdf += "<a>";
  for (int i = 0; i < kLevels; ++i) deep.psdf += "</a>";
  auto rejected = client->call(submit_request(deep, "deep"));
  ASSERT_TRUE(rejected.is_ok()) << rejected.status().to_string();
  EXPECT_FALSE(rejected->ok);
  EXPECT_EQ(rejected->error_code, "parse");
  EXPECT_NE(rejected->error_message.find("nested deeper than 1024"),
            std::string::npos)
      << rejected->error_message;

  // The server survives and keeps serving on the same connection.
  service::JobRequest ping;
  ping.id = "p";
  ping.kind = "ping";
  auto pong = client->call(ping);
  ASSERT_TRUE(pong.is_ok());
  EXPECT_TRUE(pong->ok);
  auto submitted = client->call(submit_request(scheme, "mp3"));
  ASSERT_TRUE(submitted.is_ok());
  ASSERT_TRUE(submitted->ok) << submitted->error_message;
  EXPECT_EQ(submitted->report_json, direct_report(2));
}

TEST_F(SocketServerTest, TcpLoopbackWhenPermitted) {
  service::ListenConfig listen;
  listen.tcp = true;
  auto server = service::SocketServer::start(make_config(1), listen);
  if (!server.is_ok()) {
    GTEST_SKIP() << "TCP loopback unavailable: "
                 << server.status().to_string();
  }
  ASSERT_NE((*server)->tcp_port(), 0);
  auto client = service::Client::connect_tcp((*server)->tcp_port());
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  service::JobRequest ping;
  ping.id = "tcp";
  ping.kind = "ping";
  auto pong = client->call(ping);
  ASSERT_TRUE(pong.is_ok());
  EXPECT_TRUE(pong->ok);
}

TEST_F(SocketServerTest, ShutdownWithoutDrainClosesClients) {
  auto server = service::SocketServer::start(make_config(1),
                                             unix_listen(socket_path_));
  ASSERT_TRUE(server.is_ok());
  auto client = service::Client::connect_unix(socket_path_);
  ASSERT_TRUE(client.is_ok());
  (*server)->shutdown(/*drain=*/false);
  // The connection is gone; the next call must fail, not hang.
  service::JobRequest ping;
  ping.id = "late";
  ping.kind = "ping";
  EXPECT_FALSE(client->call(ping).is_ok());
}

}  // namespace
}  // namespace segbus
