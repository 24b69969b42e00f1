// Live introspection: query-id allocation and scoping, the recent-query
// log, structured profile JSON, the embedded HTTP exporter (routing table,
// seeded request mutations, a live socket round-trip, and no client
// stalling another), and the engine-level contracts — lineage
// entries match AdaptiveOutcome run counts exactly, error paths leave a
// metric trail, and introspection never perturbs query results.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "exec/compare.h"
#include "mutate.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/resource_tracker.h"
#include "plan/builder.h"
#include "profile/profile_json.h"
#include "sched/morsel_scheduler.h"
#include "workload/tpch.h"

namespace apq {
namespace {

// ---- query ids --------------------------------------------------------------

TEST(QueryIdTest, IdsAreMonotonicAndNeverZero) {
  const uint64_t a = obs::NextQueryId();
  const uint64_t b = obs::NextQueryId();
  EXPECT_GT(a, 0u);
  EXPECT_GT(b, a);
}

TEST(QueryIdTest, ScopeInstallsAndRestoresNested) {
  EXPECT_EQ(obs::CurrentQueryId(), 0u);
  obs::QueryContext outer_query{7}, inner_query{9};
  {
    obs::QueryScope outer(&outer_query);
    EXPECT_EQ(obs::CurrentQueryId(), 7u);
    {
      obs::QueryScope inner(&inner_query);
      EXPECT_EQ(obs::CurrentQueryId(), 9u);
    }
    EXPECT_EQ(obs::CurrentQueryId(), 7u);
  }
  EXPECT_EQ(obs::CurrentQueryId(), 0u);
}

// ---- the recent-query log ---------------------------------------------------

obs::QueryRecord MakeRecord(uint64_t id, const std::string& profile = "") {
  obs::QueryRecord rec;
  rec.id = id;
  rec.kind = "plan";
  rec.wall_ns = 100.0 * static_cast<double>(id);
  rec.rows = id * 10;
  rec.profile_json = profile;
  return rec;
}

TEST(QueryLogTest, SnapshotIsNewestFirstAndRingEvicts) {
  obs::QueryLog log;
  for (uint64_t id = 1; id <= obs::kQueryLogCapacity + 5; ++id) {
    log.Push(MakeRecord(id));
  }
  const auto snap = log.Snapshot();
  ASSERT_EQ(snap.size(), obs::kQueryLogCapacity);
  EXPECT_EQ(snap.front().id, obs::kQueryLogCapacity + 5);  // newest first
  EXPECT_EQ(snap.back().id, 6u);                           // oldest evicted

  std::string json;
  EXPECT_FALSE(log.FindProfile(1, &json));  // evicted
  EXPECT_TRUE(log.FindProfile(obs::kQueryLogCapacity + 5, &json));
  log.Clear();
  EXPECT_TRUE(log.Snapshot().empty());
}

TEST(QueryLogTest, SummaryJsonCarriesScalarsButNotProfiles) {
  obs::QueryLog log;
  obs::QueryRecord ok = MakeRecord(3, "{\"query_id\":3,\"secret\":true}");
  ok.peak_bytes = 12345;
  ok.cpu_ns = 6789.0;
  log.Push(ok);
  obs::QueryRecord err = MakeRecord(4);
  err.status = "error";
  err.error = "boom \"quoted\"";
  log.Push(err);

  const std::string summary = log.SummaryJson();
  EXPECT_NE(summary.find("{\"queries\":["), std::string::npos);
  EXPECT_NE(summary.find("\"id\":3"), std::string::npos);
  EXPECT_NE(summary.find("\"id\":4"), std::string::npos);
  EXPECT_NE(summary.find("\"peak_bytes\":12345"), std::string::npos);
  EXPECT_NE(summary.find("\"cpu_ns\":6789"), std::string::npos);
  EXPECT_NE(summary.find("\"queue_wait_ns\":"), std::string::npos);
  EXPECT_NE(summary.find("\"status\":\"error\""), std::string::npos);
  EXPECT_NE(summary.find("boom \\\"quoted\\\""), std::string::npos);
  EXPECT_EQ(summary.find("secret"), std::string::npos);
  // Newest first: id 4 before id 3.
  EXPECT_LT(summary.find("\"id\":4"), summary.find("\"id\":3"));
}

TEST(QueryLogTest, DumpJsonEmbedsProfileDocumentsOldestFirst) {
  obs::QueryLog log;
  log.Push(MakeRecord(1, "{\"query_id\":1}"));
  log.Push(MakeRecord(2, "{\"query_id\":2}"));
  const std::string dump = log.DumpJson();
  EXPECT_NE(dump.find("{\"queries\":["), std::string::npos);
  EXPECT_LT(dump.find("\"query_id\":1"), dump.find("\"query_id\":2"));
}

// ---- profile JSON -----------------------------------------------------------

OpProfile SyntheticOp() {
  OpProfile op;
  op.node_id = 4;
  op.kind = OpKind::kSelect;
  op.label = "sel(l_quantity)";
  op.work_ns = 1000;
  op.start_ns = 10;
  op.end_ns = 250;
  op.core = 2;
  op.tuples_in = 100;
  op.tuples_out = 40;
  // Five morsels, wall times 10/20/30/40/50: exact p50 = 30, p95 = 48.
  for (int i = 1; i <= 5; ++i) {
    MorselMetrics m;
    m.tuples_in = 20;
    m.tuples_out = 8;
    m.wall_ns = 10.0 * i;
    m.worker = i % 2;
    m.domain_begin = static_cast<uint64_t>(20 * (i - 1));
    m.domain_end = static_cast<uint64_t>(20 * i);
    op.morsels.push_back(m);
  }
  op.ComputeSkewFromMorsels();
  return op;
}

TEST(ProfileJsonTest, MorselWallPercentilesAreExact) {
  const OpProfile op = SyntheticOp();
  EXPECT_DOUBLE_EQ(MorselWallPercentileNs(op, 0.50), 30.0);
  EXPECT_DOUBLE_EQ(MorselWallPercentileNs(op, 0.95), 48.0);
  EXPECT_DOUBLE_EQ(MorselWallPercentileNs(op, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(MorselWallPercentileNs(op, 1.0), 50.0);
  OpProfile stripped = op;
  stripped.morsels.clear();  // historical profiles drop the histogram
  EXPECT_DOUBLE_EQ(MorselWallPercentileNs(stripped, 0.95), 0.0);
}

TEST(ProfileJsonTest, OpAndRunSerializeAllFields) {
  RunProfile rp;
  rp.ops.push_back(SyntheticOp());
  rp.makespan_ns = 240;
  rp.utilization = 0.5;
  const std::string json = RunProfileJson(rp);
  for (const char* needle :
       {"\"makespan_ns\":240", "\"utilization\":0.5", "\"node_id\":4",
        "\"kind\":\"select\"", "\"label\":\"sel(l_quantity)\"",
        "\"wall_ns\":240", "\"tuples_in\":100, ", "\"num_morsels\":5",
        "\"morsel_wall_p50_ns\":30", "\"morsel_wall_p95_ns\":48",
        "\"domain_begin\":80"}) {
    // The tuples_in needle would also match morsel entries; strip the
    // trailing guard before searching.
    std::string n(needle);
    if (n.back() == ' ') n.pop_back();
    EXPECT_NE(json.find(n), std::string::npos) << n << " in " << json;
  }
}

TEST(ProfileJsonTest, QueryDocPlainVsAdaptive) {
  QueryProfileDoc plain;
  plain.record.id = 11;
  plain.record.wall_ns = 5000;
  plain.record.rows = 42;
  const std::string pj = QueryProfileJson(plain);
  EXPECT_NE(pj.find("\"query_id\":11"), std::string::npos);
  EXPECT_NE(pj.find("\"kind\":\"plan\""), std::string::npos);
  EXPECT_NE(pj.find("\"runs\":1"), std::string::npos);
  EXPECT_NE(pj.find("\"mutations\":0"), std::string::npos);
  EXPECT_NE(pj.find("\"adaptive\":null"), std::string::npos);
  EXPECT_NE(pj.find("\"lineage\":[]"), std::string::npos);
  EXPECT_NE(pj.find("\"profile\":null"), std::string::npos);

  // An adaptive document prints the record's runs and mutations as
  // recorded, without recounting them from the lineage (the golden test
  // below pins the rest of the adaptive fields).
  AdaptiveOutcome oc;
  oc.total_runs = 1;
  oc.runs.resize(1);
  oc.lineage.resize(1);
  QueryProfileDoc doc;
  doc.record.kind = "adaptive";
  doc.record.runs = 7;
  doc.record.mutations = 5;
  doc.adaptive = &oc;
  const std::string aj = QueryProfileJson(doc);
  EXPECT_NE(aj.find("\"runs\":7,\"mutations\":5,"), std::string::npos);
  EXPECT_NE(aj.find("\"total_runs\":1,"), std::string::npos);
  EXPECT_NE(aj.find("\"lineage\":[{\"run\":0,"), std::string::npos);
}

// A fixed adaptive document, byte for byte: every field's name, order and
// 15-digit rendering, the lineage's run/decision pairs, split rows, morsels
// and an escaped label.
TEST(ProfileJsonTest, GoldenAdaptiveDocumentBytes) {
  OpProfile op;
  op.node_id = 4;
  op.kind = OpKind::kSelect;
  op.label = "sel(l_shipmode = \"AIR\")\\x";
  op.work_ns = 1000.125;
  op.start_ns = 10.5;
  op.end_ns = 250.0 / 3.0;
  op.core = 2;
  op.tuples_in = 100;
  op.tuples_out = 40;
  op.peak_bytes = 4096;
  op.cpu_ns = 777;
  op.queue_wait_ns = 12;
  for (int i = 1; i <= 3; ++i) {
    MorselMetrics m;
    m.tuples_in = 30 + i;
    m.tuples_out = 8 * i;
    m.wall_ns = 10.0 * i / 7.0;
    m.worker = i % 2;
    m.domain_begin = static_cast<uint64_t>(32 * (i - 1));
    m.domain_end = static_cast<uint64_t>(32 * i);
    op.morsels.push_back(m);
  }
  op.ComputeSkewFromMorsels();
  RunProfile rp;
  rp.ops = {op};
  rp.makespan_ns = 1e6 / 3.0;
  rp.utilization = 0.123456789012345678;

  AdaptiveOutcome oc;
  oc.total_runs = 2;
  oc.serial_time_ns = 2e6 / 7.0;
  oc.gme_time_ns = 1e6 / 7.0;
  oc.gme_run = 1;
  oc.best_run = 1;
  oc.best_time_ns = 1e6 / 7.0;
  oc.skew_mutations = 1;
  oc.runs.resize(2);
  oc.runs[0].time_ns = 2e6 / 7.0;
  oc.runs[0].wall_ns = 123456.789;
  oc.runs[0].max_morsel_skew = 1.75;
  oc.runs[0].max_morsel_tuple_skew = 4.0 / 3.0;
  oc.runs[0].skew_hint_ops = 2;
  oc.runs[1].run = 1;
  oc.runs[1].time_ns = 1e6 / 7.0;
  oc.runs[1].wall_ns = 98765.4321;
  AdaptiveLineage l0;
  l0.victim = 4;
  l0.action = "basic-skew";
  l0.skew_aware = true;
  l0.split_rows = {64, 192};
  oc.lineage = {l0, AdaptiveLineage()};

  QueryProfileDoc doc;
  doc.record.id = 12;
  doc.record.kind = "adaptive";
  doc.record.wall_ns = 5e6 / 3.0;
  doc.record.time_ns = 1e6 / 7.0;
  doc.record.rows = 42;
  doc.record.runs = 2;
  doc.record.mutations = 1;
  doc.record.peak_bytes = 65536;
  doc.record.cpu_ns = 3e6 / 7.0;
  doc.record.queue_wait_ns = 1234.5;
  doc.record.workers = 4;
  doc.profile = &rp;
  doc.adaptive = &oc;
  const std::string want =
      R"j({"query_id":12,"kind":"adaptive","status":"ok","error":"",)j"
      R"j("wall_ns":1666666.66666667,"time_ns":142857.142857143,"rows":42,)j"
      R"j("runs":2,"mutations":1,"peak_bytes":65536,)j"
      R"j("cpu_ns":428571.428571429,"queue_wait_ns":1234.5,"workers":4,)j"
      R"j("parallel_efficiency":0.0642857142857143,)j"
      R"j("adaptive":{"serial_time_ns":285714.285714286,)j"
      R"j("gme_time_ns":142857.142857143,"gme_run":1,"best_run":1,)j"
      R"j("best_time_ns":142857.142857143,"total_runs":2,"skew_mutations":1,)j"
      R"j("speedup":2},"lineage":[{"run":0,"time_ns":285714.285714286,)j"
      R"j("wall_ns":123456.789,"max_morsel_skew":1.75,)j"
      R"j("max_morsel_tuple_skew":1.33333333333333,"skew_hint_ops":2,)j"
      R"j("victim":4,"action":"basic-skew","skew_aware":true,)j"
      R"j("split_rows":[64,192]},{"run":1,"time_ns":142857.142857143,)j"
      R"j("wall_ns":98765.4321,"max_morsel_skew":0,)j"
      R"j("max_morsel_tuple_skew":0,"skew_hint_ops":0,"victim":-1,)j"
      R"j("action":"none","skew_aware":false,"split_rows":[]}],)j"
      R"j("profile":{"makespan_ns":333333.333333333,)j"
      R"j("utilization":0.123456789012346,"ops":[{"node_id":4,)j"
      R"j("kind":"select","label":"sel(l_shipmode = \"AIR\")\\x",)j"
      R"j("work_ns":1000.125,"start_ns":10.5,"end_ns":83.3333333333333,)j"
      R"j("wall_ns":72.8333333333333,"core":2,"tuples_in":100,)j"
      R"j("tuples_out":40,"peak_bytes":4096,"cpu_ns":777,"queue_wait_ns":12,)j"
      R"j("num_morsels":3,"morsel_skew":1.5,)j"
      R"j("morsel_tuple_skew":1.72340425531915,)j"
      R"j("morsel_wall_p50_ns":2.85714285714286,)j"
      R"j("morsel_wall_p95_ns":4.14285714285714,"morsels":[{"tuples_in":31,)j"
      R"j("tuples_out":8,"wall_ns":1.42857142857143,"worker":1,)j"
      R"j("domain_begin":0,"domain_end":32},{"tuples_in":32,"tuples_out":16,)j"
      R"j("wall_ns":2.85714285714286,"worker":0,"domain_begin":32,)j"
      R"j("domain_end":64},{"tuples_in":33,"tuples_out":24,)j"
      R"j("wall_ns":4.28571428571429,"worker":1,"domain_begin":64,)j"
      R"j("domain_end":96}]}]}})j";
  EXPECT_EQ(QueryProfileJson(doc), want);
}

// ---- HTTP exporter: routing -------------------------------------------------

void Handle(const std::string& path, int* status, std::string* body) {
  std::string content_type;
  obs::HttpExporter::Handle(path, status, &content_type, body);
}

TEST(HttpExporterTest, RoutingTableServesEveryEndpoint) {
  obs::MetricsRegistry::Global().GetCounter("introspect_route_counter")->Inc();
  obs::QueryLog::Global().Clear();
  obs::QueryRecord rec;
  rec.id = 99999;
  rec.kind = "plan";
  rec.profile_json = "{\"query_id\":99999,\"marker\":\"deadbeef\"}";
  obs::QueryLog::Global().Push(rec);

  int status = 0;
  std::string body;
  Handle("/metrics", &status, &body);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("introspect_route_counter 1"), std::string::npos);

  Handle("/metrics.json", &status, &body);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"counters\""), std::string::npos);

  Handle("/healthz", &status, &body);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("ok"), std::string::npos);

  Handle("/debug/queries", &status, &body);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"id\":99999"), std::string::npos);
  EXPECT_EQ(body.find("deadbeef"), std::string::npos);  // summaries only

  Handle("/debug/profile/99999", &status, &body);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"marker\":\"deadbeef\""), std::string::npos);

  // Query strings are stripped before routing.
  Handle("/metrics?scrape=1", &status, &body);
  EXPECT_EQ(status, 200);

  // Worker telemetry: always answers, with an empty scheduler list until a
  // MorselScheduler publishes its document there.
  Handle("/debug/workers", &status, &body);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"schedulers\":["), std::string::npos);

  Handle("/debug/profile/123456789", &status, &body);
  EXPECT_EQ(status, 404);
  Handle("/debug/profile/notanumber", &status, &body);
  EXPECT_EQ(status, 404);
  // Ids are digits only (util/env.h ParseDecimal): a sign is not an id.
  Handle("/debug/profile/+99999", &status, &body);
  EXPECT_EQ(status, 404);
  // The rejected id is echoed as a JSON string, escaped.
  Handle("/debug/profile/a\"b\\c", &status, &body);
  EXPECT_EQ(status, 404);
  EXPECT_EQ(body, "{\"error\":\"no profile for query id 'a\\\"b\\\\c'\"}");
  Handle("/nope", &status, &body);
  EXPECT_EQ(status, 404);
  EXPECT_NE(body.find("/debug/queries"), std::string::npos);  // endpoint list
  EXPECT_NE(body.find("/debug/workers"), std::string::npos);
  obs::QueryLog::Global().Clear();
}

TEST(HttpExporterTest, RequestsAreCountedPerRoute) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter* metrics_c =
      reg.GetCounter("apq_http_requests_total{route=\"/metrics\"}");
  obs::Counter* workers_c =
      reg.GetCounter("apq_http_requests_total{route=\"/debug/workers\"}");
  obs::Counter* unknown_c =
      reg.GetCounter("apq_http_requests_total{route=\"unknown\"}");
  obs::Counter* profile_c =
      reg.GetCounter("apq_http_requests_total{route=\"/debug/profile\"}");
  const uint64_t m0 = metrics_c->Value();
  const uint64_t w0 = workers_c->Value();
  const uint64_t u0 = unknown_c->Value();
  const uint64_t p0 = profile_c->Value();

  int status = 0;
  std::string body;
  Handle("/metrics", &status, &body);
  Handle("/metrics", &status, &body);
  Handle("/debug/workers", &status, &body);
  Handle("/debug/profile/987654321", &status, &body);  // 404 still counted
  Handle("/wat", &status, &body);
  Handle("/also-wat", &status, &body);  // unrecognized paths share one label

  EXPECT_EQ(metrics_c->Value(), m0 + 2);
  EXPECT_EQ(workers_c->Value(), w0 + 1);
  EXPECT_EQ(profile_c->Value(), p0 + 1);
  EXPECT_EQ(unknown_c->Value(), u0 + 2);
}

TEST(HttpExporterTest, MetricsExposeBuildInfoAfterEvaluatorInit) {
  // Constructing an evaluator registers apq_build_info with its resolved
  // SIMD tier; the constant-1 gauge carries version/simd/build as labels.
  Evaluator ev{ExecOptions{}};
  int status = 0;
  std::string body;
  Handle("/metrics", &status, &body);
  EXPECT_EQ(status, 200);
  const size_t pos = body.find("apq_build_info{");
  ASSERT_NE(pos, std::string::npos);
  const std::string line = body.substr(pos, body.find('\n', pos) - pos);
  EXPECT_NE(line.find("version=\""), std::string::npos) << line;
  EXPECT_NE(line.find("simd=\""), std::string::npos) << line;
  EXPECT_NE(line.find("build=\""), std::string::npos) << line;
  EXPECT_NE(line.find("} 1"), std::string::npos) << line;
}

// Seeded mutations of valid requests through the framing function: every
// answer is well-framed HTTP, and only GET or HEAD can earn a 200.
TEST(HttpExporterTest, SeededMutationsAlwaysGetAWellFramedAnswer) {
  const std::vector<std::string> seeds = {
      "GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n",
      "HEAD /healthz HTTP/1.1\r\n\r\n",
      "GET /debug/profile/1 HTTP/1.0\n\n",
      "GET /debug/workers?x=1 HTTP/1.1\r\n\r\n",
      "GET /debug/service HTTP/1.1\r\n\r\n",
      "GET /metrics HTTP/1.1\r\n\r\n",
      "POST /healthz HTTP/1.1\r\n\r\n"};
  Rng rng(16);
  for (int i = 0; i < 20000; ++i) {
    const std::string req = Mutate(seeds[rng.Uniform(seeds.size())], rng);
    const std::string resp = obs::HttpExporter::Respond(req);
    ASSERT_EQ(resp.rfind("HTTP/1.1 ", 0), 0u) << req;
    const size_t head_end = resp.find("\r\n\r\n");
    ASSERT_NE(head_end, std::string::npos) << req;
    const std::string head = resp.substr(0, head_end);
    const std::string body = resp.substr(head_end + 4);
    const size_t cl = head.find("\r\nContent-Length: ");
    ASSERT_NE(cl, std::string::npos) << head;
    const size_t length = std::stoul(head.substr(cl + 18));
    // The request-line method, as the server reads it.
    const size_t sp1 = req.find(' ');
    const bool has_path =
        sp1 != std::string::npos && req.find(' ', sp1 + 1) != std::string::npos;
    const std::string method = has_path ? req.substr(0, sp1) : "";
    if (method == "HEAD") {
      EXPECT_TRUE(body.empty()) << req;
    } else {
      EXPECT_EQ(body.size(), length) << req;
    }
    if (resp.rfind("HTTP/1.1 200 ", 0) == 0) {
      EXPECT_TRUE(method == "GET" || method == "HEAD") << req;
    }
  }
}

// ---- HTTP exporter: live socket round-trip ----------------------------------

int Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::string HttpGet(int port, const std::string& path) {
  const int fd = Connect(port);
  if (fd < 0) return "";
  const std::string req =
      "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  (void)!::send(fd, req.data(), req.size(), 0);
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    resp.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return resp;
}

TEST(HttpExporterTest, ServesOverARealSocket) {
  obs::HttpExporter server;
  ASSERT_TRUE(server.Start(0).ok());  // ephemeral port
  ASSERT_TRUE(server.running());
  const int port = server.port();
  ASSERT_GT(port, 0);

  // Idempotent while running (same port keeps quiet, different port warns).
  EXPECT_TRUE(server.Start(port).ok());
  EXPECT_EQ(server.port(), port);

  const std::string health = HttpGet(port, "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos) << health;
  EXPECT_NE(health.find("ok"), std::string::npos);

  obs::MetricsRegistry::Global().GetCounter("introspect_live_counter")->Inc(5);
  const std::string metrics = HttpGet(port, "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("Content-Type: text/plain"), std::string::npos);
  EXPECT_NE(metrics.find("introspect_live_counter 5"), std::string::npos);

  EXPECT_NE(HttpGet(port, "/nope").find("HTTP/1.1 404"), std::string::npos);

  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
  // Port is reusable after Stop.
  obs::HttpExporter again;
  ASSERT_TRUE(again.Start(0).ok());
  again.Stop();
}

TEST(HttpExporterTest, NoClientStallsAnother) {
  obs::HttpExporter server;
  ASSERT_TRUE(server.Start(0).ok());

  // A client that connects and never sends a byte.
  const int idle = Connect(server.port());
  ASSERT_GE(idle, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // accepted
  const auto t0 = std::chrono::steady_clock::now();
  const std::string health = HttpGet(server.port(), "/healthz");
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos) << health;
  EXPECT_LT(secs, 1.0);

  // A request that passes the input cap without its blank line is closed
  // without an answer.
  const int big = Connect(server.port());
  ASSERT_GE(big, 0);
  timeval tv{5, 0};
  ::setsockopt(big, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  const std::string junk = "GET /" + std::string(8000, 'x');
  (void)!::send(big, junk.data(), junk.size(), MSG_NOSIGNAL);
  char c;
  EXPECT_LE(::recv(big, &c, 1, 0), 0);
  ::close(big);
  ::close(idle);
  server.Stop();
}

// ---- engine integration -----------------------------------------------------

// The text of the first value of `key` in `json`: a number or literal as
// printed, a string with its quotes; "<no key>" when absent.
std::string FieldText(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  size_t pos = json.find(needle);
  if (pos == std::string::npos) return "<no " + key + ">";
  pos += needle.size();
  size_t end = pos;
  if (json[pos] == '"') {
    for (++end; end < json.size() && json[end] != '"'; ++end) {
      if (json[end] == '\\') ++end;
    }
    ++end;
  } else {
    end = json.find_first_of(",}]", pos);
  }
  return json.substr(pos, end - pos);
}

// The keys of a flat JSON object, in order.
std::vector<std::string> Keys(const std::string& object) {
  std::vector<std::string> keys;
  for (size_t pos = 0; (pos = object.find('"', pos)) != std::string::npos;) {
    const size_t end = object.find('"', pos + 1);
    keys.push_back(object.substr(pos + 1, end - pos - 1));
    const std::string value = FieldText(object.substr(pos), keys.back());
    pos = end + 2 + value.size();
  }
  return keys;
}

// Every field /debug/queries shows for query `id` prints the same text as
// the same field of /debug/profile/<id> (whose id field is "query_id").
void ExpectSummaryMatchesDocument(uint64_t id) {
  int status = 0;
  std::string summary, doc;
  Handle("/debug/queries", &status, &summary);
  ASSERT_EQ(status, 200);
  Handle("/debug/profile/" + std::to_string(id), &status, &doc);
  ASSERT_EQ(status, 200);
  const size_t begin = summary.find("{\"id\":" + std::to_string(id) + ",");
  ASSERT_NE(begin, std::string::npos) << summary;
  const std::string entry =
      summary.substr(begin, summary.find('}', begin) + 1 - begin);
  const std::vector<std::string> keys = Keys(entry);
  EXPECT_EQ(keys.size(), 12u) << entry;
  for (const std::string& key : keys) {
    EXPECT_EQ(FieldText(entry, key),
              FieldText(doc, key == "id" ? "query_id" : key))
        << key << " of query " << id;
  }
}

// The lineage entries of a profile document, in order.
std::vector<std::string> LineageEntries(const std::string& doc) {
  const std::string open = "\"lineage\":[";
  size_t pos = doc.find(open);
  if (pos == std::string::npos) return {};
  pos += open.size();
  size_t end = pos;
  for (int depth = 1; depth > 0; ++end) {
    if (doc[end] == '[') ++depth;
    if (doc[end] == ']') --depth;
  }
  const std::string lineage = doc.substr(pos, end - 1 - pos);
  std::vector<std::string> entries;
  for (size_t at = lineage.find("{\"run\":"); at != std::string::npos;) {
    const size_t next = lineage.find("{\"run\":", at + 1);
    entries.push_back(lineage.substr(at, next - at));
    at = next;
  }
  return entries;
}

// `v` as the profile document prints it (15 significant digits).
std::string Printed(double v) {
  std::ostringstream os;
  os.precision(15);
  os << v;
  return os.str();
}

class IntrospectEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchConfig cfg;
    cfg.lineitem_rows = 10'000;
    cat_ = Tpch::Generate(cfg);
  }
  static EngineConfig SmallConfig() {
    EngineConfig cfg = EngineConfig::WithSim(SimConfig::Cores(8, 4));
    cfg.mutator.min_partition_rows = 64;
    return cfg;
  }
  std::shared_ptr<Catalog> cat_;
};

TEST_F(IntrospectEngineTest, RunPlanAssignsIdsAndRecordsQueries) {
  obs::QueryLog::Global().Clear();
  Engine engine(SmallConfig());
  auto q6 = Tpch::Q6(*cat_);
  ASSERT_TRUE(q6.ok());
  auto a = engine.RunSerial(q6.ValueOrDie());
  auto b = engine.RunSerial(q6.ValueOrDie());
  ASSERT_TRUE(a.ok() && b.ok());
  const uint64_t ida = a.ValueOrDie().query_id;
  const uint64_t idb = b.ValueOrDie().query_id;
  EXPECT_GT(ida, 0u);
  EXPECT_GT(idb, ida);

  const auto snap = obs::QueryLog::Global().Snapshot();
  ASSERT_GE(snap.size(), 2u);
  EXPECT_EQ(snap[0].id, idb);  // newest first
  EXPECT_EQ(snap[1].id, ida);
  EXPECT_EQ(snap[0].kind, "plan");
  EXPECT_EQ(snap[0].status, "ok");
  EXPECT_EQ(snap[0].rows, b.ValueOrDie().result.NumRows());
  EXPECT_EQ(snap[0].runs, 1);
  EXPECT_GT(snap[0].wall_ns, 0.0);

  std::string profile;
  ASSERT_TRUE(obs::QueryLog::Global().FindProfile(ida, &profile));
  EXPECT_NE(profile.find("\"query_id\":" + std::to_string(ida)),
            std::string::npos);
  EXPECT_NE(profile.find("\"kind\":\"plan\""), std::string::npos);
  EXPECT_NE(profile.find("\"ops\":["), std::string::npos);
}

TEST_F(IntrospectEngineTest, AdaptiveLineageMatchesOutcomeExactly) {
  obs::QueryLog::Global().Clear();
  Engine engine(SmallConfig());
  auto q6 = Tpch::Q6(*cat_);
  ASSERT_TRUE(q6.ok());
  auto out = engine.RunAdaptive(q6.ValueOrDie());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const AdaptiveOutcome& o = out.ValueOrDie();

  // The acceptance invariant: one lineage entry per executed run, exactly.
  ASSERT_EQ(o.lineage.size(), o.runs.size());
  ASSERT_EQ(static_cast<int>(o.lineage.size()), o.total_runs);
  EXPECT_GT(o.query_id, 0u);
  int mutated = 0;
  for (const AdaptiveLineage& l : o.lineage) {
    if (l.action != "none") {
      ++mutated;
      EXPECT_GE(l.victim, 0);
    } else {
      EXPECT_TRUE(l.split_rows.empty());
    }
  }
  EXPECT_GT(mutated, 0);  // Q6 at 10k rows always mutates at least once

  // The recorded document agrees with the outcome: lineage entry i is
  // runs[i]'s measurements followed by lineage[i]'s decision.
  const auto snap = obs::QueryLog::Global().Snapshot();
  ASSERT_FALSE(snap.empty());
  EXPECT_EQ(snap[0].id, o.query_id);
  EXPECT_EQ(snap[0].kind, "adaptive");
  EXPECT_EQ(snap[0].runs, o.total_runs);
  EXPECT_EQ(snap[0].mutations, mutated);

  std::string profile;
  ASSERT_TRUE(obs::QueryLog::Global().FindProfile(o.query_id, &profile));
  EXPECT_NE(profile.find("\"kind\":\"adaptive\""), std::string::npos);
  EXPECT_NE(profile.find("\"total_runs\":" + std::to_string(o.total_runs)),
            std::string::npos);
  const std::vector<std::string> entries = LineageEntries(profile);
  ASSERT_EQ(entries.size(), o.lineage.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    const std::string& e = entries[i];
    EXPECT_EQ(FieldText(e, "run"), std::to_string(o.runs[i].run)) << i;
    EXPECT_EQ(FieldText(e, "time_ns"), Printed(o.runs[i].time_ns)) << i;
    EXPECT_EQ(FieldText(e, "wall_ns"), Printed(o.runs[i].wall_ns)) << i;
    EXPECT_EQ(FieldText(e, "skew_hint_ops"),
              std::to_string(o.runs[i].skew_hint_ops))
        << i;
    EXPECT_EQ(FieldText(e, "victim"), std::to_string(o.lineage[i].victim))
        << i;
    EXPECT_EQ(FieldText(e, "action"), "\"" + o.lineage[i].action + "\"")
        << i;
  }
}

// /debug/queries and /debug/profile/<id> print one record: every summary
// field of a successful plan query and adaptive query equals its document's.
TEST_F(IntrospectEngineTest, SummaryFieldsEqualTheirDocument) {
  obs::QueryLog::Global().Clear();
  Engine engine(SmallConfig());
  auto q6 = Tpch::Q6(*cat_);
  ASSERT_TRUE(q6.ok());
  auto plan = engine.RunSerial(q6.ValueOrDie());
  ASSERT_TRUE(plan.ok());
  auto adaptive = engine.RunAdaptive(q6.ValueOrDie());
  ASSERT_TRUE(adaptive.ok());
  ExpectSummaryMatchesDocument(plan.ValueOrDie().query_id);
  ExpectSummaryMatchesDocument(adaptive.ValueOrDie().query_id);
}

TEST_F(IntrospectEngineTest, ErrorPathBumpsCounterAndRecordsError) {
  obs::QueryLog::Global().Clear();
  obs::Counter* errors =
      obs::MetricsRegistry::Global().GetCounter("apq_query_errors_total");
  const uint64_t before = errors->Value();

  Engine engine(SmallConfig());
  // LIKE on a non-string column fails inside the evaluator.
  auto ints = Column::MakeInt64("ints", {1, 2, 3, 4});
  PlanBuilder b("bad");
  int sel = b.Select(ints.get(), Predicate::Like("x"));
  const QueryPlan bad = b.Result(sel);
  auto out = engine.RunPlan(bad);
  ASSERT_FALSE(out.ok());

  EXPECT_EQ(errors->Value(), before + 1);
  const auto snap = obs::QueryLog::Global().Snapshot();
  ASSERT_FALSE(snap.empty());
  EXPECT_EQ(snap[0].status, "error");
  EXPECT_FALSE(snap[0].error.empty());
  EXPECT_EQ(snap[0].rows, 0u);

  // The error surfaces in /debug/queries and the profile document.
  int status = 0;
  std::string body;
  Handle("/debug/queries", &status, &body);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"status\":\"error\""), std::string::npos);
  std::string profile;
  ASSERT_TRUE(obs::QueryLog::Global().FindProfile(snap[0].id, &profile));
  EXPECT_NE(profile.find("\"status\":\"error\""), std::string::npos);
  EXPECT_NE(profile.find("\"profile\":null"), std::string::npos);
  ExpectSummaryMatchesDocument(snap[0].id);

  // The same plan through the adaptive loop fails in its first run; its
  // summary and its document agree, on runs and mutations too.
  auto adaptive = engine.RunAdaptive(bad);
  ASSERT_FALSE(adaptive.ok());
  EXPECT_EQ(errors->Value(), before + 2);
  const auto snap2 = obs::QueryLog::Global().Snapshot();
  ASSERT_EQ(snap2.size(), 2u);
  EXPECT_EQ(snap2[0].kind, "adaptive");
  EXPECT_EQ(snap2[0].status, "error");
  EXPECT_EQ(snap2[0].runs, 0);
  ExpectSummaryMatchesDocument(snap2[0].id);
}

// Introspection must never perturb results: the same TPC-H query through
// the engine with the HTTP exporter off vs on (and under concurrent
// scraping) is bit-identical at every worker count.
TEST_F(IntrospectEngineTest, ResultsBitIdenticalWithExporterOnVsOff) {
  auto q6 = Tpch::Q6(*cat_);
  ASSERT_TRUE(q6.ok());

  for (int workers : {1, 2, 4, 8}) {
    EngineConfig cfg = SmallConfig();
    cfg.morsel_rows = 512;
    cfg.morsel_scheduler = std::make_shared<MorselScheduler>(workers);

    Engine off_engine(cfg);
    auto off = off_engine.RunSerial(q6.ValueOrDie());
    ASSERT_TRUE(off.ok()) << "workers=" << workers;

    obs::HttpExporter server;
    ASSERT_TRUE(server.Start(0).ok());
    std::atomic<bool> stop{false};
    std::thread scraper([&] {
      while (!stop.load()) {
        HttpGet(server.port(), "/metrics");
        HttpGet(server.port(), "/debug/queries");
      }
    });
    Engine on_engine(cfg);
    auto on = on_engine.RunSerial(q6.ValueOrDie());
    stop.store(true);
    scraper.join();
    server.Stop();
    ASSERT_TRUE(on.ok()) << "workers=" << workers;

    EXPECT_EQ(DiffIntermediates(off.ValueOrDie().result,
                                on.ValueOrDie().result),
              "")
        << "workers=" << workers << " (introspection changed results!)";
    EXPECT_DOUBLE_EQ(off.ValueOrDie().time_ns, on.ValueOrDie().time_ns)
        << "workers=" << workers;
  }
}

}  // namespace
}  // namespace apq
