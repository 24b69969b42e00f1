// Self-test of the benchmark's statistics, parsing and failure accounting.
// Built beside apq_perfbench; run it with `python3 perfbench/run.py
// --selftest` or `ctest --test-dir .bench_build/perfbench`.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "profile/profile_json.h"
#include "stats.h"

namespace {

int g_failures = 0;

// A check that stays in every build type (assert would vanish in Release).
#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

bool Near(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * (1 + std::fabs(b));
}

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentile() {
  using perfbench::Percentile;
  CHECK(Percentile({}, 0.5) == 0);
  CHECK(Percentile({7}, 0.99) == 7);
  // Nearest rank: the sample at rank ceil(q*n).
  CHECK(Percentile(OneTo(100), 0.5) == 50);
  CHECK(Percentile(OneTo(100), 0.99) == 99);
  CHECK(Percentile(OneTo(100), 1.0) == 100);
  CHECK(Percentile(OneTo(10), 0.95) == 10);
  CHECK(Percentile(OneTo(4), 0.5) == 2);
  CHECK(perfbench::Median(OneTo(5)) == 3);
  CHECK(perfbench::SamplesBeyond(100, 0.9) == 10);
  CHECK(perfbench::SamplesBeyond(100, 0.99) == 1);
  CHECK(perfbench::SamplesBeyond(0, 0.5) == 0);
}

void TestTail() {
  using perfbench::TailPercentile;
  // 20 samples: even the median has only 10 beyond it.
  perfbench::Tail t = TailPercentile(OneTo(20));
  CHECK(t.found && Near(t.q, 0.5) && t.value == 10);
  CHECK(!TailPercentile(OneTo(19)).found);
  // 100 samples: p90 has exactly 10 beyond, p95 only 5.
  t = TailPercentile(OneTo(100));
  CHECK(t.found && Near(t.q, 0.9) && t.value == 90);
  // 1000 samples: p99 has 10 beyond.
  t = TailPercentile(OneTo(1000));
  CHECK(t.found && Near(t.q, 0.99) && t.value == 990);
  // 10000 samples: p99.9 has 10 beyond.
  t = TailPercentile(OneTo(10000));
  CHECK(t.found && Near(t.q, 0.999) && t.value == 9990);
  t = TailPercentile(OneTo(9999));
  CHECK(t.found && Near(t.q, 0.99));
}

void TestGeoMean() {
  using perfbench::GeoMean;
  CHECK(GeoMean({}) == 0);
  CHECK(Near(GeoMean({4}), 4));
  CHECK(Near(GeoMean({1, 100}), 10));
  CHECK(Near(GeoMean({2, 8, 4}), 4));
  CHECK(GeoMean({1, 0, 5}) == 0);
  CHECK(GeoMean({1, -2}) == 0);
}

void TestClassFigures() {
  using perfbench::GeoMeanOfMedians;
  // Two queries of different cost: the pooled median of {1, 2, 3, 100, 101,
  // 102, 103} would be 100, one query's sample; the class figure is the
  // geometric mean of the (nearest-rank) medians 2 and 101.
  const perfbench::ByQuery lat = {{"a", {3, 1, 2}},
                                  {"b", {100, 103, 101, 102}},
                                  {"c", {}}};
  CHECK(Near(GeoMeanOfMedians(lat, {"a", "b"}), std::sqrt(2 * 101.0)));
  CHECK(Near(GeoMeanOfMedians(lat, {"b"}), 101));  // nearest-rank median
  CHECK(GeoMeanOfMedians(lat, {"a", "c"}) == 0);   // no sample: broken
  CHECK(GeoMeanOfMedians(lat, {"a", "missing"}) == 0);
  CHECK(perfbench::Pooled(lat, {"a", "b", "missing"}).size() == 7);
  const std::vector<std::string> names = perfbench::Names(lat);
  CHECK(names.size() == 3 && names[0] == "a" && names[2] == "c");
}

void TestOkHeader() {
  perfbench::OkHeader h;
  CHECK(perfbench::ParseOkHeader(
      "OK id=42 tag=7 kind=plan rows=3 workers=2 wall_ns=123456.5 "
      "queue_wait_ns=0",
      &h));
  CHECK(h.id == 42 && h.tag == 7 && h.kind == "plan" && h.rows == 3 &&
        h.workers == 2 && Near(h.wall_ns, 123456.5) && h.queue_wait_ns == 0);
  // Field order does not matter; unknown fields are skipped.
  CHECK(perfbench::ParseOkHeader(
      "OK tag=1 id=2 rows=0 kind=plan workers=1 queue_wait_ns=5 "
      "wall_ns=1e6 extra=x",
      &h));
  CHECK(h.id == 2 && Near(h.wall_ns, 1e6) && Near(h.queue_wait_ns, 5));
  CHECK(!perfbench::ParseOkHeader("OK id=1 tag=1", &h));  // fields missing
  CHECK(!perfbench::ParseOkHeader(
      "OK id=x tag=1 kind=plan rows=0 workers=1 wall_ns=1 queue_wait_ns=1",
      &h));
  CHECK(!perfbench::ParseOkHeader(
      "OK id=1 tag=1 kind=plan rows=0 workers=1 wall_ns=-1 queue_wait_ns=1",
      &h));
  CHECK(!perfbench::ParseOkHeader(
      "OK id=1 tag=-1 kind=plan rows=0 workers=1 wall_ns=1 queue_wait_ns=1",
      &h));
  CHECK(!perfbench::ParseOkHeader("ERR SHED tag=1 full", &h));
  CHECK(!perfbench::ParseOkHeader("", &h));
}

void TestCheckResponse() {
  const std::string hdr =
      "OK id=9 tag=1 kind=plan rows=2 workers=2 wall_ns=10 queue_wait_ns=0\n";
  const std::string rows = "ROW 1 2.5\nROW 2 3.5\n";
  perfbench::OkHeader h;
  CHECK(perfbench::CheckResponse(hdr + rows + "END\n", rows, &h).empty());
  CHECK(h.id == 9);
  CHECK(perfbench::CheckResponse(hdr + "ROW 1 2.5\nROW 2 3.25\nEND\n", rows,
                                 &h) == perfbench::kWrongResult);
  // The header's row count disagrees with the ROW lines.
  CHECK(perfbench::CheckResponse(hdr + "ROW 1 2.5\nEND\n", rows, &h) ==
        "malformed");
  CHECK(perfbench::CheckResponse(hdr + rows, rows, &h) == "malformed");
  CHECK(perfbench::CheckResponse("ERR SHED tag=1 queue full\nEND\n", rows,
                                 &h) == "ERR SHED");
  CHECK(perfbench::CheckResponse("ERR EXEC tag=3 boom\nEND\n", rows, &h) ==
        "ERR EXEC");
  CHECK(perfbench::CheckResponse("ERR PARSE\nEND\n", rows, &h) ==
        "ERR PARSE");
  CHECK(perfbench::CheckResponse("garbage", rows, &h) == "malformed");
}

void TestTally() {
  perfbench::Tally a, b;
  a.Ok();
  a.Ok();
  a.Fail("ERR SHED");
  b.Fail(perfbench::kWrongResult);
  b.Fail("lost-connection");
  b.Ok();
  a.Merge(b);
  CHECK(a.attempted() == 6);
  CHECK(a.failed() == 3);
  CHECK(a.wrong() == 1);
  CHECK(a.reasons().at("ERR SHED") == 1);
  CHECK(a.reasons().at("lost-connection") == 1);
  perfbench::Tally empty;
  CHECK(empty.attempted() == 0 && empty.failed() == 0 && empty.wrong() == 0);
}

void TestSelfTimes() {
  perfbench::SpanLog log;
  const uint64_t req = log.NewRequest();
  const uint64_t root = log.Add("root", 0, req, 0, 100);
  log.Add("a", root, req, 10, 30, true);
  log.Add("b", root, req, 20, 50);   // overlaps a: union covers 10..50
  log.Add("c", root, req, 90, 120);  // clipped to 90..100
  log.Add("replay", root, req, 150, 160);  // after the root: covers none
  auto self = log.SelfTimes();
  CHECK(self.at("root").size() == 1 && Near(self.at("root")[0], 50));
  CHECK(Near(self.at("a")[0], 20));
  CHECK(Near(self.at("c")[0], 30));
  CHECK(Near(self.at("replay")[0], 10));
  CHECK(log.Spans().size() == 5);
}

// The parser reads the document the program itself writes, so a change to
// the profile schema that it cannot follow fails here.
void TestProfileOps() {
  apq::RunProfile profile;
  apq::OpProfile select;
  select.node_id = 0;
  select.kind = apq::OpKind::kSelect;
  select.label = "l_quantity < 24";
  select.tuples_in = 1000;
  select.cpu_ns = 3000;
  // Morsels carry their own tuples_in, which must not be counted twice.
  for (int i = 0; i < 2; ++i) {
    apq::MorselMetrics m;
    m.tuples_in = 777;
    m.wall_ns = 5;
    select.morsels.push_back(m);
  }
  apq::OpProfile map = select;
  map.node_id = 1;
  map.kind = apq::OpKind::kMap;
  map.morsels.clear();
  map.tuples_in = 500;
  map.cpu_ns = 6000;
  apq::OpProfile select2 = select;
  select2.node_id = 2;
  select2.tuples_in = 3000;
  select2.cpu_ns = 1000;
  profile.ops = {select, map, select2};
  apq::QueryProfileDoc doc;
  doc.profile = &profile;
  perfbench::OpTotals ops;
  CHECK(perfbench::AddProfileOps(apq::QueryProfileJson(doc), &ops) == 3);
  CHECK(Near(ops.NsPerRow("select"), 4000.0 / 4000.0));
  CHECK(Near(ops.NsPerRow("map"), 12.0));
  CHECK(ops.NsPerRow("join") == 0);
  CHECK(perfbench::AddProfileOps("{\"query_id\":1}", &ops) == 0);
}

void TestOptions() {
  perfbench::Options o;
  const char* good[] = {"x", "--workload", "serve", "--seed", "3",
                        "--seconds", "10", "--trace", "1"};
  CHECK(perfbench::ParseOptions(9, const_cast<char**>(good), &o).empty());
  CHECK(o.workload == "serve" && o.seed == 3 && o.seconds == 10 && o.trace);
  const char* bad_workload[] = {"x", "--workload", "nope", "--seed", "3",
                                "--seconds", "10"};
  CHECK(!perfbench::ParseOptions(7, const_cast<char**>(bad_workload), &o)
             .empty());
  const char* dropped_workload[] = {"x", "--workload", "adapt", "--seed",
                                    "3", "--seconds", "10"};
  CHECK(!perfbench::ParseOptions(7, const_cast<char**>(dropped_workload), &o)
             .empty());
  const char* missing_seed[] = {"x", "--workload", "tpch", "--seconds", "1"};
  CHECK(!perfbench::ParseOptions(5, const_cast<char**>(missing_seed), &o)
             .empty());
  const char* bad_trace[] = {"x", "--workload", "tpch", "--seed", "1",
                             "--seconds", "1", "--trace", "2"};
  CHECK(!perfbench::ParseOptions(9, const_cast<char**>(bad_trace), &o)
             .empty());
}

}  // namespace

int main() {
  TestPercentile();
  TestTail();
  TestGeoMean();
  TestClassFigures();
  TestOkHeader();
  TestCheckResponse();
  TestTally();
  TestSelfTimes();
  TestProfileOps();
  TestOptions();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n",
                 g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
