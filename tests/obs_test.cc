// Observability layer: metrics registry units, tracer ring-buffer and
// export units, the APQ_* knob reader (util/env.h), scheduler metrics
// invariants across worker counts, and the determinism contract — tracing
// on vs off must be bit-identical over the TPC-H suite at every worker
// count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "exec/compare.h"
#include "exec/evaluator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/morsel_scheduler.h"
#include "util/env.h"
#include "workload/tpch.h"

namespace apq {
namespace {

// ---- metrics registry -------------------------------------------------------

TEST(MetricsTest, CounterAndGaugeBasics) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter* c = reg.GetCounter("obs_test_counter");
  EXPECT_EQ(reg.GetCounter("obs_test_counter"), c);  // stable pointer
  const uint64_t before = c->Value();
  c->Inc();
  c->Inc(41);
  EXPECT_EQ(c->Value(), before + 42);

  obs::Gauge* g = reg.GetGauge("obs_test_gauge");
  g->Set(7);
  EXPECT_EQ(g->Value(), 7);
  g->Add(-10);
  EXPECT_EQ(g->Value(), -3);
}

TEST(MetricsTest, HistogramPercentilesInterpolate) {
  // Bounds 10/20/.../100: uniform values 1..100 land one per unit, so p50
  // must fall in the (40,50] bucket and interpolate near 50.
  obs::Histogram h(obs::Histogram::ExponentialBounds(10, 0, 0));
  ASSERT_EQ(h.bounds().size(), 1u);  // degenerate spec still usable

  obs::Histogram u({10, 20, 30, 40, 50, 60, 70, 80, 90, 100});
  for (int v = 1; v <= 100; ++v) u.Observe(v);
  EXPECT_EQ(u.Count(), 100u);
  EXPECT_DOUBLE_EQ(u.Sum(), 5050.0);
  EXPECT_NEAR(u.Percentile(0.50), 50.0, 10.0);
  EXPECT_NEAR(u.Percentile(0.95), 95.0, 10.0);
  EXPECT_NEAR(u.Percentile(0.99), 99.0, 10.0);
  // Monotone in q.
  EXPECT_LE(u.Percentile(0.50), u.Percentile(0.95));
  EXPECT_LE(u.Percentile(0.95), u.Percentile(0.99));
  // Overflow bucket: values beyond the last bound report the last bound.
  u.Observe(1e12);
  EXPECT_DOUBLE_EQ(u.Percentile(1.0), 100.0);
  // Empty histogram.
  obs::Histogram e({1, 2});
  EXPECT_DOUBLE_EQ(e.Percentile(0.5), 0.0);
}

TEST(MetricsTest, PercentileHardenedEdgeCases) {
  // Empty: every quantile is a deterministic 0, never NaN or a stale bound.
  obs::Histogram empty({1, 2, 4});
  for (double q : {0.0, 0.5, 0.95, 1.0}) {
    EXPECT_DOUBLE_EQ(empty.Percentile(q), 0.0) << "q=" << q;
  }

  // Overflow-only: all observations beyond the last finite bound. Every
  // rank lands in the +inf bucket, which reports the overflow lower bound
  // (the last finite bound) rather than interpolating toward infinity.
  obs::Histogram over({1, 2, 4});
  over.Observe(100.0);
  over.Observe(1e9);
  for (double q : {0.0, 0.25, 0.5, 0.95, 1.0}) {
    EXPECT_DOUBLE_EQ(over.Percentile(q), 4.0) << "q=" << q;
  }

  // Out-of-range q clamps instead of reading past the distribution.
  obs::Histogram u({10, 20});
  u.Observe(5);
  u.Observe(15);
  EXPECT_DOUBLE_EQ(u.Percentile(-0.5), u.Percentile(0.0));
  EXPECT_DOUBLE_EQ(u.Percentile(1.5), u.Percentile(1.0));

  // Single observation: every quantile interpolates within the one occupied
  // bucket (accuracy is one bucket width by design), never outside it.
  obs::Histogram one({10, 20});
  one.Observe(12);
  for (double q : {0.0, 0.5, 1.0}) {
    EXPECT_GE(one.Percentile(q), 10.0) << "q=" << q;
    EXPECT_LE(one.Percentile(q), 20.0) << "q=" << q;
  }
}

TEST(MetricsTest, JsonAndPrometheusExportContainRegisteredNames) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("obs_export_counter")->Inc(3);
  reg.GetGauge("obs_export_gauge")->Set(11);
  obs::Histogram* h =
      reg.GetHistogram("obs_export_hist{op=\"t\"}", {1.0, 10.0});
  h->Observe(0.5);
  h->Observe(5.0);
  h->Observe(50.0);

  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"obs_export_counter\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_export_gauge\":11"), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);

  const std::string prom = reg.ToPrometheus();
  EXPECT_NE(prom.find("obs_export_counter"), std::string::npos);
  EXPECT_NE(prom.find("obs_export_gauge 11"), std::string::npos);
  // Histogram label suffix merges with le; cumulative buckets + sum + count.
  EXPECT_NE(prom.find("obs_export_hist_bucket{op=\"t\",le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("obs_export_hist_bucket{op=\"t\",le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(prom.find("obs_export_hist_count{op=\"t\"} 3"),
            std::string::npos);
}

// ---- tracer -----------------------------------------------------------------

TEST(TraceTest, DisabledSpanSitesEmitNothing) {
  obs::SetTraceEnabled(false);
  obs::ClearTraceBuffers();
  {
    obs::SpanScope span(obs::SpanKind::kOperator, "noop");
    obs::EmitInstant(obs::SpanKind::kSteal, "steal", 1, 2);
  }
  EXPECT_TRUE(obs::DrainEvents().empty());
}

TEST(TraceTest, SpansAndInstantsAreRecordedWhenEnabled) {
  obs::ClearTraceBuffers();
  obs::SetTraceEnabled(true);
  {
    obs::SpanScope span(obs::SpanKind::kOperator, "op-span", /*a0=*/5);
    obs::EmitInstant(obs::SpanKind::kMutation, "mutate-basic", 5, 1);
  }
  obs::SetTraceEnabled(false);
  const auto events = obs::DrainEvents();
  ASSERT_EQ(events.size(), 2u);
  // Instant first (emitted inside the span), span second (on scope exit).
  EXPECT_STREQ(events[0].name, "mutate-basic");
  EXPECT_EQ(events[0].start_ticks, events[0].end_ticks);
  EXPECT_STREQ(events[1].name, "op-span");
  EXPECT_EQ(events[1].a0, 5);
  EXPECT_GE(events[1].end_ticks, events[1].start_ticks);
}

TEST(TraceTest, RingOverwritesOldestAndReportsDrops) {
  obs::ClearTraceBuffers();
  obs::SetTraceEnabled(true);
  const size_t extra = 100;
  for (size_t i = 0; i < obs::kTraceRingCapacity + extra; ++i) {
    obs::EmitInstant(obs::SpanKind::kSteal, "fill", static_cast<int64_t>(i));
  }
  obs::SetTraceEnabled(false);
  uint64_t dropped = 0;
  const auto events = obs::DrainEvents(&dropped);
  EXPECT_EQ(events.size(), obs::kTraceRingCapacity);
  EXPECT_EQ(dropped, extra);
  // Oldest-first drain: the surviving window is the LAST capacity events.
  EXPECT_EQ(events.front().a0, static_cast<int64_t>(extra));
  EXPECT_EQ(events.back().a0,
            static_cast<int64_t>(obs::kTraceRingCapacity + extra - 1));
}

TEST(TraceTest, ChromeTraceJsonIsWellFormedEnough) {
  obs::ClearTraceBuffers();
  obs::SetTraceEnabled(true);
  {
    obs::SpanScope span(obs::SpanKind::kQuery, "query");
    obs::SpanScope inner(obs::SpanKind::kOperator, "select", 1);
  }
  obs::SetTraceEnabled(false);
  const std::string json = obs::ChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"query\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"operator\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("apq_dropped_events"), std::string::npos);
}

TEST(TraceTest, WriteChromeTraceAndPathValidation) {
  obs::ClearTraceBuffers();
  obs::SetTraceEnabled(true);
  obs::EmitInstant(obs::SpanKind::kSteal, "steal", 0, 1);
  obs::SetTraceEnabled(false);

  const std::string path = ::testing::TempDir() + "/obs_test_trace.json";
  ASSERT_TRUE(obs::WriteChromeTrace(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::remove(path.c_str());

  EXPECT_FALSE(obs::WriteChromeTrace("/nonexistent-dir/x/trace.json").ok());
}

// ---- env knobs (util/env.h) -------------------------------------------------

// The one integer rule for every APQ_* knob, the protocol tag and the
// /debug/profile id: decimal digits in [lo, hi], nothing else.
TEST(EnvTest, ParseDecimalAcceptsDigitsOnlyInRange) {
  constexpr uint64_t kMax = UINT64_MAX;
  struct Row {
    const char* in;
    uint64_t lo, hi;
    bool ok;
  };
  const Row rows[] = {
      {"1", 1, 65535, true},
      {"65535", 1, 65535, true},
      {"0", 1, 65535, false},
      {"65536", 1, 65535, false},
      {"-1", 1, 65535, false},
      {"+80", 1, 65535, false},
      {" 80", 1, 65535, false},
      {"80x", 1, 65535, false},
      {"", 1, 65535, false},
      {nullptr, 1, 65535, false},
      {"10000000000000000080", 1, 65535, false},
      {"0", 0, 1, true},
      {"18446744073709551615", 0, kMax, true},
      {"18446744073709551616", 0, kMax, false},  // one past 2^64 - 1
  };
  for (const Row& r : rows) {
    const std::string in = r.in != nullptr ? r.in : "(null)";
    uint64_t out = 7;
    EXPECT_EQ(ParseDecimal(r.in, r.lo, r.hi, &out), r.ok) << "\"" << in << "\"";
    if (r.ok) {
      EXPECT_EQ(std::to_string(out), in);
    } else {
      EXPECT_EQ(out, 7u) << "\"" << in << "\" wrote its output";
    }
  }
}

TEST(EnvTest, InvalidIntKnobWarnsOnceAndKeepsTheDefault) {
  const char* kName = "APQ_TEST_ENV_INT";
  ASSERT_EQ(::setenv(kName, "12x", 1), 0);
  ::testing::internal::CaptureStderr();
  const std::optional<uint64_t> bad = EnvInt(kName, 1, 100);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_FALSE(bad.has_value());
  EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
  EXPECT_NE(err.find(kName), std::string::npos) << err;
  EXPECT_NE(err.find("12x"), std::string::npos) << err;
  EXPECT_NE(err.find("1..100"), std::string::npos) << err;

  ASSERT_EQ(::setenv(kName, "42", 1), 0);
  EXPECT_EQ(EnvInt(kName, 1, 100), std::optional<uint64_t>(42));
  ASSERT_EQ(::unsetenv(kName), 0);
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(EnvInt(kName, 1, 100).has_value());
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

// APQ_TRACE / APQ_METRICS / APQ_PROFILE: an unwritable target warns and
// stays off instead of failing a query; the probe never truncates.
TEST(EnvTest, EnvPathKeepsOnlyWritablePaths) {
  const char* kName = "APQ_TEST_ENV_PATH";
  ASSERT_EQ(::unsetenv(kName), 0);
  EXPECT_EQ(EnvPath(kName), "");
  ASSERT_EQ(::setenv(kName, "", 1), 0);
  EXPECT_EQ(EnvPath(kName), "");

  ASSERT_EQ(::setenv(kName, "/nonexistent-dir/x/trace.json", 1), 0);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(EnvPath(kName), "");
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
  EXPECT_NE(err.find(kName), std::string::npos) << err;

  const std::string path = ::testing::TempDir() + "/obs_test_env_path.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("keep", f);
  std::fclose(f);
  ASSERT_EQ(::setenv(kName, path.c_str(), 1), 0);
  EXPECT_EQ(EnvPath(kName), path);
  char buf[8] = {};
  f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(std::fread(buf, 1, sizeof(buf) - 1, f), 4u);
  std::fclose(f);
  EXPECT_STREQ(buf, "keep");
  std::remove(path.c_str());
  ASSERT_EQ(::unsetenv(kName), 0);
}

// ---- scheduler metrics invariants ------------------------------------------

// Sum of per-worker task counters + caller tasks == tasks submitted, and
// steals <= tasks, at every worker count; the registry's aggregate counters
// advance by exactly the same amounts.
TEST(SchedulerMetricsTest, TaskAndStealCountersAreConsistent) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter* tasks_total = reg.GetCounter("apq_sched_tasks_total");
  obs::Counter* steals_total = reg.GetCounter("apq_sched_steals_total");
  obs::Counter* caller_total = reg.GetCounter("apq_sched_caller_tasks_total");
  obs::Gauge* depth = reg.GetGauge("apq_sched_queue_depth");
  obs::Histogram* steal_lat = reg.GetHistogram(
      "apq_sched_steal_latency_ns", obs::Histogram::LatencyBoundsNs());

  for (int workers : {1, 2, 4, 8}) {
    MorselScheduler sched(workers);
    const uint64_t t0 = tasks_total->Value();
    const uint64_t s0 = steals_total->Value();
    const uint64_t c0 = caller_total->Value();
    const uint64_t h0 = steal_lat->Count();
    const int64_t d0 = depth->Value();

    constexpr size_t kTasks = 512;
    constexpr int kJobs = 4;
    std::atomic<uint64_t> ran{0};
    for (int j = 0; j < kJobs; ++j) {
      sched.ParallelFor(kTasks, [&](size_t, int) {
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
    const uint64_t submitted = kTasks * kJobs;
    EXPECT_EQ(ran.load(), submitted) << "workers=" << workers;

    // Scheduler-local invariant: every submitted task was claimed exactly
    // once, by a worker or by the submitting thread.
    const auto stats = sched.worker_stats();
    uint64_t worker_tasks = 0, worker_steals = 0;
    for (const auto& ws : stats) {
      EXPECT_LE(ws.steals, ws.tasks);
      worker_tasks += ws.tasks;
      worker_steals += ws.steals;
    }
    EXPECT_EQ(worker_tasks + sched.caller_tasks(), submitted)
        << "workers=" << workers;
    EXPECT_EQ(sched.total_tasks(), submitted);
    EXPECT_LE(worker_steals, worker_tasks);

    // Registry deltas mirror the scheduler's own counters (this suite runs
    // its schedulers quiesced and serially, so no other fleet interferes).
    EXPECT_EQ(tasks_total->Value() - t0, submitted) << "workers=" << workers;
    EXPECT_EQ(steals_total->Value() - s0, worker_steals);
    EXPECT_EQ(caller_total->Value() - c0, sched.caller_tasks());
    EXPECT_EQ(steal_lat->Count() - h0, worker_steals);
    EXPECT_EQ(depth->Value(), d0) << "queue depth must return to baseline";
  }
}

// Same invariants driven through the evaluator under forced small morsels:
// every morsel the operators report became exactly one scheduler task (plus
// whatever the agg/sort tiers submitted on top).
TEST(SchedulerMetricsTest, EvaluatorMorselRunFeedsTheCounters) {
  TpchConfig cfg;
  cfg.lineitem_rows = 6000;
  auto cat = Tpch::Generate(cfg);
  auto plan = Tpch::Q6(*cat);
  ASSERT_TRUE(plan.ok());

  for (int workers : {1, 2, 4, 8}) {
    ExecOptions o;
    o.morsel_rows = 512;
    Evaluator ev(o, std::make_shared<MorselScheduler>(workers));
    EvalResult er;
    ASSERT_TRUE(ev.Execute(plan.ValueOrDie(), &er).ok());

    const auto& sched = ev.morsel_scheduler();
    ASSERT_NE(sched, nullptr);
    uint64_t op_morsels = 0;
    for (const auto& m : er.metrics) op_morsels += m.morsels.size();
    EXPECT_GT(op_morsels, 0u) << "workers=" << workers;
    // The scheduler ran at least one task per reported morsel (merge/ingest
    // stages may add more), and steals never exceed tasks.
    EXPECT_GE(sched->total_tasks(), op_morsels) << "workers=" << workers;
    uint64_t wtasks = 0, wsteals = 0;
    for (const auto& ws : sched->worker_stats()) {
      wtasks += ws.tasks;
      wsteals += ws.steals;
    }
    EXPECT_EQ(wtasks + sched->caller_tasks(), sched->total_tasks());
    EXPECT_LE(wsteals, wtasks);
  }
}

// ---- determinism: tracing must never perturb results ------------------------

TEST(TraceDeterminismTest, TpchSuiteBitIdenticalTracingOnAndOff) {
  TpchConfig cfg;
  cfg.lineitem_rows = 6000;
  auto cat = Tpch::Generate(cfg);

  for (const auto& name : Tpch::QueryNames()) {
    auto plan = Tpch::Query(*cat, name);
    ASSERT_TRUE(plan.ok()) << name;

    // Baseline: tracing off, whole-column kernels.
    obs::SetTraceEnabled(false);
    Evaluator base_ev(ExecOptions{});
    EvalResult base;
    ASSERT_TRUE(base_ev.Execute(plan.ValueOrDie(), &base).ok()) << name;

    for (int workers : {1, 2, 4, 8}) {
      ExecOptions o;
      o.morsel_rows = 512;

      // Tracing OFF.
      obs::SetTraceEnabled(false);
      Evaluator off_ev(o, std::make_shared<MorselScheduler>(workers));
      EvalResult off;
      ASSERT_TRUE(off_ev.Execute(plan.ValueOrDie(), &off).ok())
          << name << " workers=" << workers;

      // Tracing ON (spans + sampled morsel spans + steal events recording).
      obs::SetTraceEnabled(true);
      Evaluator on_ev(o, std::make_shared<MorselScheduler>(workers));
      EvalResult on;
      ASSERT_TRUE(on_ev.Execute(plan.ValueOrDie(), &on).ok())
          << name << " workers=" << workers;
      obs::SetTraceEnabled(false);

      EXPECT_EQ(DiffIntermediates(base.result, off.result), "")
          << name << " workers=" << workers;
      EXPECT_EQ(DiffIntermediates(off.result, on.result), "")
          << name << " workers=" << workers << " (tracing changed results!)";
      ASSERT_EQ(off.metrics.size(), on.metrics.size());
      for (size_t i = 0; i < off.metrics.size(); ++i) {
        EXPECT_EQ(off.metrics[i].tuples_out, on.metrics[i].tuples_out)
            << name << " workers=" << workers << " op " << i;
      }
    }
  }
  // The traced runs actually recorded spans (the contract is "no result
  // perturbation", not "no tracing").
  EXPECT_FALSE(obs::DrainEvents().empty());
  obs::ClearTraceBuffers();
}

}  // namespace
}  // namespace apq
