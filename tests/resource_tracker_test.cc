// Per-query resource accounting (obs/resource_tracker.h): charge/uncharge
// units and the zero-drift discipline, query-context and operator-block
// scoping, task billing (only under a query context), the engine-level
// lifecycle (snapshot into the profile document, every charge returned),
// scheduler worker-health telemetry, and the determinism contract — runs
// with and without a query context installed must be bit-identical over the
// TPC-H suite at every worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "exec/compare.h"
#include "exec/evaluator.h"
#include "heuristic/parallelizer.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/resource_tracker.h"
#include "plan/builder.h"
#include "sched/morsel_scheduler.h"
#include "util/hash_clock.h"
#include "workload/tpch.h"

namespace apq {
namespace {

// The process-wide gauge of charged bytes; every query returns it to where
// it started.
int64_t ProcessBytes() {
  return obs::MetricsRegistry::Global()
      .GetGauge("apq_mem_current_bytes")
      ->Value();
}

// ---- charge/uncharge units --------------------------------------------------

TEST(ResourceTrackerTest, ChargesLandOnQueryAndProcessGauges) {
  obs::QueryContext query{obs::NextQueryId()};
  obs::QueryScope scope(&query);
  const int64_t cur0 = ProcessBytes();

  obs::ChargeBytes(4096);
  obs::ChargeBytes(4096);
  EXPECT_EQ(ProcessBytes(), cur0 + 8192);
  obs::UnchargeBytes(4096);
  EXPECT_EQ(query.acct.cur_bytes.load(), 4096u);
  EXPECT_EQ(query.acct.peak_bytes.load(), 8192u);

  obs::UnchargeBytes(4096);
  EXPECT_EQ(query.acct.cur_bytes.load(), 0u);  // zero drift
  EXPECT_EQ(query.acct.peak_bytes.load(), 8192u);
  EXPECT_EQ(ProcessBytes(), cur0);
}

TEST(ResourceTrackerTest, NestedQueryScopesChargeTheInnermostQuery) {
  EXPECT_EQ(obs::CurrentQuery(), nullptr);
  obs::QueryContext outer{obs::NextQueryId()}, inner{obs::NextQueryId()};
  {
    obs::QueryScope so(&outer);
    EXPECT_EQ(obs::CurrentQuery(), &outer);
    obs::ChargeTransient(100);
    {
      obs::QueryScope si(&inner);
      EXPECT_EQ(obs::CurrentQuery(), &inner);
      obs::ChargeTransient(300);
    }
    EXPECT_EQ(obs::CurrentQuery(), &outer);
  }
  EXPECT_EQ(obs::CurrentQuery(), nullptr);
  EXPECT_EQ(outer.acct.peak_bytes.load(), 100u);
  EXPECT_EQ(inner.acct.peak_bytes.load(), 300u);
}

TEST(ResourceTrackerTest, TransientChargesRaisePeakNotCurrent) {
  obs::QueryContext query{obs::NextQueryId()};
  obs::QueryScope scope(&query);
  obs::ChargeTransient(1 << 16);
  EXPECT_EQ(query.acct.cur_bytes.load(), 0u);
  EXPECT_EQ(query.acct.peak_bytes.load(), static_cast<uint64_t>(1 << 16));
}

TEST(ResourceTrackerTest, ScopedMemChargeReleasesOnEveryPath) {
  obs::QueryContext query{obs::NextQueryId()};
  obs::QueryScope scope(&query);
  {
    obs::ScopedMemCharge mc(1000);
    mc.Add(500);
    mc.AssumeCharged(0);
    EXPECT_EQ(mc.held(), 1500u);
    mc.Release();
    EXPECT_EQ(mc.held(), 0u);
    mc.Release();  // idempotent
    mc.Add(250);   // destructor releases the rest
  }
  EXPECT_EQ(query.acct.cur_bytes.load(), 0u);
  EXPECT_EQ(query.acct.peak_bytes.load(), 1500u);
}

// AssumeCharged adopts bytes charged elsewhere (the sort-run pattern: run
// tasks ChargeBytes durably, the operator's guard owns the one uncharge).
TEST(ResourceTrackerTest, AssumeChargedAdoptsWithoutDoubleCharging) {
  obs::QueryContext query{obs::NextQueryId()};
  obs::QueryScope scope(&query);
  {
    obs::ChargeBytes(2048);  // "the run tasks"
    obs::ScopedMemCharge mc;
    mc.AssumeCharged(2048);
  }
  EXPECT_EQ(query.acct.cur_bytes.load(), 0u);
  EXPECT_EQ(query.acct.peak_bytes.load(), 2048u);
}

// ---- operator blocks --------------------------------------------------------

TEST(ResourceTrackerTest, OpAcctScopeNestsAndCollectsCharges) {
  EXPECT_EQ(obs::CurrentOpAcct(), nullptr);
  obs::OpAcct outer, inner;
  {
    obs::OpAcctScope so(&outer);
    EXPECT_EQ(obs::CurrentOpAcct(), &outer);
    obs::ChargeTransient(100);
    {
      obs::OpAcctScope si(&inner);
      EXPECT_EQ(obs::CurrentOpAcct(), &inner);
      obs::ChargeTransient(300);
    }
    EXPECT_EQ(obs::CurrentOpAcct(), &outer);
  }
  EXPECT_EQ(obs::CurrentOpAcct(), nullptr);
  EXPECT_EQ(outer.peak_bytes.load(), 100u);
  EXPECT_EQ(inner.peak_bytes.load(), 300u);
  EXPECT_EQ(outer.cur_bytes.load(), 0u);
  EXPECT_EQ(inner.cur_bytes.load(), 0u);
}

TEST(ResourceTrackerTest, BillTaskClampsAndAccumulates) {
  obs::QueryContext query{obs::NextQueryId()};
  obs::OpAcct acct;
  obs::BillTask(&query, &acct, 1000.0, 50.0);
  obs::BillTask(&query, &acct, -5.0, -5.0);  // clock skew clamps to zero
  obs::BillTask(nullptr, nullptr, 1e9, 1e9);  // unowned: dropped entirely
  EXPECT_EQ(acct.cpu_ns.load(), 1000u);
  EXPECT_EQ(acct.queue_wait_ns.load(), 50u);
  EXPECT_EQ(acct.tasks.load(), 2u);
  EXPECT_EQ(query.acct.cpu_ns.load(), 1000u);
  EXPECT_EQ(query.acct.queue_wait_ns.load(), 50u);
  EXPECT_EQ(query.acct.tasks.load(), 2u);
}

// Scheduler tasks see the submitting thread's query context and operator
// block on every worker, and bill them only when a query is installed and
// the job bills at all.
TEST(ResourceTrackerTest, TasksBillOnlyUnderAQueryContext) {
  MorselScheduler sched(4);
  obs::QueryContext query{obs::NextQueryId()};
  obs::OpAcct acct;
  obs::OpAcctScope acct_scope(&acct);
  std::atomic<int> foreign{0};
  auto task = [&](obs::QueryContext* expect) {
    return [&foreign, expect](size_t, int) {
      if (obs::CurrentQuery() != expect) foreign.fetch_add(1);
      volatile uint64_t x = 1;
      for (int k = 0; k < 1000; ++k) x = x * 2654435761u + k;
    };
  };
  sched.ParallelFor(64, task(nullptr));
  EXPECT_EQ(acct.tasks.load(), 0u);
  {
    obs::QueryScope scope(&query);
    sched.ParallelFor(64, task(&query), /*bill=*/false);
    EXPECT_EQ(query.acct.tasks.load(), 0u);
    sched.ParallelFor(64, task(&query));
  }
  EXPECT_EQ(foreign.load(), 0);
  EXPECT_EQ(query.acct.tasks.load(), 64u);
  EXPECT_EQ(acct.tasks.load(), 64u);
  EXPECT_EQ(query.acct.cpu_ns.load(), acct.cpu_ns.load());
  EXPECT_GT(query.acct.cpu_ns.load(), 0u);
}

// ---- evaluator-level zero drift and CPU attribution -------------------------

// Execute a TPC-H query under an owning query context, inline (workers = 0)
// and at every fleet size: all durable charges must return to zero by the
// time Execute returns, the peak must be visible, and the billed CPU must be
// bounded by the parallelism actually available.
TEST(ResourceTrackerTest, EvaluatorChargesReturnToZeroAcrossWorkerCounts) {
  TpchConfig cfg;
  cfg.lineitem_rows = 6000;
  auto cat = Tpch::Generate(cfg);

  for (const char* qname : {"Q6", "Q14"}) {
    auto plan = Tpch::Query(*cat, qname);
    ASSERT_TRUE(plan.ok()) << qname;
    for (int workers : {0, 1, 2, 4, 8}) {
      ExecOptions o;
      o.morsel_rows = 512;
      Evaluator ev(o, workers > 0 ? std::make_shared<MorselScheduler>(workers)
                                    : nullptr);

      obs::QueryContext query{obs::NextQueryId()};
      EvalResult er;
      const int64_t process0 = ProcessBytes();
      const double t0 = NowNs();
      {
        obs::QueryScope scope(&query);
        ASSERT_TRUE(ev.Execute(plan.ValueOrDie(), &er).ok())
            << qname << " workers=" << workers;
      }
      const double wall = NowNs() - t0;

      const obs::OpAcct& q = query.acct;
      EXPECT_EQ(q.cur_bytes.load(), 0u)
          << qname << " workers=" << workers << " (charge drift!)";
      EXPECT_EQ(ProcessBytes(), process0) << qname << " workers=" << workers;
      EXPECT_GT(q.peak_bytes.load(), 0u) << qname << " workers=" << workers;
      EXPECT_GT(q.cpu_ns.load(), 0u) << qname << " workers=" << workers;

      // Query CPU covers every operator's billed CPU (each bill lands on
      // both the operator block and the query context).
      uint64_t max_op_cpu = 0;
      for (const auto& m : er.metrics) {
        max_op_cpu = std::max(max_op_cpu, m.cpu_ns);
      }
      EXPECT_GE(q.cpu_ns.load(), max_op_cpu)
          << qname << " workers=" << workers;
      // And cannot exceed what the fleet (its workers + the submitting
      // thread) could physically have executed inside the query's wall
      // time; 1.25x covers timer-granularity noise on short ops. The fleet
      // is read back because APQ_FORCE_MORSELS gives the inline run one.
      const auto& fleet = ev.morsel_scheduler();
      const int threads = fleet != nullptr ? fleet->num_workers() + 1 : 1;
      EXPECT_LE(static_cast<double>(q.cpu_ns.load()), threads * wall * 1.25)
          << qname << " workers=" << workers;
    }
  }
}

// Group-by ingest charges its table, inline or thread-local, and sort its
// runs: with no fleet and on one, every durable charge is returned by the
// end of Execute.
TEST(ResourceTrackerTest, GroupByAndSortChargesReturnToZeroInlineAndOnAFleet) {
  std::vector<int64_t> kv(20000);
  for (size_t i = 0; i < kv.size(); ++i) {
    kv[i] = static_cast<int64_t>((i * 7919) % 1000);
  }
  auto keys = Column::MakeInt64("k", std::move(kv));
  PlanBuilder b("groupsort");
  int g = b.GroupByLeaf(keys.get());
  int a = b.AggGrouped(AggFn::kCount, g);
  int s = b.Sort(a, /*descending=*/true);
  const QueryPlan plan = b.Result(s);
  for (bool fleet : {false, true}) {
    ExecOptions o;
    o.morsel_rows = 512;
    Evaluator ev(o, fleet ? std::make_shared<MorselScheduler>(4) : nullptr);
    obs::QueryContext query{obs::NextQueryId()};
    EvalResult er;
    {
      obs::QueryScope scope(&query);
      ASSERT_TRUE(ev.Execute(plan, &er).ok()) << "fleet=" << fleet;
    }
    EXPECT_EQ(query.acct.cur_bytes.load(), 0u)
        << "fleet=" << fleet << " (charge drift!)";
    EXPECT_GT(query.acct.peak_bytes.load(), 0u) << "fleet=" << fleet;
  }
}

// A heuristic plan's clone levels run as fleet tasks that host operators.
// Those node tasks must bill nothing themselves: the query's CPU is exactly
// the sum of its operators' CPU, and every durable charge is returned.
TEST(ResourceTrackerTest, CloneLevelsOnTheFleetBillOnlyTheirOperators) {
  TpchConfig cfg;
  cfg.lineitem_rows = 6000;
  auto cat = Tpch::Generate(cfg);
  auto q9 = Tpch::Query(*cat, "Q9");
  ASSERT_TRUE(q9.ok());
  HeuristicParallelizer hp(HeuristicConfig{.dop = 8});
  auto plan = hp.Parallelize(q9.ValueOrDie());
  ASSERT_TRUE(plan.ok());

  ExecOptions o;
  o.morsel_rows = 512;
  Evaluator ev(o, std::make_shared<MorselScheduler>(4));
  for (int rep = 0; rep < 3; ++rep) {
    obs::QueryContext query{obs::NextQueryId()};
    EvalResult er;
    {
      obs::QueryScope scope(&query);
      ASSERT_TRUE(ev.Execute(plan.ValueOrDie(), &er).ok()) << rep;
    }
    EXPECT_EQ(query.acct.cur_bytes.load(), 0u) << rep << " (charge drift!)";
    uint64_t op_cpu = 0;
    for (const auto& m : er.metrics) op_cpu += m.cpu_ns;
    EXPECT_GT(op_cpu, 0u) << rep;
    EXPECT_EQ(query.acct.cpu_ns.load(), op_cpu) << rep;
  }
}

// ---- scheduler worker-health telemetry --------------------------------------

TEST(ResourceTrackerTest, WorkerOccupancyIsBoundedByUptime) {
  for (int workers : {1, 2, 4, 8}) {
    MorselScheduler sched(workers);
    for (int j = 0; j < 4; ++j) {
      sched.ParallelFor(256, [](size_t i, int) {
        volatile uint64_t x = i;
        for (int k = 0; k < 100; ++k) x = x * 2654435761u + k;
      });
    }
    // Read stats before uptime: busy only grows, so busy <= uptime holds
    // strictly in this order.
    const auto stats = sched.worker_stats();
    const uint64_t caller_busy = sched.caller_busy_ns();
    const double uptime = sched.uptime_ns();
    ASSERT_EQ(static_cast<int>(stats.size()), workers);
    uint64_t total_busy = 0;
    for (const auto& ws : stats) {
      EXPECT_LE(static_cast<double>(ws.busy_ns), uptime)
          << "workers=" << workers;
      EXPECT_LE(ws.steals, ws.tasks);
      total_busy += ws.busy_ns;
    }
    // Something executed somewhere (workers or the submitting thread).
    EXPECT_GT(total_busy + caller_busy, 0u) << "workers=" << workers;
    EXPECT_EQ(sched.total_tasks(), 4u * 256u);
  }
}

TEST(ResourceTrackerTest, DebugJsonCarriesWorkerListAndFlight) {
  MorselScheduler sched(2);
  sched.ParallelFor(64, [](size_t, int) {});
  const std::string json = sched.DebugJson();
  for (const char* needle :
       {"\"workers\":2", "\"uptime_ns\":", "\"pending\":",
        "\"caller_tasks\":", "\"caller_busy_ns\":", "\"total_tasks\":",
        "\"worker_list\":[", "\"steal_fails\":", "\"busy_ns\":",
        "\"idle_ns\":", "\"flight\":["}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle << " in "
                                                    << json;
  }
  // The process-wide document wraps every live scheduler.
  const std::string all = MorselScheduler::WorkersJson();
  EXPECT_NE(all.find("{\"schedulers\":["), std::string::npos);
  EXPECT_NE(all.find("\"worker_list\":["), std::string::npos);
}

// ---- engine lifecycle -------------------------------------------------------

// The engine snapshots its query context into the profile document and the
// query record: every byte a plain or an adaptive query charged is returned
// to the process gauge, and the recorded surfaces carry the resource fields.
TEST(ResourceTrackerTest, EngineRecordsResourcesAndReturnsEveryCharge) {
  obs::QueryLog::Global().Clear();

  TpchConfig cfg;
  cfg.lineitem_rows = 6000;
  auto cat = Tpch::Generate(cfg);
  auto q6 = Tpch::Q6(*cat);
  ASSERT_TRUE(q6.ok());

  EngineConfig ecfg = EngineConfig::WithSim(SimConfig::Cores(8, 4));
  ecfg.morsel_rows = 512;
  ecfg.morsel_scheduler = std::make_shared<MorselScheduler>(4);
  Engine engine(ecfg);

  const int64_t process0 = ProcessBytes();
  auto out = engine.RunSerial(q6.ValueOrDie());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(ProcessBytes(), process0) << "RunSerial left bytes charged";

  const auto snap = obs::QueryLog::Global().Snapshot();
  ASSERT_FALSE(snap.empty());
  EXPECT_EQ(snap[0].id, out.ValueOrDie().query_id);
  EXPECT_GT(snap[0].peak_bytes, 0u);
  EXPECT_GT(snap[0].cpu_ns, 0.0);

  std::string profile;
  ASSERT_TRUE(
      obs::QueryLog::Global().FindProfile(snap[0].id, &profile));
  for (const char* needle :
       {"\"peak_bytes\":", "\"cpu_ns\":", "\"queue_wait_ns\":",
        "\"workers\":4", "\"parallel_efficiency\":"}) {
    EXPECT_NE(profile.find(needle), std::string::npos) << needle;
  }
  // Per-operator attribution made it into the ops array too.
  const size_t ops = profile.find("\"ops\":[");
  ASSERT_NE(ops, std::string::npos);
  for (const char* needle :
       {"\"tuples_in\":", "\"peak_bytes\":", "\"cpu_ns\":",
        "\"queue_wait_ns\":", "\"num_morsels\":"}) {
    EXPECT_NE(profile.find(needle, ops), std::string::npos) << needle;
  }

  auto adaptive = engine.RunAdaptive(q6.ValueOrDie());
  ASSERT_TRUE(adaptive.ok());
  EXPECT_EQ(ProcessBytes(), process0) << "RunAdaptive left bytes charged";
  const auto snap2 = obs::QueryLog::Global().Snapshot();
  ASSERT_FALSE(snap2.empty());
  EXPECT_EQ(snap2[0].id, adaptive.ValueOrDie().query_id);
  EXPECT_EQ(snap2[0].kind, "adaptive");
  EXPECT_GT(snap2[0].peak_bytes, 0u);
  EXPECT_GT(snap2[0].cpu_ns, 0.0);
  obs::QueryLog::Global().Clear();
}

// The hash-index cache outlives queries but not its evaluator: the bytes its
// builds parked in apq_hash_cache_bytes go back when the evaluator dies.
TEST(ResourceTrackerTest, DestroyedEvaluatorsReturnTheirHashCacheBytes) {
  TpchConfig cfg;
  cfg.lineitem_rows = 6000;
  auto cat = Tpch::Generate(cfg);
  auto q9 = Tpch::Query(*cat, "Q9");
  ASSERT_TRUE(q9.ok());
  obs::Gauge* cache =
      obs::MetricsRegistry::Global().GetGauge("apq_hash_cache_bytes");
  const int64_t cache0 = cache->Value();
  {
    Evaluator a, b, c;
    for (Evaluator* ev : {&a, &b, &c}) {
      EvalResult er;
      ASSERT_TRUE(ev->Execute(q9.ValueOrDie(), &er).ok());
    }
    EXPECT_GT(cache->Value(), cache0) << "Q9 builds no hash index";
  }
  EXPECT_EQ(cache->Value(), cache0);
}

// ---- determinism: accounting must never perturb results ---------------------

// Each query runs whole-column, then on a 1/2/4/8-worker fleet without a
// query context (no task bills) and with one (every task bills): all three
// results and every operator's tuple counts must agree.
TEST(ResourceTrackerTest, TpchSuiteBitIdenticalWithAndWithoutAQueryContext) {
  TpchConfig cfg;
  cfg.lineitem_rows = 6000;
  auto cat = Tpch::Generate(cfg);

  for (const auto& name : Tpch::QueryNames()) {
    auto plan = Tpch::Query(*cat, name);
    ASSERT_TRUE(plan.ok()) << name;

    Evaluator base_ev(ExecOptions{});
    EvalResult base;
    ASSERT_TRUE(base_ev.Execute(plan.ValueOrDie(), &base).ok()) << name;

    for (int workers : {1, 2, 4, 8}) {
      ExecOptions o;
      o.morsel_rows = 512;

      Evaluator off_ev(o, std::make_shared<MorselScheduler>(workers));
      EvalResult off;
      ASSERT_TRUE(off_ev.Execute(plan.ValueOrDie(), &off).ok())
          << name << " workers=" << workers;

      obs::QueryContext query{obs::NextQueryId()};
      Evaluator on_ev(o, std::make_shared<MorselScheduler>(workers));
      EvalResult on;
      {
        obs::QueryScope scope(&query);
        ASSERT_TRUE(on_ev.Execute(plan.ValueOrDie(), &on).ok())
            << name << " workers=" << workers;
      }
      EXPECT_GT(query.acct.tasks.load(), 0u) << name << " workers=" << workers;

      EXPECT_EQ(DiffIntermediates(base.result, off.result), "")
          << name << " workers=" << workers;
      EXPECT_EQ(DiffIntermediates(off.result, on.result), "")
          << name << " workers=" << workers
          << " (accounting changed results!)";
      ASSERT_EQ(off.metrics.size(), on.metrics.size());
      for (size_t i = 0; i < off.metrics.size(); ++i) {
        EXPECT_EQ(off.metrics[i].tuples_out, on.metrics[i].tuples_out)
            << name << " workers=" << workers << " op " << i;
      }
    }
  }
}

}  // namespace
}  // namespace apq
