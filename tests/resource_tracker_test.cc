// Per-query resource accounting (obs/resource_tracker.h): charge/uncharge
// units and the zero-drift discipline, operator-block scoping, task billing,
// the engine-level lifecycle (snapshot into the profile document, retire),
// scheduler worker-health telemetry, the APQ_QUERY_LOG parser, and the
// determinism contract — accounting on vs off must be bit-identical over
// the TPC-H suite at every worker count.
#include <gtest/gtest.h>

#include <algorithm>
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

// Restores the accounting switch no matter how a test exits (it is global
// process state; other suites assume the default ON).
class AccountingGuard {
 public:
  ~AccountingGuard() { obs::SetAccountingEnabled(true); }
};

// ---- charge/uncharge units --------------------------------------------------

TEST(ResourceTrackerTest, DisabledSitesAreNoOps) {
  AccountingGuard guard;
  obs::SetAccountingEnabled(false);
  const size_t live = obs::LiveQueryResourceCount();
  obs::QueryIdScope qid(obs::NextQueryId());
  obs::ChargeBytes(1 << 20);
  obs::ChargeTransient(1 << 20);
  obs::BillTask(obs::CurrentQueryId(), nullptr, 1e6, 1e3);
  // No block was ever created, so there is nothing to snapshot or leak.
  EXPECT_EQ(obs::LiveQueryResourceCount(), live);
  obs::QueryResources qr;
  EXPECT_FALSE(obs::SnapshotQueryResources(obs::CurrentQueryId(), &qr));
}

TEST(ResourceTrackerTest, ChargesLandOnQueryAndProcessGauges) {
  AccountingGuard guard;
  obs::SetAccountingEnabled(true);
  obs::Gauge* cur =
      obs::MetricsRegistry::Global().GetGauge("apq_mem_current_bytes");
  const uint64_t id = obs::NextQueryId();
  obs::QueryIdScope qid(id);
  const int64_t cur0 = cur->Value();

  obs::ChargeBytes(4096);
  obs::ChargeBytes(4096);
  EXPECT_EQ(cur->Value(), cur0 + 8192);
  obs::UnchargeBytes(4096);

  obs::QueryResources qr;
  ASSERT_TRUE(obs::SnapshotQueryResources(id, &qr));
  EXPECT_EQ(qr.cur_bytes, 4096u);
  EXPECT_EQ(qr.peak_bytes, 8192u);

  obs::UnchargeBytes(4096);
  ASSERT_TRUE(obs::SnapshotQueryResources(id, &qr));
  EXPECT_EQ(qr.cur_bytes, 0u);  // zero drift
  EXPECT_EQ(qr.peak_bytes, 8192u);
  EXPECT_EQ(cur->Value(), cur0);

  obs::FinishQuery(id);
  EXPECT_FALSE(obs::SnapshotQueryResources(id, &qr));
}

TEST(ResourceTrackerTest, TransientChargesRaisePeakNotCurrent) {
  AccountingGuard guard;
  obs::SetAccountingEnabled(true);
  const uint64_t id = obs::NextQueryId();
  obs::QueryIdScope qid(id);
  obs::ChargeTransient(1 << 16);
  obs::QueryResources qr;
  ASSERT_TRUE(obs::SnapshotQueryResources(id, &qr));
  EXPECT_EQ(qr.cur_bytes, 0u);
  EXPECT_EQ(qr.peak_bytes, static_cast<uint64_t>(1 << 16));
  obs::FinishQuery(id);
}

TEST(ResourceTrackerTest, ScopedMemChargeReleasesOnEveryPath) {
  AccountingGuard guard;
  obs::SetAccountingEnabled(true);
  const uint64_t id = obs::NextQueryId();
  obs::QueryIdScope qid(id);
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
  obs::QueryResources qr;
  ASSERT_TRUE(obs::SnapshotQueryResources(id, &qr));
  EXPECT_EQ(qr.cur_bytes, 0u);
  EXPECT_EQ(qr.peak_bytes, 1500u);
  obs::FinishQuery(id);
}

// AssumeCharged adopts bytes charged elsewhere (the sort-run pattern: run
// tasks ChargeBytes durably, the operator's guard owns the one uncharge).
TEST(ResourceTrackerTest, AssumeChargedAdoptsWithoutDoubleCharging) {
  AccountingGuard guard;
  obs::SetAccountingEnabled(true);
  const uint64_t id = obs::NextQueryId();
  obs::QueryIdScope qid(id);
  {
    obs::ChargeBytes(2048);  // "the run tasks"
    obs::ScopedMemCharge mc;
    mc.AssumeCharged(2048);
  }
  obs::QueryResources qr;
  ASSERT_TRUE(obs::SnapshotQueryResources(id, &qr));
  EXPECT_EQ(qr.cur_bytes, 0u);
  EXPECT_EQ(qr.peak_bytes, 2048u);
  obs::FinishQuery(id);
}

// ---- operator blocks --------------------------------------------------------

TEST(ResourceTrackerTest, OpAcctScopeNestsAndCollectsCharges) {
  AccountingGuard guard;
  obs::SetAccountingEnabled(true);
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
  AccountingGuard guard;
  obs::SetAccountingEnabled(true);
  const uint64_t id = obs::NextQueryId();
  obs::OpAcct acct;
  obs::BillTask(id, &acct, 1000.0, 50.0);
  obs::BillTask(id, &acct, -5.0, -5.0);  // clock skew clamps to zero
  obs::BillTask(0, nullptr, 1e9, 1e9);   // unowned: dropped entirely
  EXPECT_EQ(acct.cpu_ns.load(), 1000u);
  EXPECT_EQ(acct.queue_wait_ns.load(), 50u);
  EXPECT_EQ(acct.tasks.load(), 2u);
  obs::QueryResources qr;
  ASSERT_TRUE(obs::SnapshotQueryResources(id, &qr));
  EXPECT_EQ(qr.cpu_ns, 1000u);
  EXPECT_EQ(qr.queue_wait_ns, 50u);
  EXPECT_EQ(qr.tasks, 2u);
  obs::FinishQuery(id);
}

// ---- evaluator-level zero drift and CPU attribution -------------------------

// Execute a morselized TPC-H query under an owning query id at every worker
// count: all durable charges must return to zero by the time Execute
// returns, the peak must be visible, and the billed CPU must be bounded by
// the parallelism actually available.
TEST(ResourceTrackerTest, EvaluatorChargesReturnToZeroAcrossWorkerCounts) {
  AccountingGuard guard;
  obs::SetAccountingEnabled(true);
  TpchConfig cfg;
  cfg.lineitem_rows = 6000;
  auto cat = Tpch::Generate(cfg);

  for (const char* qname : {"Q6", "Q14"}) {
    auto plan = Tpch::Query(*cat, qname);
    ASSERT_TRUE(plan.ok()) << qname;
    for (int workers : {1, 2, 4, 8}) {
      ExecOptions o;
      o.use_morsels = true;
      o.morsel_rows = 512;
      o.morsel_workers = workers;
      Evaluator ev(o);

      const uint64_t id = obs::NextQueryId();
      EvalResult er;
      const double t0 = NowNs();
      {
        obs::QueryIdScope qid(id);
        ASSERT_TRUE(ev.Execute(plan.ValueOrDie(), &er).ok())
            << qname << " workers=" << workers;
      }
      const double wall = NowNs() - t0;

      obs::QueryResources qr;
      ASSERT_TRUE(obs::SnapshotQueryResources(id, &qr))
          << qname << " workers=" << workers;
      EXPECT_EQ(qr.cur_bytes, 0u)
          << qname << " workers=" << workers << " (charge drift!)";
      EXPECT_GT(qr.peak_bytes, 0u) << qname << " workers=" << workers;
      EXPECT_GT(qr.cpu_ns, 0u) << qname << " workers=" << workers;

      // Query CPU covers every operator's billed CPU (each bill lands on
      // both the operator block and the query block).
      uint64_t max_op_cpu = 0;
      for (const auto& m : er.metrics) {
        max_op_cpu = std::max(max_op_cpu, m.cpu_ns);
      }
      EXPECT_GE(qr.cpu_ns, max_op_cpu) << qname << " workers=" << workers;
      // And cannot exceed what the fleet (workers + the submitting thread)
      // could physically have executed inside the query's wall time; 1.25x
      // covers timer-granularity noise on short ops.
      EXPECT_LE(static_cast<double>(qr.cpu_ns),
                (workers + 1) * wall * 1.25)
          << qname << " workers=" << workers;

      obs::FinishQuery(id);
      EXPECT_FALSE(obs::SnapshotQueryResources(id, &qr));
    }
  }
}

// Group-by ingest charges its table, inline or thread-local, and sort its
// runs: with no fleet and on one, every durable charge is returned by the
// end of Execute.
TEST(ResourceTrackerTest, GroupByAndSortChargesReturnToZeroInlineAndOnAFleet) {
  AccountingGuard guard;
  obs::SetAccountingEnabled(true);
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
    o.use_morsels = fleet;
    o.morsel_rows = 512;
    o.morsel_workers = 4;
    Evaluator ev(o);
    const uint64_t id = obs::NextQueryId();
    EvalResult er;
    {
      obs::QueryIdScope qid(id);
      ASSERT_TRUE(ev.Execute(plan, &er).ok()) << "fleet=" << fleet;
    }
    obs::QueryResources qr;
    ASSERT_TRUE(obs::SnapshotQueryResources(id, &qr)) << "fleet=" << fleet;
    EXPECT_EQ(qr.cur_bytes, 0u) << "fleet=" << fleet << " (charge drift!)";
    EXPECT_GT(qr.peak_bytes, 0u) << "fleet=" << fleet;
    obs::FinishQuery(id);
  }
}

// A heuristic plan's clone levels run as fleet tasks that host operators.
// Those node tasks must bill nothing themselves: the query's CPU is exactly
// the sum of its operators' CPU, and every durable charge is returned.
TEST(ResourceTrackerTest, CloneLevelsOnTheFleetBillOnlyTheirOperators) {
  AccountingGuard guard;
  obs::SetAccountingEnabled(true);
  TpchConfig cfg;
  cfg.lineitem_rows = 6000;
  auto cat = Tpch::Generate(cfg);
  auto q9 = Tpch::Query(*cat, "Q9");
  ASSERT_TRUE(q9.ok());
  HeuristicParallelizer hp(HeuristicConfig{.dop = 8});
  auto plan = hp.Parallelize(q9.ValueOrDie());
  ASSERT_TRUE(plan.ok());

  ExecOptions o;
  o.use_morsels = true;
  o.morsel_rows = 512;
  o.morsel_workers = 4;
  Evaluator ev(o);
  for (int rep = 0; rep < 3; ++rep) {
    const uint64_t id = obs::NextQueryId();
    EvalResult er;
    {
      obs::QueryIdScope qid(id);
      ASSERT_TRUE(ev.Execute(plan.ValueOrDie(), &er).ok()) << rep;
    }
    obs::QueryResources qr;
    ASSERT_TRUE(obs::SnapshotQueryResources(id, &qr)) << rep;
    EXPECT_EQ(qr.cur_bytes, 0u) << rep << " (charge drift!)";
    uint64_t op_cpu = 0;
    for (const auto& m : er.metrics) op_cpu += m.cpu_ns;
    EXPECT_GT(op_cpu, 0u) << rep;
    EXPECT_EQ(qr.cpu_ns, op_cpu) << rep;
    obs::FinishQuery(id);
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

// The engine snapshots the block into the profile document and the query
// record, then retires it: live block count returns to its baseline, and
// the recorded surfaces carry the resource fields.
TEST(ResourceTrackerTest, EngineRecordsResourcesAndRetiresBlocks) {
  AccountingGuard guard;
  obs::SetAccountingEnabled(true);
  obs::QueryLog::Global().Clear();

  TpchConfig cfg;
  cfg.lineitem_rows = 6000;
  auto cat = Tpch::Generate(cfg);
  auto q6 = Tpch::Q6(*cat);
  ASSERT_TRUE(q6.ok());

  EngineConfig ecfg = EngineConfig::WithSim(SimConfig::Cores(8, 4));
  ecfg.use_morsels = true;
  ecfg.morsel_rows = 512;
  ecfg.morsel_workers = 4;
  Engine engine(ecfg);

  const size_t live0 = obs::LiveQueryResourceCount();
  auto out = engine.RunSerial(q6.ValueOrDie());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(obs::LiveQueryResourceCount(), live0)
      << "engine leaked a query accounting block";

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
  EXPECT_NE(profile.find("\"ops\":["), std::string::npos);
  obs::QueryLog::Global().Clear();
}

// ---- determinism: accounting must never perturb results ---------------------

TEST(ResourceTrackerTest, TpchSuiteBitIdenticalAccountingOnAndOff) {
  AccountingGuard guard;
  TpchConfig cfg;
  cfg.lineitem_rows = 6000;
  auto cat = Tpch::Generate(cfg);

  for (const auto& name : Tpch::QueryNames()) {
    auto plan = Tpch::Query(*cat, name);
    ASSERT_TRUE(plan.ok()) << name;

    // Baseline: accounting off, whole-column kernels.
    obs::SetAccountingEnabled(false);
    Evaluator base_ev(ExecOptions{});
    EvalResult base;
    ASSERT_TRUE(base_ev.Execute(plan.ValueOrDie(), &base).ok()) << name;

    for (int workers : {1, 2, 4, 8}) {
      ExecOptions o;
      o.use_morsels = true;
      o.morsel_rows = 512;
      o.morsel_workers = workers;

      obs::SetAccountingEnabled(false);
      Evaluator off_ev(o);
      EvalResult off;
      ASSERT_TRUE(off_ev.Execute(plan.ValueOrDie(), &off).ok())
          << name << " workers=" << workers;

      obs::SetAccountingEnabled(true);
      const uint64_t id = obs::NextQueryId();
      Evaluator on_ev(o);
      EvalResult on;
      {
        obs::QueryIdScope qid(id);
        ASSERT_TRUE(on_ev.Execute(plan.ValueOrDie(), &on).ok())
            << name << " workers=" << workers;
      }
      obs::FinishQuery(id);

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
