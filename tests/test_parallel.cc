// Tests for morsel-driven parallel execution (docs/CONCURRENCY.md):
// result equivalence against threads=1 for join and aggregation over
// multi-row-group tables, morsel counts smaller than the worker count,
// reactive mid-query thread-budget reduction via SyntheticAppMonitor,
// TaskScheduler semantics (clamping, error propagation, lazy pool), and
// the per-connection PRAGMA threads override. The whole file is part of
// the TSAN target in CI (see .github/workflows/ci.yml).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "mallard/governor/resource_governor.h"
#include "mallard/main/appender.h"
#include "mallard/main/connection.h"
#include "mallard/main/prepared_statement.h"
#include "mallard/parallel/morsel.h"
#include "mallard/parallel/task_scheduler.h"

namespace mallard {
namespace {

// --- TaskScheduler unit tests ----------------------------------------------

TEST(TaskSchedulerTest, RunsEveryWorkerExactlyOnce) {
  TaskScheduler scheduler(nullptr);
  std::atomic<int> calls{0};
  std::atomic<uint64_t> worker_mask{0};
  Status status = scheduler.Run(4, [&](int worker) {
    calls.fetch_add(1);
    worker_mask.fetch_or(uint64_t(1) << worker);
    return Status::OK();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls.load(), 4);
  EXPECT_EQ(worker_mask.load(), 0b1111u);
  EXPECT_EQ(scheduler.pool_size(), 3);
}

TEST(TaskSchedulerTest, SingleThreadRunsInline) {
  TaskScheduler scheduler(nullptr);
  std::thread::id caller = std::this_thread::get_id();
  Status status = scheduler.Run(1, [&](int worker) {
    EXPECT_EQ(worker, 0);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    return Status::OK();
  });
  EXPECT_TRUE(status.ok());
  // No pool thread was ever needed.
  EXPECT_EQ(scheduler.pool_size(), 0);
}

TEST(TaskSchedulerTest, PropagatesFirstWorkerError) {
  TaskScheduler scheduler(nullptr);
  Status status = scheduler.Run(4, [&](int worker) {
    if (worker == 2) return Status::Internal("worker 2 failed");
    return Status::OK();
  });
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("worker 2 failed"), std::string::npos);
}

TEST(TaskSchedulerTest, GovernorClampsLaunchWidth) {
  GovernorConfig config;
  config.max_threads = 2;
  ResourceGovernor governor(config);
  TaskScheduler scheduler(&governor);
  std::atomic<int> calls{0};
  ASSERT_TRUE(scheduler.Run(8, [&](int) {
                         calls.fetch_add(1);
                         return Status::OK();
                       })
                  .ok());
  EXPECT_EQ(calls.load(), 2);
  EXPECT_EQ(scheduler.pool_size(), 1);
}

TEST(TaskSchedulerTest, PoolIsReusedAcrossRuns) {
  TaskScheduler scheduler(nullptr);
  for (int round = 0; round < 10; round++) {
    std::atomic<int> calls{0};
    ASSERT_TRUE(scheduler.Run(3, [&](int) {
                           calls.fetch_add(1);
                           return Status::OK();
                         })
                    .ok());
    EXPECT_EQ(calls.load(), 3);
  }
  EXPECT_EQ(scheduler.pool_size(), 2);
}

// --- Governor thread budget ------------------------------------------------

TEST(ThreadBudgetTest, ReactiveBudgetShrinksUnderAppCpuPressure) {
  GovernorConfig config;
  config.max_threads = 4;
  config.reactive = true;
  ResourceGovernor governor(config);
  SyntheticAppMonitor monitor;
  governor.SetMonitor(&monitor);

  monitor.SetCpu(0.0);
  EXPECT_EQ(governor.EffectiveThreadBudget(), 4);
  monitor.SetCpu(0.5);
  EXPECT_EQ(governor.EffectiveThreadBudget(), 2);
  monitor.SetCpu(1.0);
  EXPECT_EQ(governor.EffectiveThreadBudget(), 1);  // never starves to 0
  monitor.SetCpu(0.25);
  EXPECT_EQ(governor.EffectiveThreadBudget(), 3);
  EXPECT_EQ(governor.Sample().thread_budget, 3);

  // Manual mode ignores the monitor entirely.
  governor.SetReactive(false);
  monitor.SetCpu(1.0);
  EXPECT_EQ(governor.EffectiveThreadBudget(), 4);
}

// --- Morsel source ---------------------------------------------------------

TEST(MorselSourceTest, HandsOutEveryRowGroupExactlyOnce) {
  TableMorselSource source(10, nullptr, /*thread_limit=*/4);
  std::set<idx_t> seen;
  idx_t g;
  while (source.Next(0, &g)) seen.insert(g);
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 9u);
  EXPECT_FALSE(source.Next(1, &g));  // exhausted for everyone
  EXPECT_EQ(source.MorselsClaimed(0), 10u);
  EXPECT_EQ(source.MorselsClaimed(1), 0u);
}

TEST(MorselSourceTest, SurplusWorkersDrainWhenReactiveBudgetDrops) {
  GovernorConfig config;
  config.max_threads = 4;
  config.reactive = true;
  ResourceGovernor governor(config);
  SyntheticAppMonitor monitor;
  governor.SetMonitor(&monitor);
  monitor.SetCpu(0.0);

  TableMorselSource source(100, &governor, /*thread_limit=*/0);
  idx_t g;
  ASSERT_TRUE(source.Next(3, &g));  // full budget: worker 3 gets morsels

  // The application gets busy mid-query: budget 4 -> 1. Workers 1..3
  // stop at the next morsel boundary; worker 0 keeps the query going.
  monitor.SetCpu(1.0);
  EXPECT_FALSE(source.Next(3, &g));
  EXPECT_FALSE(source.Next(1, &g));
  EXPECT_TRUE(source.Next(0, &g));

  // Pressure clears: surplus workers would resume (the scheduler keeps
  // them parked only if the sink already joined).
  monitor.SetCpu(0.0);
  EXPECT_TRUE(source.Next(3, &g));
}

TEST(MorselSourceTest, PragmaOverridePinsBudgetAgainstMonitor) {
  GovernorConfig config;
  config.max_threads = 4;
  config.reactive = true;
  ResourceGovernor governor(config);
  SyntheticAppMonitor monitor;
  governor.SetMonitor(&monitor);
  monitor.SetCpu(1.0);  // reactive budget = 1

  // thread_limit > 0 (PRAGMA threads) wins over the reactive budget.
  TableMorselSource source(10, &governor, /*thread_limit=*/3);
  idx_t g;
  EXPECT_TRUE(source.Next(2, &g));
  EXPECT_FALSE(source.Next(3, &g));  // beyond the pinned limit
}

// --- SQL-level equivalence -------------------------------------------------

class ParallelSqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open(":memory:");
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    con_ = std::make_unique<Connection>(db_.get());
  }

  // Builds a table of `rows` rows spanning rows/kRowGroupSize row groups:
  // k cycles through `keys` values (plus NULLs every 97th row), v counts
  // up. Integer-only so parallel sums are bit-exact at any thread count.
  void FillKeyed(const std::string& table, int rows, int keys) {
    ASSERT_TRUE(
        con_->Query("CREATE TABLE " + table + " (k BIGINT, v BIGINT)").ok());
    std::string ins;
    for (int i = 0; i < rows; i++) {
      ins += ins.empty() ? "INSERT INTO " + table + " VALUES " : ",";
      std::string k =
          i % 97 == 0 ? "NULL" : std::to_string((i * 7919) % keys);
      ins += "(" + k + "," + std::to_string(i) + ")";
      if (ins.size() > (1u << 20)) {
        ASSERT_TRUE(con_->Query(ins).ok());
        ins.clear();
      }
    }
    if (!ins.empty()) ASSERT_TRUE(con_->Query(ins).ok());
  }

  // Bulk variant of FillKeyed through the Appender (large tables would
  // spend the whole test budget in INSERT parsing). Same shape: k
  // cycles through `keys` values with NULLs every 97th row — except
  // `keys` == 0, which makes every k distinct (k = row index).
  void FillAppender(const std::string& table, int rows, int keys) {
    ASSERT_TRUE(
        con_->Query("CREATE TABLE " + table + " (k BIGINT, v BIGINT)").ok());
    auto app = Appender::Create(db_.get(), table);
    ASSERT_TRUE(app.ok());
    for (int i = 0; i < rows; i++) {
      if (i % 97 == 0) {
        (*app)->AppendNull();
      } else {
        (*app)->Append(
            static_cast<int64_t>(keys ? (i * 7919LL) % keys : i));
      }
      (*app)->Append(static_cast<int64_t>(i));
      ASSERT_TRUE((*app)->EndRow().ok());
    }
    ASSERT_TRUE((*app)->Close().ok());
  }

  // Canonical row multiset of a query result (parallel plans may emit
  // groups/matches in a different order; SQL results are unordered).
  std::multiset<std::string> Rows(const std::string& sql) {
    auto r = con_->Query(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    std::multiset<std::string> rows;
    if (!r.ok()) return rows;
    for (idx_t i = 0; i < (*r)->RowCount(); i++) {
      std::string row;
      for (idx_t c = 0; c < (*r)->ColumnCount(); c++) {
        row += (*r)->GetValue(c, i).ToString() + "|";
      }
      rows.insert(row);
    }
    return rows;
  }

  std::multiset<std::string> RowsAtThreads(int threads,
                                           const std::string& sql) {
    EXPECT_TRUE(
        con_->Query("PRAGMA threads = " + std::to_string(threads)).ok());
    return Rows(sql);
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Connection> con_;
};

TEST_F(ParallelSqlTest, AggregateMatchesSerialAcrossThreadCounts) {
  // ~5 row groups, 500 groups, NULL group included.
  FillKeyed("t", 40000, 500);
  const std::string sql =
      "SELECT k, count(*), sum(v), min(v), max(v) FROM t GROUP BY k";
  auto serial = RowsAtThreads(1, sql);
  EXPECT_EQ(serial.size(), 501u);  // 500 keys + NULL group
  for (int threads : {2, 4, 8}) {
    EXPECT_EQ(serial, RowsAtThreads(threads, sql)) << threads << " threads";
  }
}

TEST_F(ParallelSqlTest, UngroupedAggregateMatchesSerial) {
  FillKeyed("t", 30000, 100);
  const std::string sql =
      "SELECT count(*), count(k), sum(v), min(v), max(v) FROM t";
  auto serial = RowsAtThreads(1, sql);
  EXPECT_EQ(serial, RowsAtThreads(4, sql));
}

TEST_F(ParallelSqlTest, HashJoinMatchesSerialAcrossThreadCounts) {
  // Build side spans multiple row groups with duplicate and NULL keys.
  // The filtered probe_t would be the cheaper build side; keep the
  // written order so build_t is what the parallel build splits.
  FillKeyed("probe_t", 6000, 300);
  FillKeyed("build_t", 30000, 300);
  ASSERT_TRUE(con_->Query("PRAGMA join_order=syntactic").ok());
  const std::string sql =
      "SELECT probe_t.k, probe_t.v, build_t.v FROM probe_t "
      "JOIN build_t ON probe_t.k = build_t.k WHERE probe_t.v < 600";
  auto serial = RowsAtThreads(1, sql);
  EXPECT_GT(serial.size(), 0u);
  for (int threads : {2, 4}) {
    EXPECT_EQ(serial, RowsAtThreads(threads, sql)) << threads << " threads";
  }
  // Left/semi/anti run through the same parallel build.
  for (const char* shape :
       {"SELECT probe_t.v FROM probe_t LEFT JOIN build_t "
        "ON probe_t.k = build_t.k WHERE build_t.v IS NULL",
        "SELECT probe_t.v FROM probe_t SEMI JOIN build_t "
        "ON probe_t.k = build_t.k",
        "SELECT probe_t.v FROM probe_t ANTI JOIN build_t "
        "ON probe_t.k = build_t.k"}) {
    auto one = RowsAtThreads(1, shape);
    auto four = RowsAtThreads(4, shape);
    EXPECT_EQ(one, four) << shape;
  }
}

TEST_F(ParallelSqlTest, FilterAndProjectionCloneIntoWorkers) {
  FillKeyed("t", 40000, 50);
  const std::string sql =
      "SELECT k * 2, sum(v + 1) FROM t WHERE v % 3 = 0 AND k IS NOT NULL "
      "GROUP BY k * 2";
  auto serial = RowsAtThreads(1, sql);
  EXPECT_EQ(serial.size(), 50u);
  EXPECT_EQ(serial, RowsAtThreads(4, sql));
}

TEST_F(ParallelSqlTest, MorselCountSmallerThanThreadCount) {
  // One row group: the pipeline stays serial (nothing to split); with
  // two row groups, six of the eight requested workers find no morsel.
  FillKeyed("tiny", 100, 5);
  FillKeyed("two_groups", 10000, 5);
  for (const char* table : {"tiny", "two_groups"}) {
    std::string sql = std::string("SELECT k, count(*), sum(v) FROM ") +
                      table + " GROUP BY k";
    auto serial = RowsAtThreads(1, sql);
    EXPECT_EQ(serial, RowsAtThreads(8, sql)) << table;
  }
}

TEST_F(ParallelSqlTest, PerConnectionThreadOverride) {
  FillKeyed("t", 20000, 20);
  Connection other(db_.get());
  ASSERT_TRUE(con_->Query("PRAGMA threads = 2").ok());
  EXPECT_EQ(con_->ThreadOverride(), 2);
  // The second connection keeps the governor default.
  EXPECT_EQ(other.ThreadOverride(), 0);
  // 0 clears the override (back to the governor's budget); negatives
  // and garbage are rejected.
  ASSERT_TRUE(con_->Query("PRAGMA threads = 0").ok());
  EXPECT_EQ(con_->ThreadOverride(), 0);
  EXPECT_FALSE(con_->Query("PRAGMA threads = -1").ok());
  ASSERT_TRUE(con_->Query("PRAGMA threads = 2").ok());
  // Both produce the same (correct) result.
  auto a = Rows("SELECT k, sum(v) FROM t GROUP BY k");
  auto b = [&] {
    auto r = other.Query("SELECT k, sum(v) FROM t GROUP BY k");
    EXPECT_TRUE(r.ok());
    std::multiset<std::string> rows;
    for (idx_t i = 0; i < (*r)->RowCount(); i++) {
      std::string row;
      for (idx_t c = 0; c < (*r)->ColumnCount(); c++) {
        row += (*r)->GetValue(c, i).ToString() + "|";
      }
      rows.insert(row);
    }
    return rows;
  }();
  EXPECT_EQ(a, b);
}

TEST_F(ParallelSqlTest, MidQueryBudgetReductionKeepsResultsExact) {
  // A reactive governor whose monitor flips to "application busy" while
  // parallel aggregations are running: surplus workers drain at morsel
  // boundaries and results stay identical. The cap is raised explicitly
  // so the pipeline fans out even on a small CI host (the default cap
  // is the core count).
  FillKeyed("t", 60000, 1000);
  SyntheticAppMonitor monitor;
  db_->governor().SetThreads(4);
  db_->governor().SetMonitor(&monitor);
  db_->governor().SetReactive(true);
  monitor.SetCpu(0.0);

  const std::string sql =
      "SELECT k, count(*), sum(v), min(v), max(v) FROM t GROUP BY k";
  auto expected = Rows(sql);
  EXPECT_EQ(expected.size(), 1001u);

  std::atomic<bool> stop{false};
  std::thread pressure([&] {
    // Oscillate the app's CPU usage as fast as possible while queries
    // run, forcing budget re-evaluation at many morsel boundaries.
    bool busy = false;
    while (!stop.load()) {
      monitor.SetCpu(busy ? 1.0 : 0.0);
      busy = !busy;
      std::this_thread::yield();
    }
  });
  for (int round = 0; round < 20; round++) {
    EXPECT_EQ(expected, Rows(sql)) << "round " << round;
  }
  stop.store(true);
  pressure.join();
  db_->governor().SetReactive(false);
  db_->governor().SetMonitor(nullptr);
}

TEST_F(ParallelSqlTest, PragmaThreadsReadbackReportsEffectiveBudget) {
  // No value = readback: the pinned override, else the governor budget.
  db_->governor().SetThreads(4);
  auto r = con_->Query("PRAGMA threads");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(), 4);
  ASSERT_TRUE(con_->Query("PRAGMA threads = 3").ok());
  r = con_->Query("PRAGMA threads");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(), 3);
  // The readback is per-connection: a sibling connection still follows
  // the governor.
  Connection other(db_.get());
  auto other_r = other.Query("PRAGMA threads");
  ASSERT_TRUE(other_r.ok());
  EXPECT_EQ((*other_r)->GetValue(0, 0).GetBigInt(), 4);
  // Clearing the override returns to the governor's budget, which the
  // readback tracks live (reactive shrink included).
  ASSERT_TRUE(con_->Query("PRAGMA threads = 0").ok());
  SyntheticAppMonitor monitor;
  db_->governor().SetMonitor(&monitor);
  db_->governor().SetReactive(true);
  monitor.SetCpu(0.5);
  r = con_->Query("PRAGMA threads");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(), 2);
  db_->governor().SetReactive(false);
  db_->governor().SetMonitor(nullptr);
}

TEST_F(ParallelSqlTest, HashJoinProbeMatchesSerialAcrossThreadCounts) {
  // The PROBE side spans many row groups while the build side fits in
  // one (the build stays serial: one row group = nothing to split). A
  // join at the root probes serially; under count(*) its probe runs in
  // the aggregate's workers. Keys duplicate on both sides and go NULL
  // every 97th row (FillKeyed).
  FillKeyed("probe_t", 50000, 400);
  FillKeyed("build_t", 5000, 400);
  const std::string inner =
      "SELECT probe_t.k, probe_t.v, build_t.v FROM probe_t "
      "JOIN build_t ON probe_t.k = build_t.k WHERE probe_t.v % 20 = 0";
  auto serial = RowsAtThreads(1, inner);
  EXPECT_GT(serial.size(), 0u);
  for (int threads : {2, 4, 8}) {
    EXPECT_EQ(serial, RowsAtThreads(threads, inner)) << threads
                                                     << " threads";
  }
  // Left join emits the NULL-padded build columns; semi/anti emit probe
  // rows only. All three probe through the same cursor.
  for (const char* shape :
       {"SELECT probe_t.k, probe_t.v, build_t.v FROM probe_t "
        "LEFT JOIN build_t ON probe_t.k = build_t.k "
        "WHERE probe_t.v < 2500",
        "SELECT probe_t.v FROM probe_t SEMI JOIN build_t "
        "ON probe_t.k = build_t.k",
        "SELECT probe_t.v FROM probe_t ANTI JOIN build_t "
        "ON probe_t.k = build_t.k"}) {
    auto one = RowsAtThreads(1, shape);
    auto four = RowsAtThreads(4, shape);
    EXPECT_EQ(one, four) << shape;
  }
  // Both sides multi-row-group: parallel build, then the probe in the
  // aggregate's workers.
  FillKeyed("big_build", 30000, 400);
  const std::string both =
      "SELECT count(*), sum(probe_t.v + big_build.v) FROM probe_t "
      "JOIN big_build ON probe_t.k = big_build.k";
  EXPECT_EQ(RowsAtThreads(1, both), RowsAtThreads(4, both));
}

TEST_F(ParallelSqlTest, HighFanoutParallelProbeRunsInBoundedPasses) {
  // Every probe key matches ~50 build rows: the join output (~3M rows)
  // is far larger than the small memory limit. Under the aggregate the
  // probe streams in its workers and still produces exactly the serial
  // result.
  FillKeyed("probe_t", 60000, 100);
  FillKeyed("build_t", 5000, 100);
  ASSERT_TRUE(con_->Query("PRAGMA memory_limit = 16000000").ok());
  const std::string sql =
      "SELECT count(*), sum(probe_t.v + build_t.v) FROM probe_t "
      "JOIN build_t ON probe_t.k = build_t.k";
  auto serial = RowsAtThreads(1, sql);
  EXPECT_EQ(serial, RowsAtThreads(4, sql));
}

TEST_F(ParallelSqlTest, SustainedBudgetCollapseDrainsMultiPassProbe) {
  // A high-fanout probe under a small memory limit whose reactive
  // budget collapses to 1 mid-query and STAYS there: surplus workers
  // stop at their next morsel boundary, worker 0 probes every remaining
  // morsel, and the result stays exact.
  FillKeyed("probe_t", 60000, 100);
  FillKeyed("build_t", 5000, 100);
  ASSERT_TRUE(con_->Query("PRAGMA memory_limit = 16000000").ok());
  SyntheticAppMonitor monitor;
  db_->governor().SetThreads(4);
  db_->governor().SetMonitor(&monitor);
  db_->governor().SetReactive(true);

  const std::string sql =
      "SELECT count(*), sum(probe_t.v + build_t.v) FROM probe_t "
      "JOIN build_t ON probe_t.k = build_t.k";
  monitor.SetCpu(0.0);
  auto expected = Rows(sql);
  for (int round = 0; round < 5; round++) {
    monitor.SetCpu(0.0);  // full budget at launch: probe fans out
    std::thread collapse([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2 * round));
      monitor.SetCpu(1.0);  // budget -> 1, permanently, mid-query
    });
    EXPECT_EQ(expected, Rows(sql)) << "round " << round;
    collapse.join();
  }
  db_->governor().SetReactive(false);
  db_->governor().SetMonitor(nullptr);
}

TEST_F(ParallelSqlTest, MidProbeBudgetShrinkKeepsJoinExact) {
  // The reactive governor's monitor flips to "application busy" while
  // parallel probes are running: surplus probe workers drain at morsel
  // boundaries, results stay identical (integer sums are bit-exact).
  FillKeyed("probe_t", 60000, 300);
  FillKeyed("build_t", 4000, 300);
  SyntheticAppMonitor monitor;
  db_->governor().SetThreads(4);
  db_->governor().SetMonitor(&monitor);
  db_->governor().SetReactive(true);
  monitor.SetCpu(0.0);

  const std::string sql =
      "SELECT count(*), sum(probe_t.v + build_t.v) FROM probe_t "
      "JOIN build_t ON probe_t.k = build_t.k";
  auto expected = Rows(sql);

  std::atomic<bool> stop{false};
  std::thread pressure([&] {
    bool busy = false;
    while (!stop.load()) {
      monitor.SetCpu(busy ? 1.0 : 0.0);
      busy = !busy;
      std::this_thread::yield();
    }
  });
  for (int round = 0; round < 10; round++) {
    EXPECT_EQ(expected, Rows(sql)) << "round " << round;
  }
  stop.store(true);
  pressure.join();
  db_->governor().SetReactive(false);
  db_->governor().SetMonitor(nullptr);
}

TEST_F(ParallelSqlTest, ParallelProbeAbandonedMidStreamThenReExecuted) {
  // Extends JoinResetMidProbeDiscardsStaleState to a connection pinned
  // to 4 threads: abandoning a streamed join mid-probe and re-executing
  // starts from fresh state, not a replay of the first execution's.
  FillKeyed("probe_t", 40000, 200);
  FillKeyed("build_t", 3000, 200);
  ASSERT_TRUE(con_->Query("PRAGMA threads = 4").ok());
  const std::string sql =
      "SELECT probe_t.k, probe_t.v, build_t.v FROM probe_t "
      "JOIN build_t ON probe_t.k = build_t.k WHERE probe_t.v % 10 = 0";
  auto expected = Rows(sql);
  ASSERT_GT(expected.size(), size_t(kVectorSize));  // spans several chunks

  auto prepared = con_->Prepare(sql);
  ASSERT_TRUE(prepared.ok());
  auto stream = (*prepared)->ExecuteStream();
  ASSERT_TRUE(stream.ok());
  auto chunk = (*stream)->Fetch();  // join is now mid-probe
  ASSERT_TRUE(chunk.ok());
  ASSERT_NE(chunk->get(), nullptr);
  ASSERT_TRUE((*stream)->Close().ok());

  auto full = (*prepared)->Execute();
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ((*full)->RowCount(), expected.size());
}

TEST_F(ParallelSqlTest, JoinChainUnderSinksMatchesAcrossThreadCounts) {
  // a probes an inner, a LEFT and an ANTI join in a chain, with filters
  // above the joins: under a sink every join probes in the sink's
  // workers, each feeding the next one in the same worker.
  FillKeyed("a", 60000, 1000);
  FillKeyed("b", 2000, 1000);  // ~2 rows per key
  FillKeyed("c", 500, 1000);   // half the keys: LEFT pads the rest
  FillKeyed("d", 20000, 1000);
  ASSERT_TRUE(con_->Query("PRAGMA join_order=syntactic").ok());
  const std::string chain =
      " FROM a JOIN b ON a.k = b.k LEFT JOIN c ON a.k = c.k "
      "ANTI JOIN d ON a.v = d.v "
      "WHERE (a.v + b.v) % 3 <> 0 AND (c.v IS NULL OR c.v < a.v)";
  for (const std::string& sql :
       {"SELECT a.k % 7, count(*), sum(a.v), sum(b.v), count(c.v), "
        "min(c.v), max(b.v)" +
            chain + " GROUP BY a.k % 7",
        "SELECT count(*), sum(a.v - b.v), count(c.v)" + chain}) {
    auto serial = RowsAtThreads(1, sql);
    ASSERT_FALSE(serial.empty()) << sql;
    for (int threads : {2, 4}) {
      EXPECT_EQ(serial, RowsAtThreads(threads, sql))
          << threads << " threads: " << sql;
    }
  }
}

TEST_F(ParallelSqlTest, CountStarOverHighFanoutJoinBuffersNoProbeOutput) {
  // Every probe key matches ~50 build rows (~3M join rows). Under
  // count(*) the probe streams in the aggregate's workers, so the
  // buffer manager holds what the serial plan holds (the build table)
  // plus kSlack: one 256 KiB spill segment per worker for allocation
  // order. Buffering the probe output would add tens of MB.
  constexpr int64_t kSlack = 2 * (256 << 10);
  const std::string sql =
      "SELECT count(*) FROM probe_t JOIN build_t ON probe_t.k = build_t.k";
  auto peak_at = [&](int threads, std::multiset<std::string>* rows) {
    con_.reset();
    db_.reset();
    SetUp();
    FillKeyed("probe_t", 60000, 100);
    FillKeyed("build_t", 5000, 100);
    *rows = RowsAtThreads(threads, sql);
    auto r = con_->Query("PRAGMA buffer_stats");
    EXPECT_TRUE(r.ok());
    for (idx_t c = 0; r.ok() && c < (*r)->ColumnCount(); c++) {
      if ((*r)->names()[c] == "peak_memory") {
        return (*r)->GetValue(c, 0).GetBigInt();
      }
    }
    ADD_FAILURE() << "no peak_memory in PRAGMA buffer_stats";
    return int64_t{-1};
  };
  std::multiset<std::string> serial_rows, parallel_rows;
  int64_t serial_peak = peak_at(1, &serial_rows);
  int64_t parallel_peak = peak_at(2, &parallel_rows);
  EXPECT_EQ(serial_rows, parallel_rows);
  EXPECT_LE(parallel_peak, serial_peak + kSlack)
      << "serial peak " << serial_peak;
}

TEST_F(ParallelSqlTest, GraceJoinUnderParallelSinkStaysExact) {
  // A 2 MiB limit sends every join with a multi-row-group build side
  // into grace mode: such a join keeps its pipeline serial, whether it
  // is the chain's inner or outer join or builds another join's table.
  FillKeyed("a", 40000, 4000);
  FillKeyed("b", 30000, 4000);
  FillKeyed("c", 20000, 4000);
  ASSERT_TRUE(con_->Query("PRAGMA join_order=syntactic").ok());
  const std::vector<std::string> queries = {
      "SELECT a.k % 5, count(*), sum(a.v + b.v) FROM a JOIN b "
      "ON a.k = b.k GROUP BY a.k % 5",
      "SELECT count(*), sum(b.v), sum(c.v) FROM a JOIN b ON a.k = b.k "
      "JOIN c ON a.v = c.v",
      "SELECT count(*), sum(a.v) FROM a JOIN "
      "(SELECT b.k AS k, c.v AS v FROM b JOIN c ON b.k = c.k) bc "
      "ON a.v = bc.v"};
  std::vector<std::multiset<std::string>> expected;
  for (const std::string& sql : queries) {
    expected.push_back(RowsAtThreads(1, sql));
  }
  ASSERT_TRUE(con_->Query("PRAGMA memory_limit = 2097152").ok());
  for (size_t q = 0; q < queries.size(); q++) {
    for (int threads : {2, 4}) {
      EXPECT_EQ(expected[q], RowsAtThreads(threads, queries[q]))
          << threads << " threads: " << queries[q];
    }
  }
  auto r = con_->Query("PRAGMA buffer_stats");
  ASSERT_TRUE(r.ok());
  for (idx_t c = 0; c < (*r)->ColumnCount(); c++) {
    if ((*r)->names()[c] == "spill_count") {
      EXPECT_GT((*r)->GetValue(c, 0).GetBigInt(), 0);
    }
  }
}

TEST_F(ParallelSqlTest, RadixMergeEquivalenceAcrossGroupCounts) {
  // Radix-partitioned merge at the degenerate and fan-out extremes: one
  // group (+ the NULL group), 6 groups, and 100k groups — every group
  // count must be identical at any thread count.
  struct Case {
    const char* table;
    int rows;
    int keys;
  };
  for (const Case& c : {Case{"g1", 30000, 1}, Case{"g6", 30000, 6}}) {
    FillKeyed(c.table, c.rows, c.keys);
    std::string sql =
        std::string("SELECT k, count(*), sum(v), min(v), max(v) FROM ") +
        c.table + " GROUP BY k";
    auto serial = RowsAtThreads(1, sql);
    EXPECT_EQ(serial.size(), static_cast<size_t>(c.keys) + 1) << c.table;
    for (int threads : {2, 4, 8}) {
      EXPECT_EQ(serial, RowsAtThreads(threads, sql))
          << c.table << " at " << threads << " threads";
    }
  }
  // 100k groups over 300k rows via the appender (SQL INSERT would
  // dominate the test's runtime).
  FillAppender("g100k", 300000, 100000);
  const std::string sql =
      "SELECT k, count(*), sum(v), min(v), max(v) FROM g100k GROUP BY k";
  auto serial = RowsAtThreads(1, sql);
  EXPECT_EQ(serial.size(), 100001u);
  EXPECT_EQ(serial, RowsAtThreads(4, sql));
}

TEST_F(ParallelSqlTest, VarcharExtremesMergeUnderParallelism) {
  // MIN/MAX over VARCHAR keep their bytes in each thread-local table's
  // arena; the radix merge copies winning extremes into the surviving
  // table's arena and must combine them correctly at any thread count.
  ASSERT_TRUE(
      con_->Query("CREATE TABLE vt (s VARCHAR, w VARCHAR, v BIGINT)").ok());
  std::string ins;
  for (int i = 0; i < 20000; i++) {
    ins += ins.empty() ? "INSERT INTO vt VALUES " : ",";
    std::string s = i % 97 == 0 ? "NULL" : "'k" + std::to_string(i % 83) + "'";
    std::string w =
        i % 89 == 0 ? "NULL" : "'v" + std::to_string((i * 7919) % 10007) + "'";
    ins += "(" + s + "," + w + "," + std::to_string(i) + ")";
    if (ins.size() > (1u << 20)) {
      ASSERT_TRUE(con_->Query(ins).ok());
      ins.clear();
    }
  }
  if (!ins.empty()) {
    ASSERT_TRUE(con_->Query(ins).ok());
  }
  const std::string sql =
      "SELECT s, min(w), max(w), count(*), sum(v) FROM vt GROUP BY s";
  auto serial = RowsAtThreads(1, sql);
  EXPECT_EQ(serial.size(), 84u);  // 83 keys + NULL group
  for (int threads : {2, 4}) {
    EXPECT_EQ(serial, RowsAtThreads(threads, sql)) << threads << " threads";
  }
}

TEST_F(ParallelSqlTest, RadixMergeMillionGroups) {
  // 1M rows, every row its own group: the merge pass dominates and every
  // partition carries ~62k groups. Compared via an aggregate-of-
  // aggregates checksum (a 1M-row multiset compare would swamp the
  // test).
  FillAppender("big", 1000000, 0);  // keys=0: k = row index, all distinct
  const std::string sql =
      "SELECT count(*), sum(s), min(s), max(s), sum(c) FROM "
      "(SELECT k, sum(v) AS s, count(*) AS c FROM big GROUP BY k) q";
  auto serial = RowsAtThreads(1, sql);
  EXPECT_EQ(serial, RowsAtThreads(4, sql));
}

TEST_F(ParallelSqlTest, ConcurrentConnectionsRunParallelQueries) {
  // Two threads, each with its own connection, hammer parallel
  // aggregations against the shared scheduler and buffer manager.
  FillKeyed("t", 40000, 200);
  db_->governor().SetThreads(4);  // fan out even on a 1-core host
  auto expected = Rows("SELECT k, sum(v) FROM t GROUP BY k");
  auto worker = [&](int rounds) {
    Connection con(db_.get());
    for (int i = 0; i < rounds; i++) {
      auto r = con.Query("SELECT k, sum(v) FROM t GROUP BY k");
      ASSERT_TRUE(r.ok());
      ASSERT_EQ((*r)->RowCount(), expected.size());
    }
  };
  std::thread a(worker, 10), b(worker, 10);
  a.join();
  b.join();
}

}  // namespace
}  // namespace mallard
