// E7 — Paper section 4: the hash join / merge join trade-off. The hash
// join is CPU-cheap but holds the whole build side in RAM; the
// out-of-core merge join needs O(n log n) CPU and disk IO but bounded
// memory. Sweeps build-side sizes under a fixed memory cap and reports
// time + DBMS peak memory for both algorithms, plus the governor's pick.

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "mallard/common/random.h"
#include "mallard/execution/physical_aggregate.h"
#include "mallard/execution/physical_join.h"
#include "mallard/execution/operators.h"
#include "mallard/governor/resource_governor.h"
#include "mallard/main/appender.h"
#include "mallard/main/connection.h"
#include "mallard/main/database.h"

using namespace mallard;
using Clock = std::chrono::steady_clock;

namespace {
double Ms(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

void Fill(Database* db, const std::string& table, idx_t rows,
          uint64_t seed) {
  Connection con(db);
  (void)con.Query("DROP TABLE IF EXISTS " + table);
  (void)con.Query("CREATE TABLE " + table + " (k BIGINT, payload BIGINT)");
  auto app = Appender::Create(db, table);
  RandomEngine rng(seed);
  DataChunk chunk;
  chunk.Initialize({TypeId::kBigInt, TypeId::kBigInt});
  idx_t produced = 0;
  while (produced < rows) {
    chunk.Reset();
    idx_t n = std::min<idx_t>(kVectorSize, rows - produced);
    for (idx_t i = 0; i < n; i++) {
      chunk.column(0).data<int64_t>()[i] = rng.NextInt(0, rows);
      chunk.column(1).data<int64_t>()[i] = rng.NextInt(0, 1 << 20);
    }
    chunk.SetCardinality(n);
    (void)(*app)->AppendChunk(chunk);
    produced += n;
  }
  (void)(*app)->Close();
}

struct JoinRun {
  double ms = 0;
  double peak_mb = 0;
  double build_ms = 0;  // hash join only: sink + Finalize
  double probe_ms = 0;  // hash join only: probe / result drain
};

// Runs probe JOIN build with a forced algorithm; returns wall time, peak
// memory and (for the hash join) the build/probe phase breakdown.
// `threads` > 0 attaches the scheduler with that thread budget (the
// morsel-driven parallel build, and the parallel probe under a sink);
// 0 keeps the classic serial pull loop so the algorithm sweep below
// stays comparable across PRs. `under_count` puts the join under
// count(*): its probe then runs inside the aggregate's morsel pipeline,
// while a join at the root streams its rows to the caller serially.
JoinRun RunJoin(Database* db, JoinAlgorithm algo, idx_t* out_rows,
                int threads = 0, bool under_count = false) {
  auto probe_table = db->catalog().GetTable("probe");
  auto build_table = db->catalog().GetTable("build");
  auto make_scan = [](DataTable* t) {
    return std::make_unique<PhysicalTableScan>(
        t, std::vector<idx_t>{0, 1}, std::vector<TableFilter>{},
        t->ColumnTypes());
  };
  std::vector<JoinCondition> conditions;
  conditions.push_back(JoinCondition{
      std::make_unique<BoundColumnRef>(0, TypeId::kBigInt, "k"),
      std::make_unique<BoundColumnRef>(0, TypeId::kBigInt, "k")});
  std::unique_ptr<PhysicalOperator> join;
  if (algo == JoinAlgorithm::kHash) {
    join = std::make_unique<PhysicalHashJoin>(
        JoinType::kInner, std::move(conditions), make_scan(*probe_table),
        make_scan(*build_table));
  } else {
    join = std::make_unique<PhysicalMergeJoin>(
        JoinType::kInner, std::move(conditions), make_scan(*probe_table),
        make_scan(*build_table));
  }
  std::unique_ptr<PhysicalOperator> root = std::move(join);
  if (under_count) {
    std::vector<BoundAggregate> count;
    count.push_back({AggType::kCountStar, nullptr, TypeId::kBigInt});
    root = std::make_unique<PhysicalUngroupedAggregate>(std::move(count),
                                                        std::move(root));
  }
  auto txn = db->transactions().Begin();
  ExecutionContext context;
  context.txn = txn.get();
  context.buffers = &db->buffers();
  context.governor = &db->governor();
  if (threads > 0) {
    context.scheduler = &db->scheduler();
    context.thread_limit = threads;
  }
  db->buffers().ResetPeak();
  DataChunk out;
  out.Initialize(root->types());
  StatePtr state = root->MakeState();
  auto start = Clock::now();
  idx_t rows = 0;
  while (true) {
    if (!root->GetChunk(&context, state.get(), &out).ok()) break;
    if (out.size() == 0) break;
    rows += under_count ? out.GetValue(0, 0).GetBigInt() : out.size();
  }
  double ms = Ms(start);
  (void)db->transactions().Commit(txn.get());
  *out_rows = rows;
  JoinRun run;
  run.ms = ms;
  run.peak_mb = db->buffers().GetStats().peak_memory / 1e6;
  if (algo == JoinAlgorithm::kHash) {
    const auto& hash_state = static_cast<PhysicalHashJoin::State&>(
        under_count ? *state->children[0] : *state);
    run.build_ms = hash_state.build_ms;
    run.probe_ms = hash_state.probe_ms;
  }
  return run;
}
}  // namespace

int main(int argc, char** argv) {
  mallard_bench::BenchReporter reporter("bench_join_tradeoff", argc, argv);
  const char* scale_env = std::getenv("MALLARD_JOIN_SCALE");
  double scale = scale_env ? std::strtod(scale_env, nullptr) : 1.0;
  DBConfig config;
  // 32MB cap: the shared-machine budget. Since PR 6 the cap is enforced
  // (grace hash join spills once the build exceeds its budget share);
  // MALLARD_BENCH_MEMORY_MB overrides it, so the in-memory trajectory
  // points can still be measured at an unlimited budget.
  const char* cap_env = std::getenv("MALLARD_BENCH_MEMORY_MB");
  config.memory_limit = cap_env
                            ? std::strtoull(cap_env, nullptr, 10) << 20
                            : 32ull << 20;
  auto db = Database::Open(":memory:", config);
  if (!db.ok()) return 1;

  std::printf("=== Hash vs merge join RAM/CPU trade-off (paper section 4) "
              "===\nDBMS memory cap: 32 MB; probe side fixed at 200k rows"
              "\n\n");
  std::printf("%-14s %-14s %-12s %-14s %-12s %-14s %-10s\n", "build rows",
              "hash (ms)", "hash MB", "merge (ms)", "merge MB",
              "spilled MB", "governor");
  Fill(db->get(), "probe", static_cast<idx_t>(200000 * scale), 1);
  for (idx_t build_rows : {idx_t(10000), idx_t(100000), idx_t(400000),
                           idx_t(1600000)}) {
    Fill(db->get(), "build", static_cast<idx_t>(build_rows * scale), 2);
    idx_t rows_h = 0, rows_m = 0;
    JoinRun hash = RunJoin(db->get(), JoinAlgorithm::kHash, &rows_h);
    uint64_t spill_before = db->get()->buffers().GetStats().spilled_bytes;
    JoinRun merge = RunJoin(db->get(), JoinAlgorithm::kMerge, &rows_m);
    uint64_t spilled =
        db->get()->buffers().GetStats().spilled_bytes - spill_before;
    JoinAlgorithm pick = db->get()->governor().ChooseJoinAlgorithm(
        build_rows * 17);  // ~bytes/row estimate
    std::printf("%-14llu %-14.1f %-12.1f %-14.1f %-12.1f %-14.1f %-10s%s\n",
                static_cast<unsigned long long>(build_rows), hash.ms,
                hash.peak_mb, merge.ms, merge.peak_mb, spilled / 1e6,
                pick == JoinAlgorithm::kHash ? "hash" : "merge",
                rows_h == rows_m ? "" : "  RESULT MISMATCH!");
    idx_t probe_rows = static_cast<idx_t>(200000 * scale);
    reporter.Add("hash_join/build=" + std::to_string(build_rows), 1,
                 hash.ms * 1e6, probe_rows / (hash.ms / 1e3),
                 {{"build_ms", hash.build_ms}, {"probe_ms", hash.probe_ms}});
    reporter.Add("merge_join/build=" + std::to_string(build_rows), 1,
                 merge.ms * 1e6, probe_rows / (merge.ms / 1e3));
  }
  std::printf("\nShape check vs paper: hash join time stays low but its "
              "memory grows linearly with the build side; merge join "
              "memory stays bounded (spilling to disk) at higher CPU "
              "cost. The governor switches to merge once the estimated "
              "build no longer fits the budget.\n");

  // ---- morsel-driven parallel scaling ----------------------------------
  // Hash join with the largest build side at 1/2/4 worker threads: the
  // build scans row-group morsels into per-worker partitions merged into
  // one table (docs/CONCURRENCY.md). At the root the probe streams to the
  // caller serially; under count(*) it runs in the aggregate's workers
  // over the finalized (immutable) table, whose probe time lands in the
  // worker states, so that point reports build_ms only. The sweep's last
  // iteration already filled "build" with exactly this row count and
  // seed; reuse it.
  idx_t scaling_build = static_cast<idx_t>(1600000 * scale);
  std::printf("\n=== parallel scaling — hash join, build=%llu ===\n\n",
              static_cast<unsigned long long>(scaling_build));
  idx_t rows_serial = 0;
  idx_t probe_rows = static_cast<idx_t>(200000 * scale);
  for (int threads : {1, 2, 4}) {
    idx_t rows = 0;
    JoinRun run = RunJoin(db->get(), JoinAlgorithm::kHash, &rows, threads);
    idx_t counted = 0;
    JoinRun count = RunJoin(db->get(), JoinAlgorithm::kHash, &counted,
                            threads, /*under_count=*/true);
    if (threads == 1) rows_serial = rows;
    if (rows != rows_serial || counted != rows_serial) {
      std::printf("RESULT MISMATCH at threads=%d!\n", threads);
      return 1;
    }
    std::printf("threads=%d %14.1f ms %10.1f MB  (build %.1f ms, probe "
                "%.1f ms)   under count(*): %.1f ms %.1f MB\n",
                threads, run.ms, run.peak_mb, run.build_ms, run.probe_ms,
                count.ms, count.peak_mb);
    reporter.Add("hash_join/build=1600000/threads=" + std::to_string(threads),
                 1, run.ms * 1e6, probe_rows / (run.ms / 1e3),
                 {{"build_ms", run.build_ms},
                  {"probe_ms", run.probe_ms},
                  {"peak_mb", run.peak_mb}});
    reporter.Add(
        "hash_join_count/build=1600000/threads=" + std::to_string(threads), 1,
        count.ms * 1e6, probe_rows / (count.ms / 1e3),
        {{"build_ms", count.build_ms}, {"peak_mb", count.peak_mb}});
  }
  return 0;
}
