// E8 — Out-of-core execution (ROADMAP item 1): grace hash join,
// external aggregation and external sort under a shrinking memory
// budget. Runs the same join, group-by and ORDER BY workload at a
// comfortable budget (fully in-memory), then at budgets far below the
// working set, and reports wall time plus the buffer manager's spill
// counters. The contract under test: a working set several times the
// memory_limit completes correctly and degrades smoothly instead of
// failing — the paper's "never assume you own the machine" stance
// applied to memory.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_util.h"
#include "mallard/common/random.h"
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

// Build side: a key plus a 64-byte pad that the join's SQL does not read
// (projection pruning keeps it out of the hash table). Probe side: two
// matches per build key.
void FillJoinTables(Database* db, idx_t build_rows) {
  Connection con(db);
  (void)con.Query("CREATE TABLE build (k BIGINT, pad VARCHAR)");
  (void)con.Query("CREATE TABLE probe (k BIGINT, v BIGINT)");
  const std::string pad(64, 'x');
  {
    auto app = Appender::Create(db, "build");
    DataChunk chunk;
    chunk.Initialize({TypeId::kBigInt, TypeId::kVarchar});
    idx_t produced = 0;
    while (produced < build_rows) {
      chunk.Reset();
      idx_t n = std::min<idx_t>(kVectorSize, build_rows - produced);
      for (idx_t i = 0; i < n; i++) {
        chunk.column(0).data<int64_t>()[i] =
            static_cast<int64_t>(produced + i);
        chunk.column(1).SetString(i, pad);
      }
      chunk.SetCardinality(n);
      (void)(*app)->AppendChunk(chunk);
      produced += n;
    }
    (void)(*app)->Close();
  }
  {
    auto app = Appender::Create(db, "probe");
    DataChunk chunk;
    chunk.Initialize({TypeId::kBigInt, TypeId::kBigInt});
    idx_t probe_rows = build_rows * 2;
    idx_t produced = 0;
    while (produced < probe_rows) {
      chunk.Reset();
      idx_t n = std::min<idx_t>(kVectorSize, probe_rows - produced);
      for (idx_t i = 0; i < n; i++) {
        chunk.column(0).data<int64_t>()[i] =
            static_cast<int64_t>((produced + i) % build_rows);
        chunk.column(1).data<int64_t>()[i] =
            static_cast<int64_t>(produced + i);
      }
      chunk.SetCardinality(n);
      (void)(*app)->AppendChunk(chunk);
      produced += n;
    }
    (void)(*app)->Close();
  }
}

// High-cardinality group-by: most rows open a new group, so the
// aggregate state itself is the working set.
void FillAggTable(Database* db, idx_t rows, idx_t groups) {
  Connection con(db);
  (void)con.Query("CREATE TABLE t (g BIGINT, v BIGINT)");
  auto app = Appender::Create(db, "t");
  RandomEngine rng(42);
  DataChunk chunk;
  chunk.Initialize({TypeId::kBigInt, TypeId::kBigInt});
  idx_t produced = 0;
  while (produced < rows) {
    chunk.Reset();
    idx_t n = std::min<idx_t>(kVectorSize, rows - produced);
    for (idx_t i = 0; i < n; i++) {
      chunk.column(0).data<int64_t>()[i] =
          static_cast<int64_t>(rng.Next() % groups);
      chunk.column(1).data<int64_t>()[i] = static_cast<int64_t>(i);
    }
    chunk.SetCardinality(n);
    (void)(*app)->AppendChunk(chunk);
    produced += n;
  }
  (void)(*app)->Close();
}

struct SpillRun {
  double ms = 0;
  double spilled_mb = 0;
  double spill_count = 0;
  int64_t result_rows = 0;
};

SpillRun TimeQuery(Connection* con, const std::string& sql) {
  SpillRun run;
  Clock::time_point start = Clock::now();
  auto result = con->Query(sql);
  run.ms = Ms(start);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().message().c_str());
    std::exit(1);
  }
  run.result_rows = static_cast<int64_t>((*result)->RowCount());
  auto stats = con->Query("PRAGMA buffer_stats");
  if (stats.ok()) {
    run.spill_count = static_cast<double>(
        (*stats)->GetValue(3, 0).GetBigInt());
    run.spilled_mb = static_cast<double>(
                         (*stats)->GetValue(4, 0).GetBigInt()) /
                     (1024.0 * 1024.0);
  }
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  mallard_bench::BenchReporter reporter("bench_spill", argc, argv);
  const idx_t kBuildRows = 120'000;
  const idx_t kAggRows = 400'000;
  const idx_t kAggGroups = 250'000;   // ~most rows open a group
  // First budget is comfortable (no spilling — the in-memory baseline);
  // the rest sit below the aggregate's and the sort's working sets, and
  // 4 MB below the join's, so those runs must spill to complete.
  const uint64_t kBudgets[] = {1ull << 30, 16ull << 20, 4ull << 20};

  const std::string join_sql =
      "SELECT count(*), sum(probe.v) FROM probe JOIN build "
      "ON probe.k = build.k";
  const std::string agg_sql =
      "SELECT count(*) FROM (SELECT g, count(*) AS c, sum(v) AS s "
      "FROM t GROUP BY g)";
  // ~16 MB of sort entries; the 400k sorted rows are materialized.
  const std::string sort_sql = "SELECT g, v FROM t ORDER BY g, v";

  for (uint64_t budget : kBudgets) {
    DBConfig config;
    config.memory_limit = budget;
    auto db = Database::Open(":memory:", config);
    if (!db.ok()) {
      std::fprintf(stderr, "open failed\n");
      return 1;
    }
    FillJoinTables(db->get(), kBuildRows);
    FillAggTable(db->get(), kAggRows, kAggGroups);
    Connection con(db->get());

    const double budget_mb =
        static_cast<double>(budget) / (1024.0 * 1024.0);
    SpillRun join = TimeQuery(&con, join_sql);
    std::printf(
        "grace_join   budget=%7.1f MB  %8.1f ms  spilled=%7.1f MB "
        "(spills=%.0f)\n",
        budget_mb, join.ms, join.spilled_mb, join.spill_count);
    reporter.Add("grace_join/budget_mb=" + std::to_string((long long)budget_mb),
                 1, join.ms * 1e6,
                 kBuildRows * 2 / (join.ms / 1000.0),
                 {{"budget_mb", budget_mb},
                  {"elapsed_ms", join.ms},
                  {"spilled_mb", join.spilled_mb},
                  {"spill_count", join.spill_count}});

    SpillRun agg = TimeQuery(&con, agg_sql);
    std::printf(
        "external_agg budget=%7.1f MB  %8.1f ms  spilled=%7.1f MB "
        "(spills=%.0f)\n",
        budget_mb, agg.ms, agg.spilled_mb - join.spilled_mb,
        agg.spill_count - join.spill_count);
    reporter.Add("external_agg/budget_mb=" + std::to_string((long long)budget_mb),
                 1, agg.ms * 1e6, kAggRows / (agg.ms / 1000.0),
                 {{"budget_mb", budget_mb},
                  {"elapsed_ms", agg.ms},
                  {"spilled_mb", agg.spilled_mb - join.spilled_mb},
                  {"spill_count", agg.spill_count - join.spill_count}});

    SpillRun sort = TimeQuery(&con, sort_sql);
    std::printf(
        "external_sort budget=%6.1f MB  %8.1f ms  spilled=%7.1f MB "
        "(spills=%.0f)\n",
        budget_mb, sort.ms, sort.spilled_mb - agg.spilled_mb,
        sort.spill_count - agg.spill_count);
    reporter.Add("external_sort/budget_mb=" +
                     std::to_string((long long)budget_mb),
                 1, sort.ms * 1e6, kAggRows / (sort.ms / 1000.0),
                 {{"budget_mb", budget_mb},
                  {"elapsed_ms", sort.ms},
                  {"spilled_mb", sort.spilled_mb - agg.spilled_mb},
                  {"spill_count", sort.spill_count - agg.spill_count}});
  }
  return 0;
}
