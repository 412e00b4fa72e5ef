// Prepared statements vs string-at-a-time queries on the paper's
// small-repeated-query embedded workload (sections 3 and 5): a dashboard
// issuing many parameterized point lookups and an edge sensor issuing
// many single-row inserts. Prepare-once/Bind+Execute-many skips the
// per-call parse-bind-plan pipeline; Query() pays it every time unless
// the shared plan cache already holds the statement's shape.
//
// Every printed point is also a `--json` point (BENCH_prepared.json):
// ns_per_op is wall ns per statement, rows_per_sec statements per second.
// MALLARD_QUERIES sets the statements per point (default 20000).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "mallard/main/connection.h"
#include "mallard/main/database.h"
#include "mallard/main/plan_cache.h"
#include "mallard/main/prepared_statement.h"

using namespace mallard;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kHotRows = 512;  // dashboard tile: small hot table
constexpr int kRows = 50000;   // larger table, zone-map-pruned lookups

/// Runs `op(i)` for i in [0, n), prints the point and reports it. `op`
/// returns the rows it produced (summed into the checksum) or -1 on
/// failure.
bool Measure(mallard_bench::BenchReporter* reporter, const std::string& name,
             int n, const std::function<long long(int)>& op,
             long long* checksum) {
  *checksum = 0;
  auto start = Clock::now();
  for (int i = 0; i < n; i++) {
    long long rows = op(i);
    if (rows < 0) {
      std::fprintf(stderr, "%s failed at call %d\n", name.c_str(), i);
      return false;
    }
    *checksum += rows;
  }
  double secs = std::chrono::duration<double>(Clock::now() - start).count();
  std::printf("%-44s %8d calls  %8.3f s  %10.0f ns/call\n", name.c_str(), n,
              secs, secs / n * 1e9);
  reporter->Add(name, n, secs / n * 1e9, n / secs);
  return true;
}

long long Rows(const Result<std::unique_ptr<MaterializedQueryResult>>& r) {
  return r.ok() ? static_cast<long long>((*r)->RowCount()) : -1;
}

bool Same(const char* what, long long a, long long b) {
  if (a == b) return true;
  std::fprintf(stderr, "MISMATCH in %s: %lld vs %lld\n", what, a, b);
  return false;
}

/// A point lookup whose id moves on every call.
int LookupId(int i, int rows) {
  return static_cast<int>((i * 2654435761u) % static_cast<unsigned>(rows));
}

}  // namespace

int main(int argc, char** argv) {
  mallard_bench::BenchReporter reporter("bench_prepared", argc, argv);
  const char* n_env = std::getenv("MALLARD_QUERIES");
  int n = n_env ? std::atoi(n_env) : 20000;

  auto db = Database::Open(":memory:");
  if (!db.ok()) return 1;
  Connection con(db->get());
  // The "parse per call" points measure the uncached pipeline; the
  // transparent plan cache gets its own points afterwards.
  if (!con.Query("PRAGMA plan_cache=off").ok()) return 1;
  if (!con.Query("CREATE TABLE hot (id INTEGER, v DOUBLE)").ok()) return 1;
  if (!con.Query("CREATE TABLE readings (id INTEGER, sensor VARCHAR, "
                 "v DOUBLE)")
           .ok()) {
    return 1;
  }
  {
    std::string sql = "INSERT INTO hot VALUES (0,0.0)";
    for (int i = 1; i < kHotRows; i++) {
      sql += ",(" + std::to_string(i) + "," + std::to_string(i * 0.5) + ")";
    }
    if (!con.Query(sql).ok()) return 1;
  }
  {
    std::string sql;
    for (int i = 0; i < kRows; i++) {
      sql += sql.empty() ? "INSERT INTO readings VALUES " : ",";
      sql += "(" + std::to_string(i) + ",'s" + std::to_string(i % 64) +
             "'," + std::to_string((i % 1000) * 0.5) + ")";
      if (static_cast<int>(sql.size()) > (1 << 20) || i == kRows - 1) {
        if (!con.Query(sql).ok()) return 1;
        sql.clear();
      }
    }
  }

  std::printf("=== prepared vs string-at-a-time, %d calls per point "
              "(paper sections 3/5) ===\n\n",
              n);
  long long by_query = 0, by_prepared = 0;

  // ---- point SELECTs: per-call overhead dominates on the hot table,
  // late-bound zone-map filters prune the larger one -------------------------
  struct PointTable {
    const char* point;
    const char* table;
    int rows;
  };
  for (const PointTable& t : {PointTable{"hot_point_select", "hot", kHotRows},
                              PointTable{"point_select_50k", "readings",
                                         kRows}}) {
    const std::string select =
        std::string("SELECT v FROM ") + t.table + " WHERE id = ";
    const std::string point = t.point;
    const int rows = t.rows;
    if (!Measure(&reporter, point + "/query", n,
                 [&](int i) {
                   return Rows(con.Query(select +
                                         std::to_string(LookupId(i, rows))));
                 },
                 &by_query)) {
      return 1;
    }
    auto prepared = con.Prepare(select + "$1");
    if (!prepared.ok()) {
      std::fprintf(stderr, "prepare failed: %s\n",
                   prepared.status().ToString().c_str());
      return 1;
    }
    if (!Measure(&reporter, point + "/prepared", n,
                 [&](int i) -> long long {
                   if (!(*prepared)->Bind(1, LookupId(i, rows)).ok()) return -1;
                   return Rows((*prepared)->Execute());
                 },
                 &by_prepared) ||
        !Same(point.c_str(), by_query, by_prepared)) {
      return 1;
    }
  }

  // ---- single-row INSERTs (edge-sensor shape) ------------------------------
  if (!con.Query("CREATE TABLE sink_q (id INTEGER, v DOUBLE)").ok() ||
      !con.Query("CREATE TABLE sink_p (id INTEGER, v DOUBLE)").ok()) {
    return 1;
  }
  if (!Measure(&reporter, "single_row_insert/query", n,
               [&](int i) {
                 return Rows(con.Query("INSERT INTO sink_q VALUES (" +
                                       std::to_string(i) + "," +
                                       std::to_string(i * 0.25) + ")"));
               },
               &by_query)) {
    return 1;
  }
  {
    auto prepared = con.Prepare("INSERT INTO sink_p VALUES (?, ?)");
    if (!prepared.ok()) return 1;
    if (!Measure(&reporter, "single_row_insert/prepared", n,
                 [&](int i) -> long long {
                   if (!(*prepared)->Bind(1, i).ok() ||
                       !(*prepared)->Bind(2, i * 0.25).ok()) {
                     return -1;
                   }
                   return Rows((*prepared)->Execute());
                 },
                 &by_prepared)) {
      return 1;
    }
  }
  auto a = con.Query("SELECT count(*) FROM sink_q");
  auto b = con.Query("SELECT count(*) FROM sink_p");
  if (!a.ok() || !b.ok() ||
      !Same("single-row INSERT", (*a)->GetValue(0, 0).GetBigInt(),
            (*b)->GetValue(0, 0).GetBigInt())) {
    return 1;
  }

  // ---- transparent plan cache ----------------------------------------------
  // repeated_select: the ORM shape, the exact same string over and over.
  // varying_literal_select: the dashboard's lookup shape, a new literal
  // on every call; the cache lifts it into a parameter slot, so each call
  // after the first is a hit. The prepared API remains the ceiling.
  const std::string repeated = "SELECT v FROM hot WHERE id = 137";
  for (const char* mode : {"off", "on"}) {
    if (!con.Query(std::string("PRAGMA plan_cache=") + mode).ok()) return 1;
    long long* checksum =
        std::string(mode) == "off" ? &by_query : &by_prepared;
    if (!Measure(&reporter, std::string("repeated_select/plan_cache_") + mode,
                 n, [&](int) { return Rows(con.Query(repeated)); },
                 checksum)) {
      return 1;
    }
  }
  if (!Same("repeated_select", by_query, by_prepared)) return 1;
  for (const char* mode : {"off", "on"}) {
    if (!con.Query(std::string("PRAGMA plan_cache=") + mode).ok()) return 1;
    long long* checksum =
        std::string(mode) == "off" ? &by_query : &by_prepared;
    if (!Measure(&reporter,
                 std::string("varying_literal_select/plan_cache_") + mode, n,
                 [&](int i) {
                   int id = LookupId(i, kHotRows);
                   return Rows(con.Query("SELECT v FROM hot WHERE id = " +
                                         std::to_string(id)));
                 },
                 checksum)) {
      return 1;
    }
  }
  if (!Same("varying_literal_select", by_query, by_prepared)) return 1;

  // ---- the cache key alone: tokenize + key for the dashboard's lookup ------
  {
    std::vector<std::string> lookups;
    for (int i = 0; i < 256; i++) {
      lookups.push_back("SELECT name, location FROM sensors WHERE id = " +
                        std::to_string(LookupId(i, 100000)));
    }
    long long keys = 0;
    if (!Measure(&reporter, "cache_key_ns", n * 10,
                 [&](int i) -> long long {
                   NormalizedQuery q = NormalizeQueryText(lookups[i & 255]);
                   return q.cacheable ? static_cast<long long>(q.key.size())
                                      : -1;
                 },
                 &keys)) {
      return 1;
    }
  }

  std::printf("\nresults verified identical across both APIs\n");
  return 0;
}
