// E5 — Paper section 6: the engine choice "vectorized interpreted
// execution" (Vector Volcano) vs classic tuple-at-a-time interpretation.
// Runs TPC-H Q1- and Q6-shaped aggregations through both engines over
// the same stored table and reports the speedup.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "mallard/baseline/row_engine.h"
#include "mallard/execution/operators.h"
#include "mallard/execution/physical_aggregate.h"
#include "mallard/main/appender.h"
#include "mallard/main/connection.h"
#include "mallard/main/database.h"
#include "mallard/tpch/tpch.h"

using namespace mallard;
using Clock = std::chrono::steady_clock;

namespace {
double Ms(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

ExprPtr ColRef(idx_t i, TypeId t) {
  return std::make_unique<BoundColumnRef>(i, t, "c" + std::to_string(i));
}
ExprPtr Const(Value v) { return std::make_unique<BoundConstant>(v); }

// Best-of-three wall time for a query, in ms.
double BestMs(Connection* con, const std::string& sql) {
  double best = 1e18;
  for (int i = 0; i < 3; i++) {
    auto start = Clock::now();
    auto r = con->Query(sql);
    double ms = Ms(start);
    if (!r.ok()) return -1.0;
    if (ms < best) best = ms;
  }
  return best;
}
}  // namespace

int main(int argc, char** argv) {
  mallard_bench::BenchReporter reporter("bench_vectorized", argc, argv);
  const char* sf_env = std::getenv("MALLARD_SF");
  double sf = sf_env ? std::strtod(sf_env, nullptr) : 0.05;
  auto db = Database::Open(":memory:");
  if (!db.ok()) return 1;
  std::printf("generating TPC-H data at SF %.3f ...\n", sf);
  if (!tpch::Generate(db->get(), sf).ok()) return 1;
  Connection con(db->get());
  auto count = con.Query("SELECT count(*) FROM lineitem");
  int64_t rows = (*count)->GetValue(0, 0).GetBigInt();

  std::printf("\n=== Vectorized vs tuple-at-a-time (paper section 6) — "
              "%lld lineitem rows ===\n\n",
              static_cast<long long>(rows));
  std::printf("%-26s %-18s %-18s %-10s\n", "query", "vectorized (ms)",
              "tuple-at-a-time (ms)", "speedup");

  auto table = db->get()->catalog().GetTable("lineitem");
  // lineitem column indexes.
  const idx_t kQty = 4, kPrice = 5, kDisc = 6, kTax = 7, kFlag = 8,
              kStatus = 9, kShip = 10;

  // ---- Q1 shape: filtered grouped aggregation --------------------------
  {
    auto start = Clock::now();
    auto r = con.Query(tpch::Query(1));
    double vec_ms = Ms(start);
    if (!r.ok()) return 1;

    // Same query on the row engine, constructed directly.
    auto txn = db->get()->transactions().Begin();
    int32_t cutoff = date::FromYMD(1998, 9, 2);
    start = Clock::now();
    auto scan = std::make_unique<baseline::RowScan>(
        *table, txn.get(),
        std::vector<idx_t>{kQty, kPrice, kDisc, kTax, kFlag, kStatus,
                           kShip});
    auto filter = std::make_unique<baseline::RowFilter>(
        std::make_unique<BoundComparison>(CompareOp::kLessEqual,
                                          ColRef(6, TypeId::kDate),
                                          Const(Value::Date(cutoff))),
        std::move(scan));
    std::vector<ExprPtr> groups;
    groups.push_back(ColRef(4, TypeId::kVarchar));
    groups.push_back(ColRef(5, TypeId::kVarchar));
    std::vector<BoundAggregate> aggs;
    aggs.push_back({AggType::kSum, ColRef(0, TypeId::kDouble),
                    TypeId::kDouble});
    aggs.push_back({AggType::kSum, ColRef(1, TypeId::kDouble),
                    TypeId::kDouble});
    // sum(price * (1 - disc))
    aggs.push_back(
        {AggType::kSum,
         std::make_unique<BoundArithmetic>(
             ArithOp::kMultiply, TypeId::kDouble, ColRef(1, TypeId::kDouble),
             std::make_unique<BoundArithmetic>(
                 ArithOp::kSubtract, TypeId::kDouble,
                 Const(Value::Double(1.0)), ColRef(2, TypeId::kDouble))),
         TypeId::kDouble});
    aggs.push_back({AggType::kAvg, ColRef(0, TypeId::kDouble),
                    TypeId::kDouble});
    aggs.push_back({AggType::kCountStar, nullptr, TypeId::kBigInt});
    baseline::RowHashAggregate agg(std::move(groups), std::move(aggs),
                                   std::move(filter));
    std::vector<Value> row;
    idx_t out_rows = 0;
    while (true) {
      auto has = agg.Next(&row);
      if (!has.ok() || !*has) break;
      out_rows++;
    }
    double row_ms = Ms(start);
    (void)db->get()->transactions().Commit(txn.get());
    std::printf("%-26s %-18.1f %-18.1f %.1fx   (%llu groups)\n",
                "Q1 (grouped aggregate)", vec_ms, row_ms, row_ms / vec_ms,
                static_cast<unsigned long long>(out_rows));
    reporter.Add("q1_grouped_aggregate", 1, vec_ms * 1e6,
                 rows / (vec_ms / 1e3));
  }

  // ---- Q6 shape: selective filter + ungrouped aggregate -----------------
  {
    auto start = Clock::now();
    auto r = con.Query(tpch::Query(6));
    double vec_ms = Ms(start);
    if (!r.ok()) return 1;
    double vec_result = (*r)->GetValue(0, 0).GetDouble();

    auto txn = db->get()->transactions().Begin();
    int32_t from = date::FromYMD(1994, 1, 1), to = date::FromYMD(1995, 1, 1);
    start = Clock::now();
    auto scan = std::make_unique<baseline::RowScan>(
        *table, txn.get(), std::vector<idx_t>{kQty, kPrice, kDisc, kShip});
    std::vector<ExprPtr> conj;
    conj.push_back(std::make_unique<BoundComparison>(
        CompareOp::kGreaterEqual, ColRef(3, TypeId::kDate),
        Const(Value::Date(from))));
    conj.push_back(std::make_unique<BoundComparison>(
        CompareOp::kLess, ColRef(3, TypeId::kDate),
        Const(Value::Date(to))));
    conj.push_back(std::make_unique<BoundComparison>(
        CompareOp::kGreaterEqual, ColRef(2, TypeId::kDouble),
        Const(Value::Double(0.05))));
    conj.push_back(std::make_unique<BoundComparison>(
        CompareOp::kLessEqual, ColRef(2, TypeId::kDouble),
        Const(Value::Double(0.07))));
    conj.push_back(std::make_unique<BoundComparison>(
        CompareOp::kLess, ColRef(0, TypeId::kDouble),
        Const(Value::Double(24.0))));
    auto filter = std::make_unique<baseline::RowFilter>(
        std::make_unique<BoundConjunction>(true, std::move(conj)),
        std::move(scan));
    std::vector<BoundAggregate> aggs;
    aggs.push_back(
        {AggType::kSum,
         std::make_unique<BoundArithmetic>(
             ArithOp::kMultiply, TypeId::kDouble, ColRef(1, TypeId::kDouble),
             ColRef(2, TypeId::kDouble)),
         TypeId::kDouble});
    baseline::RowHashAggregate agg({}, std::move(aggs), std::move(filter));
    std::vector<Value> row;
    auto has = agg.Next(&row);
    double row_ms = Ms(start);
    (void)db->get()->transactions().Commit(txn.get());
    double row_result = has.ok() && *has && !row[0].is_null()
                            ? row[0].GetDouble()
                            : 0.0;
    std::printf("%-26s %-18.1f %-18.1f %.1fx   (results agree: %s)\n",
                "Q6 (filter + aggregate)", vec_ms, row_ms, row_ms / vec_ms,
                std::abs(vec_result - row_result) < 1e-3 ? "yes" : "NO");
    reporter.Add("q6_filter_aggregate", 1, vec_ms * 1e6,
                 rows / (vec_ms / 1e3));
  }

  // ---- grouped-aggregate microbench ------------------------------------
  // Narrow tables where the aggregation operator dominates the query, so
  // the hash-table hot path (group lookup + state update) is what gets
  // measured: a Q1-shaped VARCHAR low-cardinality GROUP BY and a BIGINT
  // high-cardinality one (~100k groups, multi-vector emission).
  {
    const char* rows_env = std::getenv("MALLARD_AGG_ROWS");
    idx_t agg_rows = rows_env
                         ? static_cast<idx_t>(std::strtoull(rows_env,
                                                            nullptr, 10))
                         : 2000000;
    static const char* kFlags[] = {"AF", "NF", "NO", "RF", "AO", "RO"};
    (void)con.Query("CREATE TABLE agg_lo (flag VARCHAR, v DOUBLE)");
    (void)con.Query("CREATE TABLE agg_hi (k BIGINT, v DOUBLE)");
    {
      auto app_lo = Appender::Create(db->get(), "agg_lo");
      auto app_hi = Appender::Create(db->get(), "agg_hi");
      if (!app_lo.ok() || !app_hi.ok()) return 1;
      DataChunk lo, hi;
      lo.Initialize({TypeId::kVarchar, TypeId::kDouble});
      hi.Initialize({TypeId::kBigInt, TypeId::kDouble});
      idx_t produced = 0;
      while (produced < agg_rows) {
        lo.Reset();
        hi.Reset();
        idx_t n = std::min<idx_t>(kVectorSize, agg_rows - produced);
        for (idx_t i = 0; i < n; i++) {
          idx_t r = produced + i;
          const char* flag = kFlags[r % 6];
          lo.column(0).SetString(i, flag, 2);
          lo.column(1).data<double>()[i] = (r % 1000) * 0.25;
          hi.column(0).data<int64_t>()[i] =
              static_cast<int64_t>((r * 2654435761ull) % 100000);
          hi.column(1).data<double>()[i] = (r % 1000) * 0.25;
        }
        lo.SetCardinality(n);
        hi.SetCardinality(n);
        if (!(*app_lo)->AppendChunk(lo).ok()) return 1;
        if (!(*app_hi)->AppendChunk(hi).ok()) return 1;
        produced += n;
      }
      if (!(*app_lo)->Close().ok()) return 1;
      if (!(*app_hi)->Close().ok()) return 1;
    }
    std::printf("\n=== grouped-aggregate microbench — %llu rows ===\n\n",
                static_cast<unsigned long long>(agg_rows));
    double lo_ms = BestMs(&con,
                          "SELECT flag, count(*), sum(v), avg(v) "
                          "FROM agg_lo GROUP BY flag");
    double hi_ms = BestMs(&con,
                          "SELECT k, count(*), sum(v), min(v), max(v) "
                          "FROM agg_hi GROUP BY k");
    if (lo_ms < 0 || hi_ms < 0) return 1;
    std::printf("%-38s %10.1f ms  %12.0f rows/s\n",
                "GROUP BY flag (varchar, 6 groups)", lo_ms,
                agg_rows / (lo_ms / 1e3));
    std::printf("%-38s %10.1f ms  %12.0f rows/s\n",
                "GROUP BY k (bigint, 100k groups)", hi_ms,
                agg_rows / (hi_ms / 1e3));
    reporter.Add("groupby_micro/varchar_6_groups", 3, lo_ms * 1e6,
                 agg_rows / (lo_ms / 1e3));
    reporter.Add("groupby_micro/bigint_100k_groups", 3, hi_ms * 1e6,
                 agg_rows / (hi_ms / 1e3));

    // ---- morsel-driven parallel scaling --------------------------------
    // The same high-cardinality aggregation at pinned thread counts,
    // constructed directly (scan → hash aggregate) so the sink/merge
    // phase breakdown of the radix-partitioned parallel merge is
    // observable in the JSON (docs/BENCHMARKS.md documents the field
    // contract). threads=1 is the serial baseline of the scaling table
    // in BENCH_agg.json.
    std::printf("\n=== parallel scaling — GROUP BY k (bigint, 100k groups) "
                "===\n\n");
    auto agg_table = db->get()->catalog().GetTable("agg_hi");
    if (!agg_table.ok()) return 1;
    idx_t rows_serial = 0;
    for (int threads : {1, 2, 4}) {
      double best = 1e18, best_sink = 0, best_merge = 0;
      idx_t out_rows = 0;
      for (int rep = 0; rep < 3; rep++) {
        auto scan = std::make_unique<PhysicalTableScan>(
            *agg_table, std::vector<idx_t>{0, 1}, std::vector<TableFilter>{},
            (*agg_table)->ColumnTypes());
        std::vector<ExprPtr> groups;
        groups.push_back(ColRef(0, TypeId::kBigInt));
        std::vector<BoundAggregate> aggs;
        aggs.push_back({AggType::kCountStar, nullptr, TypeId::kBigInt});
        aggs.push_back(
            {AggType::kSum, ColRef(1, TypeId::kDouble), TypeId::kDouble});
        aggs.push_back(
            {AggType::kMin, ColRef(1, TypeId::kDouble), TypeId::kDouble});
        aggs.push_back(
            {AggType::kMax, ColRef(1, TypeId::kDouble), TypeId::kDouble});
        auto agg = std::make_unique<PhysicalHashAggregate>(
            std::move(groups), std::move(aggs), std::move(scan));
        auto txn = db->get()->transactions().Begin();
        ExecutionContext context;
        context.txn = txn.get();
        context.buffers = &db->get()->buffers();
        context.governor = &db->get()->governor();
        context.scheduler = &db->get()->scheduler();
        context.thread_limit = threads;
        DataChunk out;
        out.Initialize(agg->types());
        StatePtr state = agg->MakeState();
        auto start = Clock::now();
        idx_t rows = 0;
        while (true) {
          if (!agg->GetChunk(&context, state.get(), &out).ok()) return 1;
          if (out.size() == 0) break;
          rows += out.size();
        }
        double ms = Ms(start);
        (void)db->get()->transactions().Commit(txn.get());
        if (ms < best) {
          best = ms;
          const auto& agg_state =
              static_cast<PhysicalHashAggregate::State&>(*state);
          best_sink = agg_state.sink_ms;
          best_merge = agg_state.merge_ms;
          out_rows = rows;
        }
      }
      if (threads == 1) {
        rows_serial = out_rows;
      } else if (out_rows != rows_serial) {
        std::printf("RESULT MISMATCH at threads=%d!\n", threads);
        return 1;
      }
      std::printf("threads=%d %36.1f ms  %12.0f rows/s  (sink %.1f ms, "
                  "merge %.1f ms)\n",
                  threads, best, agg_rows / (best / 1e3), best_sink,
                  best_merge);
      reporter.Add("groupby_micro/bigint_100k_groups/threads=" +
                       std::to_string(threads),
                   3, best * 1e6, agg_rows / (best / 1e3),
                   {{"sink_ms", best_sink}, {"merge_ms", best_merge}});
    }
  }
  std::printf("\nShape check vs paper: the vectorized interpreter "
              "amortizes interpretation overhead over %llu-row vectors "
              "and wins by roughly an order of magnitude.\n",
              static_cast<unsigned long long>(kVectorSize));
  return 0;
}
