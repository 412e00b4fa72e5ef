// Zone-map pruning and projection-pushdown behaviour of table scans
// (paper section 6: "the format allows to scan individual columns and
// skip irrelevant blocks of rows during a scan").

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mallard/main/appender.h"
#include "mallard/main/connection.h"
#include "mallard/main/database.h"

namespace mallard {
namespace {

class ScanPruningTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open(":memory:");
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    con_ = std::make_unique<Connection>(db_.get());
    // Three row groups of sorted data: zone maps are tight.
    ASSERT_TRUE(con_->Query("CREATE TABLE t (a BIGINT, s VARCHAR)").ok());
    auto app = Appender::Create(db_.get(), "t");
    const idx_t kRows = 3 * kRowGroupSize;
    DataChunk chunk;
    chunk.Initialize({TypeId::kBigInt, TypeId::kVarchar});
    idx_t produced = 0;
    while (produced < kRows) {
      chunk.Reset();
      idx_t n = std::min<idx_t>(kVectorSize, kRows - produced);
      for (idx_t i = 0; i < n; i++) {
        chunk.column(0).data<int64_t>()[i] =
            static_cast<int64_t>(produced + i);
        chunk.column(1).SetString(i, "v" + std::to_string(produced + i));
      }
      chunk.SetCardinality(n);
      ASSERT_TRUE((*app)->AppendChunk(chunk).ok());
      produced += n;
    }
    ASSERT_TRUE((*app)->Close().ok());
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Connection> con_;
};

TEST_F(ScanPruningTest, ZoneMapsSkipRowGroups) {
  // Predicate selecting only the last row group: correctness check here,
  // skipping effectiveness is visible through row-group stats.
  auto r = con_->Query("SELECT count(*) FROM t WHERE a >= " +
                       std::to_string(2 * kRowGroupSize));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(),
            static_cast<int64_t>(kRowGroupSize));
  // Equality in the first row group.
  r = con_->Query("SELECT s FROM t WHERE a = 7");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ((*r)->RowCount(), 1u);
  EXPECT_EQ((*r)->GetValue(0, 0).GetString(), "v7");
  // Out-of-domain predicate matches nothing (every group pruned).
  r = con_->Query("SELECT count(*) FROM t WHERE a < 0");
  EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(), 0);
}

TEST_F(ScanPruningTest, ZoneMapsStayCorrectUnderUpdates) {
  // Updates widen zone maps; a row updated beyond the old max must still
  // be found (stale zone maps would wrongly prune).
  ASSERT_TRUE(con_->Query("UPDATE t SET a = 999999 WHERE a = 5").ok());
  auto r = con_->Query("SELECT count(*) FROM t WHERE a = 999999");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(), 1);
  // And the old value is gone.
  r = con_->Query("SELECT count(*) FROM t WHERE a = 5");
  EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(), 0);
}

TEST_F(ScanPruningTest, ZoneMapsWithDeletes) {
  // Deletes don't narrow zone maps (conservative), but results must be
  // exact because the filter is re-evaluated on surviving rows.
  ASSERT_TRUE(con_->Query("DELETE FROM t WHERE a < 100").ok());
  auto r = con_->Query("SELECT count(*), min(a) FROM t WHERE a < 200");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(), 100);
  EXPECT_EQ((*r)->GetValue(1, 0).GetBigInt(), 100);
}

TEST_F(ScanPruningTest, ProjectionPushdownScansOnlyNeededColumns) {
  // Verified through EXPLAIN: the scan feeding a single-column aggregate
  // must not materialize the VARCHAR column.
  auto r = con_->Query("EXPLAIN SELECT sum(a) FROM t");
  ASSERT_TRUE(r.ok());
  std::string plan = (*r)->GetValue(0, 0).GetString();
  EXPECT_NE(plan.find("SEQ_SCAN"), std::string::npos);
  // The filter/aggregate expressions reference only `a`.
  EXPECT_EQ(plan.find("s"), plan.find("sum"));  // no bare `s` column ref
}

// The column list EXPLAIN prints for each scan of `table`, in plan order:
// "SEQ_SCAN(t) [a, s] ..." gives "a, s".
std::vector<std::string> ScanColumns(const std::string& plan,
                                     const std::string& table) {
  std::vector<std::string> scans;
  const std::string prefix = "SEQ_SCAN(" + table + ") [";
  for (size_t at = plan.find(prefix); at != std::string::npos;
       at = plan.find(prefix, at + 1)) {
    size_t start = at + prefix.size();
    scans.push_back(plan.substr(start, plan.find(']', start) - start));
  }
  return scans;
}

class ProjectionPruningTest : public ScanPruningTest {
 protected:
  void SetUp() override {
    ScanPruningTest::SetUp();
    Q("CREATE TABLE u (k BIGINT, w VARCHAR, z DOUBLE)");
    Q("INSERT INTO u VALUES (1, 'one', 1.5), (2, 'two', 2.5), "
      "(8193, 'far', 3.5)");
  }

  std::unique_ptr<MaterializedQueryResult> Q(const std::string& sql) {
    auto r = con_->Query(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    return r.ok() ? std::move(*r) : nullptr;
  }

  std::string Explain(const std::string& sql) {
    auto r = Q("EXPLAIN " + sql);
    return r ? r->GetValue(0, 0).GetString() : "";
  }

  // The first value of `sql`'s result as text; empty when it fails.
  std::string First(const std::string& sql) {
    auto r = Q(sql);
    return r && r->RowCount() > 0 ? r->GetValue(0, 0).ToString() : "";
  }

  using Columns = std::vector<std::string>;
};

TEST_F(ProjectionPruningTest, CountStarScansTheNarrowestColumn) {
  std::string plan = Explain("SELECT count(*) FROM t");
  EXPECT_EQ(ScanColumns(plan, "t"), Columns{"a"}) << plan;
}

TEST_F(ProjectionPruningTest, CountStarOverAJoinScansKeysAndReferences) {
  std::string plan =
      Explain("SELECT count(*), sum(u.z) FROM t JOIN u ON t.a = u.k");
  EXPECT_EQ(ScanColumns(plan, "t"), Columns{"a"}) << plan;
  EXPECT_EQ(ScanColumns(plan, "u"), Columns{"k, z"}) << plan;
  auto r = Q("SELECT count(*), sum(u.z) FROM t JOIN u ON t.a = u.k");
  ASSERT_TRUE(r);
  EXPECT_EQ(r->GetValue(0, 0).GetBigInt(), 3);
  EXPECT_EQ(r->GetValue(1, 0).GetDouble(), 7.5);
}

TEST_F(ProjectionPruningTest, SelectStarScansEveryColumn) {
  EXPECT_EQ(ScanColumns(Explain("SELECT * FROM t"), "t"), Columns{"a, s"});
  std::string plan = Explain("SELECT * FROM t, u WHERE t.a = u.k");
  EXPECT_EQ(ScanColumns(plan, "u"), Columns{"k, w, z"}) << plan;
}

TEST_F(ProjectionPruningTest, ExplainPrintsPushedFilters) {
  std::string plan = Explain("SELECT count(*) FROM t WHERE a >= 8192");
  EXPECT_NE(plan.find("SEQ_SCAN(t) [a] filters: a >= 8192"),
            std::string::npos)
      << plan;
}

TEST_F(ProjectionPruningTest, FromSubqueryIsPrunedFromTheOutside) {
  std::string plan = Explain("SELECT sum(a) FROM (SELECT * FROM t) x");
  EXPECT_EQ(ScanColumns(plan, "t"), Columns{"a"}) << plan;
  plan = Explain("SELECT count(*) FROM (SELECT s, a FROM t) x");
  EXPECT_EQ(ScanColumns(plan, "t"), Columns{"a"}) << plan;
  EXPECT_EQ(First("SELECT count(*) FROM (SELECT s, a FROM t) x"),
            std::to_string(3 * kRowGroupSize));
  // A column the subquery's ORDER BY names by alias is scanned but not
  // returned.
  const std::string sorted =
      "SELECT a FROM (SELECT a, s AS key FROM t WHERE a < 3 "
      "ORDER BY key DESC) x";
  plan = Explain(sorted);
  EXPECT_EQ(ScanColumns(plan, "t"), Columns{"a, s"}) << plan;
  auto r = Q(sorted);
  ASSERT_TRUE(r);
  ASSERT_EQ(r->ColumnCount(), 1u);
  ASSERT_EQ(r->RowCount(), 3u);
  EXPECT_EQ(r->GetValue(0, 0).GetBigInt(), 2);
  EXPECT_EQ(r->GetValue(0, 2).GetBigInt(), 0);
  // Nested subqueries pass the outer references down through `*`.
  plan = Explain(
      "SELECT y FROM (SELECT * FROM (SELECT a AS y, s FROM t) i) o");
  EXPECT_EQ(ScanColumns(plan, "t"), Columns{"a"}) << plan;
}

TEST_F(ProjectionPruningTest, SubqueryLevelsStackNoIdentityProjection) {
  auto projections = [&](const std::string& sql) {
    std::string plan = Explain(sql);
    size_t count = 0;
    for (size_t at = plan.find("PROJECTION("); at != std::string::npos;
         at = plan.find("PROJECTION(", at + 1)) {
      count++;
    }
    return count;
  };
  EXPECT_EQ(projections("SELECT a FROM (SELECT a, s FROM t) s1"), 1u);
  const std::string three_levels =
      "SELECT x FROM (SELECT * FROM (SELECT a AS x, s FROM t) s1) s2";
  EXPECT_EQ(projections(three_levels), 1u);
  EXPECT_EQ(First(three_levels + " WHERE x = 7"), "7");
  Q("CREATE VIEW v AS SELECT a, s FROM t");
  EXPECT_EQ(projections("SELECT a, s FROM v"), 1u);
  // Reordering is not an identity: the outer projection stays.
  const std::string reordered = "SELECT s, a FROM (SELECT a, s FROM t) s1";
  EXPECT_EQ(projections(reordered), 2u);
  EXPECT_EQ(First(reordered + " WHERE a = 7"), "v7");
}

TEST_F(ProjectionPruningTest, AggregateSubqueryKeepsEveryAggregate) {
  std::string plan = Explain(
      "SELECT g FROM (SELECT s AS g, count(*), sum(a) FROM t GROUP BY s) x");
  EXPECT_EQ(ScanColumns(plan, "t"), Columns{"a, s"}) << plan;
  // DISTINCT keeps every output, or its rows would change.
  plan = Explain("SELECT count(*) FROM (SELECT DISTINCT k, w FROM u) x");
  EXPECT_EQ(ScanColumns(plan, "u"), Columns{"k, w"}) << plan;
  EXPECT_EQ(First("SELECT count(*) FROM (SELECT DISTINCT k, w FROM u) x"),
            "3");
}

TEST_F(ProjectionPruningTest, ViewsArePrunedFromTheOutside) {
  Q("CREATE VIEW all_t AS SELECT * FROM t");
  Q("CREATE VIEW renamed (key, label) AS SELECT a, s FROM t");
  std::string plan = Explain("SELECT count(*) FROM all_t");
  EXPECT_EQ(ScanColumns(plan, "t"), Columns{"a"}) << plan;
  plan = Explain("SELECT max(label) FROM renamed");
  EXPECT_EQ(ScanColumns(plan, "t"), Columns{"s"}) << plan;
  EXPECT_EQ(First("SELECT label FROM renamed WHERE key = 7"), "v7");
  plan = Explain(
      "SELECT count(*), sum(u.z) FROM all_t JOIN u ON all_t.a = u.k");
  EXPECT_EQ(ScanColumns(plan, "t"), Columns{"a"}) << plan;
}

TEST_F(ScanPruningTest, StringZoneMaps) {
  auto r = con_->Query("SELECT count(*) FROM t WHERE s = 'v42'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(), 1);
  r = con_->Query("SELECT count(*) FROM t WHERE s = 'zzz-not-there'");
  EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(), 0);
}

TEST_F(ScanPruningTest, RangePredicatesAcrossGroupBoundaries) {
  int64_t lo = static_cast<int64_t>(kRowGroupSize) - 5;
  int64_t hi = static_cast<int64_t>(kRowGroupSize) + 5;
  auto r = con_->Query("SELECT count(*) FROM t WHERE a BETWEEN " +
                       std::to_string(lo) + " AND " + std::to_string(hi));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(), 11);
}

TEST_F(ScanPruningTest, IntegerLiteralsPruneWiderColumns) {
  ASSERT_TRUE(con_->Query("CREATE TABLE f (d DOUBLE)").ok());
  auto app = Appender::Create(db_.get(), "f");
  DataChunk chunk;
  chunk.Initialize({TypeId::kDouble});
  for (idx_t produced = 0; produced < 3 * kRowGroupSize;
       produced += kVectorSize) {
    chunk.Reset();
    for (idx_t i = 0; i < kVectorSize; i++) {
      chunk.column(0).data<double>()[i] = static_cast<double>(produced + i);
    }
    chunk.SetCardinality(kVectorSize);
    ASSERT_TRUE((*app)->AppendChunk(chunk).ok());
  }
  ASSERT_TRUE((*app)->Close().ok());
  Connection cold(db_.get());
  ASSERT_TRUE(cold.Query("PRAGMA plan_cache=off").ok());
  // The INTEGER literal is converted when the plan is made (a constant,
  // or a parameter typed DOUBLE/BIGINT in a cached plan), so the scan
  // gets a zone-map filter and skips the two later row groups: uncached,
  // on a cache miss, and on a hit with a new literal.
  const std::pair<Connection*, const char*> runs[] = {
      {&cold, "d < 5"},    {con_.get(), "d < 5"}, {con_.get(), "d < 7"},
      {&cold, "a < 5"},    {con_.get(), "a < 5"}, {con_.get(), "a < 7"},
  };
  for (const auto& [con, predicate] : runs) {
    std::string table = predicate[0] == 'd' ? "f" : "t";
    uint64_t before = db_->encoding_counters().zonemap_skips.load();
    auto r = con->Query("SELECT count(*) FROM " + table + " WHERE " +
                        predicate);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(), predicate[4] - '0')
        << predicate;
    EXPECT_EQ(db_->encoding_counters().zonemap_skips.load() - before, 2u)
        << predicate;
  }
}


TEST(ColumnStatsTest, SummarizesZoneMapsAndDictionaries) {
  auto db = Database::Open(":memory:");
  ASSERT_TRUE(db.ok());
  Connection con(db->get());
  ASSERT_TRUE(
      con.Query("CREATE TABLE s (id INTEGER, cat VARCHAR, n INTEGER)").ok());
  // Three full row groups plus an unfilled one (which stays plain).
  const int kRows = 3 * static_cast<int>(kRowGroupSize) + 100;
  auto app = Appender::Create(db->get(), "s");
  ASSERT_TRUE(app.ok());
  for (int row = 0; row < kRows; row++) {
    (*app)->Append(row).Append("c" + std::to_string(row % 5));
    if (row % 10 == 0) {
      (*app)->Append(Value::Null(TypeId::kInteger));
    } else {
      (*app)->Append(row % 7);
    }
    ASSERT_TRUE((*app)->EndRow().ok());
  }
  ASSERT_TRUE((*app)->Close().ok());
  DataTable* table = *(*db)->catalog().GetTable("s");

  ColumnStatistics id = table->ColumnStats(0);
  EXPECT_EQ(id.rows, static_cast<idx_t>(kRows));
  EXPECT_EQ(id.null_count, 0u);
  EXPECT_EQ(id.min.GetAsBigInt(), 0);
  EXPECT_EQ(id.max.GetAsBigInt(), kRows - 1);
  ColumnStatistics n = table->ColumnStats(2);
  EXPECT_EQ(n.null_count, static_cast<idx_t>(kRows / 10 + 1));
  EXPECT_EQ(n.min.GetAsBigInt(), 0);
  EXPECT_EQ(n.max.GetAsBigInt(), 6);
  ColumnStatistics cat = table->ColumnStats(1);
  EXPECT_EQ(cat.min.GetString(), "c0");
  EXPECT_EQ(cat.max.GetString(), "c4");

  // Distinct counts come from dictionaries only (the encoding depends on
  // MALLARD_FORCE_ENCODING). Overlapping groups of 5 values stay 5; the
  // disjoint groups of a clustered key add up.
  const RowGroup& first = *table->RowGroups()[0];
  if (first.column(1).encoding() == SegmentEncoding::kDictionary) {
    EXPECT_EQ(cat.distinct, 5u);
  } else {
    EXPECT_EQ(cat.distinct, kInvalidIndex);
  }
  if (first.column(0).encoding() == SegmentEncoding::kDictionary) {
    EXPECT_EQ(id.distinct, static_cast<idx_t>(kRows));
  } else {
    EXPECT_EQ(id.distinct, kInvalidIndex);
  }

  // Statistics are cached, but an append or an update refreshes them.
  ASSERT_TRUE(con.Query("INSERT INTO s VALUES (" + std::to_string(kRows + 5) +
                        ", 'c9', 3)")
                  .ok());
  id = table->ColumnStats(0);
  EXPECT_EQ(id.rows, static_cast<idx_t>(kRows + 1));
  EXPECT_EQ(id.max.GetAsBigInt(), kRows + 5);
  ASSERT_TRUE(con.Query("UPDATE s SET n = 100 WHERE id = 3").ok());
  EXPECT_EQ(table->ColumnStats(2).max.GetAsBigInt(), 100);
}

}  // namespace
}  // namespace mallard
