// Prepared-statement API tests: Prepare / Bind / Execute round-trips,
// re-execution without re-planning, parameter typing, and the error
// paths (unbound, out-of-range, type mismatch, invalid SQL, dropped
// table) — the client-API surface of paper section 3.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "mallard/main/connection.h"
#include "mallard/main/database.h"
#include "mallard/main/prepared_statement.h"

namespace mallard {
namespace {

class PreparedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open(":memory:");
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    con_ = std::make_unique<Connection>(db_.get());
    ASSERT_TRUE(con_->Query("CREATE TABLE t (a INTEGER, s VARCHAR)").ok());
    ASSERT_TRUE(con_->Query("INSERT INTO t VALUES "
                            "(1, 'one'), (2, 'two'), (3, 'three'), "
                            "(4, 'four'), (5, 'two')")
                    .ok());
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Connection> con_;
};

TEST_F(PreparedTest, RoundTripWithMixedPlaceholders) {
  // The acceptance query: '?' and '$N' placeholders in one statement.
  auto prepared = con_->Prepare("SELECT a FROM t WHERE a > ? AND s = $2");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto& stmt = *prepared;
  EXPECT_EQ(stmt->ParameterCount(), 2u);
  EXPECT_EQ(stmt->ParameterType(1), TypeId::kInteger);
  EXPECT_EQ(stmt->ParameterType(2), TypeId::kVarchar);

  ASSERT_TRUE(stmt->Bind(1, 1).ok());
  ASSERT_TRUE(stmt->Bind(2, "two").ok());
  auto r1 = stmt->Execute();
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_EQ((*r1)->RowCount(), 2u);  // a in {2, 5}

  // Re-bind and re-execute: different results, no re-parse/re-plan.
  ASSERT_TRUE(stmt->Bind(1, 4).ok());
  auto r2 = stmt->Execute();
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ((*r2)->RowCount(), 1u);
  EXPECT_EQ((*r2)->GetValue(0, 0).GetInteger(), 5);

  ASSERT_TRUE(stmt->Bind(1, 0).ok());
  ASSERT_TRUE(stmt->Bind(2, "three").ok());
  auto r3 = stmt->Execute();
  ASSERT_TRUE(r3.ok());
  ASSERT_EQ((*r3)->RowCount(), 1u);
  EXPECT_EQ((*r3)->GetValue(0, 0).GetInteger(), 3);
}

TEST_F(PreparedTest, ExecuteStreamDeliversChunks) {
  auto prepared = con_->Prepare("SELECT a FROM t WHERE a >= $1");
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE((*prepared)->Bind(1, 2).ok());
  auto stream = (*prepared)->ExecuteStream();
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  idx_t rows = 0;
  while (true) {
    auto chunk = (*stream)->Fetch();
    ASSERT_TRUE(chunk.ok());
    if (!*chunk) break;
    rows += (*chunk)->size();
  }
  EXPECT_EQ(rows, 4u);
  // Streaming again after re-binding works too.
  ASSERT_TRUE((*stream)->Close().ok());
  ASSERT_TRUE((*prepared)->Bind(1, 5).ok());
  auto stream2 = (*prepared)->ExecuteStream();
  ASSERT_TRUE(stream2.ok());
  auto chunk = (*stream2)->Fetch();
  ASSERT_TRUE(chunk.ok());
  ASSERT_NE(*chunk, nullptr);
  EXPECT_EQ((*chunk)->size(), 1u);
}

TEST_F(PreparedTest, PreparedInsertReExecutes) {
  ASSERT_TRUE(con_->Query("CREATE TABLE log (id INTEGER, v DOUBLE)").ok());
  auto prepared = con_->Prepare("INSERT INTO log VALUES (?, ?)");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ((*prepared)->ParameterCount(), 2u);
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE((*prepared)->Bind(1, i).ok());
    ASSERT_TRUE((*prepared)->Bind(2, i * 0.5).ok());
    auto r = (*prepared)->Execute();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(), 1);
  }
  auto check = con_->Query("SELECT count(*), sum(v) FROM log");
  ASSERT_TRUE(check.ok());
  EXPECT_EQ((*check)->GetValue(0, 0).GetBigInt(), 100);
  EXPECT_DOUBLE_EQ((*check)->GetValue(1, 0).GetDouble(), 99 * 100 / 2 * 0.5);
}

TEST_F(PreparedTest, PreparedUpdateAndDelete) {
  auto update = con_->Prepare("UPDATE t SET s = $2 WHERE a = $1");
  ASSERT_TRUE(update.ok()) << update.status().ToString();
  ASSERT_TRUE((*update)->Bind(1, 1).ok());
  ASSERT_TRUE((*update)->Bind(2, "uno").ok());
  auto r = (*update)->Execute();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(), 1);

  auto del = con_->Prepare("DELETE FROM t WHERE a > ?");
  ASSERT_TRUE(del.ok());
  ASSERT_TRUE((*del)->Bind(1, 3).ok());
  r = (*del)->Execute();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(), 2);
  auto check = con_->Query("SELECT count(*) FROM t WHERE s = 'uno'");
  EXPECT_EQ((*check)->GetValue(0, 0).GetBigInt(), 1);
}

// --- error paths ------------------------------------------------------------

TEST_F(PreparedTest, ExecuteWithUnboundParameterFails) {
  auto prepared = con_->Prepare("SELECT a FROM t WHERE a > $1 AND s = $2");
  ASSERT_TRUE(prepared.ok());
  auto r = (*prepared)->Execute();
  EXPECT_FALSE(r.ok());
  // Binding only one of two parameters still fails.
  ASSERT_TRUE((*prepared)->Bind(1, 0).ok());
  r = (*prepared)->Execute();
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("$2"), std::string::npos);
  // Binding the rest makes it succeed.
  ASSERT_TRUE((*prepared)->Bind(2, "two").ok());
  EXPECT_TRUE((*prepared)->Execute().ok());
  // ClearBindings() returns to the unbound state.
  (*prepared)->ClearBindings();
  EXPECT_FALSE((*prepared)->Execute().ok());
}

TEST_F(PreparedTest, BindOutOfRangeIndexFails) {
  auto prepared = con_->Prepare("SELECT a FROM t WHERE a > $1");
  ASSERT_TRUE(prepared.ok());
  EXPECT_FALSE((*prepared)->Bind(0, 1).ok());  // indexes are 1-based
  EXPECT_FALSE((*prepared)->Bind(2, 1).ok());
  EXPECT_FALSE((*prepared)->Bind(99, 1).ok());
  EXPECT_TRUE((*prepared)->Bind(1, 1).ok());
}

TEST_F(PreparedTest, TypeMismatchedBindFails) {
  auto prepared = con_->Prepare("SELECT a FROM t WHERE a > $1");
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ((*prepared)->ParameterType(1), TypeId::kInteger);
  EXPECT_FALSE((*prepared)->Bind(1, "not a number").ok());
  // Numeric strings and exact-type values are fine.
  EXPECT_TRUE((*prepared)->Bind(1, "3").ok());
  auto r = (*prepared)->Execute();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->RowCount(), 2u);
}

TEST_F(PreparedTest, NullBindings) {
  auto prepared = con_->Prepare("SELECT count(*) FROM t WHERE a > $1");
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE((*prepared)->BindNull(1).ok());
  auto r = (*prepared)->Execute();
  ASSERT_TRUE(r.ok());
  // a > NULL matches nothing.
  EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(), 0);
}

// The `a` column of a result, in row order.
std::vector<int32_t> Column(
    const Result<std::unique_ptr<MaterializedQueryResult>>& r) {
  std::vector<int32_t> out;
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return out;
  for (idx_t i = 0; i < (*r)->RowCount(); i++) {
    out.push_back((*r)->GetValue(0, i).GetInteger());
  }
  return out;
}

using Ints = std::vector<int32_t>;

TEST_F(PreparedTest, ParametersInInListsAndLikePatterns) {
  ASSERT_TRUE(con_->Query("INSERT INTO t VALUES (6, NULL)").ok());
  auto in = con_->Prepare("SELECT a FROM t WHERE a IN (?, ?) ORDER BY a");
  ASSERT_TRUE(in.ok()) << in.status().ToString();
  ASSERT_TRUE((*in)->Bind(1, 2).ok());
  ASSERT_TRUE((*in)->Bind(2, 4).ok());
  EXPECT_EQ(Column((*in)->Execute()), (Ints{2, 4}));
  ASSERT_TRUE((*in)->Bind(1, 5).ok());
  ASSERT_TRUE((*in)->Bind(2, 1).ok());
  EXPECT_EQ(Column((*in)->Execute()), (Ints{1, 5}));

  auto not_in = con_->Prepare("SELECT a FROM t WHERE a NOT IN (?) ORDER BY a");
  ASSERT_TRUE(not_in.ok()) << not_in.status().ToString();
  ASSERT_TRUE((*not_in)->Bind(1, 2).ok());
  EXPECT_EQ(Column((*not_in)->Execute()), (Ints{1, 3, 4, 5, 6}));
  ASSERT_TRUE((*not_in)->Bind(1, 6).ok());
  EXPECT_EQ(Column((*not_in)->Execute()), (Ints{1, 2, 3, 4, 5}));

  // Constants and parameters mix; the list takes the column's type.
  auto mixed =
      con_->Prepare("SELECT a FROM t WHERE s IN ('one', $1) ORDER BY a");
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  EXPECT_EQ((*mixed)->ParameterType(1), TypeId::kVarchar);
  ASSERT_TRUE((*mixed)->Bind(1, "two").ok());
  EXPECT_EQ(Column((*mixed)->Execute()), (Ints{1, 2, 5}));
  ASSERT_TRUE((*mixed)->Bind(1, "four").ok());
  EXPECT_EQ(Column((*mixed)->Execute()), (Ints{1, 4}));

  auto like = con_->Prepare("SELECT a FROM t WHERE s LIKE ? ORDER BY a");
  ASSERT_TRUE(like.ok()) << like.status().ToString();
  EXPECT_EQ((*like)->ParameterType(1), TypeId::kVarchar);
  ASSERT_TRUE((*like)->Bind(1, "t%").ok());
  EXPECT_EQ(Column((*like)->Execute()), (Ints{2, 3, 5}));
  ASSERT_TRUE((*like)->Bind(1, "%our").ok());
  EXPECT_EQ(Column((*like)->Execute()), (Ints{4}));

  auto not_like =
      con_->Prepare("SELECT a FROM t WHERE s NOT LIKE $1 ORDER BY a");
  ASSERT_TRUE(not_like.ok()) << not_like.status().ToString();
  ASSERT_TRUE((*not_like)->Bind(1, "t%").ok());
  EXPECT_EQ(Column((*not_like)->Execute()), (Ints{1, 4}));
  ASSERT_TRUE((*not_like)->Bind(1, "%e").ok());
  EXPECT_EQ(Column((*not_like)->Execute()), (Ints{2, 4, 5}));
}

TEST_F(PreparedTest, NullParameterMatchesTheNullLiteral) {
  ASSERT_TRUE(con_->Query("INSERT INTO t VALUES (6, NULL)").ok());
  const std::pair<const char*, const char*> shapes[] = {
      {"a IN (?, 2)", "a IN (NULL, 2)"},
      {"a NOT IN (?)", "a NOT IN (NULL)"},
      {"s LIKE ?", "s LIKE NULL"},
      {"s NOT LIKE ?", "s NOT LIKE NULL"},
  };
  for (const auto& [with_parameter, with_null] : shapes) {
    const std::string select = "SELECT a FROM t WHERE ";
    auto prepared = con_->Prepare(select + with_parameter + " ORDER BY a");
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    ASSERT_TRUE((*prepared)->BindNull(1).ok());
    EXPECT_EQ(Column((*prepared)->Execute()),
              Column(con_->Query(select + with_null + " ORDER BY a")))
        << with_parameter;
  }
  // A NULL pattern matches nothing, and fails to match nothing.
  EXPECT_TRUE(Column(con_->Query("SELECT a FROM t WHERE s LIKE NULL")).empty());
  EXPECT_TRUE(
      Column(con_->Query("SELECT a FROM t WHERE s NOT LIKE NULL")).empty());
}

TEST_F(PreparedTest, InAgainstANullListIsThreeValuedOnEveryPath) {
  // A miss against a list holding a NULL is NULL, not FALSE, so NOT IN
  // over such a list keeps no row. Each shape runs as a literal with the
  // plan cache off, as a cache hit, and with a NULL bound as parameter.
  ASSERT_TRUE(con_->Query("CREATE TABLE n (a INTEGER)").ok());
  ASSERT_TRUE(con_->Query("INSERT INTO n VALUES (1), (2), (3)").ok());
  Connection off(db_.get());
  ASSERT_TRUE(off.Query("PRAGMA plan_cache=off").ok());
  auto hits = [&]() -> int64_t {
    auto r = con_->Query("PRAGMA plan_cache_stats");
    EXPECT_TRUE(r.ok());
    return r.ok() ? (*r)->GetValue(0, 0).GetBigInt() : -1;  // "hits"
  };
  auto count = [](Result<std::unique_ptr<MaterializedQueryResult>> r) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? (*r)->GetValue(0, 0).GetBigInt() : -1;
  };
  struct Shape {
    const char* literal;
    const char* with_parameter;
    int64_t count;
  };
  const Shape shapes[] = {
      {"a NOT IN (1, NULL)", "a NOT IN (1, ?)", 0},
      {"NOT (a IN (5, NULL))", "NOT (a IN (5, ?))", 0},
      {"a IN (1, NULL)", "a IN (1, ?)", 1},
      {"a NOT IN (1, 2)", "a NOT IN (1, 2)", 1},
  };
  for (const Shape& shape : shapes) {
    const std::string where = shape.literal;
    const std::string sql = "SELECT count(a) FROM n WHERE " + where;
    EXPECT_EQ(count(off.Query(sql)), shape.count) << where << " uncached";
    EXPECT_EQ(count(con_->Query(sql)), shape.count) << where << " cold";
    int64_t before = hits();
    EXPECT_EQ(count(con_->Query(sql)), shape.count) << where << " hit";
    EXPECT_EQ(hits(), before + 1) << where;
    auto prepared = con_->Prepare(std::string("SELECT count(a) FROM n WHERE ") +
                                  shape.with_parameter);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    if ((*prepared)->ParameterCount() == 1) {
      ASSERT_TRUE((*prepared)->BindNull(1).ok());
    }
    EXPECT_EQ(count((*prepared)->Execute()), shape.count) << where;
  }
  // The scalar path (constant folding) agrees.
  auto folded = off.Query("SELECT 3 NOT IN (1, NULL), 1 IN (1, NULL)");
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_TRUE((*folded)->GetValue(0, 0).is_null());
  EXPECT_TRUE((*folded)->GetValue(1, 0).GetBoolean());
}

TEST_F(PreparedTest, PrepareInvalidSqlFailsAndRecovers) {
  EXPECT_FALSE(con_->Prepare("SELEKT 1").ok());
  EXPECT_FALSE(con_->Prepare("SELECT FROM t").ok());
  EXPECT_FALSE(con_->Prepare("SELECT * FROM missing_table").ok());
  // Two statements cannot be prepared as one unit.
  EXPECT_FALSE(con_->Prepare("SELECT 1; SELECT 2").ok());
  // DDL is not preparable.
  EXPECT_FALSE(con_->Prepare("CREATE TABLE x (a INTEGER)").ok());
  // The connection is unaffected: a correct re-Prepare works.
  auto ok = con_->Prepare("SELECT a FROM t WHERE a = ?");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  ASSERT_TRUE((*ok)->Bind(1, 2).ok());
  EXPECT_TRUE((*ok)->Execute().ok());
}

TEST_F(PreparedTest, ExecuteAfterTableDroppedFails) {
  auto prepared = con_->Prepare("SELECT a FROM t WHERE a > $1");
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE((*prepared)->Bind(1, 0).ok());
  ASSERT_TRUE((*prepared)->Execute().ok());
  ASSERT_TRUE(con_->Query("DROP TABLE t").ok());
  auto r = (*prepared)->Execute();
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("does not exist"), std::string::npos);
}

TEST_F(PreparedTest, SurvivesUnrelatedDdlByReplanning) {
  auto prepared = con_->Prepare("SELECT count(*) FROM t WHERE a > ?");
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE((*prepared)->Bind(1, 0).ok());
  auto r1 = (*prepared)->Execute();
  ASSERT_TRUE(r1.ok());
  // DDL on another table bumps the catalog version; the statement
  // re-plans transparently and keeps its bindings.
  ASSERT_TRUE(con_->Query("CREATE TABLE other (x INTEGER)").ok());
  auto r2 = (*prepared)->Execute();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ((*r2)->GetValue(0, 0).GetBigInt(),
            (*r1)->GetValue(0, 0).GetBigInt());
}

TEST_F(PreparedTest, PreparedSeesNewlyCommittedData) {
  auto prepared = con_->Prepare("SELECT count(*) FROM t WHERE a > ?");
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE((*prepared)->Bind(1, 0).ok());
  auto r1 = (*prepared)->Execute();
  ASSERT_TRUE(r1.ok());
  int64_t before = (*r1)->GetValue(0, 0).GetBigInt();
  ASSERT_TRUE(con_->Query("INSERT INTO t VALUES (42, 'new')").ok());
  auto r2 = (*prepared)->Execute();
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ((*r2)->GetValue(0, 0).GetBigInt(), before + 1);
}

TEST_F(PreparedTest, DirectQueryWithPlaceholdersIsRejected) {
  auto r = con_->Query("SELECT a FROM t WHERE a > ?");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("Prepare"), std::string::npos);
}

TEST_F(PreparedTest, BareParameterDefaultsToVarchar) {
  auto prepared = con_->Prepare("SELECT ?");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ((*prepared)->ParameterType(1), TypeId::kVarchar);
  ASSERT_TRUE((*prepared)->Bind(1, "hello").ok());
  auto r = (*prepared)->Execute();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->GetValue(0, 0).GetString(), "hello");
}

TEST_F(PreparedTest, HugeParameterNumberIsAParseError) {
  // Must fail cleanly instead of resizing the parameter slots to $N.
  EXPECT_FALSE(con_->Prepare("SELECT $4000000000").ok());
  EXPECT_FALSE(con_->Prepare("SELECT $99999999999999999999").ok());
  EXPECT_FALSE(con_->Prepare("SELECT $65536").ok());
}

TEST_F(PreparedTest, SparseParameterNumberingRejectedAtPrepare) {
  auto r = con_->Prepare("SELECT a FROM t WHERE a = $2");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("$1"), std::string::npos);
  EXPECT_FALSE(con_->Prepare("SELECT a FROM t WHERE a = $1 AND a < $3").ok());
}

TEST_F(PreparedTest, PositionalAfterNumberedDoesNotAlias) {
  // '?' after '$1' must take slot 2, not re-use slot 1.
  auto prepared = con_->Prepare("SELECT a FROM t WHERE a = $1 AND s = ?");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ((*prepared)->ParameterCount(), 2u);
  ASSERT_TRUE((*prepared)->Bind(1, 2).ok());
  ASSERT_TRUE((*prepared)->Bind(2, "two").ok());
  auto r = (*prepared)->Execute();
  ASSERT_TRUE(r.ok());
  ASSERT_EQ((*r)->RowCount(), 1u);
  EXPECT_EQ((*r)->GetValue(0, 0).GetInteger(), 2);
}

TEST_F(PreparedTest, ExecuteWhileStreamOpenIsRejected) {
  auto prepared = con_->Prepare("SELECT a FROM t WHERE a >= $1");
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE((*prepared)->Bind(1, 1).ok());
  auto stream = (*prepared)->ExecuteStream();
  ASSERT_TRUE(stream.ok());
  // Both materialized and streaming re-execution must refuse while the
  // stream is live (they would rewind the plan under it).
  EXPECT_FALSE((*prepared)->Execute().ok());
  EXPECT_FALSE((*prepared)->ExecuteStream().ok());
  // After closing the stream, execution works again.
  ASSERT_TRUE((*stream)->Close().ok());
  EXPECT_TRUE((*prepared)->Execute().ok());
}

// --- MaterializedQueryResult::GetValue bounds (satellite) -------------------

TEST_F(PreparedTest, GetValueOutOfRangeReturnsNull) {
  auto r = con_->Query("SELECT a, s FROM t ORDER BY a");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ((*r)->RowCount(), 5u);
  EXPECT_FALSE((*r)->GetValue(0, 0).is_null());
  // Row out of range.
  EXPECT_TRUE((*r)->GetValue(0, 5).is_null());
  EXPECT_TRUE((*r)->GetValue(0, 1u << 20).is_null());
  // Column out of range.
  EXPECT_TRUE((*r)->GetValue(2, 0).is_null());
  EXPECT_TRUE((*r)->GetValue(static_cast<idx_t>(-1), 0).is_null());
}

// --- transparent plan cache (satellite: named & cached statements) ----------

TEST_F(PreparedTest, PlanCacheReusesAndStaysCorrect) {
  idx_t initial = con_->PlanCacheSize();  // fixture INSERT is cached too
  auto r1 = con_->Query("SELECT a FROM t WHERE a > 2");
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ((*r1)->RowCount(), 3u);
  EXPECT_EQ(con_->PlanCacheSize(), initial + 1);
  // Cached re-execution returns the same result...
  auto r2 = con_->Query("SELECT a FROM t WHERE a > 2");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ((*r2)->RowCount(), 3u);
  // ...and sees data committed after the plan was cached.
  ASSERT_TRUE(con_->Query("INSERT INTO t VALUES (9, 'nine')").ok());
  auto r3 = con_->Query("SELECT a FROM t WHERE a > 2");
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ((*r3)->RowCount(), 4u);
}

TEST_F(PreparedTest, PlanCacheSurvivesDdlByReplanning) {
  auto r1 = con_->Query("SELECT a FROM t WHERE a > 2");
  ASSERT_TRUE(r1.ok());
  // Catalog version moves: the cached plan transparently re-plans.
  ASSERT_TRUE(con_->Query("CREATE TABLE other (x INTEGER)").ok());
  auto r2 = con_->Query("SELECT a FROM t WHERE a > 2");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ((*r2)->RowCount(), 3u);
  // Dropping the table turns the cached entry into a clean error and
  // evicts it; recreating the table works again.
  ASSERT_TRUE(con_->Query("DROP TABLE t").ok());
  EXPECT_FALSE(con_->Query("SELECT a FROM t WHERE a > 2").ok());
  ASSERT_TRUE(con_->Query("CREATE TABLE t (a INTEGER, s VARCHAR)").ok());
  auto r3 = con_->Query("SELECT a FROM t WHERE a > 2");
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ((*r3)->RowCount(), 0u);
}

TEST_F(PreparedTest, PlanCacheCachesDmlToo) {
  ASSERT_TRUE(con_->Query("CREATE TABLE sink (x INTEGER)").ok());
  for (int i = 0; i < 3; i++) {
    ASSERT_TRUE(con_->Query("INSERT INTO sink VALUES (1)").ok());
  }
  auto r = con_->Query("SELECT count(*) FROM sink");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(), 3);
}

TEST_F(PreparedTest, PlanCacheEvictsLeastRecentlyUsed) {
  // Fill the cache past capacity with distinct texts; it stays bounded.
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(
        con_->Query("SELECT a FROM t WHERE a > " + std::to_string(i)).ok());
  }
  EXPECT_LE(con_->PlanCacheSize(), 64u);
}

TEST_F(PreparedTest, PlanCachePragmaDisables) {
  ASSERT_TRUE(con_->Query("SELECT a FROM t").ok());
  EXPECT_GE(con_->PlanCacheSize(), 1u);
  ASSERT_TRUE(con_->Query("PRAGMA plan_cache=off").ok());
  EXPECT_EQ(con_->PlanCacheSize(), 0u);
  ASSERT_TRUE(con_->Query("SELECT a FROM t").ok());
  EXPECT_EQ(con_->PlanCacheSize(), 0u);
  ASSERT_TRUE(con_->Query("PRAGMA plan_cache=on").ok());
  ASSERT_TRUE(con_->Query("SELECT a FROM t").ok());
  EXPECT_EQ(con_->PlanCacheSize(), 1u);
}

TEST_F(PreparedTest, PlanCacheDoesNotPinExecutionMemory) {
  // A cached join plan must not keep its build-side hash table (pinned,
  // non-spillable buffer segments) alive while the connection is idle.
  ASSERT_TRUE(con_->Query("CREATE TABLE big (k INTEGER, v INTEGER)").ok());
  std::string ins = "INSERT INTO big VALUES (0,0)";
  for (int i = 1; i < 20000; i++) {
    ins += ",(" + std::to_string(i) + "," + std::to_string(i) + ")";
  }
  ASSERT_TRUE(con_->Query(ins).ok());
  // Keep the written order: `big` is the build side under test, though
  // the small `t` would be the cheaper one.
  ASSERT_TRUE(con_->Query("PRAGMA join_order=syntactic").ok());
  uint64_t before = db_->buffers().memory_used();
  auto r = con_->Query(
      "SELECT count(*) FROM t JOIN big ON t.a = big.k");
  ASSERT_TRUE(r.ok());
  EXPECT_GE(con_->PlanCacheSize(), 1u);
  // The ~1MB build segment is released once the query finishes, even
  // though the plan stays cached.
  EXPECT_LT(db_->buffers().memory_used(), before + (1u << 18));
}

TEST_F(PreparedTest, PlanCacheRespectsExplicitTransactions) {
  // Warm the cache, then use the same text inside a rolled-back
  // transaction: the rollback must win over the cached plan.
  ASSERT_TRUE(con_->Query("INSERT INTO t VALUES (7, 'seven')").ok());
  ASSERT_TRUE(con_->Query("BEGIN").ok());
  ASSERT_TRUE(con_->Query("INSERT INTO t VALUES (7, 'seven')").ok());
  ASSERT_TRUE(con_->Query("ROLLBACK").ok());
  auto r = con_->Query("SELECT count(*) FROM t WHERE a = 7");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(), 1);
}

}  // namespace
}  // namespace mallard
