// TPC-H generator + query smoke and sanity tests (tiny scale factor),
// and the cost-based join order checked against the written one.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "mallard/main/connection.h"
#include "mallard/main/database.h"
#include "mallard/main/plan_cache.h"
#include "mallard/tpch/tpch.h"

namespace mallard {
namespace {

class TpchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto db = Database::Open(":memory:");
    ASSERT_TRUE(db.ok());
    db_ = db->release();
    Status status = tpch::Generate(db_, 0.002);
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  std::unique_ptr<MaterializedQueryResult> Q(const std::string& sql) {
    Connection con(db_);
    auto result = con.Query(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    if (!result.ok()) return nullptr;
    return std::move(*result);
  }

  static Database* db_;
};

Database* TpchTest::db_ = nullptr;

TEST_F(TpchTest, Cardinalities) {
  auto r = Q("SELECT count(*) FROM region");
  EXPECT_EQ(r->GetValue(0, 0).GetBigInt(), 5);
  r = Q("SELECT count(*) FROM nation");
  EXPECT_EQ(r->GetValue(0, 0).GetBigInt(), 25);
  r = Q("SELECT count(*) FROM orders");
  EXPECT_EQ(r->GetValue(0, 0).GetBigInt(), 3000);
  r = Q("SELECT count(*) FROM lineitem");
  int64_t lines = r->GetValue(0, 0).GetBigInt();
  EXPECT_GT(lines, 3000);   // 1..7 lines per order
  EXPECT_LT(lines, 21001);
}

TEST_F(TpchTest, ForeignKeysResolve) {
  // Every lineitem joins to exactly one order.
  auto r = Q("SELECT count(*) FROM lineitem, orders "
             "WHERE l_orderkey = o_orderkey");
  auto r2 = Q("SELECT count(*) FROM lineitem");
  EXPECT_EQ(r->GetValue(0, 0).GetBigInt(), r2->GetValue(0, 0).GetBigInt());
  // Every nation has a region.
  r = Q("SELECT count(*) FROM nation, region WHERE n_regionkey = r_regionkey");
  EXPECT_EQ(r->GetValue(0, 0).GetBigInt(), 25);
}

class TpchQueryTest : public TpchTest,
                      public ::testing::WithParamInterface<int> {};

TEST_P(TpchQueryTest, RunsAndProducesRows) {
  int q = GetParam();
  std::string sql = tpch::Query(q);
  ASSERT_FALSE(sql.empty());
  auto r = Q(sql);
  ASSERT_NE(r, nullptr) << "Q" << q;
  // Aggregation queries always produce at least one row.
  EXPECT_GE(r->RowCount(), 1u) << "Q" << q;
  if (q == 1) {
    // Q1 groups by (returnflag, linestatus): at most 2x2 observed combos.
    EXPECT_LE(r->RowCount(), 4u);
    // count_order column is the last; sums must be positive.
    EXPECT_GT(r->GetValue(2, 0).GetDouble(), 0.0);
  }
  if (q == 6) {
    EXPECT_FALSE(r->GetValue(0, 0).is_null());
    EXPECT_GT(r->GetValue(0, 0).GetDouble(), 0.0);
  }
  if (q == 3) {
    EXPECT_LE(r->RowCount(), 10u);
  }
  if (q == 10) {
    EXPECT_LE(r->RowCount(), 20u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, TpchQueryTest,
                         ::testing::ValuesIn(tpch::SupportedQueries()));

// --- join order: cost-based against syntactic -----------------------------

// Replaces every occurrence of `from`, which must occur.
std::string Substitute(std::string sql,
                       const std::vector<std::pair<std::string, std::string>>&
                           replacements) {
  for (const auto& [from, to] : replacements) {
    size_t pos = sql.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    while (pos != std::string::npos) {
      sql.replace(pos, from.size(), to);
      pos = sql.find(from, pos + to.size());
    }
  }
  return sql;
}

// Four substitution sets per query from the TPC-H spec ranges that the
// olap_tpch workload draws from: segments, regions, years, months, ship
// modes, brands and quantity ranges.
std::vector<std::string> Variants(int q) {
  using Subs = std::vector<std::pair<std::string, std::string>>;
  std::vector<Subs> subs;
  switch (q) {
    case 1:
      for (const char* days : {"60", "75", "100", "120"}) {
        subs.push_back({{"'90' DAY", std::string("'") + days + "' DAY"}});
      }
      break;
    case 3:
      subs = {{{"'BUILDING'", "'AUTOMOBILE'"}, {"1995-03-15", "1995-03-01"}},
              {{"'BUILDING'", "'BUILDING'"}, {"1995-03-15", "1995-03-10"}},
              {{"'BUILDING'", "'FURNITURE'"}, {"1995-03-15", "1995-03-20"}},
              {{"'BUILDING'", "'MACHINERY'"}, {"1995-03-15", "1995-03-31"}}};
      break;
    case 5:
      subs = {{{"'ASIA'", "'AFRICA'"}, {"1994-01-01", "1993-01-01"}},
              {{"'ASIA'", "'AMERICA'"}, {"1994-01-01", "1994-01-01"}},
              {{"'ASIA'", "'ASIA'"}, {"1994-01-01", "1995-01-01"}},
              {{"'ASIA'", "'MIDDLE EAST'"}, {"1994-01-01", "1997-01-01"}}};
      break;
    case 6:
      subs = {{{"1994-01-01", "1993-01-01"},
               {"BETWEEN 0.05 AND 0.07", "BETWEEN 0.01 AND 0.03"}},
              {{"1994-01-01", "1994-01-01"}, {"l_quantity < 24", "l_quantity < 25"}},
              {{"1994-01-01", "1996-01-01"},
               {"BETWEEN 0.05 AND 0.07", "BETWEEN 0.07 AND 0.09"}},
              {{"1994-01-01", "1997-01-01"},
               {"BETWEEN 0.05 AND 0.07", "BETWEEN 0.03 AND 0.05"}}};
      break;
    case 10:
      for (const char* date : {"1993-02-01", "1993-10-01", "1994-06-01",
                               "1995-01-01"}) {
        subs.push_back({{"1993-10-01", date}});
      }
      break;
    case 12:
      subs = {{{"('MAIL', 'SHIP')", "('REG AIR', 'AIR')"}},
              {{"('MAIL', 'SHIP')", "('RAIL', 'SHIP')"},
               {"1994-01-01", "1993-01-01"}},
              {{"('MAIL', 'SHIP')", "('TRUCK', 'MAIL')"},
               {"1994-01-01", "1996-01-01"}},
              {{"('MAIL', 'SHIP')", "('FOB', 'AIR')"},
               {"1994-01-01", "1997-01-01"}}};
      break;
    case 14:
      for (const char* date : {"1993-01-01", "1995-09-01", "1996-06-01",
                               "1997-12-01"}) {
        subs.push_back({{"1995-09-01", date}});
      }
      break;
    case 19:
      subs = {{{"'Brand#12'", "'Brand#11'"}, {"'Brand#23'", "'Brand#22'"}},
              {{"'Brand#34'", "'Brand#45'"},
               {"l_quantity >= 1 AND l_quantity <= 11",
                "l_quantity >= 5 AND l_quantity <= 15"}},
              {{"'Brand#12'", "'Brand#31'"},
               {"l_quantity >= 10 AND l_quantity <= 20",
                "l_quantity >= 18 AND l_quantity <= 28"}},
              {{"'Brand#23'", "'Brand#53'"},
               {"l_quantity >= 20 AND l_quantity <= 30",
                "l_quantity >= 29 AND l_quantity <= 39"}}};
      break;
  }
  std::vector<std::string> out;
  for (const Subs& s : subs) out.push_back(Substitute(tpch::Query(q), s));
  return out;
}

using Rows = std::vector<std::vector<Value>>;

Rows Sorted(const MaterializedQueryResult& result) {
  Rows rows(result.RowCount());
  for (idx_t r = 0; r < result.RowCount(); r++) {
    for (idx_t c = 0; c < result.ColumnCount(); c++) {
      rows[r].push_back(result.GetValue(c, r));
    }
  }
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    for (size_t c = 0; c < a.size(); c++) {
      int cmp = a[c].Compare(b[c]);
      if (cmp != 0) return cmp < 0;
    }
    return false;
  });
  return rows;
}

// Multiset equality; DOUBLE cells (summed in plan-dependent order) to a
// relative 1e-9, every other cell exactly.
void ExpectSameRows(const Rows& got, const Rows& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t r = 0; r < got.size(); r++) {
    for (size_t c = 0; c < got[r].size(); c++) {
      const Value& a = got[r][c];
      const Value& b = want[r][c];
      if (a.type() == TypeId::kDouble && b.type() == TypeId::kDouble &&
          !a.is_null() && !b.is_null()) {
        double x = a.GetDouble(), y = b.GetDouble();
        EXPECT_LE(std::fabs(x - y),
                  1e-9 * std::max({1.0, std::fabs(x), std::fabs(y)}))
            << what << " row " << r << " column " << c;
      } else {
        EXPECT_EQ(a.Compare(b), 0) << what << " row " << r << " column "
                                   << c << ": " << a.ToString() << " vs "
                                   << b.ToString();
      }
    }
  }
}

// An EXPLAIN tree: one node per line, children indented two spaces.
struct PlanNode {
  std::string line;
  std::vector<PlanNode> children;
};

PlanNode ParsePlan(const std::string& text) {
  PlanNode root;
  std::vector<std::pair<size_t, PlanNode*>> stack = {{0, &root}};
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    size_t depth = line.find_first_not_of(' ') / 2 + 1;
    while (stack.back().first >= depth) stack.pop_back();
    PlanNode* parent = stack.back().second;
    parent->children.push_back({line.substr(line.find_first_not_of(' ')), {}});
    stack.push_back({depth, &parent->children.back()});
  }
  return root;
}

// Which input of the nearest hash join above `table`'s scan holds it:
// 0 = probe (left), 1 = build (right); -1 when no join is above it, -2
// when the plan does not scan `table`.
int JoinSide(const PlanNode& node, const std::string& table, int side = -1) {
  if (node.line.rfind("SEQ_SCAN(" + table + ")", 0) == 0) return side;
  bool join = node.line.rfind("HASH_JOIN", 0) == 0;
  for (size_t i = 0; i < node.children.size(); i++) {
    int found = JoinSide(node.children[i], table,
                         join ? static_cast<int>(i) : side);
    if (found != -2) return found;
  }
  return -2;
}

class TpchJoinOrderTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto db = Database::Open(":memory:");
    ASSERT_TRUE(db.ok());
    db_ = db->release();
    Status status = tpch::Generate(db_, 0.01);
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static std::string Explain(const std::string& sql,
                             const char* join_order = "cost") {
    Connection con(db_);
    EXPECT_TRUE(
        con.Query(std::string("PRAGMA join_order=") + join_order).ok());
    auto r = con.Query("EXPLAIN " + sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? (*r)->GetValue(0, 0).GetString() : "";
  }

  static Database* db_;
};

Database* TpchJoinOrderTest::db_ = nullptr;

TEST_F(TpchJoinOrderTest, BothOrdersReturnTheSameRows) {
  Connection cost(db_);
  Connection syntactic(db_);
  ASSERT_TRUE(syntactic.Query("PRAGMA join_order=syntactic").ok());
  for (int q : tpch::SupportedQueries()) {
    std::vector<std::string> variants = Variants(q);
    ASSERT_EQ(variants.size(), 4u) << "Q" << q;
    for (size_t v = 0; v < variants.size(); v++) {
      std::string what = "Q" + std::to_string(q) + " variant " +
                         std::to_string(v);
      auto a = cost.Query(variants[v]);
      auto b = syntactic.Query(variants[v]);
      ASSERT_TRUE(a.ok()) << what << ": " << a.status().ToString();
      ASSERT_TRUE(b.ok()) << what << ": " << b.status().ToString();
      ExpectSameRows(Sorted(**a), Sorted(**b), what);
    }
  }
}

TEST_F(TpchJoinOrderTest, Q12Q14AndQ19HitThePlanCacheWithNewLiterals) {
  // Two substitution sets each, differing only in literals the cache
  // lifts into parameters: IN lists (Q12, Q19), a LIKE pattern (Q14).
  const std::vector<std::pair<int, std::vector<std::string>>> cases = {
      {12, {tpch::Query(12), Variants(12)[0]}},
      {14, {tpch::Query(14), Substitute(tpch::Query(14),
                                        {{"'PROMO%'", "'%BRASS'"}})}},
      {19, {tpch::Query(19), Variants(19)[0]}},
  };
  Connection reference(db_);
  ASSERT_TRUE(reference.Query("PRAGMA plan_cache=off").ok());
  Connection cached(db_);
  auto stat = [&](const char* column) -> int64_t {
    auto r = cached.Query("PRAGMA plan_cache_stats");
    EXPECT_TRUE(r.ok());
    for (idx_t c = 0; c < (*r)->names().size(); c++) {
      if ((*r)->names()[c] == column) return (*r)->GetValue(c, 0).GetBigInt();
    }
    ADD_FAILURE() << column;
    return -1;
  };
  for (const auto& [q, sets] : cases) {
    std::string what = "Q" + std::to_string(q);
    auto first = cached.Query(sets[0]);
    ASSERT_TRUE(first.ok()) << what << ": " << first.status().ToString();
    int64_t hits = stat("hits"), misses = stat("misses");
    auto second = cached.Query(sets[1]);
    ASSERT_TRUE(second.ok()) << what << ": " << second.status().ToString();
    EXPECT_EQ(stat("hits"), hits + 1) << what;
    EXPECT_EQ(stat("misses"), misses) << what;
    for (size_t s = 0; s < sets.size(); s++) {
      auto want = reference.Query(sets[s]);
      ASSERT_TRUE(want.ok()) << what << ": " << want.status().ToString();
      ExpectSameRows(Sorted(s == 0 ? **first : **second), Sorted(**want),
                     what + " set " + std::to_string(s));
    }
  }
}

TEST_F(TpchJoinOrderTest, Q6ComparesItsQuantityWithoutACast) {
  // l_quantity is DOUBLE and 24 an INTEGER literal: the literal is
  // converted at plan time, not wrapped in CAST, so the scan and the
  // estimator see a bare value.
  std::string plan = Explain(tpch::Query(6));
  EXPECT_EQ(plan.find("CAST"), std::string::npos) << plan;
  EXPECT_NE(plan.find("(l_quantity < 24)"), std::string::npos) << plan;
  // The cached plan: the slot itself is typed DOUBLE.
  Connection con(db_);
  ASSERT_TRUE(con.Query(tpch::Query(6)).ok());
  NormalizedQuery normalized = NormalizeQueryText(tpch::Query(6));
  SharedPlanCache::EntryPtr entry = db_->plan_cache().Acquire(normalized.key);
  ASSERT_NE(entry, nullptr);
  std::string cached = entry->plan.plan->ToString();
  EXPECT_EQ(cached.find("CAST"), std::string::npos) << cached;
  EXPECT_NE(cached.find("(l_quantity < $"), std::string::npos) << cached;
}

TEST_F(TpchJoinOrderTest, Q5ProbesWithLineitemAndAppliesTheCycle) {
  std::string plan = Explain(tpch::Query(5));
  EXPECT_EQ(JoinSide(ParsePlan(plan), "lineitem"), 0) << plan;
  // As written, lineitem is the build side of its join with orders.
  std::string written = Explain(tpch::Query(5), "syntactic");
  EXPECT_EQ(JoinSide(ParsePlan(written), "lineitem"), 1) << written;
  // Both nationkey edges of the cycle customer-supplier-nation apply.
  bool customer_edge = false, nation_edge = false;
  std::istringstream in(plan);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("s_nationkey") == std::string::npos) continue;
    if (line.find("c_nationkey") != std::string::npos) customer_edge = true;
    if (line.find("n_nationkey") != std::string::npos) nation_edge = true;
  }
  EXPECT_TRUE(customer_edge) << plan;
  EXPECT_TRUE(nation_edge) << plan;
}

TEST_F(TpchJoinOrderTest, Q3AndQ10ProbeWithLineitem) {
  for (int q : {3, 10}) {
    std::string plan = Explain(tpch::Query(q));
    EXPECT_EQ(JoinSide(ParsePlan(plan), "lineitem"), 0) << "Q" << q << "\n"
                                                        << plan;
  }
}

TEST_F(TpchJoinOrderTest, Q12KeepsTheFilteredLineitemAsBuildSide) {
  std::string plan = Explain(tpch::Query(12));
  EXPECT_EQ(JoinSide(ParsePlan(plan), "lineitem"), 1) << plan;
}

TEST_F(TpchJoinOrderTest, ExplainEstimatesEveryScanAndJoin) {
  for (int q : tpch::SupportedQueries()) {
    std::istringstream in(Explain(tpch::Query(q)));
    std::string line;
    while (std::getline(in, line)) {
      std::string op = line.substr(line.find_first_not_of(' '));
      if (op.rfind("SEQ_SCAN", 0) == 0 || op.rfind("HASH_JOIN", 0) == 0) {
        EXPECT_NE(op.find(" est="), std::string::npos) << "Q" << q << ": "
                                                      << op;
      }
    }
  }
}

}  // namespace
}  // namespace mallard
