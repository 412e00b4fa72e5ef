// Multi-client serving tests: the shared scheduler's inter-query
// fairness (QueryTicket / FairThreadShare / round-robin pickup),
// admission control (bounded queue, priority classes, shed/timeout with
// kResourceExhausted), Connection::Interrupt at chunk/morsel/spill
// boundaries, the cross-connection shared plan cache with literal
// normalization, the socket QueryServer, and a mixed
// read/write/DDL concurrency stress. The whole file runs under TSAN in
// CI (serving-stress job, MALLARD_THREADS=4).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "mallard/c_api/mallard.h"
#include "mallard/governor/resource_governor.h"
#include "mallard/main/appender.h"
#include "mallard/main/connection.h"
#include "mallard/main/database.h"
#include "mallard/main/plan_cache.h"
#include "mallard/net/client_server.h"
#include "mallard/parser/parser.h"
#include "mallard/parallel/task_scheduler.h"

namespace mallard {
namespace {

// --- Literal normalizer ----------------------------------------------------

// The normalized statement as text: the source with each extracted
// literal's span (a folded minus included) replaced by `?`.
std::string Normalized(const std::string& sql) {
  NormalizedQuery q = NormalizeQueryText(sql);
  std::string text;
  size_t cursor = 0;
  for (const Token& token : q.tokens) {
    if (token.type != TokenType::kParameter) continue;
    text.append(sql, cursor, token.begin - cursor);
    text += '?';
    cursor = token.end;
  }
  return text + sql.substr(cursor);
}

TEST(NormalizeQueryText, IntegerLiteralsShareOneKey) {
  auto a = NormalizeQueryText("SELECT * FROM t WHERE id = 7");
  auto b = NormalizeQueryText("SELECT * FROM t WHERE id = 9");
  ASSERT_TRUE(a.cacheable);
  ASSERT_TRUE(b.cacheable);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(Normalized("SELECT * FROM t WHERE id = 7"),
            "SELECT * FROM t WHERE id = ?");
  ASSERT_EQ(a.literals.size(), 1u);
  EXPECT_EQ(a.literals[0].type(), TypeId::kInteger);
  EXPECT_EQ(a.literals[0].GetInteger(), 7);
  EXPECT_EQ(b.literals[0].GetInteger(), 9);
}

TEST(NormalizeQueryText, IntegerAndDoubleLandOnDistinctKeys) {
  auto a = NormalizeQueryText("SELECT * FROM t WHERE v = 7");
  auto b = NormalizeQueryText("SELECT * FROM t WHERE v = 7.5");
  ASSERT_TRUE(a.cacheable);
  ASSERT_TRUE(b.cacheable);
  EXPECT_NE(a.key, b.key);  // different coercions, different plans
  EXPECT_EQ(b.literals[0].type(), TypeId::kDouble);
}

TEST(NormalizeQueryText, UnaryMinusFoldsLikeTheParser) {
  auto a = NormalizeQueryText("SELECT * FROM t WHERE id = -5");
  ASSERT_TRUE(a.cacheable);
  ASSERT_EQ(a.literals.size(), 1u);
  EXPECT_EQ(a.literals[0].type(), TypeId::kInteger);
  EXPECT_EQ(a.literals[0].GetInteger(), -5);
  // INT32_MIN classifies by its positive text (2147483648 does not fit
  // int32), exactly like ParseUnary over ParsePrimary.
  auto b = NormalizeQueryText("SELECT * FROM t WHERE id = -2147483648");
  ASSERT_EQ(b.literals.size(), 1u);
  EXPECT_EQ(b.literals[0].type(), TypeId::kBigInt);
  // ...so it keys with other BigInt literals, not with Integer ones.
  auto c = NormalizeQueryText("SELECT * FROM t WHERE id = -3000000000");
  EXPECT_EQ(b.key, c.key);
  EXPECT_NE(a.key, b.key);
  // Binary minus stays arithmetic; only the operand is parameterized.
  auto d = NormalizeQueryText("SELECT * FROM t WHERE id = x - 5");
  EXPECT_EQ(Normalized("SELECT * FROM t WHERE id = x - 5"),
            "SELECT * FROM t WHERE id = x - ?");
  EXPECT_EQ(d.literals[0].GetInteger(), 5);
}

TEST(NormalizeQueryText, StringLiteralsUnescapeAndShareKeys) {
  auto a = NormalizeQueryText("SELECT * FROM t WHERE name = 'abc'");
  auto b = NormalizeQueryText("SELECT * FROM t WHERE name = 'it''s'");
  ASSERT_TRUE(a.cacheable);
  ASSERT_TRUE(b.cacheable);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(b.literals[0].ToString(), "it's");
}

TEST(NormalizeQueryText, GrammarPositionsKeepTheirLiterals) {
  // LIMIT/OFFSET demand real integer tokens: the literal stays, so
  // different limits are different cache keys (still cacheable).
  auto a = NormalizeQueryText("SELECT * FROM t LIMIT 5");
  auto b = NormalizeQueryText("SELECT * FROM t LIMIT 10");
  ASSERT_TRUE(a.cacheable);
  EXPECT_NE(a.key, b.key);
  EXPECT_TRUE(a.literals.empty());
  // DATE '...' demands a real string token.
  auto c = NormalizeQueryText("SELECT DATE '2020-01-01'");
  ASSERT_TRUE(c.cacheable);
  EXPECT_TRUE(c.literals.empty());
  // CAST type parameters are skipped (not parsed as expressions): a `?`
  // there would desync positional numbering from literal order.
  auto d =
      NormalizeQueryText("SELECT CAST(id AS VARCHAR(5)) FROM t WHERE id = 3");
  ASSERT_TRUE(d.cacheable);
  ASSERT_EQ(d.literals.size(), 1u);
  EXPECT_EQ(d.literals[0].GetInteger(), 3);
  EXPECT_NE(Normalized("SELECT CAST(id AS VARCHAR(5)) FROM t WHERE id = 3")
                .find("VARCHAR(5)"),
            std::string::npos);
}

TEST(NormalizeQueryText, UncacheableStatementsBail) {
  EXPECT_FALSE(NormalizeQueryText("SELECT ?").cacheable);
  EXPECT_FALSE(NormalizeQueryText("SELECT $1").cacheable);
  EXPECT_FALSE(NormalizeQueryText("SELECT 1; SELECT 2").cacheable);
  EXPECT_FALSE(NormalizeQueryText("PRAGMA threads").cacheable);
  EXPECT_FALSE(NormalizeQueryText("CREATE TABLE x(i INTEGER)").cacheable);
  EXPECT_FALSE(
      NormalizeQueryText("SELECT * FROM read_csv('f.csv')").cacheable);
  EXPECT_FALSE(NormalizeQueryText("SELECT 'unterminated").cacheable);
  EXPECT_FALSE(NormalizeQueryText("").cacheable);
  // A trailing semicolon is fine; a second statement is not.
  EXPECT_TRUE(NormalizeQueryText("SELECT 1;").cacheable);
  EXPECT_TRUE(NormalizeQueryText("SELECT 1 -- comment").cacheable);
}

TEST(NormalizeQueryText, QuotingNeverSharesAKey) {
  // The key holds each token's source bytes: one quoted identifier
  // `"a b"` and the two tokens `a b` stay apart.
  auto quoted = NormalizeQueryText("SELECT \"a b\" FROM t WHERE id = 1");
  auto plain = NormalizeQueryText("SELECT a b FROM t WHERE id = 1");
  ASSERT_TRUE(quoted.cacheable);
  ASSERT_TRUE(plain.cacheable);
  EXPECT_NE(quoted.key, plain.key);
  // Differently quoted spellings of one name never share a key either.
  std::set<std::string> keys;
  for (const char* sql :
       {"SELECT a FROM t WHERE id = 1", "SELECT \"a\" FROM t WHERE id = 1",
        "SELECT \"A\" FROM t WHERE id = 1", "SELECT A FROM t WHERE id = 1",
        "SELECT \"a FROM t WHERE id\" = 1"}) {
    auto q = NormalizeQueryText(sql);
    ASSERT_TRUE(q.cacheable) << sql;
    EXPECT_TRUE(keys.insert(q.key).second) << sql;
  }
  // Layout is not part of a statement: whitespace and comments collapse.
  auto spaced = NormalizeQueryText("SELECT  a\n FROM t -- c\n WHERE id = 1");
  auto tight = NormalizeQueryText("SELECT a FROM t WHERE id = 2");
  EXPECT_EQ(spaced.key, tight.key);
}

TEST(NormalizeQueryText, LiteralsBecomeParameterTokens) {
  // The miss path parses these tokens directly: each slot is a
  // positional parameter, in literal order, with no unary minus left.
  std::string sql = "SELECT a FROM t WHERE b IN (1, -2.5) AND s LIKE 'x%'";
  auto q = NormalizeQueryText(sql);
  ASSERT_TRUE(q.cacheable);
  int parameters = 0;
  for (const Token& token : q.tokens) {
    if (token.type == TokenType::kParameter) {
      EXPECT_TRUE(token.text.empty());
      parameters++;
    }
    EXPECT_FALSE(token.type == TokenType::kSymbol && token.text == "-");
  }
  EXPECT_EQ(parameters, 3);
  ASSERT_EQ(q.literals.size(), 3u);
  EXPECT_EQ(q.literals[1].GetDouble(), -2.5);
  EXPECT_EQ(q.tokens.back().type, TokenType::kEnd);
  auto parsed = Parser::Parse(q.tokens, sql);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->size(), 1u);
}

// --- Fair thread shares ----------------------------------------------------

TEST(FairShareTest, BudgetSplitsByWeightAcrossActiveQueries) {
  GovernorConfig config;
  config.max_threads = 8;
  ResourceGovernor governor(config);
  TaskScheduler scheduler(&governor);

  // No ticket / single query: the full budget.
  EXPECT_EQ(scheduler.FairThreadShare(nullptr), 8);
  auto only = scheduler.RegisterQuery(1, 2);
  EXPECT_EQ(scheduler.FairThreadShare(only.get()), 8);

  // Two equal queries: half each (ceil).
  auto second = scheduler.RegisterQuery(2, 2);
  EXPECT_EQ(scheduler.FairThreadShare(only.get()), 4);
  EXPECT_EQ(scheduler.FairThreadShare(second.get()), 4);
  EXPECT_EQ(scheduler.active_queries(), 2);

  // Weighted: low (1) against high (4).
  second.reset();
  auto low = scheduler.RegisterQuery(3, 1);
  auto high = scheduler.RegisterQuery(4, 4);
  EXPECT_EQ(scheduler.FairThreadShare(low.get()), 2);   // ceil(8*1/7)
  EXPECT_EQ(scheduler.FairThreadShare(high.get()), 5);  // ceil(8*4/7)

  // Dropping tickets returns the shares.
  low.reset();
  high.reset();
  EXPECT_EQ(scheduler.FairThreadShare(only.get()), 8);
  EXPECT_EQ(scheduler.active_queries(), 1);
}

TEST(FairShareTest, ShareNeverStarvesToZero) {
  GovernorConfig config;
  config.max_threads = 2;
  ResourceGovernor governor(config);
  TaskScheduler scheduler(&governor);
  std::vector<std::unique_ptr<QueryTicket>> tickets;
  for (uint64_t s = 0; s < 8; s++) {
    tickets.push_back(scheduler.RegisterQuery(s, 2));
  }
  for (auto& t : tickets) {
    EXPECT_GE(scheduler.FairThreadShare(t.get()), 1);
  }
}

TEST(FairShareTest, ConcurrentTicketedRunsAllComplete) {
  GovernorConfig config;
  config.max_threads = 4;
  ResourceGovernor governor(config);
  TaskScheduler scheduler(&governor);
  std::atomic<int> total{0};
  std::vector<std::thread> threads;
  for (int s = 0; s < 4; s++) {
    threads.emplace_back([&, s] {
      auto ticket = scheduler.RegisterQuery(static_cast<uint64_t>(s + 1), 2);
      for (int i = 0; i < 20; i++) {
        Status status = scheduler.Run(
            3,
            [&](int) {
              total.fetch_add(1);
              return Status::OK();
            },
            /*governed=*/true, ticket.get());
        ASSERT_TRUE(status.ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  // Every job of every session ran despite round-robin multiplexing.
  EXPECT_GT(total.load(), 0);
  EXPECT_EQ(scheduler.active_queries(), 0);
  SchedulerStats stats = scheduler.GetStats();
  EXPECT_EQ(stats.runs, 80u);
}

// --- Admission controller --------------------------------------------------

TEST(AdmissionTest, SingleQueryAlwaysAdmitted) {
  GovernorConfig config;
  ResourceGovernor governor(config);
  AdmissionController admission(&governor);
  admission.SetMaxActive(1);
  ASSERT_TRUE(admission.Admit(1).ok());
  admission.Release();
  EXPECT_EQ(admission.GetStats().admitted, 1u);
}

TEST(AdmissionTest, WaitTimesOutWithResourceExhausted) {
  GovernorConfig config;
  ResourceGovernor governor(config);
  AdmissionController admission(&governor);
  admission.SetMaxActive(1);
  admission.SetTimeoutMs(50);
  ASSERT_TRUE(admission.Admit(1).ok());
  Status second = admission.Admit(1);
  EXPECT_TRUE(second.IsResourceExhausted()) << second.ToString();
  AdmissionStats stats = admission.GetStats();
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_EQ(stats.active, 1);
  admission.Release();
  // The slot freed: the next arrival is admitted immediately.
  ASSERT_TRUE(admission.Admit(1).ok());
  admission.Release();
}

TEST(AdmissionTest, FullQueueShedsInsteadOfQueueing) {
  GovernorConfig config;
  ResourceGovernor governor(config);
  AdmissionController admission(&governor);
  admission.SetMaxActive(1);
  admission.SetQueueDepth(0);
  ASSERT_TRUE(admission.Admit(1).ok());
  Status second = admission.Admit(1);
  EXPECT_TRUE(second.IsResourceExhausted()) << second.ToString();
  EXPECT_EQ(admission.GetStats().shed, 1u);
  admission.Release();
}

TEST(AdmissionTest, HighPriorityOvertakesLowInTheQueue) {
  GovernorConfig config;
  ResourceGovernor governor(config);
  AdmissionController admission(&governor);
  admission.SetMaxActive(1);
  admission.SetTimeoutMs(10000);
  ASSERT_TRUE(admission.Admit(1).ok());

  std::mutex order_mutex;
  std::vector<std::string> order;
  auto record = [&](const char* who) {
    std::lock_guard<std::mutex> lock(order_mutex);
    order.push_back(who);
  };

  std::thread low([&] {
    ASSERT_TRUE(admission.Admit(0).ok());
    record("low");
    admission.Release();
  });
  // Only enqueue the high-priority waiter once low is provably waiting.
  while (admission.GetStats().waiting < 1) {
    std::this_thread::yield();
  }
  std::thread high([&] {
    ASSERT_TRUE(admission.Admit(2).ok());
    record("high");
    admission.Release();
  });
  while (admission.GetStats().waiting < 2) {
    std::this_thread::yield();
  }
  admission.Release();  // frees the slot: high must win it
  high.join();
  low.join();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "high");
  EXPECT_EQ(order[1], "low");
  EXPECT_EQ(admission.GetStats().queued, 2u);
}

// --- Serving fixture -------------------------------------------------------

class ServingTest : public ::testing::Test {
 protected:
  void Open(DBConfig config = {}) {
    auto db = Database::Open(":memory:", config);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    con_ = std::make_unique<Connection>(db_.get());
  }

  void SetUp() override { Open(); }

  // Loads `rows` rows into `table` (k BIGINT, v BIGINT) via the
  // Appender; k is pseudo-random in [0, rows).
  void Fill(const std::string& table, int rows) {
    ASSERT_TRUE(
        con_->Query("CREATE TABLE " + table + " (k BIGINT, v BIGINT)").ok());
    auto app = Appender::Create(db_.get(), table);
    ASSERT_TRUE(app.ok());
    for (int i = 0; i < rows; i++) {
      (*app)->Append(static_cast<int64_t>((i * 7919LL) % rows));
      (*app)->Append(static_cast<int64_t>(i));
      ASSERT_TRUE((*app)->EndRow().ok());
    }
    ASSERT_TRUE((*app)->Close().ok());
  }

  int64_t Scalar(Connection* con, const std::string& sql) {
    auto r = con->Query(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    if (!r.ok() || (*r)->RowCount() == 0) return -1;
    return (*r)->GetValue(0, 0).GetBigInt();
  }

  // Reads one named counter out of a *_stats PRAGMA row.
  uint64_t Counter(const std::string& pragma, const std::string& column) {
    auto r = con_->Query("PRAGMA " + pragma);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return 0;
    for (idx_t c = 0; c < (*r)->names().size(); c++) {
      if ((*r)->names()[c] == column) {
        return static_cast<uint64_t>((*r)->GetValue(c, 0).GetBigInt());
      }
    }
    ADD_FAILURE() << "no column " << column << " in PRAGMA " << pragma;
    return 0;
  }

  // Canonical row multiset (results are unordered).
  std::multiset<std::string> Rows(Connection* con, const std::string& sql) {
    auto r = con->Query(sql);
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

  std::unique_ptr<Database> db_;
  std::unique_ptr<Connection> con_;
};

// --- Shared plan cache -----------------------------------------------------

TEST_F(ServingTest, LiteralVariantsShareOnePlanAcrossConnections) {
  Fill("t", 1000);
  Connection other(db_.get());
  uint64_t hits0 = Counter("plan_cache_stats", "hits");

  EXPECT_EQ(Scalar(con_.get(), "SELECT count(*) FROM t WHERE k = 7"), 1);
  idx_t entries_after_first = db_->plan_cache().size();
  // A different literal from a different connection: same entry.
  EXPECT_EQ(Scalar(&other, "SELECT count(*) FROM t WHERE k = 9"), 1);
  EXPECT_EQ(db_->plan_cache().size(), entries_after_first);
  EXPECT_GE(Counter("plan_cache_stats", "hits"), hits0 + 1);
}

TEST_F(ServingTest, NormalizedPlansMatchColdPlans) {
  ASSERT_TRUE(
      con_->Query(
              "CREATE TABLE t (id INTEGER, name VARCHAR, val DOUBLE)")
          .ok());
  ASSERT_TRUE(con_->Query("INSERT INTO t VALUES "
                          "(1, 'a', 1.5), (2, 'it''s', 2.5), (3, NULL, -3.5),"
                          "(-4, 'd', 4.5), (2147483647, 'big', 0.5)")
                  .ok());
  Connection cold(db_.get());
  ASSERT_TRUE(cold.Query("PRAGMA plan_cache=off").ok());

  const char* queries[] = {
      "SELECT id FROM t WHERE id = 2",
      "SELECT id FROM t WHERE id = -4",
      "SELECT id FROM t WHERE id = 2147483647",
      "SELECT count(*) FROM t WHERE name = 'it''s'",
      "SELECT count(*) FROM t WHERE val > 2.5",
      "SELECT id FROM t WHERE id BETWEEN 1 AND 3",
      "SELECT id FROM t WHERE name IS NULL",
      "SELECT id + 1 FROM t WHERE id = 2",
      "SELECT id FROM t WHERE val = -3.5",
      "SELECT CAST(id AS VARCHAR) FROM t WHERE id = 3",
      "SELECT id FROM t WHERE id > -5 ORDER BY id LIMIT 3",
  };
  const uint64_t kQueryCount = sizeof(queries) / sizeof(queries[0]);
  for (const char* sql : queries) {
    auto expected = Rows(&cold, sql);
    EXPECT_EQ(Rows(con_.get(), sql), expected) << sql << " (cold miss)";
    EXPECT_EQ(Rows(con_.get(), sql), expected) << sql << " (cache hit)";
  }
  // Every second run must have been a hit: the normalizer and the plan
  // parameterization agreed on each of these shapes.
  EXPECT_GE(Counter("plan_cache_stats", "hits"), kQueryCount);
}

TEST_F(ServingTest, CrossConnectionDdlInvalidatesSharedPlans) {
  Fill("t", 100);
  EXPECT_EQ(Scalar(con_.get(), "SELECT count(*) FROM t WHERE k = 7"), 1);
  uint64_t invalidations0 = Counter("plan_cache_stats", "invalidations");

  // DDL from a different connection moves the catalog version.
  Connection ddl(db_.get());
  ASSERT_TRUE(ddl.Query("CREATE TABLE unrelated (x BIGINT)").ok());
  EXPECT_EQ(Scalar(con_.get(), "SELECT count(*) FROM t WHERE k = 9"), 1);
  EXPECT_GE(Counter("plan_cache_stats", "invalidations"), invalidations0 + 1);

  // Dropping the table itself: the cached plan dies, the statement
  // reports the missing table, and a re-created table re-plans cleanly.
  ASSERT_TRUE(ddl.Query("DROP TABLE t").ok());
  auto gone = con_->Query("SELECT count(*) FROM t WHERE k = 7");
  EXPECT_FALSE(gone.ok());
  ASSERT_TRUE(ddl.Query("CREATE TABLE t (k BIGINT, v BIGINT)").ok());
  ASSERT_TRUE(ddl.Query("INSERT INTO t VALUES (7, 1)").ok());
  EXPECT_EQ(Scalar(con_.get(), "SELECT count(*) FROM t WHERE k = 7"), 1);
}

TEST_F(ServingTest, PlanCacheStatsCountEveryOutcome) {
  Fill("t", 100);
  uint64_t misses0 = Counter("plan_cache_stats", "misses");
  uint64_t uncacheable0 = Counter("plan_cache_stats", "uncacheable");
  ASSERT_TRUE(con_->Query("SELECT count(*) FROM t WHERE k = 1").ok());
  ASSERT_TRUE(con_->Query("SELECT count(*) FROM t WHERE k = 2").ok());
  EXPECT_EQ(Counter("plan_cache_stats", "misses"), misses0 + 1);
  EXPECT_GE(Counter("plan_cache_stats", "hits"), 1u);
  ASSERT_TRUE(con_->Query("BEGIN; COMMIT").ok());  // uncacheable shape
  EXPECT_GT(Counter("plan_cache_stats", "uncacheable"), uncacheable0);
  EXPECT_GE(Counter("plan_cache_stats", "entries"), 1u);
}

TEST_F(ServingTest, LruEvictionBoundsTheSharedCache) {
  Fill("t", 10);
  // More distinct shapes than capacity: the cache stays bounded and the
  // cold end is evicted.
  for (int i = 0; i < 80; i++) {
    // 80 distinct shapes (different column lists normalize to different
    // SQL even after literal extraction — the list length differs).
    std::string cols;
    for (int c = 0; c <= i; c++) {
      cols += (c ? ", k" : "k");
    }
    std::string sql = "SELECT " + cols + " FROM t WHERE v = 1";
    ASSERT_TRUE(con_->Query(sql).ok());
  }
  EXPECT_LE(db_->plan_cache().size(), SharedPlanCache::kDefaultCapacity);
  EXPECT_GT(Counter("plan_cache_stats", "evictions"), 0u);
}

TEST_F(ServingTest, FourThreadsHammerOneEntry) {
  Fill("t", 1000);
  // Warm the entry.
  ASSERT_EQ(Scalar(con_.get(), "SELECT count(*) FROM t WHERE k = 3"), 1);
  const uint64_t hits0 = Counter("plan_cache_stats", "hits");
  const uint64_t misses0 = Counter("plan_cache_stats", "misses");
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; w++) {
    threads.emplace_back([&, w] {
      Connection con(db_.get());
      for (int i = 0; i < 50; i++) {
        int64_t key = (w * 50 + i) % 1000;
        auto r = con.Query("SELECT count(*) FROM t WHERE k = " +
                           std::to_string(key));
        if (!r.ok() || (*r)->GetValue(0, 0).GetBigInt() != 1) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // One immutable entry serves every connection at once: all 200
  // executions are hits, none plans again and none waits.
  EXPECT_EQ(Counter("plan_cache_stats", "hits"), hits0 + 200);
  EXPECT_EQ(Counter("plan_cache_stats", "misses"), misses0);
  EXPECT_EQ(Counter("plan_cache_stats", "busy_skips"), 0u);
}

TEST_F(ServingTest, InterleavedLiteralsShareOneJoinPlanWhileTheCacheClears) {
  Fill("t", 3000);
  Fill("u", 400);
  auto sql = [](int64_t literal) {
    return "SELECT u.k, count(*), sum(t.v) FROM t JOIN u ON t.k = u.k "
           "WHERE t.v < " +
           std::to_string(literal) + " GROUP BY u.k";
  };
  // Every literal's answer from a connection that never caches.
  constexpr int kLiterals = 12;
  std::vector<std::multiset<std::string>> expected;
  {
    Connection cold(db_.get());
    ASSERT_TRUE(cold.Query("PRAGMA plan_cache=off").ok());
    for (int l = 0; l < kLiterals; l++) {
      expected.push_back(Rows(&cold, sql(250 * l + 100)));
    }
  }
  std::atomic<int> running{2};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; w++) {
    threads.emplace_back([&, w] {
      Connection con(db_.get());
      for (int i = 0; i < 30; i++) {
        int l = (i * 5 + w * 7) % kLiterals;
        if (Rows(&con, sql(250 * l + 100)) != expected[l]) {
          failures.fetch_add(1);
        }
      }
      running.fetch_sub(1);
    });
  }
  // A third connection empties the shared cache while the runs hold
  // entries: they finish on the entries they hold.
  threads.emplace_back([&] {
    Connection toggler(db_.get());
    while (running.load() > 0) {
      EXPECT_TRUE(toggler.Query("PRAGMA plan_cache=off").ok());
      EXPECT_TRUE(toggler.Query("PRAGMA plan_cache=on").ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(Counter("plan_cache_stats", "busy_skips"), 0u);
}

// --- PRAGMA surface --------------------------------------------------------

TEST_F(ServingTest, ServingPragmasReadBackTheirSettings) {
  auto priority = con_->Query("PRAGMA priority");
  ASSERT_TRUE(priority.ok());
  EXPECT_EQ((*priority)->GetValue(0, 0).ToString(), "normal");
  ASSERT_TRUE(con_->Query("PRAGMA priority=high").ok());
  priority = con_->Query("PRAGMA priority");
  EXPECT_EQ((*priority)->GetValue(0, 0).ToString(), "high");
  EXPECT_EQ(con_->priority_weight(), 4);
  EXPECT_FALSE(con_->Query("PRAGMA priority=urgent").ok());

  ASSERT_TRUE(con_->Query("PRAGMA admission_limit=3").ok());
  EXPECT_EQ(Scalar(con_.get(), "PRAGMA admission_limit"), 3);
  ASSERT_TRUE(con_->Query("PRAGMA admission_queue_depth=5").ok());
  EXPECT_EQ(Scalar(con_.get(), "PRAGMA admission_queue_depth"), 5);
  ASSERT_TRUE(con_->Query("PRAGMA admission_timeout_ms=250").ok());
  EXPECT_EQ(Scalar(con_.get(), "PRAGMA admission_timeout_ms"), 250);
  EXPECT_FALSE(con_->Query("PRAGMA admission_timeout_ms=0").ok());

  // A real statement (PRAGMAs bypass admission) shows up in the stats.
  ASSERT_TRUE(con_->Query("SELECT 1").ok());
  EXPECT_GE(Counter("admission_stats", "admitted"), 1u);
  EXPECT_EQ(Counter("scheduler_stats", "active_queries"), 0u);
}

TEST_F(ServingTest, AdmissionGateShedsThroughSql) {
  Fill("t", 100);
  ASSERT_TRUE(con_->Query("PRAGMA admission_limit=1").ok());
  ASSERT_TRUE(con_->Query("PRAGMA admission_timeout_ms=50").ok());
  ASSERT_TRUE(con_->Query("PRAGMA admission_queue_depth=0").ok());

  // An open stream holds its slot...
  auto stream = con_->SendQuery("SELECT k FROM t");
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE((*stream)->Fetch().ok());

  // ...so a second connection is shed instead of queueing.
  Connection other(db_.get());
  auto rejected = other.Query("SELECT count(*) FROM t");
  EXPECT_TRUE(rejected.status().IsResourceExhausted())
      << rejected.status().ToString();
  EXPECT_GE(Counter("admission_stats", "shed"), 1u);

  // The same connection rides its own held slot (no self-deadlock).
  EXPECT_EQ(Scalar(con_.get(), "SELECT count(*) FROM t"), 100);

  ASSERT_TRUE((*stream)->Close().ok());
  // Slot released: the other connection is admitted again.
  EXPECT_EQ(Scalar(&other, "SELECT count(*) FROM t"), 100);
}

// --- Interrupt -------------------------------------------------------------

TEST_F(ServingTest, PendingInterruptCancelsTheNextStatement) {
  Fill("t", 1000);
  con_->Interrupt();
  auto r = con_->Query("SELECT count(*) FROM t");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInterrupted()) << r.status().ToString();
  // One Interrupt cancels exactly one statement; the connection is
  // immediately reusable.
  EXPECT_EQ(Scalar(con_.get(), "SELECT count(*) FROM t"), 1000);
}

TEST_F(ServingTest, InterruptFromAnotherThreadCancelsMidScan) {
  Fill("big", 400000);
  std::atomic<bool> done{false};
  std::thread interrupter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    con_->Interrupt();
    done.store(true);
  });
  // A join of big against itself: long enough that the interrupt lands
  // mid-execution on most runs; if the query wins the race the flag
  // cancels this repeat loop's next statement instead — both outcomes
  // must leave the connection healthy.
  auto r = con_->Query(
      "SELECT count(*) FROM big a, big b WHERE a.k = b.k AND a.v < b.v");
  interrupter.join();
  if (!r.ok()) {
    EXPECT_TRUE(r.status().IsInterrupted()) << r.status().ToString();
  }
  // Consume a possibly still-pending flag, then prove reusability.
  auto drain = con_->Query("SELECT 1");
  (void)drain;
  EXPECT_EQ(Scalar(con_.get(), "SELECT count(*) FROM big"), 400000);
}

TEST_F(ServingTest, InterruptMidSpillReleasesEveryPin) {
  DBConfig config;
  config.memory_limit = 2ull << 20;  // force the grace join to spill
  Open(config);
  Fill("l", 120000);
  Fill("r", 120000);
  const std::string join =
      "SELECT count(*) FROM l, r WHERE l.k = r.k AND l.v < r.v";

  // Interrupt the spilling join several times: a pin leaked by any
  // cancelled partition would accumulate and wedge the 2 MiB budget.
  for (int round = 0; round < 3; round++) {
    std::thread interrupter([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      con_->Interrupt();
    });
    auto r = con_->Query(join);
    interrupter.join();
    if (!r.ok()) {
      EXPECT_TRUE(r.status().IsInterrupted()) << r.status().ToString();
    }
    (void)con_->Query("SELECT 1");  // consume a late-landing flag
  }
  // Every pin was released on teardown: memory is back within budget
  // and the same join still completes under it.
  EXPECT_LE(Counter("buffer_stats", "memory_used"), 2ull << 20);
  auto full = con_->Query(join);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(Scalar(con_.get(), "SELECT count(*) FROM l"), 120000);
}

TEST_F(ServingTest, InterruptEndsAStreamingResult) {
  Fill("t", 200000);
  auto stream = con_->SendQuery("SELECT k, v FROM t");
  ASSERT_TRUE(stream.ok());
  auto first = (*stream)->Fetch();
  ASSERT_TRUE(first.ok());
  ASSERT_NE(*first, nullptr);

  con_->Interrupt();
  auto next = (*stream)->Fetch();
  ASSERT_FALSE(next.ok());
  EXPECT_TRUE(next.status().IsInterrupted()) << next.status().ToString();
  ASSERT_TRUE((*stream)->Close().ok());
  // Closing consumed the interrupt; the connection works again.
  EXPECT_EQ(Scalar(con_.get(), "SELECT count(*) FROM t"), 200000);
}

TEST_F(ServingTest, CApiInterruptReachesTheEngine) {
  mallard_database* db = nullptr;
  ASSERT_EQ(mallard_open(nullptr, &db), MALLARD_SUCCESS);
  mallard_connection* con = nullptr;
  ASSERT_EQ(mallard_connect(db, &con), MALLARD_SUCCESS);

  mallard_result* result = nullptr;
  ASSERT_EQ(mallard_query(con, "CREATE TABLE t (i INTEGER)", &result),
            MALLARD_SUCCESS);
  mallard_destroy_result(&result);

  ASSERT_EQ(mallard_interrupt(con), MALLARD_SUCCESS);
  ASSERT_EQ(mallard_query(con, "SELECT * FROM t", &result), MALLARD_ERROR);
  ASSERT_NE(mallard_result_error(result), nullptr);
  EXPECT_NE(std::string(mallard_result_error(result)).find("Interrupted"),
            std::string::npos);
  mallard_destroy_result(&result);

  // The connection survives the cancellation.
  ASSERT_EQ(mallard_query(con, "SELECT * FROM t", &result), MALLARD_SUCCESS);
  mallard_destroy_result(&result);

  EXPECT_EQ(mallard_interrupt(nullptr), MALLARD_ERROR);
  mallard_disconnect(&con);
  mallard_close(&db);
}

// --- Fairness under contention ---------------------------------------------

TEST_F(ServingTest, PointQueriesProgressUnderALongScan) {
  DBConfig config;
  config.threads = 4;
  Open(config);
  Fill("big", 600000);
  Fill("small", 1000);

  std::atomic<bool> stop{false};
  std::atomic<bool> long_running{false};
  std::atomic<int> scans{0};
  std::thread scanner([&] {
    Connection con(db_.get());
    while (!stop.load()) {
      long_running.store(true);
      auto r = con.Query(
          "SELECT count(*), sum(v), min(v), max(v) FROM big WHERE v >= 0");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      scans.fetch_add(1);
    }
  });
  while (!long_running.load()) std::this_thread::yield();

  // Point queries on a second session must keep completing (the fair
  // share guarantees them >= 1 worker; round-robin pickup keeps their
  // jobs from queueing behind the scan's). The bound is generous — this
  // asserts no starvation, not a latency SLA.
  Connection point(db_.get());
  auto worst = std::chrono::milliseconds(0);
  for (int i = 0; i < 30; i++) {
    auto start = std::chrono::steady_clock::now();
    auto r = point.Query("SELECT count(*) FROM small WHERE k = " +
                         std::to_string(i));
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(), 1);
    if (elapsed > worst) worst = elapsed;
  }
  stop.store(true);
  scanner.join();
  EXPECT_LT(worst.count(), 2000) << "a point query starved behind the scan";
  // The scheduler actually multiplexed both sessions.
  EXPECT_GE(Counter("scheduler_stats", "runs"), 1u);
}

// --- Socket server ---------------------------------------------------------

TEST_F(ServingTest, ServerConnectionsPersistAcrossQueries) {
  auto server = net::QueryServer::Start(db_.get(), net::Protocol::kText);
  ASSERT_TRUE(server.ok());
  net::QueryClient client((*server)->client_fd(), net::Protocol::kText);

  // Session state set in one request is visible in the next: the client
  // is served by one persistent Connection, not a connection per query.
  ASSERT_TRUE(client.Query("PRAGMA priority=high").ok());
  auto priority = client.Query("PRAGMA priority");
  ASSERT_TRUE(priority.ok());
  EXPECT_EQ((*priority)->GetValue(0, 0).ToString(), "high");

  // An explicit transaction spans requests.
  ASSERT_TRUE(client.Query("CREATE TABLE s (x BIGINT)").ok());
  ASSERT_TRUE(client.Query("BEGIN").ok());
  ASSERT_TRUE(client.Query("INSERT INTO s VALUES (1), (2)").ok());
  ASSERT_TRUE(client.Query("COMMIT").ok());
  auto count = client.Query("SELECT count(*) FROM s");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ((*count)->GetValue(0, 0).GetBigInt(), 2);
}

// --- Mixed-workload stress -------------------------------------------------

TEST_F(ServingTest, MixedReadWriteDdlStress) {
  const int kThreads = 8;
  const int kIters = 30;
  Fill("stable", 2000);

  // Per-writer tables exist up front so readers never race creation.
  for (int w = 0; w < kThreads; w++) {
    ASSERT_TRUE(con_->Query("CREATE TABLE w" + std::to_string(w) +
                            " (k BIGINT, v BIGINT)")
                    .ok());
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      Connection con(db_.get());
      for (int i = 0; i < kIters; i++) {
        Status status = Status::OK();
        switch (t % 4) {
          case 0: {  // reader: a stable table always reads consistently
            auto r = con.Query("SELECT count(*) FROM stable WHERE k >= 0");
            if (!r.ok() || (*r)->GetValue(0, 0).GetBigInt() != 2000) {
              failures.fetch_add(1);
            }
            break;
          }
          case 1: {  // point reader through the shared plan cache
            auto r = con.Query("SELECT count(*) FROM stable WHERE k = " +
                               std::to_string(i % 2000));
            if (!r.ok() || (*r)->GetValue(0, 0).GetBigInt() != 1) {
              failures.fetch_add(1);
            }
            break;
          }
          case 2: {  // writer: its own table, every row must land
            auto r = con.Query("INSERT INTO w" + std::to_string(t) +
                               " VALUES (" + std::to_string(i) + ", " +
                               std::to_string(t) + ")");
            if (!r.ok()) failures.fetch_add(1);
            break;
          }
          case 3: {  // DDL churn on thread-private names
            std::string name =
                "d" + std::to_string(t) + "_" + std::to_string(i);
            status = con.Query("CREATE TABLE " + name + " (x BIGINT)")
                         .status();
            if (status.ok()) {
              status = con.Query("DROP TABLE " + name).status();
            }
            if (!status.ok()) failures.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Isolation: no lost writes — every writer's rows are all present.
  for (int t = 0; t < kThreads; t++) {
    if (t % 4 == 2) {
      EXPECT_EQ(Scalar(con_.get(),
                       "SELECT count(*) FROM w" + std::to_string(t)),
                kIters)
          << "writer " << t << " lost rows";
    }
  }
  // All tickets returned, all slots released (PRAGMAs don't register).
  EXPECT_EQ(Counter("scheduler_stats", "active_queries"), 0u);
  EXPECT_EQ(Counter("admission_stats", "active"), 0u);
}

}  // namespace
}  // namespace mallard
