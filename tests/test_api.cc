// Client API tests: appender, streaming results, value-based API,
// CSV ETL, governor behaviour, the socket client-server baseline, and
// the vectorized-vs-scalar expression equivalence property.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>

#include "mallard/baseline/row_engine.h"
#include "mallard/common/random.h"
#include "mallard/etl/csv.h"
#include "mallard/expression/expression_executor.h"
#include "mallard/main/appender.h"
#include "mallard/main/connection.h"
#include "mallard/main/database.h"
#include "mallard/net/client_server.h"

namespace mallard {
namespace {

class ApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open(":memory:");
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    con_ = std::make_unique<Connection>(db_.get());
  }
  std::unique_ptr<Database> db_;
  std::unique_ptr<Connection> con_;
};

TEST_F(ApiTest, AppenderRowApi) {
  ASSERT_TRUE(
      con_->Query("CREATE TABLE t (a INTEGER, b VARCHAR, c DOUBLE)").ok());
  auto app = Appender::Create(db_.get(), "t");
  ASSERT_TRUE(app.ok());
  for (int i = 0; i < 5000; i++) {
    (*app)->Append(static_cast<int32_t>(i))
        .Append("row" + std::to_string(i))
        .Append(i * 0.5);
    ASSERT_TRUE((*app)->EndRow().ok());
  }
  (*app)->AppendNull();
  (*app)->AppendNull();
  (*app)->AppendNull();
  ASSERT_TRUE((*app)->EndRow().ok());
  ASSERT_TRUE((*app)->Close().ok());
  auto r = con_->Query("SELECT count(*), count(a), sum(a) FROM t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(), 5001);
  EXPECT_EQ((*r)->GetValue(1, 0).GetBigInt(), 5000);
  EXPECT_EQ((*r)->GetValue(2, 0).GetBigInt(), 12497500LL);
}

TEST_F(ApiTest, AppenderChunkApi) {
  // Paper section 5: the application fills a chunk and hands it over.
  ASSERT_TRUE(con_->Query("CREATE TABLE t (a INTEGER)").ok());
  DataChunk chunk;
  chunk.Initialize({TypeId::kInteger});
  int32_t* data = chunk.column(0).data<int32_t>();
  for (idx_t i = 0; i < kVectorSize; i++) {
    data[i] = static_cast<int32_t>(i);
  }
  chunk.SetCardinality(kVectorSize);
  auto app = Appender::Create(db_.get(), "t");
  ASSERT_TRUE((*app)->AppendChunk(chunk).ok());
  ASSERT_TRUE((*app)->Close().ok());
  auto r = con_->Query("SELECT count(*), max(a) FROM t");
  EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(),
            static_cast<int64_t>(kVectorSize));
  EXPECT_EQ((*r)->GetValue(1, 0).GetInteger(),
            static_cast<int32_t>(kVectorSize - 1));
}

TEST_F(ApiTest, AppenderTypeMismatchReported) {
  ASSERT_TRUE(con_->Query("CREATE TABLE t (a INTEGER)").ok());
  auto app = Appender::Create(db_.get(), "t");
  (*app)->Append("not a number");
  EXPECT_FALSE((*app)->EndRow().ok());
}

TEST_F(ApiTest, StreamingResultDeliversAllChunks) {
  ASSERT_TRUE(con_->Query("CREATE TABLE t (a INTEGER)").ok());
  std::string sql = "INSERT INTO t VALUES (0)";
  for (int i = 1; i < 6000; i++) sql += ",(" + std::to_string(i) + ")";
  ASSERT_TRUE(con_->Query(sql).ok());
  auto stream = con_->SendQuery("SELECT a FROM t");
  ASSERT_TRUE(stream.ok());
  idx_t rows = 0;
  int64_t sum = 0;
  while (true) {
    auto chunk = (*stream)->Fetch();
    ASSERT_TRUE(chunk.ok());
    if (!*chunk) break;
    rows += (*chunk)->size();
    const int32_t* data = (*chunk)->column(0).data<int32_t>();
    for (idx_t i = 0; i < (*chunk)->size(); i++) sum += data[i];
  }
  EXPECT_EQ(rows, 6000u);
  EXPECT_EQ(sum, 6000LL * 5999 / 2);
}

TEST_F(ApiTest, ValueApiMatchesChunkApi) {
  ASSERT_TRUE(con_->Query("CREATE TABLE t (a INTEGER, s VARCHAR)").ok());
  ASSERT_TRUE(
      con_->Query("INSERT INTO t VALUES (1,'x'), (2,'y'), (3,'z')").ok());
  auto r = con_->Query("SELECT a, s FROM t ORDER BY a");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->GetValue(0, 2).GetInteger(), 3);
  EXPECT_EQ((*r)->GetValue(1, 0).GetString(), "x");
}

TEST_F(ApiTest, ValueApiAfterPartialFetch) {
  // Mixing the two documented access styles: chunks handed over by
  // Fetch() read back as NULL values, rows still held stay readable.
  ASSERT_TRUE(con_->Query("CREATE TABLE t (a INTEGER)").ok());
  auto app = Appender::Create(db_.get(), "t");
  const idx_t kRows = 3 * kVectorSize;
  for (idx_t i = 0; i < kRows; i++) {
    (*app)->Append(static_cast<int32_t>(i));
    ASSERT_TRUE((*app)->EndRow().ok());
  }
  ASSERT_TRUE((*app)->Close().ok());
  auto r = con_->Query("SELECT a FROM t");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ((*r)->RowCount(), kRows);
  auto first = (*r)->Fetch();
  ASSERT_TRUE(first.ok());
  ASSERT_NE(*first, nullptr);
  idx_t consumed = (*first)->size();
  ASSERT_LT(consumed, kRows);
  // Consumed region: NULL values, no crash; ToString still works.
  EXPECT_TRUE((*r)->GetValue(0, 0).is_null());
  EXPECT_TRUE((*r)->GetValue(0, consumed - 1).is_null());
  (void)(*r)->ToString();
  // Unfetched region still addresses the right rows.
  EXPECT_EQ((*r)->GetValue(0, consumed).GetInteger(),
            static_cast<int32_t>(consumed));
  EXPECT_EQ((*r)->GetValue(0, kRows - 1).GetInteger(),
            static_cast<int32_t>(kRows - 1));
}

// A 2 %-selective filter over 200k rows: the scan yields ~40 rows per
// vector. The materialized result stores them densely, and every access
// path — streamed chunks, chunk contents, GetValue — sees the same rows.
TEST_F(ApiTest, SelectiveResultIsDense) {
  ASSERT_TRUE(con_->Query("CREATE TABLE t (id BIGINT, v DOUBLE, "
                          "cat VARCHAR, n BIGINT, k INTEGER)")
                  .ok());
  auto app = Appender::Create(db_.get(), "t");
  const int64_t kRows = 200000;
  for (int64_t i = 0; i < kRows; i++) {
    // 64 categories: full row groups dictionary-encode `cat`.
    (*app)->Append(i).Append(i * 0.25).Append("cat" + std::to_string(i % 64));
    if (i % 3 == 0) {
      (*app)->AppendNull();
    } else {
      (*app)->Append(i * 7);
    }
    (*app)->Append(static_cast<int32_t>(i % 50));
    ASSERT_TRUE((*app)->EndRow().ok());
  }
  ASSERT_TRUE((*app)->Close().ok());
  const std::string sql = "SELECT id, v, cat, n FROM t WHERE k = 7";
  auto r = con_->Query(sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  MaterializedQueryResult& result = **r;
  ASSERT_EQ(result.RowCount(), static_cast<idx_t>(kRows / 50));

  const auto& chunks = result.Chunks();
  ASSERT_GT(chunks.size(), 1u);
  for (size_t i = 0; i + 1 < chunks.size(); i++) {
    EXPECT_GE(chunks[i]->size(), kVectorSize / 2) << "chunk " << i;
  }

  // GetValue agrees with the chunk contents at every coordinate.
  std::vector<std::string> rows;
  idx_t start = 0;
  for (const auto& chunk : chunks) {
    for (idx_t row = 0; row < chunk->size(); row++) {
      std::string line;
      for (idx_t c = 0; c < result.ColumnCount(); c++) {
        Value held = chunk->GetValue(c, row);
        Value got = result.GetValue(c, start + row);
        ASSERT_TRUE(held == got)
            << "(" << c << ", " << start + row << "): " << held.ToString()
            << " vs " << got.ToString();
        line += held.ToString() + "|";
      }
      rows.push_back(line);
    }
    start += chunk->size();
  }

  // The rows equal the streamed result (as multisets: a parallel scan
  // may interleave morsels differently).
  auto stream = con_->SendQuery(sql);
  ASSERT_TRUE(stream.ok());
  std::vector<std::string> streamed;
  while (true) {
    auto chunk = (*stream)->Fetch();
    ASSERT_TRUE(chunk.ok());
    if (!*chunk) break;
    for (idx_t row = 0; row < (*chunk)->size(); row++) {
      std::string line;
      for (idx_t c = 0; c < (*chunk)->ColumnCount(); c++) {
        line += (*chunk)->GetValue(c, row).ToString() + "|";
      }
      streamed.push_back(line);
    }
  }
  std::sort(rows.begin(), rows.end());
  std::sort(streamed.begin(), streamed.end());
  EXPECT_EQ(rows, streamed);

  // After a partial Fetch the handed-over rows read back as NULL; the
  // rest still address the same values.
  Value last = result.GetValue(0, result.RowCount() - 1);
  auto first = result.Fetch();
  ASSERT_TRUE(first.ok());
  ASSERT_NE(*first, nullptr);
  idx_t consumed = (*first)->size();
  for (idx_t row : {idx_t{0}, consumed - 1}) {
    for (idx_t c = 0; c < result.ColumnCount(); c++) {
      EXPECT_TRUE(result.GetValue(c, row).is_null()) << c << ", " << row;
    }
  }
  EXPECT_TRUE(result.GetValue(0, consumed) == chunks[1]->GetValue(0, 0));
  EXPECT_TRUE(result.GetValue(0, result.RowCount() - 1) == last);

  // A one-row result is a single chunk.
  auto one = con_->Query("SELECT id, cat FROM t WHERE id = 12345");
  ASSERT_TRUE(one.ok());
  ASSERT_EQ((*one)->Chunks().size(), 1u);
  EXPECT_EQ((*one)->GetValue(1, 0).GetString(),
            "cat" + std::to_string(12345 % 64));
}

// Small chunks are packed and full ones kept, in the plan's row order:
// a sparse prefix (a % 50 = 0) followed by a dense tail (a >= 15000).
TEST_F(ApiTest, DenseResultKeepsRowOrder) {
  ASSERT_TRUE(con_->Query("PRAGMA threads=1").ok());  // one ordered scan
  ASSERT_TRUE(con_->Query("CREATE TABLE t (a INTEGER)").ok());
  auto app = Appender::Create(db_.get(), "t");
  for (int32_t i = 0; i < 20000; i++) {
    (*app)->Append(i);
    ASSERT_TRUE((*app)->EndRow().ok());
  }
  ASSERT_TRUE((*app)->Close().ok());
  auto r = con_->Query("SELECT a FROM t WHERE a % 50 = 0 OR a >= 15000");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::vector<int32_t> want;
  for (int32_t i = 0; i < 20000; i++) {
    if (i % 50 == 0 || i >= 15000) want.push_back(i);
  }
  std::vector<int32_t> got;
  const auto& chunks = (*r)->Chunks();
  for (size_t i = 0; i < chunks.size(); i++) {
    // A chunk under half full ends a packed run: the last chunk, or one
    // followed by a chunk the plan produced at least half full.
    if (chunks[i]->size() < kVectorSize / 2 && i + 1 < chunks.size()) {
      EXPECT_GE(chunks[i + 1]->size(), kVectorSize / 2) << "chunk " << i;
    }
    const int32_t* a = chunks[i]->column(0).data<int32_t>();
    got.insert(got.end(), a, a + chunks[i]->size());
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ((*r)->GetValue(0, 300).GetInteger(), 15000);
}

// --- CSV ETL -----------------------------------------------------------------

class CsvTest : public ApiTest {
 protected:
  void SetUp() override {
    ApiTest::SetUp();
    path_ = "/tmp/mallard_csv_" + std::to_string(::getpid()) + ".csv";
    std::ofstream out(path_);
    out << "id,name,score,joined\n";
    out << "1,alice,3.5,2021-04-01\n";
    out << "2,\"bob, the builder\",4.25,2022-05-02\n";
    out << "3,carol,,2023-06-03\n";  // NULL score
  }
  void TearDown() override { RemoveFile(path_); }
  std::string path_;
};

TEST_F(CsvTest, SniffsSchema) {
  auto reader = CsvReader::Open(path_);
  ASSERT_TRUE(reader.ok());
  const auto& cols = (*reader)->columns();
  ASSERT_EQ(cols.size(), 4u);
  EXPECT_EQ(cols[0].name, "id");
  EXPECT_EQ(cols[0].type, TypeId::kBigInt);
  EXPECT_EQ(cols[1].type, TypeId::kVarchar);
  EXPECT_EQ(cols[2].type, TypeId::kDouble);
  EXPECT_EQ(cols[3].type, TypeId::kDate);
}

TEST_F(CsvTest, ReadCsvTableFunction) {
  auto r = con_->Query("SELECT count(*), sum(score) FROM read_csv('" +
                       path_ + "')");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(), 3);
  EXPECT_DOUBLE_EQ((*r)->GetValue(1, 0).GetDouble(), 7.75);
}

TEST_F(CsvTest, QuotedFieldsAndNulls) {
  auto r = con_->Query("SELECT name FROM read_csv('" + path_ +
                       "') WHERE id = 2");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->GetValue(0, 0).GetString(), "bob, the builder");
  r = con_->Query("SELECT count(*) FROM read_csv('" + path_ +
                  "') WHERE score IS NULL");
  EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(), 1);
}

TEST_F(CsvTest, CopyFromIntoTable) {
  ASSERT_TRUE(con_->Query("CREATE TABLE people (id BIGINT, name VARCHAR, "
                          "score DOUBLE, joined DATE)").ok());
  auto r = con_->Query("COPY people FROM '" + path_ + "'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(), 3);
  auto check = con_->Query("SELECT year(joined) FROM people WHERE id = 3");
  EXPECT_EQ((*check)->GetValue(0, 0).GetInteger(), 2023);
}

TEST_F(CsvTest, CopyToRoundTrip) {
  ASSERT_TRUE(con_->Query("CREATE TABLE src (a INTEGER, s VARCHAR)").ok());
  ASSERT_TRUE(con_->Query(
      "INSERT INTO src VALUES (1, 'plain'), (2, 'with,comma')").ok());
  std::string out_path = path_ + ".out";
  ASSERT_TRUE(con_->Query("COPY src TO '" + out_path + "'").ok());
  auto r = con_->Query("SELECT count(*) FROM read_csv('" + out_path +
                       "') WHERE s = 'with,comma'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(), 1);
  RemoveFile(out_path);
}

// --- client-server baseline ----------------------------------------------------

TEST_F(ApiTest, SocketProtocolsMatchInProcessResults) {
  ASSERT_TRUE(con_->Query("CREATE TABLE t (a INTEGER, s VARCHAR)").ok());
  std::string sql = "INSERT INTO t VALUES (0, 's0')";
  for (int i = 1; i < 3000; i++) {
    sql += ",(" + std::to_string(i) + ",'s" + std::to_string(i) + "')";
  }
  ASSERT_TRUE(con_->Query(sql).ok());
  auto inproc = con_->Query("SELECT a, s FROM t ORDER BY a");
  ASSERT_TRUE(inproc.ok());
  for (net::Protocol protocol :
       {net::Protocol::kText, net::Protocol::kBinaryColumnar}) {
    auto server = net::QueryServer::Start(db_.get(), protocol);
    ASSERT_TRUE(server.ok());
    net::QueryClient client((*server)->client_fd(), protocol);
    auto remote = client.Query("SELECT a, s FROM t ORDER BY a");
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    ASSERT_EQ((*remote)->RowCount(), (*inproc)->RowCount());
    for (idx_t i = 0; i < 100; i++) {
      EXPECT_EQ((*remote)->GetValue(0, i).GetInteger(),
                (*inproc)->GetValue(0, i).GetInteger());
      EXPECT_EQ((*remote)->GetValue(1, i).GetString(),
                (*inproc)->GetValue(1, i).GetString());
    }
    EXPECT_GT((*server)->bytes_sent(), 0u);
  }
}

TEST_F(ApiTest, ServerReportsErrors) {
  auto server = net::QueryServer::Start(db_.get(), net::Protocol::kText);
  net::QueryClient client((*server)->client_fd(), net::Protocol::kText);
  auto result = client.Query("SELECT * FROM no_such_table");
  EXPECT_FALSE(result.ok());
}

// --- vectorized == scalar property ------------------------------------------

TEST_F(ApiTest, VectorizedEngineMatchesRowEngine) {
  // The tuple-at-a-time interpreter is an independent implementation of
  // the same semantics; random aggregation queries must agree.
  ASSERT_TRUE(
      con_->Query("CREATE TABLE t (g INTEGER, v INTEGER, d DOUBLE)").ok());
  RandomEngine rng(17);
  std::string sql = "INSERT INTO t VALUES ";
  for (int i = 0; i < 4000; i++) {
    if (i) sql += ",";
    std::string v = rng.NextBool(0.1) ? "NULL"
                                      : std::to_string(rng.NextInt(-99, 99));
    sql += "(" + std::to_string(rng.NextInt(0, 9)) + "," + v + "," +
           std::to_string(rng.NextInt(0, 1000)) + ".5)";
  }
  ASSERT_TRUE(con_->Query(sql).ok());

  // Vectorized result.
  auto vec = con_->Query(
      "SELECT g, count(*), count(v), sum(v), min(v), max(v), sum(d) "
      "FROM t WHERE v IS NULL OR v % 3 <> 0 GROUP BY g ORDER BY g");
  ASSERT_TRUE(vec.ok());

  // Row-engine result, built by hand against the same table.
  auto table = db_->catalog().GetTable("t");
  ASSERT_TRUE(table.ok());
  auto txn = db_->transactions().Begin();
  auto scan = std::make_unique<baseline::RowScan>(
      *table, txn.get(), std::vector<idx_t>{0, 1, 2});
  auto v_ref = [&](idx_t i, TypeId t) {
    return std::make_unique<BoundColumnRef>(i, t, "c");
  };
  // WHERE v IS NULL OR v % 3 <> 0
  std::vector<ExprPtr> disj;
  disj.push_back(std::make_unique<BoundIsNull>(v_ref(1, TypeId::kInteger),
                                               false));
  disj.push_back(std::make_unique<BoundComparison>(
      CompareOp::kNotEqual,
      std::make_unique<BoundArithmetic>(ArithOp::kModulo, TypeId::kInteger,
                                        v_ref(1, TypeId::kInteger),
                                        std::make_unique<BoundConstant>(
                                            Value::Integer(3))),
      std::make_unique<BoundConstant>(Value::Integer(0))));
  auto filter = std::make_unique<baseline::RowFilter>(
      std::make_unique<BoundConjunction>(false, std::move(disj)),
      std::move(scan));
  std::vector<ExprPtr> groups;
  groups.push_back(v_ref(0, TypeId::kInteger));
  std::vector<BoundAggregate> aggs;
  aggs.push_back({AggType::kCountStar, nullptr, TypeId::kBigInt});
  aggs.push_back({AggType::kCount, v_ref(1, TypeId::kInteger),
                  TypeId::kBigInt});
  aggs.push_back({AggType::kSum, v_ref(1, TypeId::kInteger),
                  TypeId::kBigInt});
  aggs.push_back({AggType::kMin, v_ref(1, TypeId::kInteger),
                  TypeId::kInteger});
  aggs.push_back({AggType::kMax, v_ref(1, TypeId::kInteger),
                  TypeId::kInteger});
  aggs.push_back({AggType::kSum, v_ref(2, TypeId::kDouble),
                  TypeId::kDouble});
  baseline::RowHashAggregate agg(std::move(groups), std::move(aggs),
                                 std::move(filter));
  std::vector<Value> row;
  idx_t group_index = 0;
  while (true) {
    auto has = agg.Next(&row);
    ASSERT_TRUE(has.ok());
    if (!*has) break;
    // Row engine emits groups in sorted order (std::map).
    for (idx_t c = 0; c < row.size(); c++) {
      Value expected = (*vec)->GetValue(c, group_index);
      EXPECT_EQ(row[c].Compare(expected), 0)
          << "group " << group_index << " col " << c << ": "
          << row[c].ToString() << " vs " << expected.ToString();
    }
    group_index++;
  }
  EXPECT_EQ(group_index, (*vec)->RowCount());
  ASSERT_TRUE(db_->transactions().Commit(txn.get()).ok());
}

// --- governor -----------------------------------------------------------------

TEST(GovernorTest, ManualModeUsesConfiguredCap) {
  GovernorConfig config;
  config.dbms_memory_limit = 123456;
  config.reactive = false;
  ResourceGovernor governor(config);
  EXPECT_EQ(governor.EffectiveMemoryBudget(), 123456u);
  EXPECT_EQ(governor.ChooseCompressionLevel(), CompressionLevel::kNone);
}

TEST(GovernorTest, ReactiveBudgetShrinksWithAppMemory) {
  GovernorConfig config;
  config.total_memory = 1000;
  config.dbms_memory_limit = 800;
  config.reactive = true;
  ResourceGovernor governor(config);
  SyntheticAppMonitor app;
  governor.SetMonitor(&app);
  app.SetMemory(0);
  uint64_t idle_budget = governor.EffectiveMemoryBudget();
  app.SetMemory(700);
  uint64_t pressured_budget = governor.EffectiveMemoryBudget();
  EXPECT_LT(pressured_budget, idle_budget);
  app.SetMemory(990);  // starved: small floor, never zero
  EXPECT_GT(governor.EffectiveMemoryBudget(), 0u);
}

TEST(GovernorTest, CompressionStaircase) {
  // The Figure 1 policy: none -> light -> heavy as app RAM grows.
  GovernorConfig config;
  config.total_memory = 1000;
  config.reactive = true;
  ResourceGovernor governor(config);
  SyntheticAppMonitor app;
  governor.SetMonitor(&app);
  app.SetMemory(100);
  EXPECT_EQ(governor.ChooseCompressionLevel(), CompressionLevel::kNone);
  app.SetMemory(600);
  EXPECT_EQ(governor.ChooseCompressionLevel(), CompressionLevel::kLight);
  app.SetMemory(900);
  EXPECT_EQ(governor.ChooseCompressionLevel(), CompressionLevel::kHeavy);
}

TEST(GovernorTest, JoinAlgorithmSwitchesUnderPressure) {
  GovernorConfig config;
  config.total_memory = 1 << 30;
  config.dbms_memory_limit = 1 << 20;  // 1MB
  ResourceGovernor governor(config);
  EXPECT_EQ(governor.ChooseJoinAlgorithm(1000), JoinAlgorithm::kHash);
  EXPECT_EQ(governor.ChooseJoinAlgorithm(100 << 20), JoinAlgorithm::kMerge);
}

}  // namespace
}  // namespace mallard
