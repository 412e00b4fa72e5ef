// C ABI tests: the full mallard.h surface — lifecycle, queries, value
// accessors, prepared statements, streaming — plus the error-path
// guarantees: bad SQL, out-of-range coordinates, unbound parameters,
// and every call on a closed/invalid handle returning an error (or a
// harmless default) instead of crashing. No exception may escape any
// entry point; gtest would abort the suite if one did.

#include "mallard/c_api/mallard.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <unordered_map>

#include "mallard/main/appender.h"
#include "mallard/main/connection.h"
#include "mallard/main/database.h"
#include "mallard/storage/file_handle.h"

namespace {

class CApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(mallard_open(":memory:", &db_), MALLARD_SUCCESS);
    ASSERT_EQ(mallard_connect(db_, &con_), MALLARD_SUCCESS);
  }

  void TearDown() override {
    mallard_disconnect(&con_);
    mallard_close(&db_);
  }

  // Runs `sql` expecting success; destroys the result.
  void Exec(const char* sql) {
    mallard_result* res = nullptr;
    ASSERT_EQ(mallard_query(con_, sql, &res), MALLARD_SUCCESS)
        << sql << " -> " << (mallard_result_error(res) ? mallard_result_error(res) : "?");
    mallard_destroy_result(&res);
  }

  mallard_database* db_ = nullptr;
  mallard_connection* con_ = nullptr;
};

TEST_F(CApiTest, VersionString) {
  ASSERT_NE(mallard_version(), nullptr);
  EXPECT_NE(std::string(mallard_version()).find("mallard"), std::string::npos);
}

TEST_F(CApiTest, OpenVariants) {
  // NULL and "" both mean in-memory.
  mallard_database* db = nullptr;
  ASSERT_EQ(mallard_open(nullptr, &db), MALLARD_SUCCESS);
  mallard_close(&db);
  EXPECT_EQ(db, nullptr);
  ASSERT_EQ(mallard_open("", &db), MALLARD_SUCCESS);
  mallard_close(&db);
  // Unwritable path fails without a handle; the reason is retrievable
  // from the thread-local open-error channel.
  db = reinterpret_cast<mallard_database*>(this);
  EXPECT_EQ(mallard_open("/nonexistent-dir/sub/db.mallard", &db),
            MALLARD_ERROR);
  EXPECT_EQ(db, nullptr);
  ASSERT_NE(mallard_open_error(), nullptr);
  EXPECT_GT(std::strlen(mallard_open_error()), 0u);
  // The next successful open/connect clears it.
  ASSERT_EQ(mallard_open(":memory:", &db), MALLARD_SUCCESS);
  EXPECT_EQ(mallard_open_error(), nullptr);
  mallard_close(&db);
  // Connect on a NULL database reports through the same channel.
  mallard_connection* con = nullptr;
  EXPECT_EQ(mallard_connect(nullptr, &con), MALLARD_ERROR);
  ASSERT_NE(mallard_open_error(), nullptr);
}

TEST_F(CApiTest, DisconnectRollsBackExplicitTransaction) {
  Exec("CREATE TABLE t (i INTEGER)");
  // Pin the connection state so the Connection object outlives the
  // disconnect: the rollback must happen AT disconnect, not when this
  // statement handle finally releases the state.
  mallard_prepared_statement* pin = nullptr;
  ASSERT_EQ(mallard_prepare(con_, "SELECT i FROM t", &pin), MALLARD_SUCCESS);

  Exec("BEGIN");
  Exec("INSERT INTO t VALUES (1)");
  mallard_disconnect(&con_);

  // A second connection sees the transaction undone and can write to
  // the table without hitting the dead transaction's locks/snapshot.
  mallard_connection* con2 = nullptr;
  ASSERT_EQ(mallard_connect(db_, &con2), MALLARD_SUCCESS);
  mallard_result* res = nullptr;
  ASSERT_EQ(mallard_query(con2, "SELECT count(*) FROM t", &res),
            MALLARD_SUCCESS);
  EXPECT_EQ(mallard_value_int64(res, 0, 0), 0);
  mallard_destroy_result(&res);
  ASSERT_EQ(mallard_query(con2, "INSERT INTO t VALUES (2)", &res),
            MALLARD_SUCCESS);
  mallard_destroy_result(&res);
  mallard_disconnect(&con2);
  mallard_destroy_prepare(&pin);
}

TEST_F(CApiTest, QueryAndValueAccessors) {
  Exec("CREATE TABLE t (b BOOLEAN, i INTEGER, big BIGINT, d DOUBLE, "
       "s VARCHAR, day DATE)");
  Exec("INSERT INTO t VALUES (true, 42, 9000000000, 3.5, 'hello', "
       "DATE '2026-07-31')");
  Exec("INSERT INTO t VALUES (NULL, NULL, NULL, NULL, NULL, NULL)");

  mallard_result* res = nullptr;
  ASSERT_EQ(mallard_query(con_, "SELECT * FROM t", &res), MALLARD_SUCCESS);
  EXPECT_EQ(mallard_result_error(res), nullptr);
  EXPECT_EQ(mallard_row_count(res), 2u);
  EXPECT_EQ(mallard_column_count(res), 6u);

  EXPECT_STREQ(mallard_column_name(res, 0), "b");
  EXPECT_STREQ(mallard_column_name(res, 4), "s");
  EXPECT_EQ(mallard_column_type(res, 0), MALLARD_TYPE_BOOLEAN);
  EXPECT_EQ(mallard_column_type(res, 1), MALLARD_TYPE_INTEGER);
  EXPECT_EQ(mallard_column_type(res, 2), MALLARD_TYPE_BIGINT);
  EXPECT_EQ(mallard_column_type(res, 3), MALLARD_TYPE_DOUBLE);
  EXPECT_EQ(mallard_column_type(res, 4), MALLARD_TYPE_VARCHAR);
  EXPECT_EQ(mallard_column_type(res, 5), MALLARD_TYPE_DATE);

  EXPECT_TRUE(mallard_value_boolean(res, 0, 0));
  EXPECT_EQ(mallard_value_int32(res, 1, 0), 42);
  EXPECT_EQ(mallard_value_int64(res, 2, 0), 9000000000LL);
  EXPECT_DOUBLE_EQ(mallard_value_double(res, 3, 0), 3.5);
  EXPECT_STREQ(mallard_value_varchar(res, 4, 0), "hello");
  EXPECT_STREQ(mallard_value_varchar(res, 5, 0), "2026-07-31");

  // Cross-type access casts (INTEGER read as double / int64 / string).
  EXPECT_DOUBLE_EQ(mallard_value_double(res, 1, 0), 42.0);
  EXPECT_EQ(mallard_value_int64(res, 1, 0), 42);
  EXPECT_STREQ(mallard_value_varchar(res, 1, 0), "42");

  // Repeated varchar access returns a stable cached pointer.
  const char* first = mallard_value_varchar(res, 4, 0);
  EXPECT_EQ(first, mallard_value_varchar(res, 4, 0));

  // NULL row: is_null true, accessors return defaults.
  EXPECT_FALSE(mallard_value_is_null(res, 1, 0));
  EXPECT_TRUE(mallard_value_is_null(res, 1, 1));
  EXPECT_EQ(mallard_value_int32(res, 1, 1), 0);
  EXPECT_EQ(mallard_value_varchar(res, 4, 1), nullptr);

  mallard_destroy_result(&res);
  EXPECT_EQ(res, nullptr);
  mallard_destroy_result(&res);  // double destroy is harmless
}

TEST_F(CApiTest, BadSqlProducesErrorResult) {
  mallard_result* res = nullptr;
  EXPECT_EQ(mallard_query(con_, "SELECT FROM FROM", &res), MALLARD_ERROR);
  ASSERT_NE(res, nullptr);
  ASSERT_NE(mallard_result_error(res), nullptr);
  EXPECT_GT(std::strlen(mallard_result_error(res)), 0u);
  // Accessors on an errored result degrade to defaults.
  EXPECT_EQ(mallard_row_count(res), 0u);
  EXPECT_EQ(mallard_column_count(res), 0u);
  EXPECT_EQ(mallard_column_name(res, 0), nullptr);
  EXPECT_EQ(mallard_column_type(res, 0), MALLARD_TYPE_INVALID);
  EXPECT_TRUE(mallard_value_is_null(res, 0, 0));
  EXPECT_EQ(mallard_value_varchar(res, 0, 0), nullptr);
  mallard_destroy_result(&res);

  // Runtime (binder) error, not just parse error.
  EXPECT_EQ(mallard_query(con_, "SELECT * FROM no_such_table", &res),
            MALLARD_ERROR);
  ASSERT_NE(mallard_result_error(res), nullptr);
  EXPECT_NE(std::string(mallard_result_error(res)).find("no_such_table"),
            std::string::npos);
  mallard_destroy_result(&res);
}

TEST_F(CApiTest, OutOfRangeCoordinates) {
  Exec("CREATE TABLE t (i INTEGER)");
  Exec("INSERT INTO t VALUES (7)");
  mallard_result* res = nullptr;
  ASSERT_EQ(mallard_query(con_, "SELECT i FROM t", &res), MALLARD_SUCCESS);
  EXPECT_EQ(mallard_column_name(res, 99), nullptr);
  EXPECT_EQ(mallard_column_type(res, 99), MALLARD_TYPE_INVALID);
  EXPECT_TRUE(mallard_value_is_null(res, 99, 0));
  EXPECT_TRUE(mallard_value_is_null(res, 0, 99));
  EXPECT_EQ(mallard_value_int32(res, 99, 99), 0);
  EXPECT_EQ(mallard_value_varchar(res, 0, 99), nullptr);
  mallard_destroy_result(&res);
}

TEST_F(CApiTest, PreparedBindExecuteLoop) {
  Exec("CREATE TABLE t (s VARCHAR, v DOUBLE)");
  mallard_prepared_statement* insert = nullptr;
  ASSERT_EQ(mallard_prepare(con_, "INSERT INTO t VALUES ($1, $2)", &insert),
            MALLARD_SUCCESS);
  EXPECT_EQ(mallard_prepare_error(insert), nullptr);
  EXPECT_EQ(mallard_nparams(insert), 2u);
  EXPECT_EQ(mallard_param_type(insert, 1), MALLARD_TYPE_VARCHAR);
  EXPECT_EQ(mallard_param_type(insert, 2), MALLARD_TYPE_DOUBLE);
  EXPECT_EQ(mallard_param_type(insert, 3), MALLARD_TYPE_INVALID);

  for (int i = 0; i < 100; i++) {
    ASSERT_EQ(mallard_bind_varchar(insert, 1, (i % 2) ? "a" : "b"),
              MALLARD_SUCCESS);
    ASSERT_EQ(mallard_bind_double(insert, 2, i * 1.0), MALLARD_SUCCESS);
    mallard_result* r = nullptr;
    ASSERT_EQ(mallard_execute_prepared(insert, &r), MALLARD_SUCCESS);
    mallard_destroy_result(&r);
  }
  // NULL varchar binds SQL NULL.
  ASSERT_EQ(mallard_bind_varchar(insert, 1, nullptr), MALLARD_SUCCESS);
  ASSERT_EQ(mallard_bind_double(insert, 2, -1.0), MALLARD_SUCCESS);
  mallard_result* r = nullptr;
  ASSERT_EQ(mallard_execute_prepared(insert, &r), MALLARD_SUCCESS);
  mallard_destroy_result(&r);
  mallard_destroy_prepare(&insert);

  ASSERT_EQ(mallard_query(
                con_, "SELECT count(*), count(s), sum(v) FROM t", &r),
            MALLARD_SUCCESS);
  EXPECT_EQ(mallard_value_int64(r, 0, 0), 101);
  EXPECT_EQ(mallard_value_int64(r, 1, 0), 100);
  EXPECT_DOUBLE_EQ(mallard_value_double(r, 2, 0), 4950.0 - 1.0);
  mallard_destroy_result(&r);

  // Typed binds through inference: int32/int64/boolean/null.
  Exec("CREATE TABLE n (i INTEGER, b BIGINT, f BOOLEAN)");
  mallard_prepared_statement* ins2 = nullptr;
  ASSERT_EQ(mallard_prepare(con_, "INSERT INTO n VALUES (?, ?, ?)", &ins2),
            MALLARD_SUCCESS);
  ASSERT_EQ(mallard_bind_int32(ins2, 1, 5), MALLARD_SUCCESS);
  ASSERT_EQ(mallard_bind_int64(ins2, 2, 1LL << 40), MALLARD_SUCCESS);
  ASSERT_EQ(mallard_bind_boolean(ins2, 3, true), MALLARD_SUCCESS);
  ASSERT_EQ(mallard_execute_prepared(ins2, &r), MALLARD_SUCCESS);
  mallard_destroy_result(&r);
  ASSERT_EQ(mallard_bind_null(ins2, 1), MALLARD_SUCCESS);
  ASSERT_EQ(mallard_execute_prepared(ins2, &r), MALLARD_SUCCESS);
  mallard_destroy_result(&r);
  mallard_destroy_prepare(&ins2);
}

TEST_F(CApiTest, PrepareErrors) {
  // Bad SQL: handle produced, error readable, binds/executes rejected.
  mallard_prepared_statement* stmt = nullptr;
  EXPECT_EQ(mallard_prepare(con_, "SELECT $1 FROM", &stmt), MALLARD_ERROR);
  ASSERT_NE(stmt, nullptr);
  ASSERT_NE(mallard_prepare_error(stmt), nullptr);
  EXPECT_EQ(mallard_nparams(stmt), 0u);
  EXPECT_EQ(mallard_bind_int32(stmt, 1, 1), MALLARD_ERROR);
  mallard_result* res = nullptr;
  EXPECT_EQ(mallard_execute_prepared(stmt, &res), MALLARD_ERROR);
  ASSERT_NE(res, nullptr);
  EXPECT_NE(mallard_result_error(res), nullptr);
  mallard_destroy_result(&res);
  mallard_destroy_prepare(&stmt);

  Exec("CREATE TABLE t (i INTEGER)");
  ASSERT_EQ(mallard_prepare(con_, "SELECT * FROM t WHERE i = $1", &stmt),
            MALLARD_SUCCESS);
  // Out-of-range parameter index (0 and 2; indexes are 1-based).
  EXPECT_EQ(mallard_bind_int32(stmt, 0, 1), MALLARD_ERROR);
  ASSERT_NE(mallard_prepare_error(stmt), nullptr);
  EXPECT_EQ(mallard_bind_int32(stmt, 2, 1), MALLARD_ERROR);
  // Type mismatch surfaces at bind time.
  EXPECT_EQ(mallard_bind_varchar(stmt, 1, "not a number"), MALLARD_ERROR);
  ASSERT_NE(mallard_prepare_error(stmt), nullptr);
  // Execute with the parameter still unbound errors.
  EXPECT_EQ(mallard_execute_prepared(stmt, &res), MALLARD_ERROR);
  ASSERT_NE(mallard_result_error(res), nullptr);
  EXPECT_NE(std::string(mallard_result_error(res)).find("not been bound"),
            std::string::npos);
  mallard_destroy_result(&res);
  // A successful bind clears the statement's error slot.
  EXPECT_EQ(mallard_bind_int32(stmt, 1, 3), MALLARD_SUCCESS);
  EXPECT_EQ(mallard_prepare_error(stmt), nullptr);
  EXPECT_EQ(mallard_execute_prepared(stmt, &res), MALLARD_SUCCESS);
  mallard_destroy_result(&res);
  mallard_destroy_prepare(&stmt);
}

TEST_F(CApiTest, StreamingFetch) {
  Exec("CREATE TABLE t (i INTEGER)");
  mallard_prepared_statement* insert = nullptr;
  ASSERT_EQ(mallard_prepare(con_, "INSERT INTO t VALUES (?)", &insert),
            MALLARD_SUCCESS);
  const int kRows = 5000;  // several vectors worth of rows
  for (int i = 0; i < kRows; i++) {
    mallard_bind_int32(insert, 1, i);
    mallard_result* r = nullptr;
    ASSERT_EQ(mallard_execute_prepared(insert, &r), MALLARD_SUCCESS);
    mallard_destroy_result(&r);
  }
  mallard_destroy_prepare(&insert);

  mallard_prepared_statement* scan = nullptr;
  ASSERT_EQ(mallard_prepare(con_, "SELECT i FROM t WHERE i >= $1", &scan),
            MALLARD_SUCCESS);
  ASSERT_EQ(mallard_bind_int32(scan, 1, 1000), MALLARD_SUCCESS);
  mallard_stream* stream = nullptr;
  ASSERT_EQ(mallard_execute_prepared_streaming(scan, &stream),
            MALLARD_SUCCESS);
  EXPECT_EQ(mallard_stream_error(stream), nullptr);

  // Re-executing while the stream is open is rejected, and the failed
  // attempt must not poison the open stream.
  mallard_result* blocked = nullptr;
  EXPECT_EQ(mallard_execute_prepared(scan, &blocked), MALLARD_ERROR);
  mallard_destroy_result(&blocked);

  int64_t sum = 0;
  uint64_t rows = 0;
  uint64_t chunks = 0;
  for (;;) {
    mallard_result* chunk = nullptr;
    ASSERT_EQ(mallard_stream_fetch_chunk(stream, &chunk), MALLARD_SUCCESS);
    if (chunk == nullptr) break;
    uint64_t n = mallard_row_count(chunk);
    ASSERT_GT(n, 0u);
    EXPECT_EQ(mallard_column_count(chunk), 1u);
    EXPECT_STREQ(mallard_column_name(chunk, 0), "i");
    for (uint64_t i = 0; i < n; i++) {
      sum += mallard_value_int64(chunk, 0, i);
    }
    rows += n;
    chunks++;
    mallard_destroy_result(&chunk);
  }
  EXPECT_EQ(rows, static_cast<uint64_t>(kRows - 1000));
  EXPECT_GT(chunks, 1u);  // actually streamed, not one big chunk
  int64_t expected = 0;
  for (int i = 1000; i < kRows; i++) expected += i;
  EXPECT_EQ(sum, expected);

  // Exhausted stream keeps answering success/NULL.
  mallard_result* after = nullptr;
  EXPECT_EQ(mallard_stream_fetch_chunk(stream, &after), MALLARD_SUCCESS);
  EXPECT_EQ(after, nullptr);
  mallard_destroy_stream(&stream);
  EXPECT_EQ(stream, nullptr);

  // After the stream closes the statement is executable again.
  mallard_result* res = nullptr;
  ASSERT_EQ(mallard_execute_prepared(scan, &res), MALLARD_SUCCESS);
  EXPECT_EQ(mallard_row_count(res), static_cast<uint64_t>(kRows - 1000));
  mallard_destroy_result(&res);
  mallard_destroy_prepare(&scan);
}

TEST_F(CApiTest, NullHandlesNeverCrash) {
  // Every entry point with NULL handles: error state or harmless default.
  EXPECT_EQ(mallard_open("x", nullptr), MALLARD_ERROR);
  mallard_database* no_db = nullptr;
  mallard_close(nullptr);
  mallard_close(&no_db);
  EXPECT_EQ(mallard_connect(nullptr, nullptr), MALLARD_ERROR);
  mallard_connection* no_con = nullptr;
  EXPECT_EQ(mallard_connect(nullptr, &no_con), MALLARD_ERROR);
  EXPECT_EQ(no_con, nullptr);
  mallard_disconnect(nullptr);
  mallard_disconnect(&no_con);

  mallard_result* res = nullptr;
  EXPECT_EQ(mallard_query(nullptr, "SELECT 1", &res), MALLARD_ERROR);
  ASSERT_NE(res, nullptr);
  EXPECT_NE(mallard_result_error(res), nullptr);
  mallard_destroy_result(&res);
  EXPECT_EQ(mallard_query(con_, nullptr, &res), MALLARD_ERROR);
  mallard_destroy_result(&res);
  EXPECT_EQ(mallard_query(con_, "SELECT 1", nullptr), MALLARD_ERROR);

  EXPECT_EQ(mallard_result_error(nullptr), nullptr);
  EXPECT_EQ(mallard_row_count(nullptr), 0u);
  EXPECT_EQ(mallard_column_count(nullptr), 0u);
  EXPECT_EQ(mallard_column_name(nullptr, 0), nullptr);
  EXPECT_EQ(mallard_column_type(nullptr, 0), MALLARD_TYPE_INVALID);
  EXPECT_TRUE(mallard_value_is_null(nullptr, 0, 0));
  EXPECT_FALSE(mallard_value_boolean(nullptr, 0, 0));
  EXPECT_EQ(mallard_value_int32(nullptr, 0, 0), 0);
  EXPECT_EQ(mallard_value_int64(nullptr, 0, 0), 0);
  EXPECT_EQ(mallard_value_double(nullptr, 0, 0), 0.0);
  EXPECT_EQ(mallard_value_varchar(nullptr, 0, 0), nullptr);

  mallard_prepared_statement* no_stmt = nullptr;
  EXPECT_EQ(mallard_prepare(nullptr, "SELECT 1", &no_stmt), MALLARD_ERROR);
  ASSERT_NE(no_stmt, nullptr);  // carries the error message
  EXPECT_NE(mallard_prepare_error(no_stmt), nullptr);
  mallard_destroy_prepare(&no_stmt);
  EXPECT_EQ(mallard_prepare(con_, "SELECT 1", nullptr), MALLARD_ERROR);
  EXPECT_EQ(mallard_prepare_error(nullptr), nullptr);
  EXPECT_EQ(mallard_nparams(nullptr), 0u);
  EXPECT_EQ(mallard_param_type(nullptr, 1), MALLARD_TYPE_INVALID);
  EXPECT_EQ(mallard_bind_null(nullptr, 1), MALLARD_ERROR);
  EXPECT_EQ(mallard_bind_boolean(nullptr, 1, true), MALLARD_ERROR);
  EXPECT_EQ(mallard_bind_int32(nullptr, 1, 1), MALLARD_ERROR);
  EXPECT_EQ(mallard_bind_int64(nullptr, 1, 1), MALLARD_ERROR);
  EXPECT_EQ(mallard_bind_double(nullptr, 1, 1.0), MALLARD_ERROR);
  EXPECT_EQ(mallard_bind_varchar(nullptr, 1, "x"), MALLARD_ERROR);
  EXPECT_EQ(mallard_execute_prepared(nullptr, &res), MALLARD_ERROR);
  mallard_destroy_result(&res);
  EXPECT_EQ(mallard_execute_prepared(nullptr, nullptr), MALLARD_ERROR);
  mallard_destroy_prepare(nullptr);

  mallard_stream* no_stream = nullptr;
  EXPECT_EQ(mallard_execute_prepared_streaming(nullptr, &no_stream),
            MALLARD_ERROR);
  EXPECT_EQ(no_stream, nullptr);
  EXPECT_EQ(mallard_stream_fetch_chunk(nullptr, &res), MALLARD_ERROR);
  EXPECT_EQ(mallard_stream_fetch_chunk(nullptr, nullptr), MALLARD_ERROR);
  EXPECT_EQ(mallard_stream_error(nullptr), nullptr);
  mallard_destroy_stream(nullptr);
  mallard_destroy_stream(&no_stream);
}

TEST_F(CApiTest, OperationsAfterDisconnectError) {
  Exec("CREATE TABLE t (i INTEGER)");
  Exec("INSERT INTO t VALUES (1)");
  mallard_prepared_statement* stmt = nullptr;
  ASSERT_EQ(mallard_prepare(con_, "SELECT i FROM t WHERE i = $1", &stmt),
            MALLARD_SUCCESS);
  ASSERT_EQ(mallard_bind_int32(stmt, 1, 1), MALLARD_SUCCESS);
  mallard_stream* stream = nullptr;
  ASSERT_EQ(mallard_execute_prepared_streaming(stmt, &stream),
            MALLARD_SUCCESS);

  mallard_disconnect(&con_);
  EXPECT_EQ(con_, nullptr);

  // Query on the nulled handle.
  mallard_result* res = nullptr;
  EXPECT_EQ(mallard_query(con_, "SELECT 1", &res), MALLARD_ERROR);
  ASSERT_NE(mallard_result_error(res), nullptr);
  EXPECT_NE(std::string(mallard_result_error(res)).find("closed"),
            std::string::npos);
  mallard_destroy_result(&res);

  // Bind / execute / stream-fetch through the surviving handles all
  // report the closed connection instead of touching freed state.
  EXPECT_EQ(mallard_bind_int32(stmt, 1, 2), MALLARD_ERROR);
  ASSERT_NE(mallard_prepare_error(stmt), nullptr);
  EXPECT_NE(std::string(mallard_prepare_error(stmt)).find("closed"),
            std::string::npos);
  EXPECT_EQ(mallard_execute_prepared(stmt, &res), MALLARD_ERROR);
  mallard_destroy_result(&res);
  mallard_stream* s2 = nullptr;
  EXPECT_EQ(mallard_execute_prepared_streaming(stmt, &s2), MALLARD_ERROR);
  EXPECT_EQ(s2, nullptr);
  EXPECT_EQ(mallard_stream_fetch_chunk(stream, &res), MALLARD_ERROR);
  ASSERT_NE(mallard_stream_error(stream), nullptr);

  // Teardown in the "wrong" order (statement and stream after their
  // connection, database last) stays safe thanks to refcounted handles.
  mallard_destroy_stream(&stream);
  mallard_destroy_prepare(&stmt);
}

TEST_F(CApiTest, CloseDatabaseBeforeDependentsIsSafe) {
  Exec("CREATE TABLE t (i INTEGER)");
  // Closing the database handle releases it, but the instance lives on
  // while the connection still references it.
  mallard_close(&db_);
  EXPECT_EQ(db_, nullptr);
  mallard_result* res = nullptr;
  ASSERT_EQ(mallard_query(con_, "INSERT INTO t VALUES (3)", &res),
            MALLARD_SUCCESS);
  mallard_destroy_result(&res);
  ASSERT_EQ(mallard_query(con_, "SELECT i FROM t", &res), MALLARD_SUCCESS);
  EXPECT_EQ(mallard_value_int32(res, 0, 0), 3);
  mallard_destroy_result(&res);
}

TEST_F(CApiTest, ResultOutlivesStatementAndConnection) {
  Exec("CREATE TABLE t (s VARCHAR)");
  Exec("INSERT INTO t VALUES ('persists')");
  mallard_prepared_statement* stmt = nullptr;
  ASSERT_EQ(mallard_prepare(con_, "SELECT s FROM t", &stmt), MALLARD_SUCCESS);
  mallard_result* res = nullptr;
  ASSERT_EQ(mallard_execute_prepared(stmt, &res), MALLARD_SUCCESS);
  const char* value = mallard_value_varchar(res, 0, 0);
  ASSERT_NE(value, nullptr);
  mallard_destroy_prepare(&stmt);
  mallard_disconnect(&con_);
  mallard_close(&db_);
  // Materialized results own their buffers: still readable.
  EXPECT_STREQ(mallard_value_varchar(res, 0, 0), "persists");
  EXPECT_STREQ(value, "persists");
  mallard_destroy_result(&res);
}

// What an accessor returned before values were read straight from the
// result's vectors: the boxed value cast to the accessor's type, with
// NULLs and failed casts giving the default.
template <typename T>
T Boxed(const mallard::Value& value, mallard::TypeId type,
        T (mallard::Value::*get)() const) {
  if (value.is_null()) return T();
  auto cast = value.CastTo(type);
  if (!cast.ok() || cast->is_null()) return T();
  return ((*cast).*get)();
}

// A 2 %-selective filter spanning several result chunks, read through
// every accessor at every coordinate and checked against the same
// query's C++ result (the engine's own boxed values).
TEST(CApiSparseResultTest, AccessorsMatchCppResult) {
  using mallard::TypeId;
  using mallard::Value;
  const std::string path =
      "/tmp/mallard_test_capi_sparse_" + std::to_string(::getpid());
  auto cleanup = [&] {
    for (const char* suffix : {"", ".wal", ".tmp"}) {
      mallard::RemoveFile(path + suffix);
    }
  };
  cleanup();
  const std::string sql =
      "SELECT id, v, cat, n, k, b, day FROM t WHERE k = 7";
  std::unique_ptr<mallard::MaterializedQueryResult> expected;
  {
    auto db = mallard::Database::Open(path);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    mallard::Connection con(db->get());
    ASSERT_TRUE(con.Query("CREATE TABLE t (id BIGINT, v DOUBLE, cat VARCHAR, "
                          "n BIGINT, k INTEGER, b BOOLEAN, day DATE)")
                    .ok());
    auto app = mallard::Appender::Create(db->get(), "t");
    ASSERT_TRUE(app.ok());
    const int64_t kRows = 400000;
    for (int64_t i = 0; i < kRows; i++) {
      (*app)->Append(i).Append(i * 0.25).Append("c" + std::to_string(i % 64));
      if (i % 3 == 0) {
        (*app)->AppendNull();
      } else {
        (*app)->Append(i * 7);
      }
      (*app)->Append(static_cast<int32_t>(i % 50)).Append(i % 4 == 0);
      (*app)->Append(Value::Date(static_cast<int32_t>(i % 20000)));
      ASSERT_TRUE((*app)->EndRow().ok());
    }
    ASSERT_TRUE((*app)->Close().ok());
    // Checkpointed, so the C side reopens `cat` dictionary-encoded.
    ASSERT_TRUE((*db)->Checkpoint().ok());
    auto r = con.Query(sql);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expected = std::move(*r);
  }
  ASSERT_GE(expected->Chunks().size(), 3u);
  std::unordered_map<int64_t, uint64_t> row_of;
  for (uint64_t row = 0; row < expected->RowCount(); row++) {
    row_of[expected->GetValue(0, row).GetBigInt()] = row;
  }

  mallard_database* db = nullptr;
  mallard_connection* con = nullptr;
  ASSERT_EQ(mallard_open(path.c_str(), &db), MALLARD_SUCCESS);
  ASSERT_EQ(mallard_connect(db, &con), MALLARD_SUCCESS);
  mallard_result* res = nullptr;
  ASSERT_EQ(mallard_query(con, sql.c_str(), &res), MALLARD_SUCCESS);
  const uint64_t rows = mallard_row_count(res);
  const uint64_t columns = mallard_column_count(res);
  ASSERT_EQ(rows, expected->RowCount());
  ASSERT_EQ(columns, 7u);

  // A string taken first must survive every later read unchanged.
  const char* pinned = mallard_value_varchar(res, 2, 0);
  ASSERT_NE(pinned, nullptr);
  const std::string pinned_bytes = pinned;

  int mismatches = 0;
  auto check = [&](bool same, uint64_t c, uint64_t r, const char* what) {
    if (!same && mismatches++ < 5) {
      ADD_FAILURE() << what << " differs at (" << c << ", " << r << ")";
    }
  };
  for (uint64_t r = 0; r < rows; r++) {
    auto found = row_of.find(mallard_value_int64(res, 0, r));
    ASSERT_NE(found, row_of.end()) << "row " << r;
    for (uint64_t c = 0; c < columns; c++) {
      Value want = expected->GetValue(c, found->second);
      check(mallard_value_is_null(res, c, r) == want.is_null(), c, r,
            "is_null");
      check(mallard_value_boolean(res, c, r) ==
                Boxed(want, TypeId::kBoolean, &Value::GetBoolean),
            c, r, "boolean");
      check(mallard_value_int32(res, c, r) ==
                Boxed(want, TypeId::kInteger, &Value::GetInteger),
            c, r, "int32");
      check(mallard_value_int64(res, c, r) ==
                Boxed(want, TypeId::kBigInt, &Value::GetBigInt),
            c, r, "int64");
      check(mallard_value_double(res, c, r) ==
                Boxed(want, TypeId::kDouble, &Value::GetDouble),
            c, r, "double");
      const char* text = mallard_value_varchar(res, c, r);
      if (want.is_null()) {
        check(text == nullptr, c, r, "varchar");
      } else {
        std::string rendered = want.type() == TypeId::kVarchar
                                   ? want.GetString()
                                   : want.ToString();
        check(text != nullptr && rendered == text, c, r, "varchar");
      }
    }
  }
  EXPECT_EQ(mismatches, 0);

  // Spot checks of the cross-type reads: INTEGER k as int64 / double /
  // varchar, DATE day as varchar.
  const uint64_t row = 1;
  EXPECT_EQ(mallard_value_int64(res, 4, row), 7);
  EXPECT_EQ(mallard_value_double(res, 4, row), 7.0);
  EXPECT_STREQ(mallard_value_varchar(res, 4, row), "7");
  EXPECT_STREQ(mallard_value_varchar(res, 6, row),
               expected->GetValue(6, row_of[mallard_value_int64(res, 0, row)])
                   .ToString()
                   .c_str());

  // Out-of-range rows and columns answer with the defaults.
  for (uint64_t c : {uint64_t{0}, uint64_t{2}, columns}) {
    for (uint64_t r : {rows, rows + 5000, uint64_t{0}}) {
      if (c < columns && r < rows) continue;
      EXPECT_TRUE(mallard_value_is_null(res, c, r));
      EXPECT_FALSE(mallard_value_boolean(res, c, r));
      EXPECT_EQ(mallard_value_int32(res, c, r), 0);
      EXPECT_EQ(mallard_value_int64(res, c, r), 0);
      EXPECT_EQ(mallard_value_double(res, c, r), 0.0);
      EXPECT_EQ(mallard_value_varchar(res, c, r), nullptr);
    }
  }

  EXPECT_EQ(mallard_value_varchar(res, 2, 0), pinned);
  EXPECT_EQ(std::string(pinned), pinned_bytes);

  mallard_destroy_result(&res);
  mallard_disconnect(&con);
  mallard_close(&db);
  cleanup();
}

}  // namespace
