// E3 — Paper section 5 (transfer efficiency): compares result-set
// transfer mechanisms:
//   (a) in-process chunk API (zero-copy hand-over; the paper's design),
//   (b) in-process value-at-a-time API (ODBC/JDBC/SQLite style), over the
//       whole table and over a 2 %-selective filter,
//   (c) the C ABI's value calls (mallard_value_*, the path every non-C++
//       host reads through) over the same 2 % filter,
//   (d) socket client-server, binary columnar and text protocols.
// The paper's claim: (b)-(d) are dominated by serialization and per-value
// call overhead; (a) is nearly free.
//
// Table t (a INTEGER, b BIGINT, c DOUBLE, s VARCHAR with 64 values,
// k INTEGER = row % 50), MALLARD_TRANSFER_ROWS rows (default 2M), in a
// database file under the system temp directory; the C ABI reopens that
// file after the C++ side closes it. Every point is the best of three
// runs; `ns_per_op` is wall ns per value handed to the host, query time
// included, and `rows_per_sec` is result rows per second. Value-API
// points split into `query_ms` (materializing the result), `read_ms`
// (the value calls) and `read_ns_per_value`.
// Run: ./build/bench_transfer [--json out.json]

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "mallard/c_api/mallard.h"
#include "mallard/main/appender.h"
#include "mallard/main/connection.h"
#include "mallard/main/database.h"
#include "mallard/net/client_server.h"

using namespace mallard;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kRuns = 3;
const char kFullSql[] = "SELECT a, b, c FROM t";
const char kSelectiveSql[] = "SELECT a, b, c, s FROM t WHERE k = 7";

double Ms(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Timing {
  double query_ms = 0;
  double read_ms = 0;
  double total() const { return query_ms + read_ms; }
};

struct Point {
  Timing best;
  idx_t rows = 0;
  idx_t values = 0;
};

// The best of kRuns of `run`, which returns its query and read times in
// ms and sets the rows and values it handed to the host.
Point Best(const std::function<Timing(idx_t* rows, idx_t* values)>& run) {
  Point point;
  for (int i = 0; i < kRuns; i++) {
    Timing t = run(&point.rows, &point.values);
    if (i == 0 || t.total() < point.best.total()) point.best = t;
  }
  return point;
}

void Report(mallard_bench::BenchReporter* reporter, const std::string& name,
            const Point& point, const char* label, double chunk_ns,
            std::vector<std::pair<std::string, double>> extra = {}) {
  double ms = point.best.total();
  double ns_per_value = ms * 1e6 / static_cast<double>(point.values);
  std::printf("%-34s %10.1f %10.2f %10.1f %8.1fx  %s\n", name.c_str(), ms,
              ns_per_value, point.rows / ms / 1000.0,
              chunk_ns > 0 ? ns_per_value / chunk_ns : 1.0, label);
  reporter->Add(name, kRuns, ns_per_value, point.rows / ms * 1000.0,
                std::move(extra));
}

// The query/read split of a value-API point, plus the value calls'
// own cost per value.
std::vector<std::pair<std::string, double>> Split(const Point& point) {
  return {{"query_ms", point.best.query_ms},
          {"read_ms", point.best.read_ms},
          {"read_ns_per_value",
           point.best.read_ms * 1e6 / static_cast<double>(point.values)}};
}

// Boxed value-at-a-time read of every cell of `result`.
double ReadAllValues(const MaterializedQueryResult& result, idx_t* values) {
  double checksum = 0;
  for (idx_t r = 0; r < result.RowCount(); r++) {
    for (idx_t c = 0; c < result.ColumnCount(); c++) {
      Value v = result.GetValue(c, r);
      if (v.type() != TypeId::kVarchar) checksum += v.GetAsDouble();
    }
  }
  *values = result.RowCount() * result.ColumnCount();
  return checksum;
}

bool Load(Database* db, idx_t rows) {
  Connection con(db);
  if (!con.Query("CREATE TABLE t (a INTEGER, b BIGINT, c DOUBLE, "
                 "s VARCHAR, k INTEGER)")
           .ok()) {
    return false;
  }
  auto app = Appender::Create(db, "t");
  if (!app.ok()) return false;
  DataChunk chunk;
  chunk.Initialize({TypeId::kInteger, TypeId::kBigInt, TypeId::kDouble,
                    TypeId::kVarchar, TypeId::kInteger});
  std::string names[64];
  for (int i = 0; i < 64; i++) names[i] = "category_" + std::to_string(i);
  idx_t produced = 0;
  while (produced < rows) {
    chunk.Reset();
    idx_t n = std::min<idx_t>(kVectorSize, rows - produced);
    for (idx_t i = 0; i < n; i++) {
      idx_t row = produced + i;
      chunk.column(0).data<int32_t>()[i] = static_cast<int32_t>(row);
      chunk.column(1).data<int64_t>()[i] = static_cast<int64_t>(row * 7);
      chunk.column(2).data<double>()[i] = row * 0.25;
      chunk.column(3).SetString(i, names[row % 64]);
      chunk.column(4).data<int32_t>()[i] = static_cast<int32_t>(row % 50);
    }
    chunk.SetCardinality(n);
    if (!(*app)->AppendChunk(chunk).ok()) return false;
    produced += n;
  }
  return (*app)->Close().ok() && db->Checkpoint().ok();
}

}  // namespace

int main(int argc, char** argv) {
  mallard_bench::BenchReporter reporter("bench_transfer", argc, argv);
  const char* rows_env = std::getenv("MALLARD_TRANSFER_ROWS");
  const idx_t kRows = rows_env ? std::strtoull(rows_env, nullptr, 10)
                               : 2000000;
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("mallard_bench_transfer_" + std::to_string(::getpid()) + ".db"))
          .string();
  auto cleanup = [&] {
    for (const char* suffix : {"", ".wal", ".tmp"}) {
      std::filesystem::remove(path + suffix);
    }
  };
  cleanup();
  std::printf("=== Transfer efficiency (paper section 5): %llu rows, "
              "nproc %ld ===\n\n",
              static_cast<unsigned long long>(kRows),
              sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("%-34s %10s %10s %10s %9s\n", "point", "ms", "ns/value",
              "Mrows/s", "vs chunk");

  double chunk_ns = 0;
  {
    auto db = Database::Open(path);
    if (!db.ok() || !Load(db->get(), kRows)) {
      std::fprintf(stderr, "load failed\n");
      return 1;
    }
    Connection con(db->get());

    // (a) streaming chunk API — zero-copy hand-over, every value touched.
    Point chunk = Best([&](idx_t* rows, idx_t* values) {
      Timing t;
      Clock::time_point start = Clock::now();
      auto stream = con.SendQuery(kFullSql);
      if (!stream.ok()) std::exit(1);
      double checksum = 0;
      *rows = 0;
      while (true) {
        auto c = (*stream)->Fetch();
        if (!c.ok()) std::exit(1);
        if (!*c) break;
        const int32_t* a = (*c)->column(0).data<int32_t>();
        const int64_t* b = (*c)->column(1).data<int64_t>();
        const double* d = (*c)->column(2).data<double>();
        for (idx_t i = 0; i < (*c)->size(); i++) {
          checksum += a[i] + b[i] + d[i];
        }
        *rows += (*c)->size();
      }
      t.read_ms = Ms(start);
      *values = *rows * 3;
      if (checksum < 0) std::exit(1);
      return t;
    });
    chunk_ns = chunk.best.total() * 1e6 / static_cast<double>(chunk.values);
    Report(&reporter, "chunk_api", chunk, "in-process chunk API (zero-copy)",
           0);

    // (b) value-at-a-time API over a materialized result.
    for (auto [name, sql] : {std::make_pair("value_api/full", kFullSql),
                             std::make_pair("value_api/selective_2pct",
                                            kSelectiveSql)}) {
      Point point = Best([&](idx_t* rows, idx_t* values) {
        Timing t;
        Clock::time_point start = Clock::now();
        auto result = con.Query(sql);
        if (!result.ok()) std::exit(1);
        t.query_ms = Ms(start);
        start = Clock::now();
        if (ReadAllValues(**result, values) < 0) std::exit(1);
        t.read_ms = Ms(start);
        *rows = (*result)->RowCount();
        return t;
      });
      Report(&reporter, name, point, "value-at-a-time API (ODBC/JDBC style)",
             chunk_ns, Split(point));
    }

    // (d) socket protocols over the full result.
    for (auto [protocol, name, label] :
         {std::make_tuple(net::Protocol::kBinaryColumnar,
                          "socket/binary_columnar",
                          "socket, binary columnar protocol"),
          std::make_tuple(net::Protocol::kText, "socket/text",
                          "socket, text protocol (traditional)")}) {
      auto server = net::QueryServer::Start(db->get(), protocol);
      if (!server.ok()) return 1;
      net::QueryClient client((*server)->client_fd(), protocol);
      double wire_mb = 0;
      Point point = Best([&](idx_t* rows, idx_t* values) {
        Timing t;
        uint64_t sent = (*server)->bytes_sent();
        Clock::time_point start = Clock::now();
        auto result = client.Query(kFullSql);
        t.read_ms = Ms(start);
        if (!result.ok()) std::exit(1);
        wire_mb = ((*server)->bytes_sent() - sent) / 1e6;
        *rows = (*result)->RowCount();
        *values = *rows * 3;
        return t;
      });
      Report(&reporter, name, point, label, chunk_ns, {{"wire_mb", wire_mb}});
    }
  }

  // (c) the C ABI over the same 2 % filter: every value through
  // mallard_value_*, as a C binding reads it.
  {
    mallard_database* db = nullptr;
    mallard_connection* con = nullptr;
    if (mallard_open(path.c_str(), &db) != MALLARD_SUCCESS ||
        mallard_connect(db, &con) != MALLARD_SUCCESS) {
      std::fprintf(stderr, "C ABI open failed\n");
      return 1;
    }
    Point point = Best([&](idx_t* rows, idx_t* values) {
      Timing t;
      Clock::time_point start = Clock::now();
      mallard_result* result = nullptr;
      if (mallard_query(con, kSelectiveSql, &result) != MALLARD_SUCCESS) {
        std::exit(1);
      }
      t.query_ms = Ms(start);
      start = Clock::now();
      uint64_t n = mallard_row_count(result);
      double checksum = 0;
      for (uint64_t r = 0; r < n; r++) {
        checksum += mallard_value_int32(result, 0, r);
        checksum += static_cast<double>(mallard_value_int64(result, 1, r));
        checksum += mallard_value_double(result, 2, r);
        const char* s = mallard_value_varchar(result, 3, r);
        checksum += s ? s[0] : 0;
      }
      t.read_ms = Ms(start);
      mallard_destroy_result(&result);
      if (checksum < 0) std::exit(1);
      *rows = n;
      *values = n * 4;
      return t;
    });
    Report(&reporter, "c_abi_value/selective_2pct", point,
           "C ABI mallard_value_* calls", chunk_ns, Split(point));
    mallard_disconnect(&con);
    mallard_close(&db);
  }
  cleanup();
  std::printf("\nShape check vs paper: chunk API >> binary socket > text "
              "socket; value-based access pays per-call overhead on top "
              "of materialization.\n");
  return 0;
}
