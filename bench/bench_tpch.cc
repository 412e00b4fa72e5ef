// E8 — OLAP workload representative (paper sections 2, 6): the supported
// TPC-H subset end-to-end through SQL (parser -> binder -> optimizer ->
// vectorized execution), in memory, at the scale factors in MALLARD_SF
// (comma-separated, default "0.1,1"). Every query runs
// under PRAGMA join_order=cost and under join_order=syntactic in the same
// process, so the cost-based join order is measured against the written
// one on the same data and machine.
//
// One point per (scale factor, query, join order), named
// `sf=<sf>/q<n>/<order>`: `ns_per_op` is the best of MALLARD_TPCH_REPS
// (default 3) warm runs through Connection::Query, `rows_per_sec` is
// lineitem rows per second of that run. Extra fields split it, each the
// best of as many runs: `prepare_us` (parse + bind + plan,
// Connection::Prepare) and `execute_ms` (PreparedStatement::Execute,
// which includes materializing the result for the host), plus
// `result_rows`.
// Run: ./build/bench_tpch [--json out.json]

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "mallard/main/connection.h"
#include "mallard/main/database.h"
#include "mallard/main/prepared_statement.h"
#include "mallard/tpch/tpch.h"

using namespace mallard;
using Clock = std::chrono::steady_clock;

namespace {

double Ms(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::vector<std::string> ScaleFactors() {
  const char* env = std::getenv("MALLARD_SF");
  std::stringstream list(env ? env : "0.1,1");
  std::vector<std::string> out;
  for (std::string sf; std::getline(list, sf, ',');) {
    if (!sf.empty()) out.push_back(sf);
  }
  return out;
}

[[noreturn]] void Fail(const std::string& what, const Status& status) {
  std::fprintf(stderr, "bench_tpch: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  mallard_bench::BenchReporter reporter("bench_tpch", argc, argv);
  const char* reps_env = std::getenv("MALLARD_TPCH_REPS");
  int reps = std::max(1, reps_env ? std::atoi(reps_env) : 3);
  std::printf("=== TPC-H subset, join_order cost vs syntactic, best of %d, "
              "nproc %ld ===\n",
              reps, sysconf(_SC_NPROCESSORS_ONLN));
  for (const std::string& sf : ScaleFactors()) {
    auto db = Database::Open(":memory:");
    if (!db.ok()) Fail("open", db.status());
    Clock::time_point start = Clock::now();
    Status generated =
        tpch::Generate(db->get(), std::strtod(sf.c_str(), nullptr));
    if (!generated.ok()) Fail("generate SF " + sf, generated);
    double lineitem = static_cast<double>(
        (*(*db)->catalog().GetTable("lineitem"))->ApproxRowCount());
    std::printf("\nSF %s: %.0f lineitem rows, generated in %.0f ms\n",
                sf.c_str(), lineitem, Ms(start));
    std::printf("%-6s %-10s %10s %10s %10s %8s\n", "query", "order",
                "query_ms", "prepare_us", "execute_ms", "rows");
    for (int q : tpch::SupportedQueries()) {
      const std::string sql = tpch::Query(q);
      // Both orders run in alternation, so drift on the machine hits
      // them alike; rep 0 warms up.
      Connection cons[2] = {Connection(db->get()), Connection(db->get())};
      const char* orders[2] = {"cost", "syntactic"};
      double query_ms[2] = {1e300, 1e300}, prepare_ms[2] = {1e300, 1e300},
             execute_ms[2] = {1e300, 1e300};
      idx_t rows[2] = {0, 0};
      for (int o = 0; o < 2; o++) {
        auto set =
            cons[o].Query(std::string("PRAGMA join_order=") + orders[o]);
        if (!set.ok()) Fail("join_order", set.status());
      }
      for (int rep = 0; rep <= reps; rep++) {
        for (int o = 0; o < 2; o++) {
          start = Clock::now();
          auto result = cons[o].Query(sql);
          double ms = Ms(start);
          if (!result.ok()) Fail("Q" + std::to_string(q), result.status());
          rows[o] = (*result)->RowCount();
          if (rep > 0) query_ms[o] = std::min(query_ms[o], ms);
        }
      }
      for (int rep = 0; rep <= reps; rep++) {
        for (int o = 0; o < 2; o++) {
          start = Clock::now();
          auto prepared = cons[o].Prepare(sql);
          double plan_ms = Ms(start);
          if (!prepared.ok()) {
            Fail("prepare Q" + std::to_string(q), prepared.status());
          }
          start = Clock::now();
          auto result = (*prepared)->Execute();
          double ms = Ms(start);
          if (!result.ok()) {
            Fail("execute Q" + std::to_string(q), result.status());
          }
          if (rep > 0) {
            prepare_ms[o] = std::min(prepare_ms[o], plan_ms);
            execute_ms[o] = std::min(execute_ms[o], ms);
          }
        }
      }
      for (int o = 0; o < 2; o++) {
        std::printf("Q%-5d %-10s %10.2f %10.1f %10.2f %8llu\n", q, orders[o],
                    query_ms[o], prepare_ms[o] * 1000.0, execute_ms[o],
                    static_cast<unsigned long long>(rows[o]));
        reporter.Add("sf=" + sf + "/q" + std::to_string(q) + "/" + orders[o],
                     reps, query_ms[o] * 1e6,
                     lineitem / (query_ms[o] / 1000.0),
                     {{"prepare_us", prepare_ms[o] * 1000.0},
                      {"execute_ms", execute_ms[o]},
                      {"result_rows", static_cast<double>(rows[o])}});
      }
    }
  }
  return 0;
}
