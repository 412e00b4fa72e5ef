// Resilience overhead bench (PRAGMA integrity_check / retry / checksums).
// Measures (a) the end-to-end scan cost of block checksums on vs off —
// the always-on detection tax, which the resilience design budgets at
// <= 5% — (b) the latency a scan pays when the retry loop heals an
// injected transient block-read fault, and (c) the cost of one online
// integrity_check scrub pass. Emits BENCH_resilience.json via --json.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "mallard/main/appender.h"
#include "mallard/main/connection.h"
#include "mallard/main/database.h"
#include "mallard/resilience/fault_injector.h"
#include "mallard/resilience/retry_policy.h"

using namespace mallard;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kChunks = 256;  // x kVectorSize rows

double Ms(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

void Cleanup(const std::string& path) {
  RemoveFile(path);
  RemoveFile(path + ".wal");
  RemoveFile(path + ".tmp");
}

std::string BuildDatabase(bool checksums) {
  std::string path = "/tmp/mallard_bench_resilience_" +
                     std::to_string(checksums) + "_" +
                     std::to_string(::getpid());
  Cleanup(path);
  DBConfig config;
  config.enable_checksums = checksums;
  auto db = Database::Open(path, config);
  Connection con(db->get());
  (void)con.Query("CREATE TABLE t (a BIGINT, b DOUBLE)");
  auto app = Appender::Create(db->get(), "t");
  DataChunk chunk;
  chunk.Initialize({TypeId::kBigInt, TypeId::kDouble});
  for (int c = 0; c < kChunks; c++) {
    chunk.Reset();
    for (idx_t i = 0; i < kVectorSize; i++) {
      chunk.column(0).data<int64_t>()[i] =
          static_cast<int64_t>(c) * kVectorSize + i;
      chunk.column(1).data<double>()[i] = double(i) * 0.5;
    }
    chunk.SetCardinality(kVectorSize);
    (void)(*app)->AppendChunk(chunk);
  }
  (void)(*app)->Close();
  (void)(*db)->Checkpoint();
  (*db)->config().checkpoint_on_close = false;
  return path;
}

// Retry activity of one reopened database, read before it closes.
struct RetryCounts {
  uint64_t retries = 0;
  uint64_t backoff_us = 0;
};

// Reopens the database (cold: blocks come off disk, checksums verify on
// read) and scans the whole table `iters` times. Returns avg ms/scan.
double TimeScan(const std::string& path, int iters, double* open_ms,
                RetryCounts* counts = nullptr) {
  DBConfig config;
  auto open_start = Clock::now();
  auto db = Database::Open(path, config);
  if (open_ms != nullptr) *open_ms = Ms(open_start);
  Connection con(db->get());
  auto start = Clock::now();
  for (int i = 0; i < iters; i++) {
    auto r = con.Query("SELECT sum(a), sum(b) FROM t");
    if (!r.ok()) {
      std::fprintf(stderr, "scan failed: %s\n", r.status().ToString().c_str());
      return -1;
    }
  }
  double total = Ms(start);
  if (counts != nullptr) {
    counts->retries = (*db)->resilience_stats().io_retries.load();
    counts->backoff_us = (*db)->resilience_stats().backoff_micros.load();
  }
  (*db)->config().checkpoint_on_close = false;
  return total / iters;
}

}  // namespace

int main(int argc, char** argv) {
  mallard_bench::BenchReporter reporter("bench_resilience", argc, argv);
  const int64_t kRows = int64_t(kChunks) * kVectorSize;
  const int kIters = 20;

  // (a) checksum overhead: identical workload, checksums off vs on.
  std::string plain = BuildDatabase(false);
  std::string checked = BuildDatabase(true);
  double off_ms = TimeScan(plain, kIters, nullptr);
  double open_ms = 0;
  double on_ms = TimeScan(checked, kIters, &open_ms);
  double overhead_pct = off_ms > 0 ? (on_ms - off_ms) / off_ms * 100.0 : 0;
  std::printf("scan checksums=off  %8.3f ms\n", off_ms);
  std::printf("scan checksums=on   %8.3f ms  (%+.2f%% overhead)\n", on_ms,
              overhead_pct);
  reporter.Add("scan/checksums=off", kIters, off_ms * 1e6,
               kRows / (off_ms / 1e3));
  reporter.Add("scan/checksums=on", kIters, on_ms * 1e6,
               kRows / (on_ms / 1e3),
               {{"overhead_pct", overhead_pct}, {"open_ms", open_ms}});

  // (b) retry-path latency: a transient block-read fault on reopen is
  // healed by the bounded-backoff retry loop; the cost is the extra
  // read attempts plus the backoff sleeps.
  {
    double heal_open_ms = 0;
    RetryCounts counts;
    FaultInjector::Get().ArmTransient(FaultSite::kBlockRead, 1);
    double heal_ms = TimeScan(checked, 1, &heal_open_ms, &counts);
    FaultInjector::Get().Reset();
    std::printf(
        "transient heal      %8.3f ms open (%llu retries, %llu us backoff)\n",
        heal_open_ms, static_cast<unsigned long long>(counts.retries),
        static_cast<unsigned long long>(counts.backoff_us));
    reporter.Add("open/transient_block_fault", 1, heal_open_ms * 1e6, 0,
                 {{"scan_ms", heal_ms},
                  {"retries", double(counts.retries)},
                  {"backoff_us", double(counts.backoff_us)}});
  }

  // (c) one full scrub pass over the checksummed database.
  {
    DBConfig config;
    auto db = Database::Open(checked, config);
    Connection con(db->get());
    auto start = Clock::now();
    auto r = con.Query("PRAGMA integrity_check");
    double scrub_ms = Ms(start);
    if (!r.ok()) {
      std::fprintf(stderr, "integrity_check failed: %s\n",
                   r.status().ToString().c_str());
      return 1;
    }
    std::printf("integrity_check     %8.3f ms (%llu rows)\n", scrub_ms,
                static_cast<unsigned long long>((*r)->RowCount()));
    reporter.Add("integrity_check/full", 1, scrub_ms * 1e6,
                 kRows / (scrub_ms / 1e3));
    (*db)->config().checkpoint_on_close = false;
  }

  Cleanup(plain);
  Cleanup(checked);
  return 0;
}
