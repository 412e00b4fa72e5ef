// WAL commit-path bench (ROADMAP item 5: always-on durability).
//
// Two questions, matching the durability design in ARCHITECTURE.md:
//
//  1. Commit throughput: N writer threads each committing single-row
//     transactions, under three durability disciplines —
//       fsync_per_commit  group commit disabled: one fsync per commit
//                         (the naive baseline every embedded WAL starts
//                         from);
//       group_sync        leader/follower group commit (the default):
//                         concurrent committers share one fsync;
//       async             PRAGMA wal_commit_mode=async: commits are
//                         acknowledged after the in-memory append, the
//                         governor-paced flusher syncs in batches.
//     The bench injects a fixed 1 ms artificial fsync latency via
//     SetFsyncDelayForTest, identically in all three modes: CI scratch
//     space is tmpfs where a real fsync is near-free, which would hide
//     exactly the cost group commit exists to amortize. With the delay,
//     each point's fsync count times 1 ms dominates wall time, so the
//     commits-per-fsync ratio is what the numbers measure.
//
//  2. Recovery time vs WAL size: build a WAL of N commits (no close-time
//     checkpoint), reopen, and time Database::Open — which is dominated
//     by WAL replay. The contract: replay is linear in WAL bytes.
//
//  3. Checkpoint cost after a small change: a checkpointed table of N
//     rows takes one small committed change — 20 appended rows, one
//     updated row or one deleted row — and is checkpointed again. An
//     incremental checkpoint rewrites only the row groups the change
//     touched, so its cost should track the change, not N. Reported as
//     the median over kCheckpointReps changes, next to the full first
//     checkpoint of the same table.
//
// Output: human table on stdout; `--json BENCH_wal.json` writes the
// machine-readable points (field contract in docs/BENCHMARKS.md).

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "mallard/main/appender.h"
#include "mallard/main/connection.h"
#include "mallard/main/database.h"
#include "mallard/storage/file_handle.h"
#include "mallard/storage/wal.h"

using namespace mallard;
using Clock = std::chrono::steady_clock;

namespace {

constexpr uint32_t kFsyncDelayUs = 1000;  // modeled disk-fsync latency
constexpr int kCommitsPerWriter = 50;

double Ms(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::string BenchPath() {
  return "/tmp/mallard_bench_wal_" + std::to_string(::getpid());
}

void Cleanup(const std::string& path) {
  RemoveFile(path);
  RemoveFile(path + ".wal");
  RemoveFile(path + ".tmp");
}

struct CommitPoint {
  double elapsed_ms = 0;
  uint64_t commits = 0;
  uint64_t fsyncs = 0;
  uint64_t group_commits = 0;
};

CommitPoint RunCommitWorkload(int writers, const std::string& mode) {
  std::string path = BenchPath();
  Cleanup(path);
  CommitPoint point;
  {
    auto db = Database::Open(path);
    if (!db.ok()) return point;
    {
      Connection con(db->get());
      (void)con.Query("CREATE TABLE t (a INTEGER)");
      if (mode == "async") (void)con.Query("PRAGMA wal_commit_mode=async");
    }
    if (mode == "fsync_per_commit") {
      (*db)->wal()->EnableGroupCommitForTest(false);
    }
    // Identical modeled disk latency in every mode (see file header).
    (*db)->wal()->SetFsyncDelayForTest(kFsyncDelayUs);
    WalStats before = (*db)->wal()->GetStats();

    auto start = Clock::now();
    std::vector<std::thread> threads;
    for (int w = 0; w < writers; w++) {
      threads.emplace_back([&db, w] {
        Connection con(db->get());
        for (int i = 0; i < kCommitsPerWriter; i++) {
          (void)con.Query("INSERT INTO t VALUES (" +
                          std::to_string(w * 100000 + i) + ")");
        }
      });
    }
    for (auto& t : threads) t.join();
    // Async acks return before durability: charge the flush of the tail
    // to the async point too, so modes stay comparable.
    (void)(*db)->wal()->FlushPending();
    point.elapsed_ms = Ms(start);

    WalStats after = (*db)->wal()->GetStats();
    point.commits = after.commits - before.commits;
    point.fsyncs = after.fsyncs - before.fsyncs;
    point.group_commits = after.group_commits - before.group_commits;
    (*db)->wal()->SetFsyncDelayForTest(0);
  }
  Cleanup(path);
  return point;
}

struct RecoveryPoint {
  double replay_ms = 0;
  uint64_t wal_bytes = 0;
  int commits = 0;
};

RecoveryPoint RunRecoveryWorkload(int commits) {
  std::string path = BenchPath();
  Cleanup(path);
  RecoveryPoint point;
  point.commits = commits;
  {
    DBConfig config;
    config.checkpoint_on_close = false;  // keep the WAL for replay
    auto db = Database::Open(path, config);
    if (!db.ok()) return point;
    Connection con(db->get());
    (void)con.Query("CREATE TABLE t (a INTEGER, s VARCHAR)");
    for (int i = 0; i < commits; i++) {
      (void)con.Query("INSERT INTO t VALUES (" + std::to_string(i) + ", 'r" +
                      std::to_string(i) + "')");
    }
    auto size = (*db)->wal()->SizeBytes();
    point.wal_bytes = size.ok() ? *size : 0;
  }
  {
    DBConfig config;
    config.checkpoint_on_close = false;
    auto start = Clock::now();
    auto db = Database::Open(path, config);  // replays the whole WAL
    point.replay_ms = Ms(start);
    if (!db.ok()) point.replay_ms = -1;
  }
  Cleanup(path);
  return point;
}

constexpr int kCheckpointReps = 7;

struct CheckpointPoint {
  double full_ms = 0;  // the first checkpoint, writing every group
  double median_ms = 0;
  double groups_written = 0;  // per checkpoint, from PRAGMA checkpoint_stats
  double groups_reused = 0;
  double file_mb = 0;  // database file after the last checkpoint
};

// Sum of one column of `PRAGMA checkpoint_stats`; 0 where the PRAGMA
// does not exist.
double CheckpointCounter(Connection* con, const std::string& name) {
  auto r = con->Query("PRAGMA checkpoint_stats");
  if (!r.ok()) return 0;
  for (idx_t c = 0; c < (*r)->ColumnCount(); c++) {
    if ((*r)->names()[c] == name) {
      return static_cast<double>((*r)->GetValue(c, 0).GetBigInt());
    }
  }
  return 0;
}

CheckpointPoint RunCheckpointWorkload(int64_t rows, const std::string& delta) {
  std::string path = BenchPath();
  Cleanup(path);
  CheckpointPoint point;
  {
    DBConfig config;
    config.checkpoint_on_close = false;
    auto db = Database::Open(path, config);
    if (!db.ok()) return point;
    Connection con(db->get());
    (void)con.Query(
        "CREATE TABLE r (ts BIGINT, sensor INTEGER, value DOUBLE, tag "
        "VARCHAR)");
    {
      auto appender = Appender::Create(db->get(), "r");
      if (!appender.ok()) return point;
      for (int64_t i = 0; i < rows; i++) {
        (*appender)->Append(i);
        (*appender)->Append(static_cast<int32_t>(i % 1000));
        (*appender)->Append(static_cast<double>(i % 977) * 0.5);
        (*appender)->Append("tag-" + std::to_string(i % 16));
        if (!(*appender)->EndRow().ok()) return point;
      }
      if (!(*appender)->Close().ok()) return point;
    }
    auto start = Clock::now();
    if (!(*db)->Checkpoint().ok()) return point;
    point.full_ms = Ms(start);

    double written = CheckpointCounter(&con, "groups_written");
    double reused = CheckpointCounter(&con, "groups_reused");
    std::vector<double> ms;
    for (int rep = 0; rep < kCheckpointReps; rep++) {
      int64_t row = (rows / kCheckpointReps) * rep + 17;
      std::string sql;
      if (delta == "append") {
        sql = "INSERT INTO r VALUES ";
        for (int i = 0; i < 20; i++) {
          sql += (i ? ",(" : "(") + std::to_string(rows + rep * 20 + i) +
                 ", 1, 0.5, 'new')";
        }
      } else if (delta == "update") {
        sql = "UPDATE r SET value = -1 WHERE ts = " + std::to_string(row);
      } else {
        sql = "DELETE FROM r WHERE ts = " + std::to_string(row);
      }
      (void)con.Query(sql);
      start = Clock::now();
      if (!(*db)->Checkpoint().ok()) return point;
      ms.push_back(Ms(start));
    }
    std::sort(ms.begin(), ms.end());
    point.median_ms = ms[ms.size() / 2];
    point.groups_written =
        (CheckpointCounter(&con, "groups_written") - written) / kCheckpointReps;
    point.groups_reused =
        (CheckpointCounter(&con, "groups_reused") - reused) / kCheckpointReps;
    point.file_mb = static_cast<double>((*db)->blocks()->TotalBlocks() + 2) *
                    kBlockSize / (1024.0 * 1024.0);
  }
  Cleanup(path);
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  mallard_bench::BenchReporter reporter("bench_wal", argc, argv);

  std::printf("commit throughput, %d commits/writer, %u us modeled fsync\n",
              kCommitsPerWriter, kFsyncDelayUs);
  std::printf("%-18s %8s %12s %8s %8s %14s\n", "mode", "writers",
              "commits/s", "fsyncs", "commits", "commits/fsync");
  double per_commit_baseline[8] = {0};
  for (const std::string mode :
       {"fsync_per_commit", "group_sync", "async"}) {
    for (int writers : {1, 2, 4}) {
      CommitPoint p = RunCommitWorkload(writers, mode);
      double commits_per_sec =
          p.elapsed_ms > 0 ? p.commits / (p.elapsed_ms / 1000.0) : 0;
      double per_fsync = p.fsyncs > 0 ? double(p.commits) / p.fsyncs : 0;
      std::printf("%-18s %8d %12.0f %8llu %8llu %14.1f\n", mode.c_str(),
                  writers, commits_per_sec,
                  static_cast<unsigned long long>(p.fsyncs),
                  static_cast<unsigned long long>(p.commits), per_fsync);
      if (mode == "fsync_per_commit") {
        per_commit_baseline[writers] = commits_per_sec;
      }
      double speedup = per_commit_baseline[writers] > 0
                           ? commits_per_sec / per_commit_baseline[writers]
                           : 1.0;
      reporter.Add("commit/" + mode + "/writers=" + std::to_string(writers),
                   static_cast<long long>(p.commits),
                   p.commits > 0 ? p.elapsed_ms * 1e6 / p.commits : 0,
                   commits_per_sec,
                   {{"writers", double(writers)},
                    {"fsyncs", double(p.fsyncs)},
                    {"group_commits", double(p.group_commits)},
                    {"speedup_vs_per_commit_fsync", speedup}});
    }
  }

  std::printf("\nrecovery time vs WAL size\n");
  std::printf("%8s %12s %12s %14s\n", "commits", "wal_bytes", "replay_ms",
              "commits/s");
  for (int commits : {100, 1000, 5000}) {
    RecoveryPoint p = RunRecoveryWorkload(commits);
    double commits_per_sec =
        p.replay_ms > 0 ? p.commits / (p.replay_ms / 1000.0) : 0;
    std::printf("%8d %12llu %12.1f %14.0f\n", p.commits,
                static_cast<unsigned long long>(p.wal_bytes), p.replay_ms,
                commits_per_sec);
    reporter.Add("recovery/commits=" + std::to_string(commits),
                 p.commits, p.replay_ms * 1e6 / std::max(1, p.commits),
                 commits_per_sec,
                 {{"wal_bytes", double(p.wal_bytes)},
                  {"replay_ms", p.replay_ms}});
  }

  std::printf("\ncheckpoint after a small change, median of %d\n",
              kCheckpointReps);
  std::printf("%8s %8s %10s %14s %8s %8s %8s\n", "rows", "delta", "full_ms",
              "checkpoint_ms", "written", "reused", "file_mb");
  for (int64_t rows : {200000, 1000000}) {
    for (const std::string delta : {"append", "update", "delete"}) {
      CheckpointPoint p = RunCheckpointWorkload(rows, delta);
      std::printf("%8lld %8s %10.1f %14.2f %8.1f %8.1f %8.1f\n",
                  static_cast<long long>(rows), delta.c_str(), p.full_ms,
                  p.median_ms, p.groups_written, p.groups_reused, p.file_mb);
      reporter.Add("checkpoint/rows=" + std::to_string(rows) + "/delta=" +
                       delta,
                   kCheckpointReps, p.median_ms * 1e6,
                   p.median_ms > 0 ? rows / (p.median_ms / 1000.0) : 0,
                   {{"checkpoint_ms", p.median_ms},
                    {"full_checkpoint_ms", p.full_ms},
                    {"groups_written", p.groups_written},
                    {"groups_reused", p.groups_reused},
                    {"file_mb", p.file_mb}});
    }
  }
  return 0;
}
