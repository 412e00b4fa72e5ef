// Crash-recovery torture harness.
//
// Each scenario forks a child that runs a committing workload against a
// fresh database with a process-kill fault armed (ArmKillAfter): the
// child dies with _exit(87) mid-WAL-append, mid-fsync, mid-checkpoint
// block write or mid-root-swap — the closest user-space model of power
// loss. The child appends every *acknowledged* commit marker to an
// oracle file (fsync'd per line) before issuing the next commit.
//
// The parent waits for the kill, then forks a second child that reopens
// the database (running WAL replay) and checks the recovery invariants:
//
//   atomicity    every marker is visible with ALL of its rows or none;
//   durability   sync mode: every oracle-acknowledged marker is visible
//                (async mode acks before fsync, so recovered markers
//                need only be a prefix of the acknowledged sequence);
//   ordering     visible markers form a contiguous prefix 0..k — WAL
//                replay never skips a committed transaction;
//   torn tail    a WAL truncated mid-record replays everything up to
//                the torn frame and nothing after it.
//
// Every Database open/close happens in a forked child, so the parent
// never carries engine threads across fork(). The harness is built as
// its own single-process binary (tests/*.cc glob is non-recursive) and
// must stay fork-safe: no gtest, no global engine state in the parent.
//
// Usage: mallard_torture [site mode]
//   site: wal-append | wal-fsync | checkpoint-write | root-swap |
//         wal-truncate | incremental | torn-tail
//   (incremental: checkpoint-write kills while each marker also updates
//   a multi-group table whose clean groups checkpoints carry over)
//   mode: sync | async
// With no arguments the full matrix runs.
//
// Bit-flip fuzzer: mallard_torture bit-flip <seed> <iterations>
// Builds a checkpointed database once, then repeatedly restores a
// pristine copy, flips one random bit across the database + WAL files,
// and reopens in a fork. Every outcome must be one of
//   recovered    full data readable, integrity_check runs;
//   old-root     flip hit a header slot; open fell back to the elder
//                root (the torn-header-write contract);
//   salvaged     clean kCorruption, then salvage_mode reads around the
//                quarantined group;
//   clean error  open itself fails with kCorruption;
// never a crash, never silently wrong rows.

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "mallard/main/appender.h"
#include "mallard/main/connection.h"
#include "mallard/main/database.h"
#include "mallard/resilience/fault_injector.h"
#include "mallard/storage/file_handle.h"

namespace mallard {
namespace {

constexpr int kRowsPerCommit = 5;
// Safety bound only: kill-site children commit until the armed kill
// fires. Async flushes coalesce many commits into one kill opportunity
// (on a fast /tmp the flusher can batch 50+ commits per flush), so the
// bound must be far above kill_skip x worst-case batch size.
constexpr int kMaxMarkers = 20000;
constexpr int kCheckpointEvery = 15;  // commits between child checkpoints

// The incremental scenario's second table: kBaseGroups full row groups,
// loaded and checkpointed before the kill is armed. Marker m's
// transaction also sets v = m on row BaseRow(m). The markers between two
// checkpoints update one group, so each checkpoint rewrites that group
// (and t's) and carries the other groups of b over.
constexpr int kBaseGroups = 3;
constexpr int kBaseRows = kBaseGroups * static_cast<int>(kRowGroupSize);
int BaseRow(int marker) {
  int group = (marker / kCheckpointEvery) % kBaseGroups;
  return group * static_cast<int>(kRowGroupSize) +
         (marker * 7) % static_cast<int>(kRowGroupSize);
}

struct Scenario {
  const char* name;
  FaultSite site;
  uint64_t kill_skip;   // fault opportunities to let pass before dying
  bool async;
  bool torn_tail;       // no kill: exit cleanly, then truncate the WAL
  bool incremental = false;  // markers also update the checkpointed table b
};

std::string DbPath(const Scenario& s) {
  return "/tmp/mallard_torture_" + std::string(s.name) + "_" +
         (s.async ? "async_" : "sync_") + std::to_string(::getpid());
}

void Cleanup(const std::string& path) {
  RemoveFile(path);
  RemoveFile(path + ".wal");
  RemoveFile(path + ".tmp");
  RemoveFile(path + ".oracle");
}

// --- Child: the doomed workload. Runs in a fork, expected to die at the
// --- armed kill point (or exit 0 for the torn-tail scenario).

int ChildWorkload(const Scenario& s, const std::string& path) {
  DBConfig config;
  config.checkpoint_on_close = false;  // recovery must come from the WAL
  auto db = Database::Open(path, config);
  if (!db.ok()) return 2;
  Connection con(db->get());
  if (!con.Query("CREATE TABLE t (marker INTEGER, v INTEGER)").ok()) return 2;
  if (s.async && !con.Query("PRAGMA wal_commit_mode=async").ok()) return 2;
  if (s.incremental) {
    if (!con.Query("CREATE TABLE b (id INTEGER, v INTEGER)").ok()) return 2;
    auto appender = Appender::Create(db->get(), "b");
    if (!appender.ok()) return 2;
    for (int32_t i = 0; i < kBaseRows; i++) {
      (*appender)->Append(i);
      (*appender)->Append(int32_t{-1});
      if (!(*appender)->EndRow().ok()) return 2;
    }
    if (!(*appender)->Close().ok() || !(*db)->Checkpoint().ok()) return 2;
  }

  // Oracle file: one marker per line, appended + fsync'd only after the
  // engine acknowledged that commit.
  FILE* oracle = std::fopen((path + ".oracle").c_str(), "w");
  if (oracle == nullptr) return 2;

  if (!s.torn_tail) {
    FaultInjector::Get().ArmKillAfter(s.site, s.kill_skip);
  }
  int markers = s.torn_tail ? 30 : kMaxMarkers;
  for (int m = 0; m < markers; m++) {
    std::string sql = "INSERT INTO t VALUES";
    for (int r = 0; r < kRowsPerCommit; r++) {
      sql += (r == 0 ? " (" : ",(") + std::to_string(m) + "," +
             std::to_string(r) + ")";
    }
    // Armed kills die, they don't error.
    if (s.incremental) {
      std::string update = "UPDATE b SET v = " + std::to_string(m) +
                           " WHERE id = " + std::to_string(BaseRow(m));
      if (!con.BeginTransaction().ok() || !con.Query(sql).ok() ||
          !con.Query(update).ok() || !con.Commit().ok()) {
        return 3;
      }
    } else if (!con.Query(sql).ok()) {
      return 3;
    }
    std::fprintf(oracle, "%d\n", m);
    std::fflush(oracle);
    ::fsync(::fileno(oracle));
    // Periodic online checkpoints: the checkpoint kill sites fire here.
    bool checkpoint_site = s.site == FaultSite::kCheckpointWrite ||
                           s.site == FaultSite::kCheckpointRootSwap ||
                           s.site == FaultSite::kWalTruncate;
    if (checkpoint_site && m > 0 && m % kCheckpointEvery == 0) {
      if (!(*db)->Checkpoint().ok()) return 3;
    }
  }
  std::fclose(oracle);
  if (s.torn_tail) return 0;  // clean exit; parent tears the WAL tail
  return 4;  // survived the whole workload: the kill never fired
}

// --- Verifier: also runs in a fork so replay/open never happens in the
// --- parent. Exit 0 = invariants hold.

int VerifyRecovery(const Scenario& s, const std::string& path) {
  std::vector<int> oracle;
  {
    std::ifstream in(path + ".oracle");
    int m;
    while (in >> m) oracle.push_back(m);
  }

  DBConfig config;
  config.checkpoint_on_close = false;
  auto db = Database::Open(path, config);
  if (!db.ok()) {
    std::fprintf(stderr, "  reopen failed: %s\n",
                 db.status().ToString().c_str());
    return 1;
  }
  Connection con(db->get());
  auto result = con.Query("SELECT marker FROM t");
  if (!result.ok()) {
    std::fprintf(stderr, "  scan failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::map<int, int> rows_per_marker;
  for (idx_t i = 0; i < (*result)->RowCount(); i++) {
    rows_per_marker[(*result)->GetValue(0, i).GetInteger()]++;
  }

  // Atomicity: no partially visible commit.
  for (const auto& [marker, rows] : rows_per_marker) {
    if (rows != kRowsPerCommit) {
      std::fprintf(stderr, "  TORN COMMIT: marker %d has %d/%d rows\n",
                   marker, rows, kRowsPerCommit);
      return 1;
    }
  }
  // Ordering: visible markers are a contiguous prefix 0..k.
  int expect = 0;
  for (const auto& [marker, rows] : rows_per_marker) {
    if (marker != expect++) {
      std::fprintf(stderr, "  GAP: marker %d missing (found %d)\n",
                   expect - 1, marker);
      return 1;
    }
  }
  if (s.incremental) {
    // b holds exactly the recovered markers' updates: each row the last
    // marker that set it, else the loaded -1 — whether its group came
    // back from a rewritten chain, a carried-over one, or the WAL.
    std::map<int, int> expected;
    for (const auto& [marker, rows] : rows_per_marker) {
      expected[BaseRow(marker)] = marker;
    }
    auto b = con.Query("SELECT id, v FROM b");
    if (!b.ok() || (*b)->RowCount() != static_cast<idx_t>(kBaseRows)) {
      std::fprintf(stderr, "  b scan failed or lost rows\n");
      return 1;
    }
    for (idx_t i = 0; i < (*b)->RowCount(); i++) {
      int id = (*b)->GetValue(0, i).GetInteger();
      int v = (*b)->GetValue(1, i).GetInteger();
      auto it = expected.find(id);
      int want = it == expected.end() ? -1 : it->second;
      if (v != want) {
        std::fprintf(stderr, "  b row %d holds %d, expected %d\n", id, v,
                     want);
        return 1;
      }
    }
  }
  int recovered = static_cast<int>(rows_per_marker.size());
  int acked = static_cast<int>(oracle.size());

  if (s.torn_tail) {
    // The parent tore the last frame: exactly the last commit is lost.
    if (recovered != acked - 1) {
      std::fprintf(stderr, "  torn tail: recovered %d, expected %d\n",
                   recovered, acked - 1);
      return 1;
    }
    return 0;
  }
  if (!s.async && recovered < acked) {
    // Sync mode: the commit was acknowledged only after its group's
    // fsync, so every oracle line must have survived.
    std::fprintf(stderr, "  LOST ACKED COMMITS: recovered %d < acked %d\n",
                 recovered, acked);
    return 1;
  }
  if (s.async && recovered > acked) {
    // Async acks strictly precede durability; more durable than acked
    // would mean the oracle write was skipped.
    std::fprintf(stderr, "  async: recovered %d > acked %d\n", recovered,
                 acked);
    return 1;
  }
  std::fprintf(stderr, "  recovered %d/%d acked commits\n", recovered, acked);
  return 0;
}

// Tear off the last few bytes of the WAL, leaving a torn final record.
bool TearWalTail(const std::string& path) {
  std::string wal = path + ".wal";
  struct stat st;
  if (::stat(wal.c_str(), &st) != 0 || st.st_size < 4) return false;
  return ::truncate(wal.c_str(), st.st_size - 3) == 0;
}

int RunScenario(const Scenario& s) {
  std::string path = DbPath(s);
  Cleanup(path);
  std::fprintf(stderr, "[%s/%s]\n", s.name, s.async ? "async" : "sync");

  pid_t child = ::fork();
  if (child < 0) return 1;
  if (child == 0) ::_exit(ChildWorkload(s, path));
  int wstatus = 0;
  if (::waitpid(child, &wstatus, 0) != child || !WIFEXITED(wstatus)) {
    std::fprintf(stderr, "  child did not exit normally\n");
    return 1;
  }
  int code = WEXITSTATUS(wstatus);
  int expected = s.torn_tail ? 0 : FaultInjector::kKillExitCode;
  if (code != expected) {
    std::fprintf(stderr, "  child exited %d, expected %d\n", code, expected);
    return 1;
  }
  if (s.torn_tail && !TearWalTail(path)) {
    std::fprintf(stderr, "  could not tear WAL tail\n");
    return 1;
  }

  pid_t verifier = ::fork();
  if (verifier < 0) return 1;
  if (verifier == 0) ::_exit(VerifyRecovery(s, path));
  if (::waitpid(verifier, &wstatus, 0) != verifier || !WIFEXITED(wstatus) ||
      WEXITSTATUS(wstatus) != 0) {
    std::fprintf(stderr, "  FAILED\n");
    return 1;
  }
  std::fprintf(stderr, "  ok\n");
  Cleanup(path);
  return 0;
}

std::vector<Scenario> BuildMatrix() {
  // kill_skip values let a healthy run of commits land first, then die:
  // the append/fsync sites see one opportunity per WAL flush, the
  // checkpoint sites one per chain-block write / root swap.
  std::vector<Scenario> matrix;
  for (bool async : {false, true}) {
    matrix.push_back({"wal-append", FaultSite::kWalAppend, 7, async, false});
    matrix.push_back({"wal-fsync", FaultSite::kWalFsync, 7, async, false});
    matrix.push_back(
        {"checkpoint-write", FaultSite::kCheckpointWrite, 2, async, false});
    matrix.push_back(
        {"root-swap", FaultSite::kCheckpointRootSwap, 0, async, false});
    // Dies after the checkpoint root swap is durable but before the WAL
    // is truncated: replay must skip the stale log (its generation is
    // behind the root) instead of re-applying transactions that are
    // already in the image — the classic double-apply window.
    matrix.push_back(
        {"wal-truncate", FaultSite::kWalTruncate, 0, async, false});
    // Dies mid-way through a later incremental checkpoint, after earlier
    // ones carried clean groups of b over: the old root must still read
    // back whole, sharing those chains with the torn new image.
    matrix.push_back({"incremental", FaultSite::kCheckpointWrite, 5, async,
                      false, true});
  }
  matrix.push_back({"torn-tail", FaultSite::kNumFaultSites, 0, false, true});
  return matrix;
}

// --- Bit-flip fuzzer -------------------------------------------------------

constexpr int kFlipRows = 5000;
// sum(0..kFlipRows-1)
constexpr int64_t kFlipSum =
    static_cast<int64_t>(kFlipRows) * (kFlipRows - 1) / 2;

// Child: builds the victim database — one table, one checkpoint, WAL
// drained — so every later flip lands on at-rest state.
int BuildFlipDatabase(const std::string& path) {
  DBConfig config;
  config.checkpoint_on_close = false;
  auto db = Database::Open(path, config);
  if (!db.ok()) return 1;
  Connection con(db->get());
  if (!con.Query("CREATE TABLE t (a INTEGER)").ok()) return 1;
  {
    auto appender = Appender::Create(db->get(), "t");
    if (!appender.ok()) return 1;
    for (int32_t i = 0; i < kFlipRows; i++) {
      (*appender)->Append(i);
      if (!(*appender)->EndRow().ok()) return 1;
    }
    if (!(*appender)->Close().ok()) return 1;
  }
  if (!(*db)->Checkpoint().ok()) return 1;
  return 0;
}

// Child: reopens the flipped database and classifies the outcome.
// Exit codes: 0 recovered, 10 salvaged, 11 clean corruption at open,
// 21 readable-but-wrong (parent re-classifies header-slot flips as the
// documented old-root fallback), anything else is a failure.
int VerifyFlip(const std::string& path) {
  DBConfig config;
  config.checkpoint_on_close = false;
  auto db = Database::Open(path, config);
  if (!db.ok()) {
    return db.status().IsCorruption() ? 11 : 20;
  }
  Connection con(db->get());
  auto q = con.Query("SELECT count(*), sum(a) FROM t");
  if (q.ok()) {
    int64_t count = (*q)->GetValue(0, 0).GetBigInt();
    int64_t sum = (*q)->GetValue(1, 0).GetBigInt();
    if (count != kFlipRows || sum != kFlipSum) return 21;
    // Full data intact: the scrubber must still complete (flips in free
    // space or slack bytes are legitimate no-ops).
    return con.Query("PRAGMA integrity_check").ok() ? 0 : 24;
  }
  if (!q.status().IsCorruption()) return 21;  // e.g. table lost to old root
  // Clean corruption error: salvage mode must read around the damage.
  if (!con.Query("PRAGMA salvage_mode=on").ok()) return 22;
  auto s = con.Query("SELECT count(*) FROM t");
  if (!s.ok()) return 22;
  if ((*s)->GetValue(0, 0).GetBigInt() > kFlipRows) return 23;
  return 10;
}

bool ReadFileBytes(const std::string& path, std::vector<char>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return false;
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return true;
}

bool WriteFileBytes(const std::string& path, const std::vector<char>& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) return false;
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  return out.good();
}

int RunBitFlipFuzzer(uint64_t seed, int iterations) {
  std::string path = "/tmp/mallard_torture_bitflip_" + std::to_string(seed) +
                     "_" + std::to_string(::getpid());
  Cleanup(path);
  std::fprintf(stderr, "[bit-flip] seed=%llu iterations=%d\n",
               static_cast<unsigned long long>(seed), iterations);

  pid_t builder = ::fork();
  if (builder < 0) return 1;
  if (builder == 0) ::_exit(BuildFlipDatabase(path));
  int wstatus = 0;
  if (::waitpid(builder, &wstatus, 0) != builder || !WIFEXITED(wstatus) ||
      WEXITSTATUS(wstatus) != 0) {
    std::fprintf(stderr, "  could not build the victim database\n");
    return 1;
  }

  std::vector<char> db_image, wal_image;
  if (!ReadFileBytes(path, &db_image) || db_image.empty()) {
    std::fprintf(stderr, "  could not snapshot the database file\n");
    return 1;
  }
  ReadFileBytes(path + ".wal", &wal_image);  // may legitimately be tiny
  uint64_t total_bits = (db_image.size() + wal_image.size()) * 8;

  int recovered = 0, old_root = 0, salvaged = 0, clean_errors = 0;
  int failures = 0;
  uint64_t rng = seed ^ 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < iterations; i++) {
    // xorshift64* — deterministic per seed, independent of libc.
    rng ^= rng >> 12;
    rng ^= rng << 25;
    rng ^= rng >> 27;
    uint64_t bit = (rng * 0x2545F4914F6CDD1DULL) % total_bits;
    bool in_db = bit < db_image.size() * 8;
    uint64_t byte_offset = (in_db ? bit : bit - db_image.size() * 8) / 8;

    std::vector<char> db_copy = db_image, wal_copy = wal_image;
    std::vector<char>& victim = in_db ? db_copy : wal_copy;
    victim[byte_offset] =
        static_cast<char>(victim[byte_offset] ^ (1 << (bit % 8)));
    if (!WriteFileBytes(path, db_copy) ||
        (!wal_image.empty() && !WriteFileBytes(path + ".wal", wal_copy))) {
      std::fprintf(stderr, "  flip %d: could not restore files\n", i);
      return 1;
    }

    pid_t child = ::fork();
    if (child < 0) return 1;
    if (child == 0) ::_exit(VerifyFlip(path));
    if (::waitpid(child, &wstatus, 0) != child) return 1;
    if (!WIFEXITED(wstatus)) {
      std::fprintf(stderr,
                   "  flip %d: CRASH (%s bit %llu) — signal %d\n", i,
                   in_db ? "db" : "wal",
                   static_cast<unsigned long long>(bit),
                   WIFSIGNALED(wstatus) ? WTERMSIG(wstatus) : -1);
      failures++;
      continue;
    }
    int code = WEXITSTATUS(wstatus);
    bool header_flip = in_db && byte_offset < 2 * kBlockSize;
    switch (code) {
      case 0:
        recovered++;
        break;
      case 10:
        salvaged++;
        break;
      case 11:
        clean_errors++;
        break;
      case 21:
        if (header_flip) {
          // A damaged header slot falls back to the other root — the
          // documented torn-header-write recovery, not silent loss.
          old_root++;
        } else {
          std::fprintf(stderr,
                       "  flip %d: SILENT WRONG RESULT (%s byte %llu)\n", i,
                       in_db ? "db" : "wal",
                       static_cast<unsigned long long>(byte_offset));
          failures++;
        }
        break;
      default:
        std::fprintf(stderr, "  flip %d: unexpected outcome %d (%s byte %llu)\n",
                     i, code, in_db ? "db" : "wal",
                     static_cast<unsigned long long>(byte_offset));
        failures++;
        break;
    }
  }
  std::fprintf(stderr,
               "  %d flips: %d recovered, %d old-root, %d salvaged, "
               "%d clean errors, %d FAILURES\n",
               iterations, recovered, old_root, salvaged, clean_errors,
               failures);
  Cleanup(path);
  return failures == 0 ? 0 : 1;
}

int TortureMain(int argc, char** argv) {
  if (argc == 4 && std::strcmp(argv[1], "bit-flip") == 0) {
    return RunBitFlipFuzzer(std::strtoull(argv[2], nullptr, 10),
                            std::atoi(argv[3]));
  }
  auto matrix = BuildMatrix();
  if (argc == 3) {  // single scenario: mallard_torture <site> <mode>
    bool async = std::strcmp(argv[2], "async") == 0;
    for (const auto& s : matrix) {
      if (std::strcmp(s.name, argv[1]) == 0 &&
          (s.torn_tail || s.async == async)) {
        return RunScenario(s);
      }
    }
    std::fprintf(stderr, "unknown scenario %s %s\n", argv[1], argv[2]);
    return 1;
  }
  int failures = 0;
  for (const auto& s : matrix) failures += RunScenario(s);
  if (failures == 0) {
    std::fprintf(stderr, "all scenarios passed\n");
  } else {
    std::fprintf(stderr, "%d scenario(s) FAILED\n", failures);
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace mallard

int main(int argc, char** argv) { return mallard::TortureMain(argc, argv); }
