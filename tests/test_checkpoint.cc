// Incremental checkpoint tests: a checkpoint carries over the block
// chains of row groups no commit has touched since they were written and
// rewrites only the dirty ones. Covered: what dirties a group (committed
// append, delete, update — not a rollback, not a change still in flight
// during the checkpoint), that a failed checkpoint leaves every group as
// it was, that reopened groups start clean, that the file does not grow
// across repeated small checkpoints, and that a dirty group split into
// several payloads under a tight memory budget is carried over whole,
// and that a chain the scrubber found damaged is rewritten, not carried
// over. Every scenario ends by reopening the file and checking its
// contents.

#include <gtest/gtest.h>
#include <unistd.h>

#include <map>
#include <string>

#include "mallard/main/appender.h"
#include "mallard/main/connection.h"
#include "mallard/main/database.h"
#include "mallard/resilience/fault_injector.h"

namespace mallard {
namespace {

constexpr int64_t kGroups = 3;
constexpr int64_t kRows = kGroups * static_cast<int64_t>(kRowGroupSize);

std::string TempPath() {
  return "/tmp/mallard_test_checkpoint_" + std::to_string(::getpid());
}

void Cleanup(const std::string& path) {
  RemoveFile(path);
  RemoveFile(path + ".wal");
  RemoveFile(path + ".tmp");
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath();
    Cleanup(path_);
    FaultInjector::Get().Reset();
  }
  void TearDown() override {
    con_.reset();
    db_.reset();
    Cleanup(path_);
    FaultInjector::Get().Reset();
  }

  void Open(DBConfig config = {}) {
    con_.reset();
    db_.reset();
    config.checkpoint_on_close = false;
    auto db = Database::Open(path_, config);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    con_ = std::make_unique<Connection>(db_.get());
  }

  // Table t(id BIGINT, v BIGINT) with v = id, kGroups full row groups,
  // then one checkpoint that writes all of them.
  void Load() {
    Open();
    Exec("CREATE TABLE t (id BIGINT, v BIGINT)");
    auto appender = Appender::Create(db_.get(), "t");
    ASSERT_TRUE(appender.ok());
    for (int64_t i = 0; i < kRows; i++) {
      (*appender)->Append(i);
      (*appender)->Append(i);
      ASSERT_TRUE((*appender)->EndRow().ok());
    }
    ASSERT_TRUE((*appender)->Close().ok());
    Checkpoint();
  }

  void Exec(const std::string& sql, Connection* con = nullptr) {
    auto r = (con ? con : con_.get())->Query(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  }

  void Checkpoint() {
    Status s = db_->Checkpoint();
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  std::map<std::string, int64_t> Stats() {
    auto r = con_->Query("PRAGMA checkpoint_stats");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    std::map<std::string, int64_t> stats;
    for (idx_t c = 0; c < (*r)->ColumnCount(); c++) {
      stats[(*r)->names()[c]] = (*r)->GetValue(c, 0).GetBigInt();
    }
    return stats;
  }

  // Runs one checkpoint and returns the groups it wrote and reused.
  std::pair<int64_t, int64_t> CheckpointDelta() {
    auto before = Stats();
    Status s = db_->Checkpoint();
    EXPECT_TRUE(s.ok()) << s.ToString();
    auto after = Stats();
    return {after["groups_written"] - before["groups_written"],
            after["groups_reused"] - before["groups_reused"]};
  }

  // (count, sum(v)) of t.
  std::pair<int64_t, int64_t> Contents() {
    auto r = con_->Query("SELECT count(*), sum(v) FROM t");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return {(*r)->GetValue(0, 0).GetBigInt(), (*r)->GetValue(1, 0).GetBigInt()};
  }

  std::string path_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Connection> con_;
};

constexpr int64_t kSum = kRows * (kRows - 1) / 2;

TEST_F(CheckpointTest, UnchangedTablesAreCarriedOverNotRewritten) {
  Load();
  auto stats = Stats();
  EXPECT_EQ(stats["checkpoints"], 1);
  EXPECT_EQ(stats["groups_written"], kGroups);
  EXPECT_EQ(stats["groups_reused"], 0);
  uint64_t file_blocks = db_->blocks()->TotalBlocks();

  // Nothing committed since: the second checkpoint writes the directory
  // chain only, into a block the first one did not use.
  EXPECT_EQ(CheckpointDelta(), std::make_pair(int64_t{0}, kGroups));
  EXPECT_EQ(Stats()["blocks_written"], stats["blocks_written"] + 1);
  for (int i = 0; i < 5; i++) CheckpointDelta();
  EXPECT_LE(db_->blocks()->TotalBlocks(), file_blocks + 1);

  Open();
  EXPECT_EQ(Contents(), std::make_pair(kRows, kSum));
}

TEST_F(CheckpointTest, OnlyGroupsTouchedByACommitAreRewritten) {
  Load();
  int64_t in_group1 = static_cast<int64_t>(kRowGroupSize) + 5;
  Exec("UPDATE t SET v = v + 1000 WHERE id = " + std::to_string(in_group1));
  EXPECT_EQ(CheckpointDelta(), std::make_pair(int64_t{1}, kGroups - 1));

  Exec("DELETE FROM t WHERE id < 10");
  EXPECT_EQ(CheckpointDelta(), std::make_pair(int64_t{1}, kGroups - 1));

  // Appends open a fourth group; the three full ones stay as they are.
  Exec("INSERT INTO t VALUES (-1, 7), (-2, 8)");
  EXPECT_EQ(CheckpointDelta(), std::make_pair(int64_t{1}, kGroups));
  EXPECT_EQ(CheckpointDelta(), std::make_pair(int64_t{0}, kGroups + 1));

  int64_t count = kRows - 10 + 2;
  int64_t sum = kSum + 1000 - 45 + 15;
  EXPECT_EQ(Contents(), std::make_pair(count, sum));
  Open();
  EXPECT_EQ(Contents(), std::make_pair(count, sum));
  auto r = con_->Query("SELECT v FROM t WHERE id = " + std::to_string(in_group1));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(), in_group1 + 1000);
}

TEST_F(CheckpointTest, ChangesInFlightDuringACheckpointDirtyTheGroupAtCommit) {
  Load();
  Connection writer(db_.get());
  ASSERT_TRUE(writer.BeginTransaction().ok());
  Exec("UPDATE t SET v = -1 WHERE id = 3", &writer);
  Exec("INSERT INTO t VALUES (100000, 100000)", &writer);
  // Uncommitted: invisible to the checkpoint, so every group is clean.
  EXPECT_EQ(CheckpointDelta(), std::make_pair(int64_t{0}, kGroups));
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_EQ(CheckpointDelta(), std::make_pair(int64_t{2}, kGroups - 1));

  // A rolled-back change leaves the committed rows as they were.
  ASSERT_TRUE(writer.BeginTransaction().ok());
  Exec("UPDATE t SET v = -2 WHERE id = 4", &writer);
  Exec("DELETE FROM t WHERE id = 5", &writer);
  ASSERT_TRUE(writer.Rollback().ok());
  EXPECT_EQ(CheckpointDelta(), std::make_pair(int64_t{0}, kGroups + 1));

  int64_t sum = kSum - 3 - 1 + 100000;
  Open();
  EXPECT_EQ(Contents(), std::make_pair(kRows + 1, sum));
  auto r = con_->Query("SELECT v FROM t WHERE id IN (3, 4) ORDER BY id");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(), -1);
  EXPECT_EQ((*r)->GetValue(0, 1).GetBigInt(), 4);
}

TEST_F(CheckpointTest, FailedCheckpointKeepsDirtyGroupsDirty) {
  Load();
  Exec("UPDATE t SET v = 0 WHERE id = 7");
  for (FaultSite site :
       {FaultSite::kCheckpointWrite, FaultSite::kCheckpointRootSwap}) {
    // The dirty group's fresh chain is written (or the swap refused), but
    // the root never points at it: the group must not adopt that chain.
    FaultInjector::Get().ArmOnce(site);
    EXPECT_FALSE(db_->Checkpoint().ok());
    FaultInjector::Get().Reset();
  }
  EXPECT_EQ(Stats()["checkpoints"], 1);
  EXPECT_EQ(CheckpointDelta(), std::make_pair(int64_t{1}, kGroups - 1));
  Open();
  EXPECT_EQ(Contents(), std::make_pair(kRows, kSum - 7));
}

TEST_F(CheckpointTest, ReopenedGroupsStartClean) {
  Load();
  uint64_t file_blocks = db_->blocks()->TotalBlocks();
  Open();
  EXPECT_EQ(CheckpointDelta(), std::make_pair(int64_t{0}, kGroups));
  Exec("UPDATE t SET v = v + 1 WHERE id = " + std::to_string(kRows - 1));
  EXPECT_EQ(CheckpointDelta(), std::make_pair(int64_t{1}, kGroups - 1));
  EXPECT_LE(db_->blocks()->TotalBlocks(), file_blocks + 2);
  Open();
  EXPECT_EQ(Contents(), std::make_pair(kRows, kSum + 1));
}

TEST_F(CheckpointTest, RepeatedSmallCheckpointsKeepTheFileSmall) {
  // The shape of a dashboard: a few rows a commit, a checkpoint after
  // each. Only the tail group and the directory are written, and the
  // blocks they free are reused by the next checkpoint.
  Load();
  uint64_t file_blocks = db_->blocks()->TotalBlocks();
  int64_t count = kRows;
  for (int i = 0; i < 20; i++) {
    Exec("INSERT INTO t VALUES (" + std::to_string(kRows + i) + ", 1)");
    count++;
    auto delta = CheckpointDelta();
    EXPECT_EQ(delta.first, 1);
    EXPECT_EQ(delta.second, kGroups);
  }
  EXPECT_LE(db_->blocks()->TotalBlocks(), file_blocks + 4);
  Open();
  EXPECT_EQ(Contents(), std::make_pair(count, kSum + 20));
}

TEST_F(CheckpointTest, DirtyGroupSplitUnderTightMemoryIsCarriedOverWhole) {
  // A budget this small shrinks the staging granularity below one row
  // group: a dirty group is written as several payloads, and the next
  // checkpoint must carry over all of them.
  DBConfig config;
  config.memory_limit = 512ull << 10;
  Open(config);
  Exec("CREATE TABLE t (id BIGINT, v BIGINT)");
  std::string sql = "INSERT INTO t VALUES (0, 0)";
  for (int64_t i = 1; i < static_cast<int64_t>(kRowGroupSize); i++) {
    sql += ",(" + std::to_string(i) + "," + std::to_string(i) + ")";
  }
  Exec(sql);
  auto first = CheckpointDelta();
  EXPECT_GT(first.first, 1);
  EXPECT_EQ(first.second, 0);
  EXPECT_EQ(CheckpointDelta(), std::make_pair(int64_t{0}, first.first));
  Open(config);
  int64_t rows = static_cast<int64_t>(kRowGroupSize);
  EXPECT_EQ(Contents(), std::make_pair(rows, rows * (rows - 1) / 2));
}

TEST_F(CheckpointTest, ScrubbedDamageIsRewrittenNotCarriedOver) {
  // A bit rots at rest in a clean group's chain while its rows are
  // intact in memory. Once the scrubber has seen the damage, the next
  // checkpoint rewrites that group instead of pointing the new root at
  // the bad block, so the reopened table is whole, not quarantined.
  Load();
  // The first checkpoint of a fresh file allocates group 0's chain first.
  std::vector<block_id_t> live = db_->blocks()->LiveBlocks();
  ASSERT_FALSE(live.empty());
  ASSERT_TRUE(db_->blocks()->CorruptBlockOnDisk(live.front(), 12345).ok());
  Exec("PRAGMA integrity_check");
  EXPECT_EQ(CheckpointDelta(), std::make_pair(int64_t{1}, kGroups - 1));
  Open();
  EXPECT_EQ(Contents(), std::make_pair(kRows, kSum));
}

TEST_F(CheckpointTest, StatsNeedAPersistentDatabase) {
  auto db = Database::Open(":memory:");
  ASSERT_TRUE(db.ok());
  Connection con(db->get());
  EXPECT_FALSE(con.Query("PRAGMA checkpoint_stats").ok());
}

}  // namespace
}  // namespace mallard
