// End-to-end corruption-resilience tests: spill-segment checksums catch
// on-disk flips, block corruption quarantines exactly one row group
// (salvage mode scans around it with exact skip counts), the transient
// retry loop heals with the documented backoff schedule, PRAGMA
// integrity_check reports per-object results, the WAL replay
// distinguishes a torn tail from mid-stream damage, and the memory
// self-test refuses to run on simulated bad RAM.

#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>
#include <string>
#include <vector>

#include "mallard/main/appender.h"
#include "mallard/main/connection.h"
#include "mallard/main/database.h"
#include "mallard/resilience/fault_injector.h"
#include "mallard/resilience/memtest.h"
#include "mallard/resilience/retry_policy.h"
#include "mallard/storage/buffer_manager.h"
#include "mallard/storage/wal.h"

namespace mallard {
namespace {

std::string TempPath(const std::string& tag) {
  return "/tmp/mallard_test_" + tag + "_" + std::to_string(::getpid());
}

void Cleanup(const std::string& path) {
  RemoveFile(path);
  RemoveFile(path + ".wal");
  RemoveFile(path + ".spill");
}

class IntegrityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("integrity");
    Cleanup(path_);
    FaultInjector::Get().Reset();
  }
  void TearDown() override {
    Cleanup(path_);
    FaultInjector::Get().Reset();
    RetryPolicy::SetGlobalSleepHook(nullptr);
  }

  std::string path_;
};

// ---------------------------------------------------------------------------
// Retry policy: backoff schedule and transient-fault arming
// ---------------------------------------------------------------------------

TEST_F(IntegrityTest, RetryHealsTransientFaultWithExponentialBackoff) {
  std::vector<uint64_t> sleeps;
  RetryPolicy::SetGlobalSleepHook(
      [&](uint64_t micros) { sleeps.push_back(micros); });

  ResilienceStats stats;
  int calls = 0;
  Status status = RetryPolicy::Execute(&stats, [&]() -> Status {
    if (++calls < 3) return Status::IOError("transient");
    return Status::OK();
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(calls, 3);
  // Default schedule: 100us, then x4.
  ASSERT_EQ(sleeps.size(), 2u);
  EXPECT_EQ(sleeps[0], 100u);
  EXPECT_EQ(sleeps[1], 400u);

  EXPECT_EQ(stats.io_attempts.load(), 3u);
  EXPECT_EQ(stats.io_retries.load(), 2u);
  EXPECT_EQ(stats.retry_successes.load(), 1u);
  EXPECT_EQ(stats.retry_exhausted.load(), 0u);
  EXPECT_EQ(stats.backoff_micros.load(), 500u);
}

TEST_F(IntegrityTest, RetryExhaustsOnPermanentFault) {
  RetryPolicy::SetGlobalSleepHook([](uint64_t) {});
  ResilienceStats stats;
  int calls = 0;
  Status status = RetryPolicy::Execute(&stats, [&]() -> Status {
    calls++;
    return Status::IOError("permanent");
  });
  EXPECT_TRUE(status.IsIOError());
  EXPECT_EQ(calls, 3);  // bounded: kMaxAttempts
  EXPECT_EQ(stats.retry_exhausted.load(), 1u);
}

TEST_F(IntegrityTest, NonRetryableErrorsFailImmediately) {
  ResilienceStats stats;
  int calls = 0;
  Status status = RetryPolicy::Execute(
      &stats, [&]() -> Status { calls++; return Status::Corruption("bad"); });
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_EQ(calls, 1);  // default predicate retries only IO errors
}

TEST_F(IntegrityTest, ArmTransientFiresExactlyNTimes) {
  auto& injector = FaultInjector::Get();
  injector.ArmTransient(FaultSite::kSpillRead, 2);
  EXPECT_TRUE(injector.ShouldFire(FaultSite::kSpillRead));
  EXPECT_TRUE(injector.ShouldFire(FaultSite::kSpillRead));
  EXPECT_FALSE(injector.ShouldFire(FaultSite::kSpillRead));
  EXPECT_FALSE(injector.ShouldFire(FaultSite::kSpillRead));
}

// ---------------------------------------------------------------------------
// Spill-segment checksums: an on-disk flip surfaces as kCorruption
// ---------------------------------------------------------------------------

TEST_F(IntegrityTest, FlippedSpillSegmentIsDetected) {
  const uint64_t kSize = 48 * 1024;
  std::string spill_path = path_ + ".spill";
  ResilienceStats resilience;
  BufferManager buffers(64 * 1024, spill_path, &resilience);

  auto a = buffers.Allocate(kSize);
  ASSERT_TRUE(a.ok());
  for (uint64_t i = 0; i < kSize; i++) {
    a->data()[i] = static_cast<uint8_t>(i * 13);
  }
  std::shared_ptr<ManagedBuffer> buffer = a->buffer();
  a->Release();

  // Force the eviction (and thus the spill write) of `a`.
  auto b = buffers.Allocate(kSize);
  ASSERT_TRUE(b.ok());
  ASSERT_FALSE(buffer->resident());
  ASSERT_GE(buffers.GetStats().spill_count, 1u);

  // Flip one byte of the spilled copy on disk.
  {
    std::fstream file(spill_path,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open());
    file.seekg(100);
    char byte;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    file.seekp(100);
    file.write(&byte, 1);
  }

  auto pinned = buffers.Pin(buffer);
  ASSERT_FALSE(pinned.ok());
  EXPECT_TRUE(pinned.status().IsCorruption()) << pinned.status().ToString();
  EXPECT_GE(resilience.spill_checksum_failures.load(), 1u);
}

// ---------------------------------------------------------------------------
// Block corruption: quarantine + salvage with exact skip counts
// ---------------------------------------------------------------------------

class QuarantineTest : public IntegrityTest {
 protected:
  static constexpr int64_t kRows = 1000;

  // Builds a one-table database, checkpoints it, and flips one bit in
  // the row-group payload chain (the live block that is not the catalog
  // chain head) so the next open must quarantine the group.
  void BuildCorruptDatabase() {
    auto db = Database::Open(path_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    Connection con(db->get());
    ASSERT_TRUE(con.Query("CREATE TABLE t (a INTEGER)").ok());
    {
      auto appender = Appender::Create(db->get(), "t");
      ASSERT_TRUE(appender.ok());
      for (int64_t i = 0; i < kRows; i++) {
        (*appender)->Append(static_cast<int32_t>(i));
        ASSERT_TRUE((*appender)->EndRow().ok());
      }
      ASSERT_TRUE((*appender)->Close().ok());
    }
    ASSERT_TRUE((*db)->Checkpoint().ok());
    (*db)->config().checkpoint_on_close = false;

    BlockManager* blocks = (*db)->blocks();
    block_id_t catalog_head = blocks->header().meta_block;
    std::vector<block_id_t> live = blocks->LiveBlocks();
    ASSERT_GE(live.size(), 2u);
    bool corrupted = false;
    for (block_id_t id : live) {
      if (id == catalog_head) continue;
      ASSERT_TRUE(blocks->CorruptBlockOnDisk(id, 777).ok());
      corrupted = true;
      break;
    }
    ASSERT_TRUE(corrupted);
  }
};

TEST_F(QuarantineTest, CorruptGroupQuarantinesAndFailsQueriesByName) {
  BuildCorruptDatabase();

  // Reopen succeeds: the damage is contained to one quarantined group,
  // not a failed open.
  auto db = Database::Open(path_);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->resilience_stats().quarantined_row_groups.load(), 1u);

  // A scan through the quarantined group fails with kCorruption naming
  // the object — never wrong rows.
  Connection con(db->get());
  auto r = con.Query("SELECT count(*) FROM t");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("quarantined"), std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find("'t'"), std::string::npos)
      << r.status().message();

  // Checkpointing a table with quarantined data is refused: detected
  // corruption must not be rewritten into a "clean" checkpoint.
  EXPECT_TRUE((*db)->Checkpoint().IsCorruption());
  (*db)->config().checkpoint_on_close = false;
}

TEST_F(QuarantineTest, SalvageModeSkipsQuarantinedGroupWithExactCounts) {
  BuildCorruptDatabase();
  auto db = Database::Open(path_);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  Connection con(db->get());

  ASSERT_TRUE(con.Query("PRAGMA salvage_mode=on").ok());
  auto r = con.Query("SELECT count(*) FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // All kRows rows lived in the one quarantined group.
  EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(), 0);
  const ResilienceStats& stats = (*db)->resilience_stats();
  EXPECT_EQ(stats.salvage_skipped_groups.load(), 1u);
  EXPECT_EQ(stats.salvage_skipped_rows.load(), static_cast<uint64_t>(kRows));

  // Fresh rows append into a new group and are visible alongside the
  // salvaged remainder.
  ASSERT_TRUE(con.Query("INSERT INTO t VALUES (41), (42)").ok());
  r = con.Query("SELECT count(*) FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(), 2);

  ASSERT_TRUE(con.Query("PRAGMA salvage_mode=off").ok());
  EXPECT_FALSE(con.Query("SELECT count(*) FROM t").ok());
  (*db)->config().checkpoint_on_close = false;
}

TEST_F(QuarantineTest, IntegrityCheckNamesTheQuarantinedGroup) {
  BuildCorruptDatabase();
  auto db = Database::Open(path_);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  Connection con(db->get());

  auto r = con.Query("PRAGMA integrity_check");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  bool found_bad_group = false;
  for (idx_t row = 0; row < (*r)->RowCount(); row++) {
    std::string object = (*r)->GetValue(0, row).ToString();
    std::string status = (*r)->GetValue(1, row).ToString();
    if (object.find("table 't' row group") != std::string::npos &&
        status == "corrupt") {
      found_bad_group = true;
    }
  }
  EXPECT_TRUE(found_bad_group);
  (*db)->config().checkpoint_on_close = false;
}

// ---------------------------------------------------------------------------
// PRAGMA integrity_check / resilience_stats on a healthy database
// ---------------------------------------------------------------------------

TEST_F(IntegrityTest, IntegrityCheckCleanDatabaseShape) {
  auto db = Database::Open(path_);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  Connection con(db->get());
  ASSERT_TRUE(con.Query("CREATE TABLE t (a INTEGER, b VARCHAR)").ok());
  ASSERT_TRUE(
      con.Query("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')").ok());
  ASSERT_TRUE((*db)->Checkpoint().ok());

  auto r = con.Query("PRAGMA integrity_check");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ((*r)->ColumnCount(), 3u);
  EXPECT_EQ((*r)->names()[0], "object");
  EXPECT_EQ((*r)->names()[1], "status");
  EXPECT_EQ((*r)->names()[2], "detail");
  ASSERT_GE((*r)->RowCount(), 3u);  // blocks, wal, table summaries
  bool saw_blocks = false, saw_wal = false, saw_table = false;
  for (idx_t row = 0; row < (*r)->RowCount(); row++) {
    std::string object = (*r)->GetValue(0, row).ToString();
    EXPECT_EQ((*r)->GetValue(1, row).ToString(), "ok") << object;
    saw_blocks |= object == "blocks";
    saw_wal |= object == "wal";
    saw_table |= object == "table 't'";
  }
  EXPECT_TRUE(saw_blocks);
  EXPECT_TRUE(saw_wal);
  EXPECT_TRUE(saw_table);

  auto stats = con.Query("PRAGMA resilience_stats");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ((*stats)->RowCount(), 1u);
  ASSERT_EQ((*stats)->ColumnCount(), 14u);
  // The scrub above walked objects and found nothing wrong.
  idx_t scrub_objects_col = 12, scrub_failures_col = 13;
  EXPECT_EQ((*stats)->names()[scrub_objects_col], "scrub_objects");
  EXPECT_GT((*stats)->GetValue(scrub_objects_col, 0).GetBigInt(), 0);
  EXPECT_EQ((*stats)->names()[scrub_failures_col], "scrub_failures");
  EXPECT_EQ((*stats)->GetValue(scrub_failures_col, 0).GetBigInt(), 0);
}

// ---------------------------------------------------------------------------
// WAL: torn tail recovers, mid-stream damage is a hard error
// ---------------------------------------------------------------------------

class WalDamageTest : public IntegrityTest {
 protected:
  // Leaves a database file plus a WAL holding the schema and two
  // committed inserts (no checkpoint on close, so reopen must replay).
  void BuildWalDatabase() {
    auto db = Database::Open(path_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    Connection con(db->get());
    ASSERT_TRUE(con.Query("CREATE TABLE t (a INTEGER)").ok());
    ASSERT_TRUE(con.Query("INSERT INTO t VALUES (1)").ok());
    ASSERT_TRUE(con.Query("INSERT INTO t VALUES (2)").ok());
    (*db)->config().checkpoint_on_close = false;
  }
};

TEST_F(WalDamageTest, TornTailIsTruncatedAndCounted) {
  BuildWalDatabase();
  // Crash mid-append: garbage after the last durable group.
  {
    std::ofstream wal(path_ + ".wal",
                      std::ios::binary | std::ios::app);
    ASSERT_TRUE(wal.is_open());
    const char garbage[] = "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff";
    wal.write(garbage, sizeof(garbage) - 1);
  }
  auto db = Database::Open(path_);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  Connection con(db->get());
  auto r = con.Query("SELECT count(*) FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(), 2);
  auto stats = con.Query("PRAGMA wal_stats");
  ASSERT_TRUE(stats.ok());
  idx_t col = 0;
  for (; col < (*stats)->ColumnCount(); col++) {
    if ((*stats)->names()[col] == "torn_tail_recoveries") break;
  }
  ASSERT_LT(col, (*stats)->ColumnCount());
  EXPECT_EQ((*stats)->GetValue(col, 0).GetBigInt(), 1);
  (*db)->config().checkpoint_on_close = false;
}

TEST_F(WalDamageTest, MidStreamDamageRefusesToDropCommittedData) {
  BuildWalDatabase();
  // Flip a payload byte of the FIRST frame: valid committed frames
  // follow it, so truncating there would silently drop acknowledged
  // commits — replay must fail with kCorruption instead.
  {
    std::fstream wal(path_ + ".wal",
                     std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(wal.is_open());
    uint64_t offset = 16 + 8 + 2;  // header, frame header, payload byte 2
    wal.seekg(static_cast<std::streamoff>(offset));
    char byte;
    wal.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    wal.seekp(static_cast<std::streamoff>(offset));
    wal.write(&byte, 1);
  }
  auto db = Database::Open(path_);
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsCorruption()) << db.status().ToString();
  EXPECT_NE(db.status().message().find("mid-stream"), std::string::npos)
      << db.status().message();
}

// ---------------------------------------------------------------------------
// Memory self-test at open
// ---------------------------------------------------------------------------

TEST_F(IntegrityTest, MemorySelfTestPassesOnHealthyRam) {
  std::vector<uint8_t> scratch(1 << 20);
  DirectMemory mem(scratch.data(), scratch.size());
  EXPECT_TRUE(RunMemorySelfTest(mem).ok());
}

TEST_F(IntegrityTest, MemorySelfTestFailsOnStuckBit) {
  SimulatedDimm dimm(1 << 20);
  MemoryFault fault;
  fault.kind = MemoryFault::Kind::kStuckAtOne;
  fault.word_index = 1234;
  fault.bit = 7;
  dimm.AddFault(fault);
  Status status = RunMemorySelfTest(dimm);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kHardwareFailure)
      << status.ToString();
}

TEST_F(IntegrityTest, VerifyMemoryConfigGatesOpen) {
  DBConfig config;
  config.verify_memory = true;  // healthy host RAM: open must succeed
  auto db = Database::Open(path_, config);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
}

// ---------------------------------------------------------------------------
// Statement timeout
// ---------------------------------------------------------------------------

TEST_F(IntegrityTest, StatementTimeoutInterruptsLongQuery) {
  auto db = Database::Open("");
  ASSERT_TRUE(db.ok());
  Connection con(db->get());
  ASSERT_TRUE(con.Query("CREATE TABLE t (a INTEGER)").ok());
  {
    auto appender = Appender::Create(db->get(), "t");
    ASSERT_TRUE(appender.ok());
    for (int32_t i = 0; i < 20000; i++) {
      (*appender)->Append(i);
      ASSERT_TRUE((*appender)->EndRow().ok());
    }
    ASSERT_TRUE((*appender)->Close().ok());
  }
  ASSERT_TRUE(con.Query("PRAGMA statement_timeout_ms=1").ok());
  auto readback = con.Query("PRAGMA statement_timeout_ms");
  ASSERT_TRUE(readback.ok());
  EXPECT_EQ((*readback)->GetValue(0, 0).GetBigInt(), 1);

  // Quadratic work: cannot finish within 1ms; must stop at a chunk
  // boundary with a clean timeout error.
  auto r = con.Query(
      "SELECT count(*) FROM t t1 CROSS JOIN t t2 WHERE t1.a < t2.a");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInterrupted)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("timeout"), std::string::npos)
      << r.status().message();

  // Disabling the timeout restores normal execution.
  ASSERT_TRUE(con.Query("PRAGMA statement_timeout_ms=0").ok());
  auto ok = con.Query("SELECT count(*) FROM t");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ((*ok)->GetValue(0, 0).GetBigInt(), 20000);
}

}  // namespace
}  // namespace mallard
