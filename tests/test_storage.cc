// Storage layer tests: block manager (checksums, header flip), meta
// chains, buffer manager (spill, quarantine), WAL recovery, checkpoint
// persistence, corruption detection end-to-end.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>

#include "mallard/main/connection.h"
#include "mallard/main/database.h"
#include "mallard/resilience/fault_injector.h"
#include "mallard/storage/block_manager.h"
#include "mallard/storage/buffer_manager.h"
#include "mallard/storage/meta_block.h"

namespace mallard {
namespace {

std::string TempPath(const std::string& tag) {
  return "/tmp/mallard_test_" + tag + "_" + std::to_string(::getpid());
}

void Cleanup(const std::string& path) {
  RemoveFile(path);
  RemoveFile(path + ".wal");
  RemoveFile(path + ".tmp");
}

class BlockManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("blocks");
    Cleanup(path_);
    FaultInjector::Get().Reset();
  }
  void TearDown() override {
    Cleanup(path_);
    FaultInjector::Get().Reset();
  }
  std::string path_;
  ResilienceStats resilience_;
};

TEST_F(BlockManagerTest, CreateWriteReadReopen) {
  bool created = false;
  auto bm = BlockManager::Open(path_, true, &created, &resilience_);
  ASSERT_TRUE(bm.ok());
  EXPECT_TRUE(created);
  block_id_t id = (*bm)->AllocateBlock();
  std::vector<uint8_t> payload(kBlockPayloadSize, 0x5A);
  ASSERT_TRUE((*bm)->WriteBlock(id, payload.data()).ok());
  ASSERT_TRUE((*bm)->WriteHeader(id).ok());
  bm->reset();

  auto reopened = BlockManager::Open(path_, true, &created, &resilience_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_FALSE(created);
  EXPECT_EQ((*reopened)->header().meta_block, id);
  std::vector<uint8_t> read_back(kBlockPayloadSize);
  ASSERT_TRUE((*reopened)->ReadBlock(id, read_back.data()).ok());
  EXPECT_EQ(read_back, payload);
}

TEST_F(BlockManagerTest, ChecksumDetectsOnDiskCorruption) {
  bool created;
  auto bm = BlockManager::Open(path_, true, &created, &resilience_);
  block_id_t id = (*bm)->AllocateBlock();
  std::vector<uint8_t> payload(kBlockPayloadSize, 0x11);
  ASSERT_TRUE((*bm)->WriteBlock(id, payload.data()).ok());
  // Flip one bit directly in the file — silent disk corruption.
  ASSERT_TRUE((*bm)->CorruptBlockOnDisk(id, 123457).ok());
  std::vector<uint8_t> read_back(kBlockPayloadSize);
  Status status = (*bm)->ReadBlock(id, read_back.data());
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
}

TEST_F(BlockManagerTest, ChecksumsOffMissesCorruption) {
  // Control experiment: without checksums the corruption is silent —
  // exactly the failure mode the paper warns about (section 3).
  bool created;
  auto bm = BlockManager::Open(path_, false, &created, &resilience_);
  block_id_t id = (*bm)->AllocateBlock();
  std::vector<uint8_t> payload(kBlockPayloadSize, 0x11);
  ASSERT_TRUE((*bm)->WriteBlock(id, payload.data()).ok());
  ASSERT_TRUE((*bm)->CorruptBlockOnDisk(id, 123457).ok());
  std::vector<uint8_t> read_back(kBlockPayloadSize);
  EXPECT_TRUE((*bm)->ReadBlock(id, read_back.data()).ok());
  EXPECT_NE(read_back, payload);  // silently wrong data
}

TEST_F(BlockManagerTest, InjectedWriteBitFlipCaughtOnRead) {
  bool created;
  auto bm = BlockManager::Open(path_, true, &created, &resilience_);
  block_id_t id = (*bm)->AllocateBlock();
  std::vector<uint8_t> payload(kBlockPayloadSize, 0x33);
  FaultInjector::Get().ArmOnce(FaultSite::kBlockWrite);
  ASSERT_TRUE((*bm)->WriteBlock(id, payload.data()).ok());
  std::vector<uint8_t> read_back(kBlockPayloadSize);
  EXPECT_TRUE((*bm)->ReadBlock(id, read_back.data()).IsCorruption());
}

TEST_F(BlockManagerTest, HeaderFlipSurvivesAlternation) {
  bool created;
  auto bm = BlockManager::Open(path_, true, &created, &resilience_);
  for (int i = 0; i < 5; i++) {
    block_id_t id = (*bm)->AllocateBlock();
    std::vector<uint8_t> payload(kBlockPayloadSize,
                                 static_cast<uint8_t>(i));
    ASSERT_TRUE((*bm)->WriteBlock(id, payload.data()).ok());
    ASSERT_TRUE((*bm)->WriteHeader(id).ok());
  }
  uint64_t final_iteration = (*bm)->header().iteration;
  block_id_t final_meta = (*bm)->header().meta_block;
  bm->reset();
  auto reopened = BlockManager::Open(path_, true, &created, &resilience_);
  EXPECT_EQ((*reopened)->header().iteration, final_iteration);
  EXPECT_EQ((*reopened)->header().meta_block, final_meta);
}

TEST_F(BlockManagerTest, FreeBlockReuse) {
  bool created;
  auto bm = BlockManager::Open(path_, true, &created, &resilience_);
  block_id_t a = (*bm)->AllocateBlock();
  block_id_t b = (*bm)->AllocateBlock();
  (void)b;
  // Declare only `a` live: b becomes reusable.
  (*bm)->SetLiveBlocks({a});
  EXPECT_EQ((*bm)->FreeBlockCount(), 1u);
  block_id_t c = (*bm)->AllocateBlock();
  EXPECT_EQ(c, b);  // reused, file did not grow
}

TEST_F(BlockManagerTest, MetaBlockChainLargePayload) {
  bool created;
  auto bm = BlockManager::Open(path_, true, &created, &resilience_);
  MetaBlockWriter writer(bm->get());
  // Payload spanning several 256KB blocks.
  std::vector<uint8_t> blob(3 * kBlockPayloadSize + 12345);
  for (size_t i = 0; i < blob.size(); i++) {
    blob[i] = static_cast<uint8_t>(i * 31);
  }
  writer.writer().WriteU64(blob.size());
  writer.writer().WriteBytes(blob.data(), blob.size());
  auto head = writer.Flush();
  ASSERT_TRUE(head.ok());
  EXPECT_GE(writer.blocks_used().size(), 4u);

  MetaBlockReader reader(bm->get());
  ASSERT_TRUE(reader.Load(*head).ok());
  uint64_t size;
  ASSERT_TRUE(reader.reader().ReadU64(&size).ok());
  ASSERT_EQ(size, blob.size());
  std::vector<uint8_t> loaded(size);
  ASSERT_TRUE(reader.reader().ReadBytes(loaded.data(), size).ok());
  EXPECT_EQ(loaded, blob);
}

// ---------------------------------------------------------------------------
// Buffer manager
// ---------------------------------------------------------------------------

TEST(BufferManagerTest, AllocatePinUnpin) {
  ResilienceStats resilience;
  BufferManager bm(1 << 20, TempPath("bm1"), &resilience);
  auto handle = bm.Allocate(1000);
  ASSERT_TRUE(handle.ok());
  handle->data()[0] = 42;
  EXPECT_EQ(bm.memory_used(), 1000u);
  auto buffer = handle->buffer();
  handle->Release();
  auto repinned = bm.Pin(buffer);
  ASSERT_TRUE(repinned.ok());
  EXPECT_EQ(repinned->data()[0], 42);
}

TEST(BufferManagerTest, SpillsUnderMemoryPressure) {
  ResilienceStats resilience;
  BufferManager bm(64 * 1024, TempPath("bm2"), &resilience);
  std::vector<std::shared_ptr<ManagedBuffer>> buffers;
  // Allocate 16 x 16KB = 256KB against a 64KB limit.
  for (int i = 0; i < 16; i++) {
    auto handle = bm.Allocate(16 * 1024);
    ASSERT_TRUE(handle.ok());
    std::memset(handle->data(), i, 16 * 1024);
    buffers.push_back(handle->buffer());
    handle->Release();
  }
  auto stats = bm.GetStats();
  EXPECT_GT(stats.spill_count, 0u);
  EXPECT_LE(stats.memory_used, 80 * 1024u);  // near the cap
  // All contents must survive the round trip through the spill file.
  for (int i = 0; i < 16; i++) {
    auto handle = bm.Pin(buffers[i]);
    ASSERT_TRUE(handle.ok());
    EXPECT_EQ(handle->data()[0], static_cast<uint8_t>(i));
    EXPECT_EQ(handle->data()[16 * 1024 - 1], static_cast<uint8_t>(i));
  }
}

TEST(BufferManagerTest, AllocationTestingHealthyMemoryPasses) {
  ResilienceStats resilience;
  BufferManager bm(1 << 20, TempPath("bm3"), &resilience);
  bm.EnableAllocationTesting(true);
  auto handle = bm.Allocate(4096);
  ASSERT_TRUE(handle.ok());
  auto stats = bm.GetStats();
  EXPECT_EQ(stats.alloc_tests_run, 1u);
  EXPECT_EQ(stats.quarantined_allocations, 0u);
  // Buffer must be zeroed after the test patterns.
  for (int i = 0; i < 4096; i++) {
    ASSERT_EQ(handle->data()[i], 0);
  }
}

TEST(BufferManagerTest, QuarantinesSimulatedBadRegions) {
  // The paper's proposal (section 3): test buffers on allocation and
  // avoid broken memory regions.
  ResilienceStats resilience;
  BufferManager bm(1 << 20, TempPath("bm4"), &resilience);
  bm.EnableAllocationTesting(true);
  bm.SetSimulatedBadRegionProbability(0.5, 4);
  int successes = 0;
  for (int i = 0; i < 64; i++) {
    auto handle = bm.Allocate(4096);
    if (handle.ok()) successes++;
  }
  auto stats = bm.GetStats();
  EXPECT_GT(stats.quarantined_allocations, 0u);
  EXPECT_GT(successes, 0);
  EXPECT_GT(stats.quarantined_bytes, 0u);
}

// ---------------------------------------------------------------------------
// Persistence: checkpoint + WAL recovery
// ---------------------------------------------------------------------------

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("persist");
    Cleanup(path_);
    FaultInjector::Get().Reset();
  }
  void TearDown() override {
    Cleanup(path_);
    Cleanup(path_ + "_copy");
    FaultInjector::Get().Reset();
  }
  std::string path_;
};

TEST_F(PersistenceTest, CheckpointAndReopen) {
  {
    auto db = Database::Open(path_);
    ASSERT_TRUE(db.ok());
    Connection con(db->get());
    ASSERT_TRUE(con.Query("CREATE TABLE t (a INTEGER, s VARCHAR)").ok());
    ASSERT_TRUE(
        con.Query("INSERT INTO t VALUES (1, 'one'), (2, 'two')").ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }  // destructor closes + checkpoints
  auto db = Database::Open(path_);
  ASSERT_TRUE(db.ok());
  Connection con(db->get());
  auto r = con.Query("SELECT a, s FROM t ORDER BY a");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ((*r)->RowCount(), 2u);
  EXPECT_EQ((*r)->GetValue(1, 1).GetString(), "two");
}

TEST_F(PersistenceTest, WalReplayAfterSimulatedCrash) {
  {
    auto db = Database::Open(path_);
    Connection con(db->get());
    ASSERT_TRUE(con.Query("CREATE TABLE t (a INTEGER)").ok());
    ASSERT_TRUE(con.Query("INSERT INTO t VALUES (1), (2), (3)").ok());
    ASSERT_TRUE(con.Query("UPDATE t SET a = a * 10 WHERE a > 1").ok());
    ASSERT_TRUE(con.Query("DELETE FROM t WHERE a = 30").ok());
    // Simulate a crash: snapshot db+wal as they are on disk right now
    // (committed data is fsynced in the WAL) and "reboot" from the copy.
    auto copy_file = [](const std::string& from, const std::string& to) {
      std::ifstream src(from, std::ios::binary);
      std::ofstream dst(to, std::ios::binary);
      dst << src.rdbuf();
    };
    copy_file(path_, path_ + "_copy");
    copy_file(path_ + ".wal", path_ + "_copy.wal");
  }
  auto db = Database::Open(path_ + "_copy");
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  Connection con(db->get());
  auto r = con.Query("SELECT a FROM t ORDER BY a");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ((*r)->RowCount(), 2u);
  EXPECT_EQ((*r)->GetValue(0, 0).GetInteger(), 1);
  EXPECT_EQ((*r)->GetValue(0, 1).GetInteger(), 20);
}

TEST_F(PersistenceTest, TornWalTailIsDiscarded) {
  {
    auto db = Database::Open(path_);
    Connection con(db->get());
    ASSERT_TRUE(con.Query("CREATE TABLE t (a INTEGER)").ok());
    ASSERT_TRUE(con.Query("INSERT INTO t VALUES (1)").ok());
    ASSERT_TRUE(con.Query("INSERT INTO t VALUES (2)").ok());
    auto copy_file = [](const std::string& from, const std::string& to) {
      std::ifstream src(from, std::ios::binary);
      std::ofstream dst(to, std::ios::binary);
      dst << src.rdbuf();
    };
    copy_file(path_, path_ + "_copy");
    copy_file(path_ + ".wal", path_ + "_copy.wal");
  }
  // Tear the WAL tail: chop off the last 7 bytes (mid-frame).
  {
    auto file = FileHandle::Open(path_ + "_copy.wal",
                                 FileHandle::kRead | FileHandle::kWrite);
    ASSERT_TRUE(file.ok());
    auto size = (*file)->Size();
    ASSERT_TRUE(size.ok());
    ASSERT_TRUE((*file)->Truncate(*size - 7).ok());
  }
  auto db = Database::Open(path_ + "_copy");
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  Connection con(db->get());
  auto r = con.Query("SELECT count(*) FROM t");
  ASSERT_TRUE(r.ok());
  // The second committed insert was torn: only the prefix survives.
  EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(), 1);
}

TEST_F(PersistenceTest, CorruptedDataBlockDetectedOnReopen) {
  {
    auto db = Database::Open(path_);
    Connection con(db->get());
    ASSERT_TRUE(con.Query("CREATE TABLE t (a INTEGER)").ok());
    std::string sql = "INSERT INTO t VALUES (0)";
    for (int i = 1; i < 2000; i++) sql += ",(" + std::to_string(i) + ")";
    ASSERT_TRUE(con.Query(sql).ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  // Flip one bit in data block 0 (the first checkpoint meta/data block).
  {
    bool created;
    ResilienceStats resilience;
    auto bm = BlockManager::Open(path_, true, &created, &resilience);
    ASSERT_TRUE(bm.ok());
    ASSERT_FALSE(created);
    ASSERT_TRUE((*bm)->CorruptBlockOnDisk(
        (*bm)->header().meta_block, 424242).ok());
  }
  auto db = Database::Open(path_);
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsCorruption()) << db.status().ToString();
}

TEST_F(PersistenceTest, FsyncFailureAbortsCommit) {
  auto db = Database::Open(path_);
  Connection con(db->get());
  ASSERT_TRUE(con.Query("CREATE TABLE t (a INTEGER)").ok());
  FaultInjector::Get().ArmOnce(FaultSite::kFsyncFailure);
  auto r = con.Query("INSERT INTO t VALUES (1)");
  EXPECT_FALSE(r.ok());
  FaultInjector::Get().Reset();
  // The aborted insert must not be visible.
  auto count = con.Query("SELECT count(*) FROM t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ((*count)->GetValue(0, 0).GetBigInt(), 0);
}

TEST_F(PersistenceTest, ViewsSurviveRestart) {
  {
    auto db = Database::Open(path_);
    Connection con(db->get());
    ASSERT_TRUE(con.Query("CREATE TABLE t (a INTEGER)").ok());
    ASSERT_TRUE(con.Query("INSERT INTO t VALUES (1), (2)").ok());
    ASSERT_TRUE(
        con.Query("CREATE VIEW doubled AS SELECT a * 2 AS d FROM t").ok());
  }
  auto db = Database::Open(path_);
  Connection con(db->get());
  auto r = con.Query("SELECT sum(d) FROM doubled");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(), 6);
}

}  // namespace
}  // namespace mallard
