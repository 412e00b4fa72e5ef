// Out-of-core execution tests: buffer-manager eviction/reload, spill
// row stores, grace hash join and external aggregation equivalence
// under tight memory budgets (including skewed keys and parallel
// sinks), cross products and sorts that spill (compressed only at
// eviction), eviction to a reactive budget, spill-I/O fault injection,
// and the memory-limit knobs (PRAGMA readback, buffer_stats,
// MALLARD_MEMORY_LIMIT).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "mallard/execution/spill/spill_row_store.h"
#include "mallard/governor/resource_governor.h"
#include "mallard/main/appender.h"
#include "mallard/main/connection.h"
#include "mallard/main/database.h"
#include "mallard/resilience/fault_injector.h"
#include "mallard/resilience/retry_policy.h"
#include "mallard/storage/buffer_manager.h"

namespace mallard {
namespace {

// ---------------------------------------------------------------------------
// BufferManager eviction layer
// ---------------------------------------------------------------------------

TEST(BufferManagerSpillTest, EvictReloadRoundtrip) {
  ResilienceStats resilience;
  BufferManager buffers(64 * 1024, "", &resilience);
  auto a = buffers.Allocate(48 * 1024);
  ASSERT_TRUE(a.ok());
  std::memset(a->data(), 0xAB, 48 * 1024);
  std::shared_ptr<ManagedBuffer> held = a->buffer();
  a->Release();
  // The second 48KiB allocation exceeds the 64KiB limit and must evict
  // the first (now unpinned) buffer to the temp file.
  auto b = buffers.Allocate(48 * 1024);
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(held->resident());
  BufferManagerStats stats = buffers.GetStats();
  EXPECT_EQ(stats.eviction_count, 1u);
  EXPECT_EQ(stats.spill_count, 1u);
  EXPECT_EQ(stats.spilled_bytes_now, 48u * 1024);
  // Re-pinning reloads the evicted contents intact.
  auto repin = buffers.Pin(held);
  ASSERT_TRUE(repin.ok());
  for (idx_t i = 0; i < 48 * 1024; i += 4097) {
    ASSERT_EQ(repin->data()[i], 0xAB) << "byte " << i;
  }
  stats = buffers.GetStats();
  EXPECT_EQ(stats.unspill_count, 1u);
  EXPECT_EQ(stats.spilled_bytes_now, 0u);
}

TEST(BufferManagerSpillTest, CleanReevictionSkipsWrite) {
  ResilienceStats resilience;
  BufferManager buffers(64 * 1024, "", &resilience);
  auto a = buffers.Allocate(48 * 1024);
  ASSERT_TRUE(a.ok());
  std::memset(a->data(), 0x11, 48 * 1024);
  std::shared_ptr<ManagedBuffer> held_a = a->buffer();
  a->Release();
  auto b = buffers.Allocate(48 * 1024);  // evicts a (dirty: writes)
  ASSERT_TRUE(b.ok());
  std::shared_ptr<ManagedBuffer> held_b = b->buffer();
  b->Release();
  auto repin_a = buffers.Pin(held_a);  // evicts b (dirty: writes), loads a
  ASSERT_TRUE(repin_a.ok());
  repin_a->Release();
  // a was reloaded and not modified: evicting it again reuses the
  // retained spill slot without writing.
  auto repin_b = buffers.Pin(held_b);
  ASSERT_TRUE(repin_b.ok());
  BufferManagerStats stats = buffers.GetStats();
  EXPECT_EQ(stats.eviction_count, 3u);
  EXPECT_EQ(stats.spill_count, 2u);  // clean re-eviction skipped a write
  EXPECT_EQ(stats.unspill_count, 2u);
}

TEST(BufferManagerSpillTest, MarkDirtyForcesRewrite) {
  ResilienceStats resilience;
  BufferManager buffers(64 * 1024, "", &resilience);
  auto a = buffers.Allocate(48 * 1024);
  ASSERT_TRUE(a.ok());
  std::memset(a->data(), 0x22, 48 * 1024);
  std::shared_ptr<ManagedBuffer> held_a = a->buffer();
  a->Release();
  auto b = buffers.Allocate(48 * 1024);  // evicts a
  ASSERT_TRUE(b.ok());
  std::shared_ptr<ManagedBuffer> held_b = b->buffer();
  b->Release();
  {
    auto repin = buffers.Pin(held_a);  // evicts b, reloads a (clean)
    ASSERT_TRUE(repin.ok());
    std::memset(repin->data(), 0x33, 48 * 1024);
    repin->MarkDirty();
  }
  // The dirtied buffer must be rewritten on its next eviction, and the
  // new contents must survive the roundtrip.
  auto repin_b = buffers.Pin(held_b);  // evicts a again (dirty: writes)
  ASSERT_TRUE(repin_b.ok());
  repin_b->Release();
  auto again = buffers.Pin(held_a);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->data()[12345], 0x33);
  EXPECT_EQ(buffers.GetStats().spill_count, 3u);
}

// ---------------------------------------------------------------------------
// SpillRowStore
// ---------------------------------------------------------------------------

TEST(SpillRowStoreTest, RoundtripUnderTinyLimit) {
  // 1000 variable-length rows (~120KiB total) through a 64KiB limit with
  // 16KiB segments: most segments must cycle through the temp file.
  ResilienceStats resilience;
  BufferManager buffers(64 * 1024, "", &resilience);
  SpillRowStore store(&buffers, 16 * 1024);
  std::vector<uint8_t> row;
  for (uint32_t r = 0; r < 1000; r++) {
    uint32_t len = 40 + (r * 37) % 160;
    row.assign(len, static_cast<uint8_t>(r % 251));
    std::memcpy(row.data(), &r, sizeof(r));
    ASSERT_TRUE(store.Append(row.data(), len).ok());
  }
  store.FinishAppend();
  EXPECT_EQ(store.rows(), 1000u);
  EXPECT_GT(buffers.GetStats().spilled_bytes, 0u);

  SpillRowStore::Cursor cursor;
  const uint8_t* data = nullptr;
  uint32_t len = 0;
  for (uint32_t r = 0; r < 1000; r++) {
    ASSERT_TRUE(store.Next(&cursor, &data, &len).ok());
    ASSERT_NE(data, nullptr) << "premature end at row " << r;
    ASSERT_EQ(len, 40 + (r * 37) % 160);
    uint32_t stored;
    std::memcpy(&stored, data, sizeof(stored));
    ASSERT_EQ(stored, r);
    for (uint32_t i = sizeof(stored); i < len; i++) {
      ASSERT_EQ(data[i], static_cast<uint8_t>(r % 251));
    }
  }
  ASSERT_TRUE(store.Next(&cursor, &data, &len).ok());
  EXPECT_EQ(data, nullptr);
}

// ---------------------------------------------------------------------------
// Grace hash join / external aggregation equivalence
// ---------------------------------------------------------------------------

constexpr const char* kVarcharAggQuery =
    "SELECT g, min(s), max(s) FROM t GROUP BY g";

class SpillQueryTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Get().Reset(); }

  void Open(uint64_t memory_limit, int threads = 1) {
    DBConfig config;
    config.memory_limit = memory_limit;
    config.threads = threads;
    Open(config);
  }

  void Open(const DBConfig& config) {
    con_.reset();
    db_.reset();
    auto db = Database::Open(":memory:", config);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    con_ = std::make_unique<Connection>(db_.get());
  }

  // Build side t2: `rows` rows, key k (0..rows-1 unless hot_key >= 0, in
  // which case every key is hot_key) plus a 64-byte pad so the working
  // set dwarfs tight budgets. Probe side t1: 2x rows, keys wrapping
  // around the build domain.
  void PopulateJoin(idx_t rows, int hot_key = -1) {
    ASSERT_TRUE(con_->Query("CREATE TABLE t2 (k INTEGER, pad VARCHAR)").ok());
    ASSERT_TRUE(con_->Query("CREATE TABLE t1 (k INTEGER, v INTEGER)").ok());
    std::string pad(64, 'x');
    auto build = Appender::Create(db_.get(), "t2");
    ASSERT_TRUE(build.ok());
    for (idx_t r = 0; r < rows; r++) {
      int32_t key = hot_key >= 0 ? hot_key : static_cast<int32_t>(r);
      (*build)->Append(key).Append(pad);
      ASSERT_TRUE((*build)->EndRow().ok());
    }
    ASSERT_TRUE((*build)->Close().ok());
    auto probe = Appender::Create(db_.get(), "t1");
    ASSERT_TRUE(probe.ok());
    idx_t probe_rows = hot_key >= 0 ? 8 : rows * 2;
    for (idx_t r = 0; r < probe_rows; r++) {
      // With a hot build key, half the probes hit it and half miss.
      int32_t key = hot_key >= 0
                        ? (r % 2 == 0 ? hot_key : hot_key + 1)
                        : static_cast<int32_t>(r % rows);
      (*probe)->Append(key).Append(static_cast<int32_t>(r));
      ASSERT_TRUE((*probe)->EndRow().ok());
    }
    ASSERT_TRUE((*probe)->Close().ok());
  }

  // t (g, v, s): `rows` rows over `groups` groups. s is a short string,
  // except in row 1, where it is kHugeString bytes — group 1's MAX(s),
  // whose spill row is larger than a spill segment.
  static constexpr idx_t kHugeString = 320 * 1024;
  void PopulateAgg(idx_t rows, idx_t groups) {
    ASSERT_TRUE(
        con_->Query("CREATE TABLE t (g INTEGER, v INTEGER, s VARCHAR)").ok());
    auto app = Appender::Create(db_.get(), "t");
    ASSERT_TRUE(app.ok());
    for (idx_t r = 0; r < rows; r++) {
      std::string s = r == 1 ? std::string(kHugeString, 'z')
                             : "v" + std::to_string(r * 7919 % 100003);
      (*app)->Append(static_cast<int32_t>(r % groups))
          .Append(static_cast<int32_t>(r))
          .Append(s);
      ASSERT_TRUE((*app)->EndRow().ok());
    }
    ASSERT_TRUE((*app)->Close().ok());
  }

  // Cross-product inputs: a (x) has 3 rows; b (k, pad) has `rows` rows
  // of ~70 serialized bytes — k a permutation of 0..rows-1, pad 60 'x's
  // (run-length compressible).
  void PopulateCross(idx_t rows) {
    ASSERT_TRUE(con_->Query("CREATE TABLE a (x INTEGER)").ok());
    ASSERT_TRUE(con_->Query("INSERT INTO a VALUES (1), (2), (3)").ok());
    ASSERT_TRUE(con_->Query("CREATE TABLE b (k INTEGER, pad VARCHAR)").ok());
    std::string pad(60, 'x');
    auto app = Appender::Create(db_.get(), "b");
    ASSERT_TRUE(app.ok());
    for (idx_t r = 0; r < rows; r++) {
      (*app)->Append(static_cast<int32_t>(r * 7919 % rows)).Append(pad);
      ASSERT_TRUE((*app)->EndRow().ok());
    }
    ASSERT_TRUE((*app)->Close().ok());
  }

  // Every row of `sql`'s result as text, in result order.
  std::vector<std::string> Rows(const std::string& sql) {
    auto r = con_->Query(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return {};
    return RowTexts(**r);
  }

  // The cross product of a and b, b on the right (written order).
  std::vector<std::string> CrossRows() {
    EXPECT_TRUE(con_->Query("PRAGMA join_order=syntactic").ok());
    return Rows(
        "SELECT count(*), sum(a.x * b.k), sum(length(b.pad)) FROM a, b");
  }

  // One column of PRAGMA buffer_stats, by name.
  int64_t BufferStat(const std::string& name) {
    auto r = con_->Query("PRAGMA buffer_stats");
    EXPECT_TRUE(r.ok());
    if (!r.ok()) return -1;
    for (idx_t col = 0; col < (*r)->ColumnCount(); col++) {
      if ((*r)->names()[col] == name) return (*r)->GetValue(col, 0).GetBigInt();
    }
    ADD_FAILURE() << "no buffer_stats column " << name;
    return -1;
  }

  // Order-independent digest of a whole result: per-column sums folded
  // with the row count (results under different budgets emit rows in
  // different orders).
  static std::pair<idx_t, double> Digest(const MaterializedQueryResult& r) {
    double sum = 0;
    for (const auto& chunk : r.Chunks()) {
      for (idx_t row = 0; row < chunk->size(); row++) {
        for (idx_t col = 0; col < chunk->ColumnCount(); col++) {
          Value v = chunk->GetValue(col, row);
          switch (v.type()) {
            case TypeId::kInteger:
              sum += v.GetInteger();
              break;
            case TypeId::kBigInt:
              sum += static_cast<double>(v.GetBigInt());
              break;
            case TypeId::kDouble:
              sum += v.GetDouble();
              break;
            default:
              break;
          }
        }
      }
    }
    return {r.RowCount(), sum};
  }

  // Every row of a result as text, in result order.
  static std::vector<std::string> RowTexts(const MaterializedQueryResult& r) {
    std::vector<std::string> rows;
    for (const auto& chunk : r.Chunks()) {
      for (idx_t row = 0; row < chunk->size(); row++) {
        std::string text;
        for (idx_t col = 0; col < chunk->ColumnCount(); col++) {
          text += chunk->GetValue(col, row).ToString() + "|";
        }
        rows.push_back(std::move(text));
      }
    }
    return rows;
  }

  // Every row of a result as text, sorted: results under different
  // budgets emit rows in different orders.
  static std::vector<std::string> SortedRows(const MaterializedQueryResult& r) {
    std::vector<std::string> rows = RowTexts(r);
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  // Runs kVarcharAggQuery; with `expect_spill` it must spill.
  std::vector<std::string> VarcharAggRows(bool expect_spill) {
    int64_t before = SpilledBytes();
    auto r = con_->Query(kVarcharAggQuery);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return {};
    if (expect_spill) {
      EXPECT_GT(SpilledBytes(), before);
    } else {
      EXPECT_EQ(SpilledBytes(), before);
    }
    return SortedRows(**r);
  }

  int64_t SpilledBytes() { return BufferStat("spilled_bytes"); }

  // Declared before db_ so it outlives the database watching it.
  SyntheticAppMonitor host_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Connection> con_;
};

constexpr const char* kJoinQuery =
    "SELECT count(*), sum(t1.v + t2.k) FROM t1 JOIN t2 ON t1.k = t2.k";
constexpr const char* kAggQuery = "SELECT g, count(*), sum(v) FROM t GROUP BY g";

TEST_F(SpillQueryTest, GraceJoinMatchesInMemoryAcrossBudgets) {
  // Build working set: 60k rows x ~90 bytes ~ 5.5MiB.
  const idx_t kRows = 60000;
  std::pair<idx_t, double> expected;
  {
    Open(1ull << 30);  // effectively unlimited
    PopulateJoin(kRows);
    auto r = con_->Query(kJoinQuery);
    ASSERT_TRUE(r.ok());
    expected = Digest(**r);
    EXPECT_EQ(expected.first, 1u);
    EXPECT_EQ(SpilledBytes(), 0);
  }
  {
    Open(16ull << 20);  // ~2x the working set: still no spilling
    PopulateJoin(kRows);
    auto r = con_->Query(kJoinQuery);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(Digest(**r), expected);
    EXPECT_EQ(SpilledBytes(), 0);
  }
  {
    Open(2ull << 20);  // ~1/4 of the working set: grace join must engage
    PopulateJoin(kRows);
    auto r = con_->Query(kJoinQuery);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(Digest(**r), expected);
    EXPECT_GT(SpilledBytes(), 0);
  }
}

TEST_F(SpillQueryTest, GraceJoinSkewedHotKeyRecurses) {
  // Every build row shares one key: one radix partition holds ~3.5MiB
  // against a 1MiB operator budget, and identical hashes mean recursive
  // splits cannot separate them — the recursion cap must kick in and the
  // partition must still probe correctly (4 hits x 40k matches each).
  const idx_t kRows = 40000;
  Open(2ull << 20);
  PopulateJoin(kRows, /*hot_key=*/7);
  // The 8-row probe table is the cheaper build side; keep the written
  // order so the 40k hot-key rows are what the grace join partitions.
  ASSERT_TRUE(con_->Query("PRAGMA join_order=syntactic").ok());
  auto r = con_->Query(kJoinQuery);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(),
            static_cast<int64_t>(4 * kRows));
  EXPECT_GT(SpilledBytes(), 0);
}

TEST_F(SpillQueryTest, ExternalAggMatchesInMemoryAcrossBudgets) {
  // 200k rows over 150k groups: ~10MiB of resident group state.
  const idx_t kRowCount = 200000;
  const idx_t kGroups = 150000;
  std::pair<idx_t, double> expected;
  std::vector<std::string> varchar_expected;
  {
    Open(1ull << 30);
    PopulateAgg(kRowCount, kGroups);
    auto r = con_->Query(kAggQuery);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ((*r)->RowCount(), kGroups);
    expected = Digest(**r);
    EXPECT_EQ(SpilledBytes(), 0);
    varchar_expected = VarcharAggRows(/*expect_spill=*/false);
    ASSERT_EQ(varchar_expected.size(), kGroups);
  }
  {
    Open(24ull << 20);  // ~2x working set
    PopulateAgg(kRowCount, kGroups);
    auto r = con_->Query(kAggQuery);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(Digest(**r), expected);
  }
  {
    Open(2ull << 20);  // ~1/4 working set: external aggregation engages
    PopulateAgg(kRowCount, kGroups);
    auto r = con_->Query(kAggQuery);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(Digest(**r), expected);
    EXPECT_GT(SpilledBytes(), 0);
    // MIN/MAX over VARCHAR spills too, huge extreme included.
    EXPECT_EQ(VarcharAggRows(/*expect_spill=*/true), varchar_expected);
  }
}

TEST_F(SpillQueryTest, ParallelSinksSpillUnderTightBudget) {
  // Morsel-parallel build/sink with 4 workers under a tight budget:
  // workers spill thread-local partitions independently, and the results
  // must still match the serial unlimited run (TSAN covers the races).
  const idx_t kRowCount = 200000;
  const idx_t kGroups = 120000;
  std::pair<idx_t, double> agg_expected;
  std::pair<idx_t, double> join_expected;
  std::vector<std::string> varchar_expected;
  {
    Open(1ull << 30, /*threads=*/1);
    PopulateAgg(kRowCount, kGroups);
    auto r = con_->Query(kAggQuery);
    ASSERT_TRUE(r.ok());
    agg_expected = Digest(**r);
    varchar_expected = VarcharAggRows(/*expect_spill=*/false);
  }
  {
    Open(2ull << 20, /*threads=*/4);
    PopulateAgg(kRowCount, kGroups);
    auto r = con_->Query(kAggQuery);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(Digest(**r), agg_expected);
    // Workers spill VARCHAR extremes independently; the coordinator
    // adopts their runs and merges them with the resident partitions.
    EXPECT_EQ(VarcharAggRows(/*expect_spill=*/true), varchar_expected);
  }
  const idx_t kJoinRows = 60000;
  {
    Open(1ull << 30, /*threads=*/1);
    PopulateJoin(kJoinRows);
    auto r = con_->Query(kJoinQuery);
    ASSERT_TRUE(r.ok());
    join_expected = Digest(**r);
  }
  {
    Open(2ull << 20, /*threads=*/4);
    PopulateJoin(kJoinRows);
    auto r = con_->Query(kJoinQuery);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(Digest(**r), join_expected);
    EXPECT_GT(SpilledBytes(), 0);
  }
}

// ---------------------------------------------------------------------------
// Spill I/O fault injection
// ---------------------------------------------------------------------------

TEST_F(SpillQueryTest, SpillWriteFaultFailsQueryCleanly) {
  const idx_t kRows = 60000;
  Open(2ull << 20);
  PopulateJoin(kRows);
  FaultInjector::Get().Arm(FaultSite::kSpillWrite, 1.0);
  auto r = con_->Query(kJoinQuery);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("spill write fault"),
            std::string::npos)
      << r.status().message();
  FaultInjector::Get().Reset();
  // The engine recovers: the same query succeeds once the fault clears.
  auto retry = con_->Query(kJoinQuery);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ((*retry)->GetValue(0, 0).GetBigInt(),
            static_cast<int64_t>(kRows * 2));
}

TEST_F(SpillQueryTest, SpillReadFaultFailsQueryCleanly) {
  const idx_t kRows = 60000;
  Open(2ull << 20);
  PopulateJoin(kRows);
  // Permanent fault: the read-path retry loop re-reads the spill segment
  // up to its attempt budget, then surfaces a clean error.
  FaultInjector::Get().Arm(FaultSite::kSpillRead, 1.0);
  auto r = con_->Query(kJoinQuery);
  EXPECT_GE(FaultInjector::Get().FireCount(FaultSite::kSpillRead), 3u);
  FaultInjector::Get().Reset();
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("spill read fault"), std::string::npos)
      << r.status().message();
}

TEST_F(SpillQueryTest, SpillReadTransientFaultHealsViaRetry) {
  const idx_t kRows = 60000;
  Open(2ull << 20);
  PopulateJoin(kRows);
  const ResilienceStats& stats = db_->resilience_stats();
  uint64_t retries = stats.io_retries.load();
  uint64_t successes = stats.retry_successes.load();
  // Fail the first spill read, succeed on the re-read: the query must
  // complete with correct results and the retry must be visible in the
  // resilience counters.
  FaultInjector::Get().ArmTransient(FaultSite::kSpillRead, 1);
  auto r = con_->Query(kJoinQuery);
  FaultInjector::Get().Reset();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(),
            static_cast<int64_t>(kRows * 2));
  EXPECT_GE(stats.io_retries.load(), retries + 1);
  EXPECT_GE(stats.retry_successes.load(), successes + 1);
}

// ---------------------------------------------------------------------------
// One spillable intermediate store, compressed only at eviction
// ---------------------------------------------------------------------------

// 130k rows of b serialize to ~9 MiB: over 4x a 2 MiB limit.
constexpr idx_t kCrossRows = 130000;
// Allowed overshoot of the buffer manager's peak over its budget: one
// spill segment, which an appending store's tail or a scan cursor keeps
// pinned while everything else is evictable.
constexpr uint64_t kPeakSlack = SpillRowStore::kDefaultSegmentBytes;

TEST_F(SpillQueryTest, CrossProductRightSideSpillsWithinTheLimit) {
  const uint64_t kLimit = 2ull << 20;
  Open(1ull << 30);
  PopulateCross(kCrossRows);
  std::vector<std::string> expected = CrossRows();
  ASSERT_EQ(expected.size(), 1u);
  EXPECT_EQ(BufferStat("spill_count"), 0);

  Open(kLimit);
  PopulateCross(kCrossRows);
  EXPECT_EQ(CrossRows(), expected);
  EXPECT_GT(BufferStat("spill_count"), 0);
  EXPECT_LE(BufferStat("peak_memory"),
            static_cast<int64_t>(kLimit + kPeakSlack));
}

TEST_F(SpillQueryTest, CrossProductReadsItsRightSideOncePerLeftChunk) {
  // The left input is two scan chunks of 2048 rows whose filter keeps 4
  // rows each. A block-nested loop reloads each spilled right segment at
  // most once per left chunk; a row-at-a-time loop would reload it once
  // per left row (8 times).
  auto populate = [this] {
    PopulateCross(kCrossRows);
    ASSERT_TRUE(con_->Query("CREATE TABLE l (x INTEGER)").ok());
    auto app = Appender::Create(db_.get(), "l");
    ASSERT_TRUE(app.ok());
    for (int32_t x = 0; x < 4096; x++) {
      (*app)->Append(x);
      ASSERT_TRUE((*app)->EndRow().ok());
    }
    ASSERT_TRUE((*app)->Close().ok());
    ASSERT_TRUE(con_->Query("PRAGMA join_order=syntactic").ok());
  };
  const std::string cross =
      "SELECT count(*), sum(l.x * b.k), sum(length(b.pad)) FROM l, b "
      "WHERE l.x % 512 = 0";
  const int64_t kLeftChunks = 2;
  Open(1ull << 30);
  populate();
  std::vector<std::string> expected = Rows(cross);
  ASSERT_EQ(expected.size(), 1u);
  EXPECT_EQ(BufferStat("spill_count"), 0);

  Open(2ull << 20);
  populate();
  EXPECT_EQ(Rows(cross), expected);
  // The right side is written once and never modified, so spill_count
  // counts the right segments that were spilled.
  int64_t spilled_segments = BufferStat("spill_count");
  EXPECT_GT(spilled_segments, 0);
  EXPECT_GT(BufferStat("unspill_count"), 0);
  EXPECT_LE(BufferStat("unspill_count"), kLeftChunks * spilled_segments);
}

TEST_F(SpillQueryTest, CountStarMatchesCountOfAColumnAcrossConfigs) {
  // COUNT(*) scans only the columns the rest of the statement needs;
  // counting a non-NULL column must return the same rows, in memory and
  // spilling, serial and parallel.
  const std::vector<std::pair<std::string, std::string>> shapes = {
      {"SELECT count(*), sum(t1.v) FROM t1 JOIN t2 ON t1.k = t2.k",
       "SELECT count(t2.k), sum(t1.v) FROM t1 JOIN t2 ON t1.k = t2.k"},
      {"SELECT g, count(*), sum(v) FROM t GROUP BY g",
       "SELECT g, count(g), sum(v) FROM t GROUP BY g"},
  };
  std::vector<std::vector<std::string>> expected;
  for (uint64_t limit : {1ull << 30, 2ull << 20}) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE("memory_limit " + std::to_string(limit) + ", threads " +
                   std::to_string(threads));
      Open(limit, threads);
      PopulateJoin(60000);
      PopulateAgg(100000, 50000);
      for (size_t i = 0; i < shapes.size(); i++) {
        auto star = con_->Query(shapes[i].first);
        auto column = con_->Query(shapes[i].second);
        ASSERT_TRUE(star.ok() && column.ok());
        std::vector<std::string> rows = SortedRows(**star);
        EXPECT_EQ(rows, SortedRows(**column)) << shapes[i].first;
        if (expected.size() <= i) expected.push_back(rows);
        EXPECT_EQ(rows, expected[i]) << shapes[i].first;
      }
      if (limit < (1ull << 30)) EXPECT_GT(SpilledBytes(), 0);
    }
  }
}

TEST_F(SpillQueryTest, SpillingSortCompressesOnlyAtEviction) {
  // PRAGMA compression picks the codec of spill writes; the sort's runs
  // reach the buffer manager raw, so its writes are the ones that shrink.
  Open(2ull << 20);
  PopulateCross(kCrossRows);
  const std::string sort = "SELECT k, pad FROM b ORDER BY k";
  ASSERT_TRUE(con_->Query("PRAGMA compression=none").ok());
  std::vector<std::string> expected = Rows(sort);
  ASSERT_EQ(expected.size(), kCrossRows);
  EXPECT_GT(BufferStat("spill_count"), 0);
  EXPECT_EQ(BufferStat("spill_compressed_count"), 0);

  ASSERT_TRUE(con_->Query("PRAGMA compression=light").ok());
  EXPECT_EQ(Rows(sort), expected);
  EXPECT_GT(BufferStat("spill_compressed_count"), 0);
  EXPECT_GT(BufferStat("spill_saved_bytes"), 0);
}

TEST_F(SpillQueryTest, ReactivePressureEvictsIntermediatesToTheBudget) {
  Open(1ull << 30);
  PopulateCross(kCrossRows);
  std::vector<std::string> expected = CrossRows();

  // The host uses 85% of a 64 MiB machine: the effective budget drops to
  // ~1.6 MiB while the memory limit stays at 32 MiB, so only the budget
  // can make the buffer manager evict.
  DBConfig config;
  config.total_memory = 64ull << 20;
  config.memory_limit = 32ull << 20;
  config.threads = 1;
  config.reactive = true;
  Open(config);
  host_.SetMemory(config.total_memory / 100 * 85);
  db_->governor().SetMonitor(&host_);
  const uint64_t budget = db_->governor().EffectiveMemoryBudget();
  ASSERT_LT(budget, 2ull << 20);
  PopulateCross(kCrossRows);
  EXPECT_EQ(CrossRows(), expected);
  EXPECT_GT(BufferStat("spill_count"), 0);
  EXPECT_LE(BufferStat("peak_memory"),
            static_cast<int64_t>(budget + kPeakSlack));
  EXPECT_LE(BufferStat("memory_used"),
            static_cast<int64_t>(budget + kPeakSlack));
}

// ---------------------------------------------------------------------------
// Memory-limit knobs
// ---------------------------------------------------------------------------

TEST_F(SpillQueryTest, PragmaMemoryLimitReadback) {
  Open(1ull << 30);
  ASSERT_TRUE(con_->Query("PRAGMA memory_limit=33554432").ok());
  auto r = con_->Query("PRAGMA memory_limit");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(), 33554432);
}

TEST_F(SpillQueryTest, PragmaBufferStatsShape) {
  // A non-default explicit limit: the default value doubles as the
  // "untouched" sentinel for MALLARD_MEMORY_LIMIT, and this test must
  // hold even when CI pins the environment to a tight budget.
  Open(1ull << 29);
  auto r = con_->Query("PRAGMA buffer_stats");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ((*r)->RowCount(), 1u);
  ASSERT_EQ((*r)->ColumnCount(), 10u);
  EXPECT_EQ((*r)->names()[0], "memory_used");
  EXPECT_EQ((*r)->names()[4], "spilled_bytes");
  EXPECT_EQ((*r)->names()[7], "spilled_bytes_now");
  EXPECT_EQ((*r)->names()[9], "spill_saved_bytes");
  EXPECT_EQ((*r)->GetValue(1, 0).GetBigInt(),
            static_cast<int64_t>(1ull << 29));  // memory_limit
}

TEST(MemoryLimitEnvTest, EnvVarPinsDefaultConfig) {
  ASSERT_EQ(setenv("MALLARD_MEMORY_LIMIT", "33554432", 1), 0);
  {
    auto db = Database::Open(":memory:");
    ASSERT_TRUE(db.ok());
    Connection con(db->get());
    auto r = con.Query("PRAGMA memory_limit");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(), 33554432);
  }
  {
    // An explicit config value wins over the environment.
    DBConfig config;
    config.memory_limit = 123456789;
    auto db = Database::Open(":memory:", config);
    ASSERT_TRUE(db.ok());
    Connection con(db->get());
    auto r = con.Query("PRAGMA memory_limit");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(), 123456789);
  }
  unsetenv("MALLARD_MEMORY_LIMIT");
}

}  // namespace
}  // namespace mallard
