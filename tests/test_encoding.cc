
// Compressed-execution tests: dictionary and FOR/bit-packed column
// segments. Covers encode-on-fill heuristics (including all-NULL,
// single-value and dictionary-overflow segments), forced-encoding
// equivalence (results must be bit-identical between plain and encoded
// runs), updates against encoded segments (transparent decode),
// checkpoint round-trips of encoded segments, serial-vs-parallel scan
// equivalence, PRAGMA storage_stats, and compressed spill writes.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <unistd.h>

#include "mallard/main/appender.h"
#include "mallard/main/connection.h"
#include "mallard/main/database.h"
#include "mallard/storage/buffer_manager.h"
#include "mallard/storage/table/column_segment.h"

namespace mallard {
namespace {

// Rows per finalized row group — segments only encode once a row group
// fills, so the interesting tests append at least this many rows.
constexpr idx_t kGroup = kRowGroupSize;

std::string TempPath(const std::string& tag) {
  return "/tmp/mallard_enc_" + tag + "_" + std::to_string(::getpid());
}

void Cleanup(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  std::remove((path + ".tmp").c_str());
}

// Serializes a whole result set so two runs can be compared for exact
// equality (NULLs included).
std::string ResultImage(const MaterializedQueryResult& result) {
  std::string out;
  for (idx_t row = 0; row < result.RowCount(); row++) {
    for (idx_t col = 0; col < result.ColumnCount(); col++) {
      Value v = result.GetValue(col, row);
      out += v.is_null() ? "NULL" : v.ToString();
      out += '|';
    }
    out += '\n';
  }
  return out;
}

class EncodingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::unsetenv("MALLARD_FORCE_ENCODING");
    auto db = Database::Open(":memory:");
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    connection_ = std::make_unique<Connection>(db_.get());
  }

  void TearDown() override { ::unsetenv("MALLARD_FORCE_ENCODING"); }

  std::unique_ptr<MaterializedQueryResult> Q(const std::string& sql) {
    auto result = connection_->Query(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    if (!result.ok()) return nullptr;
    return std::move(*result);
  }

  // Fills `table` with `rows` rows of (id BIGINT, grp INTEGER,
  // name VARCHAR): grp cycles over `cardinality` values, name is
  // "name_<grp>" — dictionary-friendly on both non-key columns.
  void FillTable(const std::string& table, idx_t rows, idx_t cardinality) {
    auto appender = Appender::Create(db_.get(), table);
    ASSERT_TRUE(appender.ok()) << appender.status().ToString();
    for (idx_t i = 0; i < rows; i++) {
      idx_t g = i % cardinality;
      (*appender)->Append(static_cast<int64_t>(i));
      (*appender)->Append(static_cast<int32_t>(g));
      (*appender)->Append("name_" + std::to_string(g));
      ASSERT_TRUE((*appender)->EndRow().ok());
    }
    ASSERT_TRUE((*appender)->Close().ok());
  }

  uint64_t StorageStat(const std::string& column) {
    auto r = Q("PRAGMA storage_stats");
    EXPECT_NE(r, nullptr);
    if (!r) return 0;
    for (idx_t c = 0; c < r->ColumnCount(); c++) {
      if (r->names()[c] == column) {
        return static_cast<uint64_t>(r->GetValue(c, 0).GetBigInt());
      }
    }
    ADD_FAILURE() << "no storage_stats column " << column;
    return 0;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Connection> connection_;
};

// ---------------------------------------------------------------------------
// Encoding heuristics and storage_stats
// ---------------------------------------------------------------------------

TEST_F(EncodingTest, AutoEncodingKicksInOnFullRowGroups) {
  Q("CREATE TABLE t (id BIGINT, grp INTEGER, name VARCHAR)");
  FillTable("t", 2 * kGroup, 16);
  // Two full row groups, three columns each: the low-cardinality
  // integer and varchar columns must leave plain; dense ascending ids
  // FOR-compress too.
  EXPECT_EQ(StorageStat("segments_total"), 6u);
  EXPECT_GT(StorageStat("segments_dict"), 0u);
  EXPECT_GT(StorageStat("segments_for"), 0u);
  EXPECT_LT(StorageStat("encoded_bytes"), StorageStat("logical_bytes"));
  EXPECT_GT(StorageStat("dict_rows"), 0u);
}

TEST_F(EncodingTest, PartialRowGroupStaysPlain) {
  Q("CREATE TABLE t (id BIGINT, grp INTEGER, name VARCHAR)");
  FillTable("t", 100, 4);
  // Unfinalized tail row groups are never encoded.
  EXPECT_EQ(StorageStat("segments_total"), 3u);
  EXPECT_EQ(StorageStat("segments_plain"), 3u);
}

TEST_F(EncodingTest, DictionaryOverflowFallsBackToPlain) {
  Q("CREATE TABLE t (name VARCHAR)");
  auto appender = Appender::Create(db_.get(), "t");
  ASSERT_TRUE(appender.ok());
  // Every value distinct: 8192 distinct strings exceed the 4096-entry
  // auto-dictionary cap, so the segment must stay plain.
  for (idx_t i = 0; i < kGroup; i++) {
    (*appender)->Append("unique_value_" + std::to_string(i));
    ASSERT_TRUE((*appender)->EndRow().ok());
  }
  ASSERT_TRUE((*appender)->Close().ok());
  EXPECT_EQ(StorageStat("segments_dict"), 0u);
  EXPECT_EQ(StorageStat("segments_plain"), 1u);
  auto r = Q("SELECT count(*) FROM t WHERE name = 'unique_value_4242'");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->GetValue(0, 0).GetBigInt(), 1);
}

TEST_F(EncodingTest, AllNullSegments) {
  Q("CREATE TABLE t (a INTEGER, s VARCHAR)");
  auto appender = Appender::Create(db_.get(), "t");
  ASSERT_TRUE(appender.ok());
  for (idx_t i = 0; i < kGroup; i++) {
    (*appender)->AppendNull();
    (*appender)->AppendNull();
    ASSERT_TRUE((*appender)->EndRow().ok());
  }
  ASSERT_TRUE((*appender)->Close().ok());
  auto r = Q("SELECT count(*), count(a), count(s) FROM t");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->GetValue(0, 0).GetBigInt(), static_cast<int64_t>(kGroup));
  EXPECT_EQ(r->GetValue(1, 0).GetBigInt(), 0);
  EXPECT_EQ(r->GetValue(2, 0).GetBigInt(), 0);
  // Filters against all-NULL encoded segments match nothing.
  r = Q("SELECT count(*) FROM t WHERE a > 0");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->GetValue(0, 0).GetBigInt(), 0);
  r = Q("SELECT count(*) FROM t WHERE s = 'x'");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->GetValue(0, 0).GetBigInt(), 0);
}

TEST_F(EncodingTest, SingleValueSegments) {
  Q("CREATE TABLE t (a BIGINT, s VARCHAR)");
  auto appender = Appender::Create(db_.get(), "t");
  ASSERT_TRUE(appender.ok());
  for (idx_t i = 0; i < kGroup; i++) {
    (*appender)->Append(static_cast<int64_t>(7));
    (*appender)->Append("only");
    ASSERT_TRUE((*appender)->EndRow().ok());
  }
  ASSERT_TRUE((*appender)->Close().ok());
  // A single distinct value packs to 0 bits per row.
  EXPECT_EQ(StorageStat("segments_plain"), 0u);
  auto r = Q("SELECT count(*) FROM t WHERE a = 7 AND s = 'only'");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->GetValue(0, 0).GetBigInt(), static_cast<int64_t>(kGroup));
  r = Q("SELECT count(*) FROM t WHERE a <> 7 OR s < 'only'");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->GetValue(0, 0).GetBigInt(), 0);
}

TEST_F(EncodingTest, ForcedEncodingOverride) {
  ::setenv("MALLARD_FORCE_ENCODING", "plain", 1);
  Q("CREATE TABLE t_plain (grp INTEGER, name VARCHAR)");
  {
    auto appender = Appender::Create(db_.get(), "t_plain");
    ASSERT_TRUE(appender.ok());
    for (idx_t i = 0; i < kGroup; i++) {
      (*appender)->Append(static_cast<int32_t>(i % 8));
      (*appender)->Append("v" + std::to_string(i % 8));
      ASSERT_TRUE((*appender)->EndRow().ok());
    }
    ASSERT_TRUE((*appender)->Close().ok());
  }
  EXPECT_EQ(StorageStat("segments_plain"), 2u);
  ::setenv("MALLARD_FORCE_ENCODING", "dict", 1);
  Q("CREATE TABLE t_dict (grp INTEGER, name VARCHAR)");
  {
    auto appender = Appender::Create(db_.get(), "t_dict");
    ASSERT_TRUE(appender.ok());
    for (idx_t i = 0; i < kGroup; i++) {
      (*appender)->Append(static_cast<int32_t>(i % 8));
      (*appender)->Append("v" + std::to_string(i % 8));
      ASSERT_TRUE((*appender)->EndRow().ok());
    }
    ASSERT_TRUE((*appender)->Close().ok());
  }
  ::unsetenv("MALLARD_FORCE_ENCODING");
  EXPECT_EQ(StorageStat("segments_dict"), 2u);
}

// ---------------------------------------------------------------------------
// Plain vs encoded result equivalence
// ---------------------------------------------------------------------------

TEST_F(EncodingTest, PlainAndEncodedResultsBitIdentical) {
  // Build the same data twice: once forced plain, once auto-encoded.
  ::setenv("MALLARD_FORCE_ENCODING", "plain", 1);
  Q("CREATE TABLE t_plain (id BIGINT, grp INTEGER, name VARCHAR)");
  FillTable("t_plain", kGroup + 500, 97);
  ::unsetenv("MALLARD_FORCE_ENCODING");
  Q("CREATE TABLE t_enc (id BIGINT, grp INTEGER, name VARCHAR)");
  FillTable("t_enc", kGroup + 500, 97);
  ASSERT_GT(StorageStat("segments_dict") + StorageStat("segments_for"), 0u);

  const char* queries[] = {
      "SELECT count(*), sum(id) FROM $T WHERE grp >= 10 AND grp < 40",
      "SELECT count(*) FROM $T WHERE name = 'name_42'",
      "SELECT count(*) FROM $T WHERE name >= 'name_3' AND name < 'name_5'",
      "SELECT count(*) FROM $T WHERE name LIKE 'name_1%'",
      "SELECT name, count(*), sum(id) FROM $T GROUP BY name ORDER BY name",
      "SELECT grp, min(name), max(name) FROM $T GROUP BY grp ORDER BY grp",
      "SELECT id, name FROM $T WHERE id > 8000 ORDER BY name, id",
      "SELECT a.grp, count(*) FROM $T a JOIN $T b ON a.name = b.name "
      "AND a.id = b.id GROUP BY a.grp ORDER BY a.grp",
  };
  for (const char* q : queries) {
    std::string sql(q);
    std::string plain_sql = sql, enc_sql = sql;
    for (std::string::size_type pos;
         (pos = plain_sql.find("$T")) != std::string::npos;) {
      plain_sql.replace(pos, 2, "t_plain");
    }
    for (std::string::size_type pos;
         (pos = enc_sql.find("$T")) != std::string::npos;) {
      enc_sql.replace(pos, 2, "t_enc");
    }
    auto plain = Q(plain_sql);
    auto enc = Q(enc_sql);
    ASSERT_NE(plain, nullptr);
    ASSERT_NE(enc, nullptr);
    EXPECT_EQ(ResultImage(*plain), ResultImage(*enc)) << sql;
  }
}

TEST_F(EncodingTest, SerialAndParallelScansAgree) {
  Q("CREATE TABLE t (id BIGINT, grp INTEGER, name VARCHAR)");
  FillTable("t", 4 * kGroup, 64);
  const char* sql =
      "SELECT grp, count(*), sum(id), min(name), max(name) FROM t "
      "WHERE grp < 48 GROUP BY grp ORDER BY grp";
  Q("PRAGMA threads=1");
  auto serial = Q(sql);
  Q("PRAGMA threads=4");
  auto parallel = Q(sql);
  Q("PRAGMA threads=0");
  ASSERT_NE(serial, nullptr);
  ASSERT_NE(parallel, nullptr);
  EXPECT_EQ(ResultImage(*serial), ResultImage(*parallel));
}

// ---------------------------------------------------------------------------
// Mutating encoded segments
// ---------------------------------------------------------------------------

TEST_F(EncodingTest, UpdateAndDeleteOnEncodedSegments) {
  Q("CREATE TABLE t (id BIGINT, grp INTEGER, name VARCHAR)");
  FillTable("t", kGroup, 32);
  ASSERT_GT(StorageStat("segments_dict") + StorageStat("segments_for"), 0u);
  // Updates write through the encoded segment (transparent decode for
  // pre-images and in-place writes); results must reflect them.
  Q("UPDATE t SET name = 'updated' WHERE grp = 5");
  auto r = Q("SELECT count(*) FROM t WHERE name = 'updated'");
  ASSERT_NE(r, nullptr);
  int64_t updated = r->GetValue(0, 0).GetBigInt();
  EXPECT_EQ(updated, static_cast<int64_t>(kGroup / 32));
  r = Q("SELECT count(*) FROM t WHERE name = 'name_5'");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->GetValue(0, 0).GetBigInt(), 0);
  EXPECT_GT(StorageStat("decode_count"), 0u);
  Q("DELETE FROM t WHERE grp = 6");
  r = Q("SELECT count(*) FROM t");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->GetValue(0, 0).GetBigInt(),
            static_cast<int64_t>(kGroup - kGroup / 32));
}

TEST_F(EncodingTest, RollbackAgainstEncodedSegment) {
  Q("CREATE TABLE t (grp INTEGER, name VARCHAR)");
  auto appender = Appender::Create(db_.get(), "t");
  ASSERT_TRUE(appender.ok());
  for (idx_t i = 0; i < kGroup; i++) {
    (*appender)->Append(static_cast<int32_t>(i % 10));
    (*appender)->Append("s" + std::to_string(i % 10));
    ASSERT_TRUE((*appender)->EndRow().ok());
  }
  ASSERT_TRUE((*appender)->Close().ok());
  ASSERT_TRUE(connection_->BeginTransaction().ok());
  Q("UPDATE t SET name = 'gone' WHERE grp = 3");
  ASSERT_TRUE(connection_->Rollback().ok());
  auto r = Q("SELECT count(*) FROM t WHERE name = 's3'");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->GetValue(0, 0).GetBigInt(), static_cast<int64_t>(kGroup / 10));
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

TEST(EncodingPersistenceTest, EncodedSegmentsSurviveCheckpointReopen) {
  std::string path = TempPath("persist");
  Cleanup(path);
  std::string image;
  {
    auto db = Database::Open(path);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    Connection con(db->get());
    auto s = con.Query("CREATE TABLE t (id BIGINT, grp INTEGER, "
                       "name VARCHAR)");
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    auto appender = Appender::Create(db->get(), "t");
    ASSERT_TRUE(appender.ok());
    for (idx_t i = 0; i < kRowGroupSize + 100; i++) {
      (*appender)->Append(static_cast<int64_t>(i * 3));
      (*appender)->Append(static_cast<int32_t>(i % 21));
      (*appender)->Append("name_" + std::to_string(i % 21));
      ASSERT_TRUE((*appender)->EndRow().ok());
    }
    ASSERT_TRUE((*appender)->Close().ok());
    auto r = con.Query(
        "SELECT grp, count(*), sum(id), min(name) FROM t "
        "WHERE name >= 'name_1' GROUP BY grp ORDER BY grp");
    ASSERT_TRUE(r.ok());
    image = ResultImage(**r);
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  {
    auto db = Database::Open(path);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    Connection con(db->get());
    // The checkpoint wrote encoded segments; the reopened table must
    // still report them (no silent decode on load) and scan the same.
    auto stats = con.Query("PRAGMA storage_stats");
    ASSERT_TRUE(stats.ok());
    int64_t dict = 0, enc_for = 0;
    for (idx_t c = 0; c < (*stats)->ColumnCount(); c++) {
      if ((*stats)->names()[c] == "segments_dict") {
        dict = (*stats)->GetValue(c, 0).GetBigInt();
      }
      if ((*stats)->names()[c] == "segments_for") {
        enc_for = (*stats)->GetValue(c, 0).GetBigInt();
      }
    }
    EXPECT_GT(dict + enc_for, 0);
    auto r = con.Query(
        "SELECT grp, count(*), sum(id), min(name) FROM t "
        "WHERE name >= 'name_1' GROUP BY grp ORDER BY grp");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(image, ResultImage(**r));
    // And the reopened encoded segments accept new writes.
    auto u = con.Query("UPDATE t SET name = 'rewritten' WHERE grp = 2");
    ASSERT_TRUE(u.ok()) << u.status().ToString();
    r = con.Query("SELECT count(*) FROM t WHERE name = 'rewritten'");
    ASSERT_TRUE(r.ok());
    EXPECT_GT((*r)->GetValue(0, 0).GetBigInt(), 0);
  }
  Cleanup(path);
}

// ---------------------------------------------------------------------------
// Compressed spill writes (buffer manager integration)
// ---------------------------------------------------------------------------

TEST(SpillCompressionTest, CompressedSpillRoundtripAndSavedBytes) {
  ResilienceStats resilience;
  BufferManager buffers(64 * 1024, "", &resilience);
  buffers.SetSpillPolicy(
      [] { return SpillPolicy{CompressionLevel::kLight}; });
  auto a = buffers.Allocate(48 * 1024);
  ASSERT_TRUE(a.ok());
  // Highly repetitive contents: RLE must shrink the spill write.
  for (idx_t i = 0; i < 48 * 1024; i++) {
    a->data()[i] = static_cast<uint8_t>(i / 4096);
  }
  std::shared_ptr<ManagedBuffer> held = a->buffer();
  a->Release();
  auto b = buffers.Allocate(48 * 1024);  // forces the eviction
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(held->resident());
  BufferManagerStats stats = buffers.GetStats();
  EXPECT_EQ(stats.spill_compressed_count, 1u);
  EXPECT_GT(stats.spill_saved_bytes, 0u);
  EXPECT_LT(stats.spilled_bytes, 48u * 1024);
  // Reload decompresses transparently and byte-exactly.
  auto repin = buffers.Pin(held);
  ASSERT_TRUE(repin.ok()) << repin.status().ToString();
  for (idx_t i = 0; i < 48 * 1024; i += 1021) {
    ASSERT_EQ(repin->data()[i], static_cast<uint8_t>(i / 4096)) << i;
  }
}

TEST(SpillCompressionTest, IncompressibleSpillStaysRaw) {
  ResilienceStats resilience;
  BufferManager buffers(64 * 1024, "", &resilience);
  buffers.SetSpillPolicy(
      [] { return SpillPolicy{CompressionLevel::kLight}; });
  auto a = buffers.Allocate(48 * 1024);
  ASSERT_TRUE(a.ok());
  // Pseudo-random contents defeat RLE; the spill must keep the raw
  // image rather than growing it.
  uint64_t x = 0x2545F4914F6CDD1Dull;
  for (idx_t i = 0; i < 48 * 1024; i++) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    a->data()[i] = static_cast<uint8_t>(x);
  }
  std::shared_ptr<ManagedBuffer> held = a->buffer();
  a->Release();
  auto b = buffers.Allocate(48 * 1024);
  ASSERT_TRUE(b.ok());
  BufferManagerStats stats = buffers.GetStats();
  EXPECT_EQ(stats.spill_compressed_count, 0u);
  EXPECT_EQ(stats.spilled_bytes, 48u * 1024);
  auto repin = buffers.Pin(held);
  ASSERT_TRUE(repin.ok());
  x = 0x2545F4914F6CDD1Dull;
  for (idx_t i = 0; i < 48 * 1024; i++) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    ASSERT_EQ(repin->data()[i], static_cast<uint8_t>(x)) << i;
  }
}

}  // namespace
}  // namespace mallard
