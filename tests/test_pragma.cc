// PRAGMA surface tests: every PRAGMA name through one table (no-value
// readback leaves state alone, values are validated the same way
// everywhere), the golden column lists of the *_stats PRAGMAs, and the
// per-Database scoping of the resilience and encoding counters.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "mallard/main/appender.h"
#include "mallard/main/connection.h"
#include "mallard/main/database.h"
#include "mallard/resilience/fault_injector.h"

namespace mallard {
namespace {

std::string TempPath(const std::string& tag) {
  return "/tmp/mallard_test_pragma_" + tag + "_" +
         std::to_string(::getpid());
}

void Cleanup(const std::string& path) {
  RemoveFile(path);
  RemoveFile(path + ".wal");
  RemoveFile(path + ".tmp");
}

// Readback of a setting PRAGMA as text, or the error text.
std::string Read(Connection* con, const std::string& pragma) {
  auto r = con->Query("PRAGMA " + pragma);
  if (!r.ok()) return "error: " + r.status().ToString();
  EXPECT_EQ((*r)->RowCount(), 1u) << pragma;
  EXPECT_EQ((*r)->ColumnCount(), 1u) << pragma;
  EXPECT_EQ((*r)->names()[0], pragma);
  return (*r)->GetValue(0, 0).ToString();
}

bool IsInvalidArgument(const Status& status) {
  return status.code() == StatusCode::kInvalidArgument;
}

Status Set(Connection* con, const std::string& pragma,
           const std::string& value) {
  return con->Query("PRAGMA " + pragma + "='" + value + "'").status();
}

class PragmaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("db");
    Cleanup(path_);
    auto db = Database::Open(path_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    con_ = std::make_unique<Connection>(db_.get());
  }
  void TearDown() override {
    con_.reset();
    db_.reset();
    Cleanup(path_);
  }

  std::string path_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Connection> con_;
};

// One row per settable PRAGMA: a value it accepts, what it then reads
// back, and a value it must reject.
struct Setting {
  const char* name;
  const char* valid;
  const char* readback;
  std::vector<const char*> invalid;
  bool boolean = false;
};

const std::vector<Setting>& Settings() {
  static const std::vector<Setting> settings = {
      {"memory_limit", "33554432", "33554432", {"4MB", "-1", "0"}},
      {"threads", "3", "3", {"65", "-1", "two", "3x"}},
      {"priority", "HIGH", "high", {"urgent", "1"}},
      {"statement_timeout_ms", "250", "250", {"-5", "1s"}},
      {"admission_limit", "3", "3", {"-1", "many"}},
      {"admission_queue_depth", "5", "5", {"-1", "5.5"}},
      {"admission_timeout_ms", "250", "250", {"0", "99999999999999999999"}},
      {"compression", "Light", "light", {"max", "lz"}},
      {"wal_commit_mode", "ASYNC", "async", {"eventually"}},
      {"join_order", "SYNTACTIC", "syntactic", {"greedy", "1"}},
      {"plan_cache", "off", "false", {"yes", "2"}, true},
      {"reactive", "on", "true", {"yes", "enabled"}, true},
      {"memtest_on_allocation", "on", "true", {"yes", "-1"}, true},
      {"salvage_mode", "on", "true", {"yes", "2"}, true},
  };
  return settings;
}

// The eight counter PRAGMAs: names, order and BIGINT type are what
// mallard_bench reads, so they are pinned here column by column.
const std::map<std::string, std::vector<std::string>>& StatsColumns() {
  static const std::map<std::string, std::vector<std::string>> columns = {
      {"buffer_stats",
       {"memory_used", "memory_limit", "peak_memory", "spill_count",
        "spilled_bytes", "unspill_count", "eviction_count",
        "spilled_bytes_now", "spill_compressed_count", "spill_saved_bytes"}},
      {"storage_stats",
       {"segments_total", "segments_plain", "segments_dict", "segments_for",
        "logical_bytes", "encoded_bytes", "dict_entries", "dict_rows",
        "encode_count", "decode_count", "code_filter_windows",
        "zonemap_skips"}},
      {"scheduler_stats",
       {"tasks_executed", "runs", "active_queries", "pool_size"}},
      {"admission_stats",
       {"admitted", "queued", "shed", "timeouts", "active", "waiting"}},
      {"plan_cache_stats",
       {"hits", "misses", "evictions", "invalidations", "busy_skips",
        "uncacheable", "entries"}},
      {"wal_stats",
       {"commits", "fsyncs", "flushes", "group_commits", "max_group",
        "async_acks", "flush_errors", "bytes_written", "pending_bytes",
        "torn_tail_recoveries"}},
      {"checkpoint_stats",
       {"checkpoints", "groups_written", "groups_reused", "blocks_written"}},
      {"resilience_stats",
       {"io_attempts", "io_retries", "retry_successes", "retry_exhausted",
        "backoff_waits", "backoff_micros", "block_checksum_failures",
        "spill_checksum_failures", "quarantined_row_groups",
        "salvage_skipped_groups", "salvage_skipped_rows", "scrub_runs",
        "scrub_objects", "scrub_failures"}},
  };
  return columns;
}

TEST_F(PragmaTest, EveryNameAnswersWithoutAValue) {
  std::vector<std::string> names = {"integrity_check"};
  for (const Setting& s : Settings()) names.push_back(s.name);
  for (const auto& [name, columns] : StatsColumns()) names.push_back(name);
  ASSERT_EQ(names.size(), 23u);
  for (const std::string& name : names) {
    auto r = con_->Query("PRAGMA " + name);
    ASSERT_TRUE(r.ok()) << name << ": " << r.status().ToString();
    EXPECT_GE((*r)->RowCount(), 1u) << name;
    EXPECT_NE((*r)->names()[0], "ok") << name << " changed state";
  }
  EXPECT_FALSE(con_->Query("PRAGMA no_such_pragma").ok());
}

TEST_F(PragmaTest, BareSettingReadsBackWithoutChangingIt) {
  for (const Setting& s : Settings()) {
    SCOPED_TRACE(s.name);
    std::string before = Read(con_.get(), s.name);
    EXPECT_EQ(before.rfind("error", 0), std::string::npos) << before;
    EXPECT_EQ(Read(con_.get(), s.name), before);
    ASSERT_TRUE(Set(con_.get(), s.name, s.valid).ok());
    EXPECT_EQ(Read(con_.get(), s.name), s.readback);
    // A second bare read still sees the value just set.
    EXPECT_EQ(Read(con_.get(), s.name), s.readback);
  }
}

TEST_F(PragmaTest, InvalidValuesAreRejectedAndLeaveTheSettingAlone) {
  for (const Setting& s : Settings()) {
    SCOPED_TRACE(s.name);
    std::string before = Read(con_.get(), s.name);
    for (const char* value : s.invalid) {
      SCOPED_TRACE(value);
      Status status = Set(con_.get(), s.name, value);
      EXPECT_TRUE(IsInvalidArgument(status)) << status.ToString();
      EXPECT_NE(status.message().find(s.name), std::string::npos)
          << status.message();
      EXPECT_EQ(Read(con_.get(), s.name), before);
    }
  }
}

TEST_F(PragmaTest, BooleansShareOneVocabulary) {
  const std::vector<std::pair<const char*, const char*>> spellings = {
      {"on", "true"},   {"OFF", "false"}, {"True", "true"},
      {"false", "false"}, {"1", "true"},  {"0", "false"},
      {"oN", "true"},   {"FALSE", "false"}};
  for (const Setting& s : Settings()) {
    if (!s.boolean) continue;
    SCOPED_TRACE(s.name);
    for (const auto& [value, readback] : spellings) {
      ASSERT_TRUE(Set(con_.get(), s.name, value).ok()) << value;
      EXPECT_EQ(Read(con_.get(), s.name), readback) << value;
    }
  }
}

TEST_F(PragmaTest, BarePlanCacheKeepsTheSharedCache) {
  ASSERT_TRUE(con_->Query("CREATE TABLE t (a INTEGER)").ok());
  ASSERT_TRUE(con_->Query("SELECT count(*) FROM t WHERE a = 1").ok());
  idx_t cached = con_->PlanCacheSize();
  ASSERT_GT(cached, 0u);
  EXPECT_EQ(Read(con_.get(), "plan_cache"), "true");
  EXPECT_EQ(con_->PlanCacheSize(), cached);
  ASSERT_TRUE(con_->Query("PRAGMA plan_cache=off").ok());
  EXPECT_EQ(con_->PlanCacheSize(), 0u);
}

TEST_F(PragmaTest, JoinOrderIsPartOfThePlanCacheKey) {
  ASSERT_TRUE(con_->Query("CREATE TABLE a (k INTEGER)").ok());
  ASSERT_TRUE(con_->Query("CREATE TABLE b (k INTEGER)").ok());
  ASSERT_TRUE(con_->Query("INSERT INTO a VALUES (1), (2), (3)").ok());
  ASSERT_TRUE(con_->Query("INSERT INTO b VALUES (2), (3), (4)").ok());
  Connection other(db_.get());
  ASSERT_TRUE(Set(&other, "join_order", "syntactic").ok());
  auto stats = [&] {
    auto r = con_->Query("PRAGMA plan_cache_stats");
    return std::make_pair((*r)->GetValue(0, 0).GetBigInt(),   // hits
                          (*r)->GetValue(1, 0).GetBigInt());  // misses
  };
  const std::string sql =
      "SELECT count(*) FROM a JOIN b ON a.k = b.k WHERE a.k > 1";
  auto before = stats();
  auto r = con_->Query(sql);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(), 2);
  // The same text under the other setting misses and plans its own.
  r = other.Query(sql);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(), 2);
  auto after = stats();
  EXPECT_EQ(after.first, before.first);
  EXPECT_EQ(after.second, before.second + 2);
  // Each setting then hits its own entry.
  ASSERT_TRUE(con_->Query(sql).ok());
  ASSERT_TRUE(other.Query(sql).ok());
  EXPECT_EQ(stats().first, before.first + 2);
}

TEST_F(PragmaTest, MemoryLimitRejectsUnitsAndNegatives) {
  ASSERT_TRUE(con_->Query("PRAGMA memory_limit=16777216").ok());
  for (const char* sql : {"PRAGMA memory_limit='4MB'",
                          "PRAGMA memory_limit('4MB')",
                          "PRAGMA memory_limit='-1'"}) {
    Status status = con_->Query(sql).status();
    EXPECT_TRUE(IsInvalidArgument(status)) << sql << ": "
                                            << status.ToString();
    EXPECT_NE(status.message().find("memory_limit"), std::string::npos);
  }
  EXPECT_EQ(Read(con_.get(), "memory_limit"), "16777216");
}

TEST_F(PragmaTest, StatsPragmasHaveGoldenBigIntColumns) {
  for (const auto& [pragma, expected] : StatsColumns()) {
    SCOPED_TRACE(pragma);
    // A value on a read-only PRAGMA is ignored, so both forms agree.
    for (const std::string& sql :
         {"PRAGMA " + pragma, "PRAGMA " + pragma + "=1"}) {
      auto r = con_->Query(sql);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_EQ((*r)->RowCount(), 1u);
      EXPECT_EQ((*r)->names(), expected);
      for (TypeId type : (*r)->types()) EXPECT_EQ(type, TypeId::kBigInt);
    }
  }
}

// ---------------------------------------------------------------------------
// Two Databases in one process keep independent counters
// ---------------------------------------------------------------------------

std::map<std::string, int64_t> Counters(Connection* con,
                                        const std::string& pragma) {
  auto r = con->Query("PRAGMA " + pragma);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  std::map<std::string, int64_t> counters;
  if (!r.ok()) return counters;
  for (idx_t c = 0; c < (*r)->ColumnCount(); c++) {
    counters[(*r)->names()[c]] = (*r)->GetValue(c, 0).GetBigInt();
  }
  return counters;
}

TEST(PragmaScopeTest, TwoDatabasesKeepIndependentCounters) {
  FaultInjector::Get().Reset();
  std::string path_a = TempPath("a");
  Cleanup(path_a);

  auto b = Database::Open(":memory:");
  ASSERT_TRUE(b.ok());
  Connection con_b(b->get());
  ASSERT_TRUE(con_b.Query("CREATE TABLE u (x INTEGER)").ok());
  ASSERT_TRUE(con_b.Query("INSERT INTO u VALUES (1), (2), (3)").ok());
  auto resilience_b = Counters(&con_b, "resilience_stats");
  auto storage_b = Counters(&con_b, "storage_stats");

  // Database A: a checkpointed table (segment encodes), then one data
  // block flipped on disk.
  {
    auto a = Database::Open(path_a);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    Connection con(a->get());
    ASSERT_TRUE(con.Query("CREATE TABLE t (k INTEGER, s VARCHAR)").ok());
    auto appender = Appender::Create(a->get(), "t");
    ASSERT_TRUE(appender.ok());
    for (int32_t i = 0; i < 5000; i++) {
      (*appender)->Append(i % 7).Append(std::string(i % 2 ? "odd" : "even"));
      ASSERT_TRUE((*appender)->EndRow().ok());
    }
    ASSERT_TRUE((*appender)->Close().ok());
    ASSERT_TRUE((*a)->Checkpoint().ok());
    const char* forced = std::getenv("MALLARD_FORCE_ENCODING");
    if (forced == nullptr || std::string(forced) != "plain") {
      EXPECT_GT(Counters(&con, "storage_stats")["encode_count"], 0);
    }
    (*a)->config().checkpoint_on_close = false;
    BlockManager* blocks = (*a)->blocks();
    block_id_t catalog_head = blocks->header().meta_block;
    for (block_id_t id : blocks->LiveBlocks()) {
      if (id == catalog_head) continue;
      ASSERT_TRUE(blocks->CorruptBlockOnDisk(id, 777).ok());
      break;
    }
  }

  // Reopening A retries a transient read, fails the damaged block's
  // checksum and quarantines its group; a salvage scan skips it.
  FaultInjector::Get().ArmTransient(FaultSite::kBlockRead, 1);
  auto a = Database::Open(path_a);
  FaultInjector::Get().Reset();
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  Connection con_a(a->get());
  ASSERT_TRUE(con_a.Query("PRAGMA salvage_mode=on").ok());
  ASSERT_TRUE(con_a.Query("SELECT count(*) FROM t").ok());
  auto resilience_a = Counters(&con_a, "resilience_stats");
  EXPECT_GE(resilience_a["io_retries"], 1);
  EXPECT_GE(resilience_a["block_checksum_failures"], 1);
  EXPECT_EQ(resilience_a["quarantined_row_groups"], 1);
  EXPECT_EQ(resilience_a["salvage_skipped_groups"], 1);
  EXPECT_GT(resilience_a["salvage_skipped_rows"], 0);

  EXPECT_EQ(Counters(&con_b, "resilience_stats"), resilience_b);
  EXPECT_EQ(Counters(&con_b, "storage_stats"), storage_b);

  (*a)->config().checkpoint_on_close = false;
  a->reset();
  Cleanup(path_a);
}

}  // namespace
}  // namespace mallard
