// Tests for the vectorized hash-table subsystem behind PhysicalHashJoin
// and PhysicalHashAggregate: NULL-key semantics (NULL never matches a
// join condition, NULL = NULL is its own GROUP BY group), forced hash
// collisions via tiny directory/capacity hints, group counts past one
// vector (multi-vector emission), empty build sides, duplicate build
// keys, and all supported join types.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "mallard/execution/aggregate_hashtable.h"
#include "mallard/execution/join_hashtable.h"
#include "mallard/main/connection.h"
#include "mallard/main/database.h"
#include "mallard/main/prepared_statement.h"
#include "mallard/storage/buffer_manager.h"
#include "mallard/vector/vector_hash.h"

namespace mallard {
namespace {

// --- JoinHashTable unit tests ----------------------------------------------

class JoinHashTableTest : public ::testing::Test {
 protected:
  JoinHashTableTest() : buffers_(1ull << 30, "", &resilience_) {
    context_.buffers = &buffers_;
  }

  ResilienceStats resilience_;
  BufferManager buffers_;
  ExecutionContext context_;
};

TEST_F(JoinHashTableTest, DuplicateKeysChainInBuildOrder) {
  JoinHashTable table({TypeId::kBigInt}, {TypeId::kBigInt});
  DataChunk keys, payload;
  keys.Initialize({TypeId::kBigInt});
  payload.Initialize({TypeId::kBigInt});
  // Three batches; key 7 appears twice per batch with distinct payloads.
  for (int batch = 0; batch < 3; batch++) {
    for (idx_t r = 0; r < 4; r++) {
      keys.column(0).data<int64_t>()[r] = (r % 2 == 0) ? 7 : 100 + r;
      payload.column(0).data<int64_t>()[r] = batch * 10 + r;
    }
    keys.SetCardinality(4);
    payload.SetCardinality(4);
    ASSERT_TRUE(table.Append(&context_, keys, payload, 4).ok());
  }
  table.Finalize();
  EXPECT_EQ(table.Count(), 12u);

  DataChunk probe;
  probe.Initialize({TypeId::kBigInt});
  probe.column(0).data<int64_t>()[0] = 7;
  probe.SetCardinality(1);
  uint64_t hashes[1], heads[1];
  table.ProbeHeads(probe, 1, hashes, heads);
  ASSERT_NE(heads[0], JoinHashTable::kNullRef);

  DataChunk out;
  out.Initialize({TypeId::kBigInt});
  std::vector<int64_t> matched_payloads;
  uint64_t ref = table.FirstMatch(heads[0], probe, 0, hashes[0]);
  while (ref != JoinHashTable::kNullRef) {
    table.DecodePayload(ref, &out, 0, 0);
    matched_payloads.push_back(out.column(0).data<int64_t>()[0]);
    ref = table.NextMatch(ref, probe, 0, hashes[0]);
  }
  // Key 7 was built with payloads 0,2,10,12,20,22 — chain preserves
  // build order.
  EXPECT_EQ(matched_payloads,
            (std::vector<int64_t>{0, 2, 10, 12, 20, 22}));
}

TEST_F(JoinHashTableTest, TinyDirectoryForcesCollisionChains) {
  // A 2-slot directory: every key collides with half the others, so
  // probe correctness must come from hash+key comparison, not slots.
  JoinHashTable table({TypeId::kInteger}, {TypeId::kInteger},
                      /*directory_size_hint=*/2);
  DataChunk keys, payload;
  keys.Initialize({TypeId::kInteger});
  payload.Initialize({TypeId::kInteger});
  const idx_t n = 500;
  idx_t filled = 0;
  while (filled < n) {
    idx_t batch = std::min<idx_t>(kVectorSize, n - filled);
    for (idx_t r = 0; r < batch; r++) {
      keys.column(0).data<int32_t>()[r] = static_cast<int32_t>(filled + r);
      payload.column(0).data<int32_t>()[r] =
          static_cast<int32_t>((filled + r) * 3);
    }
    keys.SetCardinality(batch);
    payload.SetCardinality(batch);
    ASSERT_TRUE(table.Append(&context_, keys, payload, batch).ok());
    filled += batch;
  }
  table.Finalize();
  EXPECT_EQ(table.DirectoryCapacity(), 2u);

  DataChunk probe;
  probe.Initialize({TypeId::kInteger});
  for (idx_t r = 0; r < n; r++) {
    probe.column(0).data<int32_t>()[r % kVectorSize] =
        static_cast<int32_t>(r);
    if ((r + 1) % kVectorSize == 0 || r + 1 == n) {
      idx_t count = (r % kVectorSize) + 1;
      probe.SetCardinality(count);
      std::vector<uint64_t> hashes(count), heads(count);
      table.ProbeHeads(probe, count, hashes.data(), heads.data());
      DataChunk out;
      out.Initialize({TypeId::kInteger});
      for (idx_t i = 0; i < count; i++) {
        uint64_t ref = table.FirstMatch(heads[i], probe, i, hashes[i]);
        ASSERT_NE(ref, JoinHashTable::kNullRef) << "probe row " << i;
        table.DecodePayload(ref, &out, 0, 0);
        EXPECT_EQ(out.column(0).data<int32_t>()[0],
                  probe.column(0).data<int32_t>()[i] * 3);
        // Unique build keys: exactly one match each.
        EXPECT_EQ(table.NextMatch(ref, probe, i, hashes[i]),
                  JoinHashTable::kNullRef);
      }
    }
  }
}

TEST_F(JoinHashTableTest, NullKeysSkippedOnBuildAndProbe) {
  JoinHashTable table({TypeId::kInteger}, {TypeId::kInteger});
  DataChunk keys, payload;
  keys.Initialize({TypeId::kInteger});
  payload.Initialize({TypeId::kInteger});
  keys.column(0).data<int32_t>()[0] = 1;
  keys.column(0).validity().SetInvalid(1);  // NULL build key: dropped
  keys.column(0).data<int32_t>()[2] = 3;
  for (idx_t r = 0; r < 3; r++) payload.column(0).data<int32_t>()[r] = r;
  keys.SetCardinality(3);
  payload.SetCardinality(3);
  ASSERT_TRUE(table.Append(&context_, keys, payload, 3).ok());
  table.Finalize();
  EXPECT_EQ(table.Count(), 2u);  // NULL-key row never stored

  DataChunk probe;
  probe.Initialize({TypeId::kInteger});
  probe.column(0).data<int32_t>()[0] = 1;
  probe.column(0).validity().SetInvalid(1);  // NULL probe: no match
  probe.SetCardinality(2);
  uint64_t hashes[2], heads[2];
  table.ProbeHeads(probe, 2, hashes, heads);
  EXPECT_NE(heads[0], JoinHashTable::kNullRef);
  EXPECT_EQ(heads[1], JoinHashTable::kNullRef);
}

TEST_F(JoinHashTableTest, EmptyBuildSideMatchesNothing) {
  JoinHashTable table({TypeId::kBigInt}, {TypeId::kBigInt});
  table.Finalize();
  EXPECT_EQ(table.Count(), 0u);
  DataChunk probe;
  probe.Initialize({TypeId::kBigInt});
  probe.column(0).data<int64_t>()[0] = 42;
  probe.SetCardinality(1);
  uint64_t hashes[1], heads[1];
  table.ProbeHeads(probe, 1, hashes, heads);
  EXPECT_EQ(heads[0], JoinHashTable::kNullRef);
}

TEST_F(JoinHashTableTest, MultiColumnVarcharKeys) {
  JoinHashTable table({TypeId::kVarchar, TypeId::kInteger},
                      {TypeId::kInteger});
  DataChunk keys, payload;
  keys.Initialize({TypeId::kVarchar, TypeId::kInteger});
  payload.Initialize({TypeId::kInteger});
  const char* names[] = {"alpha", "beta", "alpha"};
  int32_t nums[] = {1, 1, 2};
  for (idx_t r = 0; r < 3; r++) {
    keys.column(0).SetString(r, names[r], 5 - (r == 1 ? 1 : 0));
    keys.column(1).data<int32_t>()[r] = nums[r];
    payload.column(0).data<int32_t>()[r] = static_cast<int32_t>(r);
  }
  keys.SetCardinality(3);
  payload.SetCardinality(3);
  ASSERT_TRUE(table.Append(&context_, keys, payload, 3).ok());
  table.Finalize();

  // ("alpha", 2) must match row 2 only — not ("alpha", 1).
  DataChunk probe;
  probe.Initialize({TypeId::kVarchar, TypeId::kInteger});
  probe.column(0).SetString(0, "alpha", 5);
  probe.column(1).data<int32_t>()[0] = 2;
  probe.SetCardinality(1);
  uint64_t hashes[1], heads[1];
  table.ProbeHeads(probe, 1, hashes, heads);
  uint64_t ref = table.FirstMatch(heads[0], probe, 0, hashes[0]);
  ASSERT_NE(ref, JoinHashTable::kNullRef);
  DataChunk out;
  out.Initialize({TypeId::kInteger});
  table.DecodePayload(ref, &out, 0, 0);
  EXPECT_EQ(out.column(0).data<int32_t>()[0], 2);
  EXPECT_EQ(table.NextMatch(ref, probe, 0, hashes[0]),
            JoinHashTable::kNullRef);
}

// --- AggregateHashTable unit tests -----------------------------------------

TEST(AggregateHashTableTest, TinyCapacityForcesProbingAndResize) {
  AggregateHashTable table({TypeId::kBigInt}, /*aggregates=*/{},
                           /*initial_capacity=*/2);
  DataChunk groups;
  groups.Initialize({TypeId::kBigInt});
  std::vector<idx_t> ids(kVectorSize);
  std::map<int64_t, idx_t> expected;
  for (int pass = 0; pass < 2; pass++) {
    for (idx_t r = 0; r < 1000; r++) {
      groups.column(0).data<int64_t>()[r] = static_cast<int64_t>(r % 350);
    }
    groups.SetCardinality(1000);
    table.FindOrCreateGroups(groups, 1000, ids.data());
    for (idx_t r = 0; r < 1000; r++) {
      int64_t key = static_cast<int64_t>(r % 350);
      auto it = expected.find(key);
      if (it == expected.end()) {
        expected.emplace(key, ids[r]);
      } else {
        EXPECT_EQ(it->second, ids[r]) << "key " << key;
      }
    }
  }
  EXPECT_EQ(table.GroupCount(), 350u);
  EXPECT_GE(table.Capacity(), 700u);  // resized well past the 2 we started at
}

TEST(AggregateHashTableTest, NullKeyIsItsOwnGroup) {
  AggregateHashTable table({TypeId::kInteger}, {});
  DataChunk groups;
  groups.Initialize({TypeId::kInteger});
  groups.column(0).data<int32_t>()[0] = 5;
  groups.column(0).validity().SetInvalid(1);
  groups.column(0).validity().SetInvalid(2);  // NULL = NULL: same group
  groups.column(0).data<int32_t>()[3] = 5;
  groups.SetCardinality(4);
  idx_t ids[4];
  table.FindOrCreateGroups(groups, 4, ids);
  EXPECT_EQ(ids[0], ids[3]);
  EXPECT_EQ(ids[1], ids[2]);
  EXPECT_NE(ids[0], ids[1]);
  EXPECT_EQ(table.GroupCount(), 2u);
}

TEST(AggregateHashTableTest, ManyGroupsEmitAcrossVectors) {
  const idx_t kGroups = 12000;  // > 5 vectors of group keys
  AggregateHashTable table({TypeId::kBigInt}, {});
  DataChunk groups;
  groups.Initialize({TypeId::kBigInt});
  std::vector<idx_t> ids(kVectorSize);
  idx_t next = 0;
  while (next < kGroups) {
    idx_t n = std::min<idx_t>(kVectorSize, kGroups - next);
    for (idx_t r = 0; r < n; r++) {
      groups.column(0).data<int64_t>()[r] = static_cast<int64_t>(next + r);
    }
    groups.SetCardinality(n);
    table.FindOrCreateGroups(groups, n, ids.data());
    for (idx_t r = 0; r < n; r++) EXPECT_EQ(ids[r], next + r);
    next += n;
  }
  EXPECT_EQ(table.GroupCount(), kGroups);
  // Emission: every group key comes back exactly once, aligned per vector.
  std::set<int64_t> seen;
  DataChunk out;
  out.Initialize({TypeId::kBigInt});
  for (idx_t start = 0; start < kGroups; start += kVectorSize) {
    idx_t n = std::min<idx_t>(kVectorSize, kGroups - start);
    out.Reset();
    table.EmitKeys(start, n, &out);
    for (idx_t r = 0; r < n; r++) {
      seen.insert(out.column(0).data<int64_t>()[r]);
    }
  }
  EXPECT_EQ(seen.size(), kGroups);
}

// --- Aggregate state rows --------------------------------------------------

namespace {
ExprPtr AggArg(TypeId type) {
  return std::make_unique<BoundColumnRef>(0, type, "arg");
}
std::vector<BoundAggregate> FixedWidthAggregates() {
  std::vector<BoundAggregate> aggs;
  aggs.push_back({AggType::kCountStar, nullptr, TypeId::kBigInt});
  aggs.push_back({AggType::kCount, AggArg(TypeId::kBigInt), TypeId::kBigInt});
  aggs.push_back({AggType::kSum, AggArg(TypeId::kBigInt), TypeId::kBigInt});
  aggs.push_back({AggType::kAvg, AggArg(TypeId::kBigInt), TypeId::kDouble});
  aggs.push_back({AggType::kMin, AggArg(TypeId::kBigInt), TypeId::kBigInt});
  aggs.push_back({AggType::kMax, AggArg(TypeId::kBigInt), TypeId::kBigInt});
  return aggs;
}
}  // namespace

// The argument of row `r` in pass `pass` for an input of `type` (NULL on
// every 7th row and in group 36): negative and positive values, with
// empty strings and strings longer than 12 bytes among the VARCHARs.
Value ReferenceInput(TypeId type, idx_t r, int pass) {
  if (r % 7 == 0 || r % 37 == 36) return Value::Null(type);  // 36: all NULL
  int64_t k = static_cast<int64_t>((r * 7919 + pass * 104729) % 1000) - 450;
  switch (type) {
    case TypeId::kInteger:
      return Value::Integer(static_cast<int32_t>(k));
    case TypeId::kBigInt:
      return Value::BigInt(k * 1000000007LL);
    case TypeId::kDouble:
      return Value::Double(static_cast<double>(k) * 0.25);
    case TypeId::kDate:
      return Value::Date(static_cast<int32_t>(k * 13));
    case TypeId::kTimestamp:
      return Value::Timestamp(k * 86400000000LL + 17);
    case TypeId::kBoolean:
      return Value::Boolean(k % 3 == 0);
    case TypeId::kVarchar:
      if (k % 5 == 0) return Value::Varchar("");
      if (k % 5 == 1) {
        return Value::Varchar("a string longer than twelve bytes #" +
                              std::to_string(k));
      }
      return Value::Varchar("s" + std::to_string(k));
    default:
      return Value::Null(type);  // the untyped NULL literal
  }
}

// Loads `values` into `arg`; with `dictionary` set, as a dictionary
// vector over the distinct strings (the shape a dictionary-encoded
// column segment hands to the aggregate).
void LoadReferenceInput(const std::vector<Value>& values, bool dictionary,
                        Vector* arg) {
  arg->Reset();
  std::map<std::string, uint32_t> codes;
  if (dictionary) {
    for (const Value& v : values) {
      if (!v.is_null()) codes.emplace(v.GetString(), 0);
    }
    auto dict = std::make_shared<VectorDictionary>();
    for (auto& [str, code] : codes) {
      code = static_cast<uint32_t>(dict->entries.size());
      dict->entries.push_back(dict->heap.AddString(
          str.data(), static_cast<uint32_t>(str.size())));
    }
    arg->SetDictionary(dict, values.size());
  }
  for (idx_t r = 0; r < values.size(); r++) {
    if (values[r].is_null()) {
      arg->validity().SetInvalid(r);
    } else if (dictionary) {
      arg->data<uint32_t>()[r] = codes.at(values[r].GetString());
    } else {
      arg->SetValue(r, values[r]);
    }
  }
}

TEST(AggStateLayoutTest, MatchesBaselineForEveryAggregateAndType) {
  // Every (aggregate, argument type) pair the binder admits, through the
  // state rows of an AggregateHashTable, must finalize exactly like the
  // baseline row engine's boxed AggState — including the all-NULL group
  // 36, where COUNT(*) stays nonzero and everything else is NULL or 0.
  struct Input {
    TypeId type;
    bool dictionary;
  };
  const Input inputs[] = {
      {TypeId::kInteger, false}, {TypeId::kBigInt, false},
      {TypeId::kDouble, false},  {TypeId::kDate, false},
      {TypeId::kTimestamp, false}, {TypeId::kBoolean, false},
      {TypeId::kVarchar, false}, {TypeId::kVarchar, true},
      {TypeId::kInvalid, false}};
  for (const Input& input : inputs) {
    SCOPED_TRACE(std::string(TypeIdToString(input.type)) +
                 (input.dictionary ? " (dictionary)" : ""));
    std::vector<BoundAggregate> aggs;
    std::vector<AggType> types = {AggType::kCountStar, AggType::kCount,
                                  AggType::kMin, AggType::kMax};
    if (TypeIsNumeric(input.type)) {
      types.push_back(AggType::kSum);
      types.push_back(AggType::kAvg);
    }
    for (AggType type : types) {
      bool star = type == AggType::kCountStar;
      aggs.push_back({type, star ? nullptr : AggArg(input.type),
                      AggregateFunction::ResolveType(type, input.type)});
    }
    AggregateHashTable table({TypeId::kBigInt}, aggs);
    std::vector<std::vector<AggState>> reference(
        37, std::vector<AggState>(aggs.size()));

    DataChunk groups;
    groups.Initialize({TypeId::kBigInt});
    Vector arg(input.type);
    std::vector<idx_t> ids(kVectorSize);
    for (int pass = 0; pass < 3; pass++) {
      const idx_t n = 900;
      std::vector<Value> values;
      for (idx_t r = 0; r < n; r++) {
        groups.column(0).data<int64_t>()[r] = static_cast<int64_t>(r % 37);
        values.push_back(ReferenceInput(input.type, r, pass));
      }
      groups.SetCardinality(n);
      LoadReferenceInput(values, input.dictionary, &arg);
      table.FindOrCreateGroups(groups, n, ids.data());
      for (idx_t a = 0; a < aggs.size(); a++) {
        table.UpdateStates(a, aggs[a].arg ? &arg : nullptr, n, ids.data());
        for (idx_t r = 0; r < n; r++) {
          AggregateFunction::UpdateValue(aggs[a].type, values[r],
                                         &reference[r % 37][a]);
        }
      }
    }
    // Keys 0..36 first appear in that order, so group id == key.
    ASSERT_EQ(table.GroupCount(), 37u);
    for (idx_t g = 0; g < table.GroupCount(); g++) {
      for (idx_t a = 0; a < aggs.size(); a++) {
        Value got = table.FinalizeState(g, a);
        Value want = AggregateFunction::Finalize(
            aggs[a].type, aggs[a].return_type, reference[g][a]);
        EXPECT_EQ(got.type(), want.type());
        EXPECT_EQ(got.is_null(), want.is_null());
        EXPECT_EQ(got.ToString(), want.ToString())
            << "group " << g << " " << AggregateFunction::Name(aggs[a].type);
      }
    }
  }
}

TEST(AggStateLayoutTest, CompactMergeMatchesSingleTable) {
  // Two partial tables over disjoint row halves, merged, must equal one
  // table that saw every row — the batch Combine kernel under the
  // parallel merge, including VARCHAR extremes copied between arenas.
  auto aggs = FixedWidthAggregates();
  aggs.push_back({AggType::kMin, AggArg(TypeId::kVarchar), TypeId::kVarchar});
  aggs.push_back({AggType::kMax, AggArg(TypeId::kVarchar), TypeId::kVarchar});
  AggregateHashTable merged({TypeId::kBigInt}, aggs);
  AggregateHashTable partial({TypeId::kBigInt}, aggs);
  AggregateHashTable reference({TypeId::kBigInt}, aggs);

  DataChunk groups;
  groups.Initialize({TypeId::kBigInt});
  Vector arg(TypeId::kBigInt);
  Vector text(TypeId::kVarchar);
  std::vector<idx_t> ids(kVectorSize);
  auto feed = [&](AggregateHashTable* table, idx_t begin, idx_t end) {
    idx_t n = 0;
    for (idx_t i = begin; i < end; i++, n++) {
      groups.column(0).data<int64_t>()[n] = static_cast<int64_t>(i % 101);
      arg.data<int64_t>()[n] = static_cast<int64_t>(i * 3) - 1000;
      text.SetString(n, std::string(i % 17, 'x') + std::to_string(i * 7 % 13));
      if (i % 11 == 0) arg.validity().SetInvalid(n);
      if (i % 13 == 0) text.validity().SetInvalid(n);
    }
    groups.SetCardinality(n);
    table->FindOrCreateGroups(groups, n, ids.data());
    for (idx_t a = 0; a < aggs.size(); a++) {
      const Vector* v = nullptr;
      if (aggs[a].arg) {
        v = aggs[a].arg->return_type() == TypeId::kVarchar ? &text : &arg;
      }
      table->UpdateStates(a, v, n, ids.data());
    }
    arg.Reset();
    text.Reset();
  };
  feed(&merged, 0, 1000);
  feed(&partial, 1000, 2000);
  feed(&reference, 0, 1000);
  feed(&reference, 1000, 2000);
  merged.Merge(partial);
  ASSERT_EQ(merged.GroupCount(), reference.GroupCount());
  // Group creation order differs between merged and reference only when
  // the second half introduces new keys; with 101 keys over 1000 rows
  // both halves see every key, so ids align.
  for (idx_t g = 0; g < merged.GroupCount(); g++) {
    EXPECT_EQ(merged.GroupHash(g), reference.GroupHash(g));
    for (idx_t a = 0; a < aggs.size(); a++) {
      EXPECT_EQ(merged.FinalizeState(g, a).ToString(),
                reference.FinalizeState(g, a).ToString())
          << "group " << g << " aggregate " << a;
    }
  }
}

TEST(RadixPartitionedTableTest, PartitionsGroupsByHashHighBits) {
  auto aggs = FixedWidthAggregates();
  RadixPartitionedAggregateTable table({TypeId::kBigInt}, aggs,
                                       /*partitioned=*/true);
  RadixPartitionedAggregateTable single({TypeId::kBigInt}, aggs,
                                        /*partitioned=*/false);
  EXPECT_EQ(table.PartitionCount(),
            RadixPartitionedAggregateTable::kPartitions);
  EXPECT_EQ(single.PartitionCount(), 1u);

  DataChunk groups;
  groups.Initialize({TypeId::kBigInt});
  Vector arg(TypeId::kBigInt);
  const idx_t kRows = 2000, kKeys = 500;
  idx_t fed = 0;
  while (fed < kRows) {
    idx_t n = std::min<idx_t>(kVectorSize, kRows - fed);
    for (idx_t r = 0; r < n; r++) {
      groups.column(0).data<int64_t>()[r] =
          static_cast<int64_t>((fed + r) % kKeys);
      arg.data<int64_t>()[r] = static_cast<int64_t>(fed + r);
    }
    groups.SetCardinality(n);
    for (RadixPartitionedAggregateTable* t : {&table, &single}) {
      t->FindOrCreateGroups(groups, n);
      for (idx_t a = 0; a < aggs.size(); a++) {
        t->UpdateStates(a, aggs[a].arg ? &arg : nullptr, n);
      }
    }
    fed += n;
  }
  EXPECT_EQ(table.GroupCount(), kKeys);
  EXPECT_EQ(single.GroupCount(), kKeys);
  // Every group sits in the partition its hash selects, and the
  // partitioned/unpartitioned tables agree on the global aggregates.
  int64_t part_rows = 0, single_rows = 0;
  for (idx_t p = 0; p < table.PartitionCount(); p++) {
    const AggregateHashTable& part = table.partition(p);
    for (idx_t g = 0; g < part.GroupCount(); g++) {
      EXPECT_EQ(RadixPartitionedAggregateTable::PartitionOf(part.GroupHash(g)),
                p);
      part_rows += part.FinalizeState(g, 0).GetBigInt();
    }
  }
  for (idx_t g = 0; g < single.partition(0).GroupCount(); g++) {
    single_rows +=
        single.partition(0).FinalizeState(g, 0).GetBigInt();
  }
  EXPECT_EQ(part_rows, static_cast<int64_t>(kRows));
  EXPECT_EQ(single_rows, static_cast<int64_t>(kRows));
}

// --- SQL-level semantics ----------------------------------------------------

class HashTableSqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open(":memory:");
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    con_ = std::make_unique<Connection>(db_.get());
  }

  int64_t Scalar(const std::string& sql) {
    auto r = con_->Query(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    if (!r.ok()) return -1;
    return (*r)->GetValue(0, 0).GetBigInt();
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Connection> con_;
};

TEST_F(HashTableSqlTest, NullJoinKeysNeverMatchButNullGroupsMerge) {
  ASSERT_TRUE(con_->Query("CREATE TABLE l (k INTEGER)").ok());
  ASSERT_TRUE(con_->Query("CREATE TABLE r (k INTEGER)").ok());
  ASSERT_TRUE(
      con_->Query("INSERT INTO l VALUES (1),(NULL),(2),(NULL)").ok());
  ASSERT_TRUE(
      con_->Query("INSERT INTO r VALUES (1),(NULL),(3),(1)").ok());
  // Join: NULL != NULL — only k=1 matches (twice).
  EXPECT_EQ(Scalar("SELECT count(*) FROM l JOIN r ON l.k = r.k"), 2);
  // Group: NULL = NULL — l groups to {1, 2, NULL} = 3 groups.
  EXPECT_EQ(Scalar("SELECT count(*) FROM (SELECT k, count(*) FROM l "
                   "GROUP BY k) q"),
            3);
  // The NULL group aggregates both NULL rows.
  auto r = con_->Query(
      "SELECT count(*) FROM (SELECT k, count(*) AS c FROM l GROUP BY k) q "
      "WHERE k IS NULL AND c = 2");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->GetValue(0, 0).GetBigInt(), 1);
}

TEST_F(HashTableSqlTest, EmptyBuildSide) {
  ASSERT_TRUE(con_->Query("CREATE TABLE l (k INTEGER, v INTEGER)").ok());
  ASSERT_TRUE(con_->Query("CREATE TABLE r (k INTEGER, w INTEGER)").ok());
  ASSERT_TRUE(con_->Query("INSERT INTO l VALUES (1,10),(2,20)").ok());
  EXPECT_EQ(Scalar("SELECT count(*) FROM l JOIN r ON l.k = r.k"), 0);
  // Left join pads every probe row with NULLs.
  EXPECT_EQ(Scalar("SELECT count(*) FROM l LEFT JOIN r ON l.k = r.k"), 2);
  EXPECT_EQ(Scalar("SELECT count(*) FROM (SELECT v FROM l LEFT JOIN r "
                   "ON l.k = r.k WHERE w IS NULL) q"),
            2);
  EXPECT_EQ(Scalar("SELECT count(*) FROM l SEMI JOIN r ON l.k = r.k"), 0);
  EXPECT_EQ(Scalar("SELECT count(*) FROM l ANTI JOIN r ON l.k = r.k"), 2);
}

TEST_F(HashTableSqlTest, DuplicateBuildKeysMultiplyAcrossChunks) {
  ASSERT_TRUE(con_->Query("CREATE TABLE l (k INTEGER)").ok());
  ASSERT_TRUE(con_->Query("CREATE TABLE r (k INTEGER)").ok());
  ASSERT_TRUE(con_->Query("INSERT INTO l VALUES (7),(7),(8)").ok());
  // 5000 duplicate build rows for key 7: a single probe row's match
  // chain spans multiple output vectors (mid-chain resume).
  std::string ins = "INSERT INTO r VALUES ";
  for (int i = 0; i < 5000; i++) {
    if (i > 0) ins += ",";
    ins += "(7)";
  }
  ASSERT_TRUE(con_->Query(ins).ok());
  EXPECT_EQ(Scalar("SELECT count(*) FROM l JOIN r ON l.k = r.k"), 10000);
  EXPECT_EQ(Scalar("SELECT count(*) FROM l SEMI JOIN r ON l.k = r.k"), 2);
  EXPECT_EQ(Scalar("SELECT count(*) FROM l ANTI JOIN r ON l.k = r.k"), 1);
  EXPECT_EQ(Scalar("SELECT count(*) FROM l LEFT JOIN r ON l.k = r.k"),
            10001);
}

TEST_F(HashTableSqlTest, ManyDistinctGroupsWithAggregates) {
  ASSERT_TRUE(con_->Query("CREATE TABLE t (k INTEGER, v INTEGER)").ok());
  // 12000 distinct groups, 2 rows each, inserted in interleaved order.
  std::string ins;
  for (int pass = 0; pass < 2; pass++) {
    for (int k = 0; k < 12000; k++) {
      if (ins.empty()) {
        ins = "INSERT INTO t VALUES ";
      } else {
        ins += ",";
      }
      ins += "(" + std::to_string(k) + "," + std::to_string(pass + 1) + ")";
      if (ins.size() > (1u << 20)) {
        ASSERT_TRUE(con_->Query(ins).ok());
        ins.clear();
      }
    }
  }
  if (!ins.empty()) ASSERT_TRUE(con_->Query(ins).ok());
  EXPECT_EQ(Scalar("SELECT count(*) FROM (SELECT k, sum(v) FROM t "
                   "GROUP BY k) q"),
            12000);
  // Every group sums to 3 and counts 2 rows.
  EXPECT_EQ(Scalar("SELECT count(*) FROM (SELECT k, sum(v) AS s, "
                   "count(*) AS c FROM t GROUP BY k) q "
                   "WHERE s = 3 AND c = 2"),
            12000);
  // min/max/avg survive the typed batch kernels.
  EXPECT_EQ(Scalar("SELECT count(*) FROM (SELECT k, min(v) AS lo, "
                   "max(v) AS hi, avg(v) AS m FROM t GROUP BY k) q "
                   "WHERE lo = 1 AND hi = 2 AND m = 1.5"),
            12000);
}

TEST_F(HashTableSqlTest, VarcharGroupKeysAndExtremes) {
  ASSERT_TRUE(con_->Query("CREATE TABLE t (s VARCHAR, v DOUBLE)").ok());
  ASSERT_TRUE(con_->Query(
                      "INSERT INTO t VALUES ('aa',1.0),('bb',2.0),"
                      "('aa',3.0),(NULL,9.0),('bb',4.0),(NULL,1.0)")
                  .ok());
  EXPECT_EQ(Scalar("SELECT count(*) FROM (SELECT s, count(*) FROM t "
                   "GROUP BY s) q"),
            3);
  auto r = con_->Query(
      "SELECT s, min(s), max(v), sum(v) FROM t GROUP BY s ORDER BY s");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ((*r)->RowCount(), 3u);
  // NULL group sorts first.
  EXPECT_TRUE((*r)->GetValue(0, 0).is_null());
  EXPECT_EQ((*r)->GetValue(3, 0).GetDouble(), 10.0);
  EXPECT_EQ((*r)->GetValue(0, 1).GetString(), "aa");
  EXPECT_EQ((*r)->GetValue(2, 1).GetDouble(), 3.0);
  EXPECT_EQ((*r)->GetValue(0, 2).GetString(), "bb");
  EXPECT_EQ((*r)->GetValue(2, 2).GetDouble(), 4.0);
}

TEST_F(HashTableSqlTest, JoinResetMidProbeDiscardsStaleState) {
  // Abandoning a streamed join mid-probe and re-executing must not
  // replay the stale probe chunk (whose cached chain heads point into
  // the torn-down hash table).
  ASSERT_TRUE(con_->Query("CREATE TABLE l (k INTEGER)").ok());
  ASSERT_TRUE(con_->Query("CREATE TABLE r (k INTEGER)").ok());
  std::string ins_l = "INSERT INTO l VALUES (0)";
  for (int i = 1; i < 6000; i++) ins_l += ",(" + std::to_string(i % 50) + ")";
  ASSERT_TRUE(con_->Query(ins_l).ok());
  ASSERT_TRUE(con_->Query(
                      "INSERT INTO r VALUES (0),(1),(2),(3),(4),(5),(6),"
                      "(7),(8),(9)")
                  .ok());
  auto prepared =
      con_->Prepare("SELECT l.k, r.k FROM l JOIN r ON l.k = r.k");
  ASSERT_TRUE(prepared.ok());
  auto stream = (*prepared)->ExecuteStream();
  ASSERT_TRUE(stream.ok());
  auto chunk = (*stream)->Fetch();  // join is now mid-probe
  ASSERT_TRUE(chunk.ok());
  ASSERT_NE(chunk->get(), nullptr);
  ASSERT_TRUE((*stream)->Close().ok());
  auto full = (*prepared)->Execute();
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  // 6000 left rows over 50 keys, 10 of which match: 120 rows per
  // matching key.
  EXPECT_EQ((*full)->RowCount(), 1200u);
}

TEST_F(HashTableSqlTest, AllJoinTypesOnMultiColumnKeys) {
  ASSERT_TRUE(
      con_->Query("CREATE TABLE l (a INTEGER, b VARCHAR, v INTEGER)").ok());
  ASSERT_TRUE(
      con_->Query("CREATE TABLE r (a INTEGER, b VARCHAR, w INTEGER)").ok());
  ASSERT_TRUE(con_->Query(
                      "INSERT INTO l VALUES (1,'x',10),(1,'y',11),"
                      "(2,'x',12),(3,'z',13)")
                  .ok());
  ASSERT_TRUE(con_->Query(
                      "INSERT INTO r VALUES (1,'x',20),(1,'x',21),"
                      "(2,'y',22),(3,'z',23)")
                  .ok());
  EXPECT_EQ(Scalar("SELECT count(*) FROM l JOIN r "
                   "ON l.a = r.a AND l.b = r.b"),
            3);  // (1,x) twice + (3,z)
  EXPECT_EQ(Scalar("SELECT count(*) FROM l LEFT JOIN r "
                   "ON l.a = r.a AND l.b = r.b"),
            5);  // 2 + 1 + two unmatched left rows
  EXPECT_EQ(Scalar("SELECT count(*) FROM l SEMI JOIN r "
                   "ON l.a = r.a AND l.b = r.b"),
            2);
  EXPECT_EQ(Scalar("SELECT count(*) FROM l ANTI JOIN r "
                   "ON l.a = r.a AND l.b = r.b"),
            2);
}

}  // namespace
}  // namespace mallard
