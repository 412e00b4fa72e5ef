#include "mallard/execution/aggregate_hashtable.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "mallard/common/hash.h"
#include "mallard/governor/resource_governor.h"
#include "mallard/vector/vector_hash.h"

namespace mallard {

AggregateHashTable::AggregateHashTable(
    std::vector<TypeId> group_types,
    const std::vector<BoundAggregate>& aggregates, idx_t initial_capacity)
    : group_types_(std::move(group_types)),
      layout_(AggStateLayout::Plan(aggregates)) {
  idx_t capacity = NextPowerOfTwo(std::max<idx_t>(2, initial_capacity));
  entries_.assign(capacity, Entry{0, kInvalidIndex});
  mask_ = capacity - 1;
}

void AggregateHashTable::Resize(idx_t new_capacity) {
  std::vector<Entry> old = std::move(entries_);
  entries_.assign(new_capacity, Entry{0, kInvalidIndex});
  mask_ = new_capacity - 1;
  for (const Entry& e : old) {
    if (e.group == kInvalidIndex) continue;
    uint64_t slot = e.hash & mask_;
    while (entries_[slot].group != kInvalidIndex) slot = (slot + 1) & mask_;
    entries_[slot] = e;
  }
}

void AggregateHashTable::EnsureCapacity(idx_t incoming) {
  // Keep load factor under 50% even if every incoming row is a new
  // group, so the probe loop below never needs a mid-batch resize.
  idx_t needed = (group_count_ + incoming) * 2;
  if (needed > entries_.size()) {
    Resize(NextPowerOfTwo(needed));
  }
}

bool AggregateHashTable::GroupEquals(idx_t group, const DataChunk& groups,
                                     idx_t row) const {
  const DataChunk& chunk = *group_chunks_[group / kVectorSize];
  idx_t stored_row = group % kVectorSize;
  for (idx_t c = 0; c < group_types_.size(); c++) {
    const Vector& stored = chunk.column(c);
    const Vector& probe = groups.column(c);
    bool stored_valid = stored.validity().RowIsValid(stored_row);
    bool probe_valid = probe.validity().RowIsValid(row);
    if (stored_valid != probe_valid) return false;
    if (!stored_valid) continue;  // NULL = NULL for grouping
    switch (group_types_[c]) {
      case TypeId::kBoolean:
        if (stored.data<int8_t>()[stored_row] != probe.data<int8_t>()[row]) {
          return false;
        }
        break;
      case TypeId::kInteger:
      case TypeId::kDate:
        if (stored.data<int32_t>()[stored_row] !=
            probe.data<int32_t>()[row]) {
          return false;
        }
        break;
      case TypeId::kBigInt:
      case TypeId::kTimestamp:
        if (stored.data<int64_t>()[stored_row] !=
            probe.data<int64_t>()[row]) {
          return false;
        }
        break;
      case TypeId::kDouble: {
        // Normalized bit-pattern compare: -0.0 == +0.0, NaN groups
        // with NaN (matches the old sort-key-encoding semantics).
        double s = NormalizeDouble(stored.data<double>()[stored_row]);
        double p = NormalizeDouble(probe.data<double>()[row]);
        if (std::memcmp(&s, &p, 8) != 0) return false;
        break;
      }
      case TypeId::kVarchar: {
        // Stored group chunks are always flat; the probe side may be a
        // dictionary vector straight off a scan.
        StringRef a = stored.data<StringRef>()[stored_row];
        StringRef b = probe.StringAt(row);
        if (!(a == b)) return false;
        break;
      }
      default:
        return false;
    }
  }
  return true;
}

idx_t AggregateHashTable::AppendGroup(const DataChunk& groups, idx_t row,
                                      uint64_t hash) {
  idx_t local = group_count_ % kVectorSize;
  if (local == 0) {
    auto chunk = std::make_unique<DataChunk>();
    chunk->Initialize(group_types_);
    group_chunks_.push_back(std::move(chunk));
  }
  DataChunk& chunk = *group_chunks_.back();
  for (idx_t c = 0; c < group_types_.size(); c++) {
    chunk.column(c).CopyFrom(groups.column(c), 1, row, local);
  }
  chunk.SetCardinality(local + 1);
  group_hashes_.push_back(hash);
  // New rows are value-initialized to zero — the initial state of every
  // slot.
  state_rows_.resize(state_rows_.size() + layout_.row_size());
  // Spill accounting: retained hash + directory share (two 16-byte
  // entries at the <=50% load factor) + state + key payload.
  uint64_t group_bytes = 8 + 2 * sizeof(Entry) + layout_.row_size();
  for (idx_t c = 0; c < group_types_.size(); c++) {
    switch (group_types_[c]) {
      case TypeId::kBoolean:
        group_bytes += 1;
        break;
      case TypeId::kInteger:
      case TypeId::kDate:
        group_bytes += 4;
        break;
      case TypeId::kVarchar:
        group_bytes += sizeof(StringRef);
        if (groups.column(c).validity().RowIsValid(row)) {
          group_bytes += groups.column(c).StringAt(row).size;
        }
        break;
      default:
        group_bytes += 8;
        break;
    }
  }
  approx_bytes_ += group_bytes;
  return group_count_++;
}

void AggregateHashTable::Reset(idx_t initial_capacity) {
  idx_t capacity = NextPowerOfTwo(std::max<idx_t>(2, initial_capacity));
  entries_.assign(capacity, Entry{0, kInvalidIndex});
  mask_ = capacity - 1;
  group_count_ = 0;
  group_chunks_.clear();
  group_hashes_.clear();
  state_rows_.clear();
  strings_.Reset();
  approx_bytes_ = 0;
}

void AggregateHashTable::MergeRows(const DataChunk& keys, idx_t count,
                                   const uint64_t* hashes,
                                   const uint8_t* state_rows) {
  merge_ids_.resize(kVectorSize);
  EnsureCapacity(count);
  for (idx_t r = 0; r < count; r++) {
    merge_ids_[r] = FindOrCreateOne(keys, r, hashes[r]);
  }
  layout_.Combine(state_rows, 0, count, merge_ids_.data(),
                  state_rows_.data(), &strings_);
}

idx_t AggregateHashTable::FindOrCreateOne(const DataChunk& groups, idx_t row,
                                          uint64_t hash) {
  uint64_t slot = hash & mask_;
  while (true) {
    Entry& e = entries_[slot];
    if (e.group == kInvalidIndex) {
      e.hash = hash;
      e.group = AppendGroup(groups, row, hash);
      return e.group;
    }
    if (e.hash == hash && GroupEquals(e.group, groups, row)) {
      return e.group;
    }
    slot = (slot + 1) & mask_;
  }
}

void AggregateHashTable::FindOrCreateGroups(const DataChunk& groups,
                                            idx_t count, idx_t* group_ids) {
  EnsureCapacity(count);
  // Sized on first use: a radix partition hashes in its wrapper.
  hash_scratch_.resize(kVectorSize);
  HashKeyColumns(groups, count, hash_scratch_.data());
  for (idx_t r = 0; r < count; r++) {
    group_ids[r] = FindOrCreateOne(groups, r, hash_scratch_[r]);
  }
}

void AggregateHashTable::FindOrCreateGroupsSel(const DataChunk& groups,
                                               const uint32_t* sel,
                                               idx_t count,
                                               const uint64_t* hashes,
                                               idx_t* group_ids) {
  EnsureCapacity(count);
  for (idx_t i = 0; i < count; i++) {
    idx_t r = sel[i];
    group_ids[i] = FindOrCreateOne(groups, r, hashes[r]);
  }
}

void AggregateHashTable::UpdateStates(idx_t agg_index, const Vector* arg,
                                      idx_t count, const idx_t* group_ids,
                                      const uint32_t* sel) {
  layout_.Update(agg_index, arg, count, group_ids, sel, state_rows_.data(),
                 &strings_);
}

void AggregateHashTable::Merge(const AggregateHashTable& other) {
  merge_ids_.resize(kVectorSize);
  EnsureCapacity(other.group_count_);
  for (idx_t base = 0; base < other.group_count_; base += kVectorSize) {
    idx_t count = std::min<idx_t>(kVectorSize, other.group_count_ - base);
    const DataChunk& keys = *other.group_chunks_[base / kVectorSize];
    // Insert with the donor's retained hashes — the merge pass never
    // re-hashes group keys.
    for (idx_t r = 0; r < count; r++) {
      merge_ids_[r] =
          FindOrCreateOne(keys, r, other.group_hashes_[base + r]);
    }
    layout_.Combine(other.state_rows_.data(), base, count, merge_ids_.data(),
                    state_rows_.data(), &strings_);
  }
}

void AggregateHashTable::EmitKeys(idx_t start, idx_t count,
                                  DataChunk* out) const {
  assert(start % kVectorSize == 0);
  assert(count <= kVectorSize);
  const DataChunk& chunk = *group_chunks_[start / kVectorSize];
  for (idx_t c = 0; c < group_types_.size(); c++) {
    out->column(c).CopyFrom(chunk.column(c), count, 0, 0);
  }
}

// ---------------------------------------------------------------------------
// RadixPartitionedAggregateTable
// ---------------------------------------------------------------------------

RadixPartitionedAggregateTable::RadixPartitionedAggregateTable(
    std::vector<TypeId> group_types,
    const std::vector<BoundAggregate>& aggregates, bool partitioned) {
  idx_t partitions = partitioned ? kPartitions : 1;
  for (idx_t p = 0; p < partitions; p++) {
    partitions_.push_back(std::make_unique<AggregateHashTable>(
        group_types, aggregates,
        // Thread-local partitions start small: groups spread over 16
        // tables, and most queries have few groups.
        partitioned ? 64 : 1024));
  }
  hashes_.resize(kVectorSize);
  if (partitioned) {
    part_sel_.resize(kPartitions * kVectorSize);
    part_ids_.resize(kPartitions * kVectorSize);
  } else {
    ids_.resize(kVectorSize);
  }
  group_types_ = std::move(group_types);
}

idx_t RadixPartitionedAggregateTable::GroupCount() const {
  idx_t total = 0;
  for (const auto& p : partitions_) total += p->GroupCount();
  return total;
}

void RadixPartitionedAggregateTable::FindOrCreateGroups(
    const DataChunk& groups, idx_t count) {
  if (partitions_.size() == 1) {
    // Unpartitioned fast path — identical to the classic serial sink.
    partitions_[0]->FindOrCreateGroups(groups, count, ids_.data());
    return;
  }
  HashKeyColumns(groups, count, hashes_.data());
  std::memset(part_count_, 0, sizeof(part_count_));
  for (idx_t r = 0; r < count; r++) {
    idx_t p = PartitionOf(hashes_[r]);
    part_sel_[p * kVectorSize + part_count_[p]++] =
        static_cast<uint32_t>(r);
  }
  for (idx_t p = 0; p < kPartitions; p++) {
    if (part_count_[p] == 0) continue;
    partitions_[p]->FindOrCreateGroupsSel(
        groups, part_sel_.data() + p * kVectorSize, part_count_[p],
        hashes_.data(), part_ids_.data() + p * kVectorSize);
  }
}

void RadixPartitionedAggregateTable::UpdateStates(idx_t agg_index,
                                                  const Vector* arg,
                                                  idx_t count) {
  if (partitions_.size() == 1) {
    partitions_[0]->UpdateStates(agg_index, arg, count, ids_.data());
    return;
  }
  for (idx_t p = 0; p < kPartitions; p++) {
    if (part_count_[p] == 0) continue;
    partitions_[p]->UpdateStates(agg_index, arg, part_count_[p],
                                 part_ids_.data() + p * kVectorSize,
                                 part_sel_.data() + p * kVectorSize);
  }
}

// -- Out-of-core aggregation ------------------------------------------------

void RadixPartitionedAggregateTable::EnableSpilling(
    const ResourceGovernor* governor, BufferManager* buffers,
    uint64_t divisor, const std::vector<BoundAggregate>* aggregates) {
  governor_ = governor;
  buffers_ = buffers;
  spill_divisor_ = std::max<uint64_t>(1, divisor);
  spill_aggregates_ = aggregates;
  key_codec_ = std::make_unique<RowCodec>(group_types_);
}

uint64_t RadixPartitionedAggregateTable::SpillBudget() const {
  // Re-read every time: the governor's budget is reactive.
  uint64_t effective = governor_->EffectiveMemoryBudget();
  return std::max<uint64_t>(uint64_t(1) << 20, effective / spill_divisor_);
}

uint64_t RadixPartitionedAggregateTable::EmitBudget() const {
  return std::max<uint64_t>(uint64_t(1) << 20, SpillBudget() / 2);
}

Status RadixPartitionedAggregateTable::SerializeTable(
    AggregateHashTable* table, int shift,
    std::array<std::unique_ptr<SpillRowStore>, kPartitions>* sinks) {
  const idx_t row_size = table->layout().row_size();
  // Scratch is local, not a member: MaybeSpillPartition serializes
  // distinct partitions concurrently during the parallel merge.
  std::vector<uint8_t> scratch;
  const idx_t count = table->GroupCount();
  for (idx_t g = 0; g < count; g++) {
    uint64_t hash = table->GroupHash(g);
    scratch.clear();
    scratch.resize(8 + row_size);
    std::memcpy(scratch.data(), &hash, 8);
    std::memcpy(scratch.data() + 8, table->StateRow(g), row_size);
    key_codec_->EncodeRow(table->GroupChunk(g / kVectorSize),
                          g % kVectorSize, &scratch);
    table->layout().AppendStrings(table->StateRow(g), &scratch);
    idx_t dest = PartitionOfShift(hash, shift);
    auto& sink = (*sinks)[dest];
    if (!sink) sink = std::make_unique<SpillRowStore>(buffers_);
    MALLARD_RETURN_NOT_OK(
        sink->Append(scratch.data(), static_cast<uint32_t>(scratch.size())));
  }
  for (auto& sink : *sinks) {
    if (sink) sink->FinishAppend();
  }
  return Status::OK();
}

Status RadixPartitionedAggregateTable::SpillPartitionTable(idx_t table_index) {
  AggregateHashTable* table = partitions_[table_index].get();
  if (table->GroupCount() == 0) return Status::OK();
  // Shift 0 routes by the top 4 hash bits — for a partitioned table this
  // lands every row in runs_[table_index]; for the single unpartitioned
  // table it scatters the groups to their radix homes.
  std::array<std::unique_ptr<SpillRowStore>, kPartitions> sinks;
  MALLARD_RETURN_NOT_OK(SerializeTable(table, 0, &sinks));
  for (idx_t p = 0; p < kPartitions; p++) {
    if (sinks[p]) runs_[p].push_back(std::move(sinks[p]));
  }
  table->Reset();
  spilled_.store(true, std::memory_order_relaxed);
  return Status::OK();
}

void RadixPartitionedAggregateTable::UpgradeToPartitioned() {
  while (partitions_.size() < kPartitions) {
    partitions_.push_back(std::make_unique<AggregateHashTable>(
        group_types_, *spill_aggregates_, 64));
  }
  part_sel_.resize(kPartitions * kVectorSize);
  part_ids_.resize(kPartitions * kVectorSize);
}

Status RadixPartitionedAggregateTable::MaybeSpill() {
  if (!governor_ || !buffers_ || !spill_aggregates_) return Status::OK();
  uint64_t budget = SpillBudget();
  while (true) {
    uint64_t resident = 0;
    idx_t victim = kInvalidIndex;
    uint64_t victim_bytes = 0;
    for (idx_t p = 0; p < partitions_.size(); p++) {
      uint64_t bytes = partitions_[p]->ApproxBytes();
      resident += bytes;
      if (partitions_[p]->GroupCount() > 0 && bytes >= victim_bytes) {
        victim = p;
        victim_bytes = bytes;
      }
    }
    if (resident <= budget || victim == kInvalidIndex) break;
    MALLARD_RETURN_NOT_OK(SpillPartitionTable(victim));
    // The serial sink runs unpartitioned; the first spill scattered its
    // groups across all 16 runs, so give new groups radix homes too.
    if (partitions_.size() == 1) UpgradeToPartitioned();
  }
  return Status::OK();
}

Status RadixPartitionedAggregateTable::MaybeSpillPartition(idx_t p) {
  if (!governor_ || !buffers_ || !spill_aggregates_) return Status::OK();
  if (partitions_.size() != kPartitions) return Status::OK();
  if (partitions_[p]->ApproxBytes() <= SpillBudget() / kPartitions) {
    return Status::OK();
  }
  return SpillPartitionTable(p);
}

void RadixPartitionedAggregateTable::AdoptRuns(
    RadixPartitionedAggregateTable* other) {
  for (idx_t p = 0; p < kPartitions; p++) {
    for (auto& run : other->runs_[p]) {
      runs_[p].push_back(std::move(run));
    }
    other->runs_[p].clear();
  }
  if (other->Spilled()) spilled_.store(true, std::memory_order_relaxed);
}

Status RadixPartitionedAggregateTable::NextEmitTable(
    AggregateHashTable** out) {
  *out = nullptr;
  while (true) {
    // Drain the recursion stack before advancing to the next partition.
    if (!emit_jobs_.empty()) {
      EmitJob job = std::move(emit_jobs_.back());
      emit_jobs_.pop_back();
      bool produced = false;
      MALLARD_RETURN_NOT_OK(ProcessEmitJob(std::move(job), &produced));
      if (produced) {
        *out = emit_table_.get();
        return Status::OK();
      }
      continue;
    }
    if (emit_next_partition_ >= kPartitions) return Status::OK();
    idx_t p = emit_next_partition_++;
    AggregateHashTable* resident =
        p < partitions_.size() ? partitions_[p].get() : nullptr;
    if (!runs_[p].empty()) {
      // Externalize the resident remainder so one merge job covers the
      // whole partition — a group may live in any subset of the runs.
      if (resident && resident->GroupCount() > 0) {
        MALLARD_RETURN_NOT_OK(SpillPartitionTable(p));
      }
      EmitJob job;
      job.runs = std::move(runs_[p]);
      runs_[p].clear();
      emit_jobs_.push_back(std::move(job));
      continue;
    }
    if (!resident || resident->GroupCount() == 0) continue;
    *out = resident;
    return Status::OK();
  }
}

Status RadixPartitionedAggregateTable::ProcessEmitJob(EmitJob job,
                                                      bool* produced) {
  *produced = false;
  if (!emit_table_) {
    emit_table_ = std::make_unique<AggregateHashTable>(
        group_types_, *spill_aggregates_, 1024);
  } else {
    emit_table_->Reset(1024);
  }
  const uint64_t budget = EmitBudget();
  const AggStateLayout& layout = emit_table_->layout();
  const idx_t row_size = layout.row_size();
  const bool can_split = job.shift <= kMaxRadixShift;
  DataChunk keys;
  keys.Initialize(group_types_);
  std::vector<uint64_t> hashes(kVectorSize);
  std::vector<uint8_t> states(kVectorSize * row_size);
  // The batch's VARCHAR extremes: the run cursor pins one segment at a
  // time, so a batch cannot point into the rows it was read from.
  ArenaAllocator batch_strings;
  idx_t batch = 0;
  auto flush = [&]() {
    if (batch == 0) return;
    keys.SetCardinality(batch);
    emit_table_->MergeRows(keys, batch, hashes.data(), states.data());
    keys.Reset();
    batch_strings.Reset();
    batch = 0;
  };
  bool splitting = false;
  std::array<std::unique_ptr<SpillRowStore>, kPartitions> subs;
  for (auto& run : job.runs) {
    SpillRowStore::Cursor cursor;
    const uint8_t* row = nullptr;
    uint32_t len = 0;
    while (true) {
      MALLARD_RETURN_NOT_OK(run->Next(&cursor, &row, &len));
      if (!row) break;
      uint64_t hash;
      std::memcpy(&hash, row, 8);
      if (splitting) {
        // Rows are already in run format — route them raw.
        idx_t dest = PartitionOfShift(hash, job.shift);
        auto& sink = subs[dest];
        if (!sink) sink = std::make_unique<SpillRowStore>(buffers_);
        MALLARD_RETURN_NOT_OK(sink->Append(row, len));
        continue;
      }
      hashes[batch] = hash;
      uint8_t* state = states.data() + batch * row_size;
      std::memcpy(state, row + 8, row_size);
      const uint8_t* key = row + 8 + row_size;
      size_t key_bytes = key_codec_->DecodeRow(key, &keys, batch);
      layout.LoadStrings(key + key_bytes, state, &batch_strings);
      batch++;
      if (batch < kVectorSize) continue;
      flush();
      if (can_split && emit_table_->ApproxBytes() > budget) {
        // This hash slice still outgrows the emission budget: re-route
        // by the next 4 hash bits. The partial merge is serialized into
        // the sub-runs first — combining is associative, so groups
        // merged twice finalize identically.
        splitting = true;
        MALLARD_RETURN_NOT_OK(
            SerializeTable(emit_table_.get(), job.shift, &subs));
        emit_table_->Reset(1024);
      }
    }
  }
  if (!splitting) {
    flush();
    *produced = emit_table_->GroupCount() > 0;
    return Status::OK();
  }
  for (auto& sink : subs) {
    if (sink) sink->FinishAppend();
  }
  for (idx_t p = kPartitions; p-- > 0;) {
    if (!subs[p] || subs[p]->rows() == 0) continue;
    EmitJob sub;
    sub.runs.push_back(std::move(subs[p]));
    sub.shift = job.shift + static_cast<int>(kRadixBits);
    emit_jobs_.push_back(std::move(sub));
  }
  return Status::OK();
}

}  // namespace mallard
