#ifndef MALLARD_EXECUTION_AGGREGATE_HASHTABLE_H_
#define MALLARD_EXECUTION_AGGREGATE_HASHTABLE_H_

#include <array>
#include <atomic>
#include <memory>
#include <vector>

#include "mallard/execution/aggregate_function.h"
#include "mallard/execution/row_codec.h"
#include "mallard/execution/spill/spill_row_store.h"
#include "mallard/vector/data_chunk.h"

namespace mallard {

class ResourceGovernor;

/// Vectorized hash table for GROUP BY aggregation.
///
/// A power-of-two linear-probe array of {hash, group id} entries maps
/// group keys to dense group ids; the group key rows themselves live in
/// columnar chunks (kVectorSize rows each, creation order) so emission
/// is a plain chunk copy and key comparison is typed array access.
///
/// Aggregate states are compact byte rows (see AggStateLayout) —
/// `layout.row_size()` bytes per group, updated/combined by typed batch
/// kernels. The bytes of MIN/MAX extremes over VARCHAR live in the
/// table's string arena.
///
/// Each group's hash is retained in creation order (`group_hashes_`), so
/// merging partial tables and radix-partitioning groups never re-hash.
///
/// Semantics: NULL = NULL for grouping (a NULL key forms its own
/// group); doubles compare on a normalized bit pattern (-0.0 == +0.0,
/// NaN groups with NaN) — the same grouping the order-preserving
/// sort-key encoding produced before this table existed.
///
/// Per input chunk, FindOrCreateGroups does one batch hash pass and one
/// probe loop, returning a group id per row; the caller then updates
/// aggregate states in typed batches (see UpdateStates) with no
/// per-row map lookups or Value boxing on the hot path.
class AggregateHashTable {
 public:
  /// Plans the state layout over `aggregates`. `initial_capacity` is
  /// rounded up to a power of two; tests pass a tiny value to force
  /// collisions and exercise linear probing.
  AggregateHashTable(std::vector<TypeId> group_types,
                     const std::vector<BoundAggregate>& aggregates,
                     idx_t initial_capacity = 1024);

  /// Maps the first `count` rows of `groups` to dense group ids
  /// (creating groups for unseen keys) and writes them to `group_ids`.
  void FindOrCreateGroups(const DataChunk& groups, idx_t count,
                          idx_t* group_ids);

  /// Selection-vector variant used by radix-partitioned sinks: row
  /// sel[i] of `groups` (with precomputed hash hashes[sel[i]]) maps to
  /// group_ids[i]. `hashes` is indexed by *original* row number.
  void FindOrCreateGroupsSel(const DataChunk& groups, const uint32_t* sel,
                             idx_t count, const uint64_t* hashes,
                             idx_t* group_ids);

  /// Folds rows of `arg` into the states selected by `group_ids` for
  /// aggregate slot `agg_index`: input row i — or sel[i] when `sel` is
  /// given — updates group_ids[i]. One type dispatch per call, typed
  /// loops inside.
  void UpdateStates(idx_t agg_index, const Vector* arg, idx_t count,
                    const idx_t* group_ids, const uint32_t* sel = nullptr);

  /// Folds every group of `other` (a thread-local partial aggregate over
  /// a disjoint row subset) into this table: unseen keys create new
  /// groups, existing keys combine states with the layout's batch
  /// kernel. Uses `other`'s stored group hashes (no re-hashing). Both
  /// tables must have been built over the same aggregate list.
  void Merge(const AggregateHashTable& other);

  idx_t GroupCount() const { return group_count_; }
  idx_t Capacity() const { return entries_.size(); }

  /// Approximate bytes held (keys + states + directory share, maintained
  /// incrementally, plus the string arena) — the spill decision's
  /// accounting. Dead VARCHAR extremes count until Reset().
  uint64_t ApproxBytes() const {
    return approx_bytes_ + strings_.TotalCapacity();
  }

  /// Drops every group and shrinks the directory back to
  /// `initial_capacity` — the table is reusable afterwards. Used when a
  /// partition's groups are externalized to a spill run.
  void Reset(idx_t initial_capacity = 64);

  /// Merges `count` externalized groups back in: row r of `keys` (with
  /// retained hash hashes[r]) carries the contiguous compact state row
  /// r of `state_rows`. Unseen keys create groups, existing keys batch-
  /// combine — the external-aggregation reload path. VARCHAR extremes
  /// of `state_rows` are copied into this table's arena.
  void MergeRows(const DataChunk& keys, idx_t count, const uint64_t* hashes,
                 const uint8_t* state_rows);

  /// Hash of group `group_id` as retained at creation.
  uint64_t GroupHash(idx_t group_id) const { return group_hashes_[group_id]; }

  /// Columnar key chunk `i` (groups [i*kVectorSize, ...) in creation
  /// order) — run serialization walks these directly.
  const DataChunk& GroupChunk(idx_t i) const { return *group_chunks_[i]; }

  const AggStateLayout& layout() const { return layout_; }

  /// State row of one group.
  const uint8_t* StateRow(idx_t group_id) const {
    return state_rows_.data() + group_id * layout_.row_size();
  }

  /// Produces the result of aggregate `agg_index` for `group_id`.
  Value FinalizeState(idx_t group_id, idx_t agg_index) const {
    return layout_.Finalize(agg_index, StateRow(group_id));
  }

  /// Copies group key rows [start, start+count) into the leading
  /// columns of `out`. `start` must be kVectorSize-aligned and the
  /// range must not straddle a chunk boundary (emit at most kVectorSize
  /// rows per call, aligned — the natural GetChunk cadence).
  void EmitKeys(idx_t start, idx_t count, DataChunk* out) const;

 private:
  struct Entry {
    uint64_t hash;
    idx_t group;  // kInvalidIndex = empty slot
  };

  void Resize(idx_t new_capacity);
  void EnsureCapacity(idx_t incoming);
  bool GroupEquals(idx_t group, const DataChunk& groups, idx_t row) const;
  idx_t AppendGroup(const DataChunk& groups, idx_t row, uint64_t hash);
  /// Linear-probe find-or-create for one row with a precomputed hash.
  idx_t FindOrCreateOne(const DataChunk& groups, idx_t row, uint64_t hash);

  std::vector<TypeId> group_types_;
  AggStateLayout layout_;
  std::vector<Entry> entries_;
  uint64_t mask_ = 0;
  idx_t group_count_ = 0;
  // Group keys, columnar, creation order; chunk g/kVectorSize row
  // g%kVectorSize holds group g.
  std::vector<std::unique_ptr<DataChunk>> group_chunks_;
  std::vector<uint64_t> group_hashes_;  // creation order, for merge/radix
  std::vector<uint8_t> state_rows_;  // group * layout_.row_size()
  ArenaAllocator strings_;  // bytes of the VARCHAR extremes in state_rows_
  std::vector<uint64_t> hash_scratch_;
  std::vector<idx_t> merge_ids_;  // Merge scratch
  uint64_t approx_bytes_ = 0;
};

/// Radix-partitioned front for thread-local aggregation sinks: groups
/// are routed to one of kPartitions inner AggregateHashTables by the
/// high bits of their hash (the directory probes use the low bits, so
/// the two are independent). Because every thread-local table partitions
/// by the *same* hash, the final merge of N worker tables decomposes
/// into kPartitions disjoint merges that can run on different threads —
/// the serial-merge bottleneck of high-cardinality parallel GROUP BY
/// becomes embarrassingly parallel.
///
/// With `partitioned = false` the wrapper holds a single inner table and
/// routes nothing: the serial aggregation path keeps its exact hot path
/// while sharing the one sink body (physical_aggregate.cc).
///
/// External aggregation (EnableSpilling): after every sunk chunk the
/// operator calls MaybeSpill, which re-reads the governor's budget and,
/// while over it, externalizes the largest partition's groups into a
/// spill *run* — rows of [group hash | state row | encoded key | one
/// [u32 len | bytes] per seen VARCHAR extreme] in a spillable
/// SpillRowStore — and resets that partition's table (an unpartitioned
/// table first upgrades itself to 16 partitions so the runs have a radix
/// home). The same group may appear in several runs and in the resident
/// table; emission (NextEmitTable) walks partitions one at a time,
/// merging a partition's resident groups and all its runs back into one
/// bounded table via MergeRows before its groups are finalized — and
/// when even one partition's merged groups exceed the emission budget,
/// its runs are re-routed by the next 4 hash bits and processed
/// recursively.
class RadixPartitionedAggregateTable {
 public:
  static constexpr idx_t kRadixBits = 4;
  static constexpr idx_t kPartitions = idx_t(1) << kRadixBits;
  /// Deepest recursion shift for emission re-partitioning (shifts 4, 8,
  /// 12; identical-hash groups cannot split further).
  static constexpr int kMaxRadixShift = 12;

  RadixPartitionedAggregateTable(std::vector<TypeId> group_types,
                                 const std::vector<BoundAggregate>& aggregates,
                                 bool partitioned);

  /// Partition of a group hash: its top kRadixBits bits.
  static idx_t PartitionOf(uint64_t hash) { return hash >> (64 - kRadixBits); }

  /// Partition at recursion level `shift`: 4 bits starting `shift` below
  /// the top (shift 0 == PartitionOf).
  static idx_t PartitionOfShift(uint64_t hash, int shift) {
    return (hash >> (64 - kRadixBits - shift)) & (kPartitions - 1);
  }

  /// Maps the first `count` rows of `groups` to their partitions'
  /// groups, creating unseen groups. Retains the per-partition routing
  /// (selection vectors + group ids) for the UpdateStates calls that
  /// must follow for the same chunk.
  void FindOrCreateGroups(const DataChunk& groups, idx_t count);

  /// Folds rows of `arg` into aggregate slot `agg_index` of the groups
  /// resolved by the preceding FindOrCreateGroups call.
  void UpdateStates(idx_t agg_index, const Vector* arg, idx_t count);

  idx_t PartitionCount() const { return partitions_.size(); }
  AggregateHashTable& partition(idx_t p) { return *partitions_[p]; }
  const AggregateHashTable& partition(idx_t p) const {
    return *partitions_[p];
  }

  idx_t GroupCount() const;

  // -- Out-of-core aggregation --------------------------------------

  /// Enables spilling: resident groups are kept under
  /// governor->EffectiveMemoryBudget() / divisor, re-read at every
  /// MaybeSpill. `aggregates` must outlive the table (the operator's
  /// member list); needed to build replacement/merge tables.
  void EnableSpilling(const ResourceGovernor* governor,
                      BufferManager* buffers, uint64_t divisor,
                      const std::vector<BoundAggregate>* aggregates);

  /// Re-shares the budget (e.g. back to /2 once parallel sink workers
  /// have merged into the one surviving table).
  void SetSpillDivisor(uint64_t divisor) { spill_divisor_ = divisor; }

  /// True once any groups were externalized to runs.
  bool Spilled() const { return spilled_.load(std::memory_order_relaxed); }

  /// The partition-sink budget consultation: called after every sunk
  /// chunk; while resident groups exceed the budget, externalizes the
  /// largest partition into a run (upgrading an unpartitioned table to
  /// 16 partitions on first spill).
  Status MaybeSpill();

  /// Per-partition variant for the parallel merge step: spills partition
  /// `p` if it alone exceeds a 1/kPartitions share of the budget. Safe
  /// to call concurrently for distinct `p` (runs and tables are
  /// per-partition; only the spilled_ flag is shared, and it is atomic).
  Status MaybeSpillPartition(idx_t p);

  /// Steals `other`'s spill runs (parallel sink: workers spill
  /// independently; the coordinator adopts their runs and merges them
  /// lazily at emission). Resident groups are NOT adopted — merge those
  /// with partition(p).Merge as before.
  void AdoptRuns(RadixPartitionedAggregateTable* other);

  /// Emission driver: returns the next fully-merged table of final
  /// groups via `*out` (resident + all runs of one partition, or one
  /// recursion slice of an oversized partition), or null when every
  /// group has been emitted. The returned table stays valid until the
  /// next call. Call only after sinking is complete.
  Status NextEmitTable(AggregateHashTable** out);

 private:
  uint64_t SpillBudget() const;
  /// Per-emission-table cap; half the spill budget, so the merge table
  /// plus the run cursors stay inside the operator's share.
  uint64_t EmitBudget() const;
  /// Externalizes every group of partitions_[table_index] into the runs
  /// keyed by the groups' top-4 hash bits, then resets the table.
  Status SpillPartitionTable(idx_t table_index);
  /// Serializes one table's groups as run rows routed by
  /// PartitionOfShift(hash, shift) into `sinks`.
  Status SerializeTable(AggregateHashTable* table, int shift,
                        std::array<std::unique_ptr<SpillRowStore>,
                                   kPartitions>* sinks);
  void UpgradeToPartitioned();

  /// One emission unit: a set of runs covering a disjoint hash range,
  /// to be merged into a single table (splitting at `shift` + 4 if the
  /// merged table outgrows the emission budget).
  struct EmitJob {
    std::vector<std::unique_ptr<SpillRowStore>> runs;
    int shift = kRadixBits;
  };
  Status ProcessEmitJob(EmitJob job, bool* produced);

  std::vector<std::unique_ptr<AggregateHashTable>> partitions_;
  // Per-chunk routing scratch (valid between FindOrCreateGroups and the
  // UpdateStates calls for the same chunk).
  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> part_sel_;   // kPartitions x kVectorSize
  std::vector<idx_t> part_ids_;      // kPartitions x kVectorSize
  idx_t part_count_[kPartitions] = {};
  std::vector<idx_t> ids_;  // unpartitioned fast path

  // Spilling state.
  std::vector<TypeId> group_types_;
  const std::vector<BoundAggregate>* spill_aggregates_ = nullptr;
  const ResourceGovernor* governor_ = nullptr;
  BufferManager* buffers_ = nullptr;
  uint64_t spill_divisor_ = 2;
  std::atomic<bool> spilled_{false};
  std::unique_ptr<RowCodec> key_codec_;
  std::array<std::vector<std::unique_ptr<SpillRowStore>>, kPartitions> runs_;
  // Emission state.
  idx_t emit_next_partition_ = 0;
  std::vector<EmitJob> emit_jobs_;  // LIFO recursion stack
  std::unique_ptr<AggregateHashTable> emit_table_;
};

}  // namespace mallard

#endif  // MALLARD_EXECUTION_AGGREGATE_HASHTABLE_H_
