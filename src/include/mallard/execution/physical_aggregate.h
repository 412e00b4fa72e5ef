#ifndef MALLARD_EXECUTION_PHYSICAL_AGGREGATE_H_
#define MALLARD_EXECUTION_PHYSICAL_AGGREGATE_H_

#include <memory>
#include <string>
#include <vector>

#include "mallard/execution/aggregate_function.h"
#include "mallard/execution/aggregate_hashtable.h"
#include "mallard/execution/physical_operator.h"

namespace mallard {

/// Aggregation without GROUP BY: exactly one output row, from one state
/// row of the same AggStateLayout the hash aggregate uses (every input
/// row has group id 0).
class PhysicalUngroupedAggregate final : public PhysicalOperator {
 public:
  PhysicalUngroupedAggregate(std::vector<BoundAggregate> aggregates,
                             std::unique_ptr<PhysicalOperator> child);
  Status GetChunk(ExecutionContext* context, DataChunk* out) override;
  std::string name() const override;

 protected:
  Status ResetOperator() override {
    done_ = false;
    return Status::OK();
  }

 private:
  /// One state row of layout_ and the arena its VARCHAR extremes live in.
  struct State {
    explicit State(idx_t row_size) : row(row_size, 0) {}
    std::vector<uint8_t> row;
    ArenaAllocator strings;
  };

  /// Thread-local partial state rows combined with AggStateLayout::Combine;
  /// sets `*done` when the parallel path ran.
  Status ParallelAggregate(ExecutionContext* context, State* state,
                           bool* done);
  /// The accumulation loop shared by the serial path and every parallel
  /// worker: pull chunks from `source`, evaluate `arg_exprs` (null
  /// entry = COUNT(*)), fold into `state`. One body keeps serial and
  /// parallel semantics from diverging.
  Status AggregateSource(ExecutionContext* context, PhysicalOperator* source,
                         const std::vector<ExprPtr>& arg_exprs, State* state);
  /// One nullable Copy of each aggregate's argument expression.
  std::vector<ExprPtr> CopyArgExprs() const;

  std::vector<BoundAggregate> aggregates_;
  AggStateLayout layout_;  // planned at each execution
  bool done_ = false;
};

/// Hash aggregation: output columns are the group keys followed by the
/// aggregates. Backed by the vectorized AggregateHashTable — group
/// lookup is a batch hash pass plus a linear-probe loop per chunk, and
/// aggregate states update in typed batches over compact fixed-width
/// state rows (no per-row key serialization, map lookups, or Value
/// boxing on fixed-width aggregates).
///
/// Parallel sink: workers pre-aggregate disjoint morsels into
/// thread-local *radix-partitioned* tables, so the final merge
/// decomposes into kPartitions disjoint per-partition merges that run in
/// parallel under the governor's budget (serial sinks keep a single
/// unpartitioned table and skip routing entirely).
///
/// External aggregation: when a governor is present the table's spilling
/// is enabled and MaybeSpill runs after every sunk chunk, externalizing
/// the largest radix partition to spill runs whenever resident groups
/// exceed the operator's budget share (workers divide the share evenly;
/// during the parallel merge each partition checks its own 1/16 share).
/// Emission then goes through NextEmitTable, which merges each
/// partition's runs back into one bounded table — recursing on the next
/// 4 hash bits if a partition alone outgrows the emission budget.
class PhysicalHashAggregate final : public PhysicalOperator {
 public:
  PhysicalHashAggregate(std::vector<ExprPtr> groups,
                        std::vector<BoundAggregate> aggregates,
                        std::unique_ptr<PhysicalOperator> child);
  Status GetChunk(ExecutionContext* context, DataChunk* out) override;
  std::string name() const override;

  /// Number of distinct groups seen (stats for tests/benches). When the
  /// aggregate spilled, resident tables are drained during emission, so
  /// the count of emitted groups takes over once emission ran.
  idx_t GroupCount() const {
    idx_t resident = table_ ? table_->GroupCount() : 0;
    return emitted_groups_ > resident ? emitted_groups_ : resident;
  }

  /// True when any groups were externalized to spill runs (tests).
  bool Spilled() const { return table_ && table_->Spilled(); }

  /// Phase timing of the last execution (benches): time spent in the
  /// (possibly parallel) input sink, and in the partition-merge pass
  /// (0 for serial sinks, which have no merge).
  double SinkMs() const { return sink_ms_; }
  double MergeMs() const { return merge_ms_; }

 protected:
  Status ResetOperator() override {
    emit_current_ = nullptr;
    table_.reset();
    sunk_ = false;
    emit_offset_ = 0;
    emitted_groups_ = 0;
    sink_ms_ = 0;
    merge_ms_ = 0;
    return Status::OK();
  }

 private:
  Status Sink(ExecutionContext* context);
  /// Morsel-driven pre-aggregation: workers aggregate disjoint morsels
  /// into thread-local radix-partitioned tables; the per-partition
  /// merges then run through parallel::RunPartitionedTasks. Sets `*done`
  /// when the parallel path ran; otherwise the caller runs the serial
  /// sink loop.
  Status ParallelSink(ExecutionContext* context, bool* done);
  /// The sink loop shared by the serial path (source = child(0), one
  /// unpartitioned table) and every parallel worker (source = its morsel
  /// clone, table = its thread-local partitioned table): pull chunks,
  /// evaluate groups, FindOrCreateGroups, update states. One body keeps
  /// serial and parallel semantics from diverging. Argument entries may
  /// be null (COUNT(*)).
  Status SinkSource(ExecutionContext* context, PhysicalOperator* source,
                    const std::vector<ExprPtr>& group_exprs,
                    const std::vector<ExprPtr>& arg_exprs,
                    RadixPartitionedAggregateTable* table);
  std::vector<TypeId> GroupTypes() const;
  std::vector<ExprPtr> CopyGroupExprs() const;
  std::vector<ExprPtr> CopyArgExprs() const;

  std::vector<ExprPtr> groups_;
  std::vector<BoundAggregate> aggregates_;

  std::unique_ptr<RadixPartitionedAggregateTable> table_;
  bool sunk_ = false;
  // Emission cursor: tables come from table_->NextEmitTable (resident
  // partition or merged spill slice); the offset is kVectorSize-aligned
  // within the current table.
  AggregateHashTable* emit_current_ = nullptr;
  idx_t emit_offset_ = 0;
  idx_t emitted_groups_ = 0;
  double sink_ms_ = 0;
  double merge_ms_ = 0;
};

}  // namespace mallard

#endif  // MALLARD_EXECUTION_PHYSICAL_AGGREGATE_H_
