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
  Status GetChunk(ExecutionContext* context, OperatorState* state,
                  DataChunk* out) const override;
  std::string name() const override;

 protected:
  StatePtr CreateState(const MorselWorker* worker,
                       const OperatorState* serial) const override;

 private:
  /// One state row of layout_ and the arena its VARCHAR extremes live in.
  struct Accumulator {
    explicit Accumulator(idx_t row_size) : row(row_size, 0) {}
    std::vector<uint8_t> row;
    ArenaAllocator strings;
  };

  /// Thread-local partial state rows combined with AggStateLayout::Combine;
  /// sets `*done` when the parallel path ran.
  Status ParallelAggregate(ExecutionContext* context,
                           OperatorState* serial_state, Accumulator* total,
                           bool* done) const;
  /// The accumulation loop shared by the serial path and every parallel
  /// worker: pull chunks from the child through `source_state` (the
  /// serial child state or a worker's), evaluate the aggregates'
  /// arguments, fold into `acc`. One body keeps serial and parallel
  /// semantics from diverging.
  Status AggregateSource(ExecutionContext* context,
                         OperatorState* source_state, Accumulator* acc) const;

  std::vector<BoundAggregate> aggregates_;
  AggStateLayout layout_;
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
  Status GetChunk(ExecutionContext* context, OperatorState* state,
                  DataChunk* out) const override;
  std::string name() const override;

  /// One execution's aggregation: the table and the emission cursor.
  struct State : OperatorState {
    std::unique_ptr<RadixPartitionedAggregateTable> table;
    bool sunk = false;
    // Emission cursor: tables come from table->NextEmitTable (resident
    // partition or merged spill slice); the offset is kVectorSize-aligned
    // within the current table.
    AggregateHashTable* emit_current = nullptr;
    idx_t emit_offset = 0;
    /// Phase timing (benches): time spent in the (possibly parallel)
    /// input sink, and in the partition-merge pass (0 for serial sinks,
    /// which have no merge).
    double sink_ms = 0;
    double merge_ms = 0;
  };

 protected:
  StatePtr CreateState(const MorselWorker* worker,
                       const OperatorState* serial) const override;

 private:
  Status Sink(ExecutionContext* context, State* state) const;
  /// Morsel-driven pre-aggregation: workers aggregate disjoint morsels
  /// into thread-local radix-partitioned tables; the per-partition
  /// merges then run through parallel::RunPartitionedTasks. Sets `*done`
  /// when the parallel path ran; otherwise the caller runs the serial
  /// sink loop.
  Status ParallelSink(ExecutionContext* context, State* state,
                      bool* done) const;
  /// The sink loop shared by the serial path (source = child(0), one
  /// unpartitioned table) and every parallel worker (its own state of
  /// the child subtree, table = its thread-local partitioned table):
  /// pull chunks, evaluate groups, FindOrCreateGroups, update states.
  /// One body keeps serial and parallel semantics from diverging.
  Status SinkSource(ExecutionContext* context, OperatorState* source_state,
                    RadixPartitionedAggregateTable* table) const;
  std::vector<TypeId> GroupTypes() const;

  std::vector<ExprPtr> groups_;
  std::vector<BoundAggregate> aggregates_;
};

}  // namespace mallard

#endif  // MALLARD_EXECUTION_PHYSICAL_AGGREGATE_H_
