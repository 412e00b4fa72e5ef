#ifndef MALLARD_EXECUTION_PHYSICAL_JOIN_H_
#define MALLARD_EXECUTION_PHYSICAL_JOIN_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "mallard/execution/external_sort.h"
#include "mallard/execution/join_hashtable.h"
#include "mallard/execution/physical_operator.h"
#include "mallard/execution/row_codec.h"
#include "mallard/execution/spill/spill_row_store.h"
#include "mallard/expression/bound_expression.h"
#include "mallard/storage/buffer_manager.h"

namespace mallard {

/// Join types supported by the planner.
enum class JoinType : uint8_t { kInner, kLeft, kSemi, kAnti };

/// One equi-join condition: left-side expression == right-side expression.
struct JoinCondition {
  ExprPtr left;
  ExprPtr right;
};

/// In-memory hash join: builds on the right child, probes with the left.
/// Fast but memory-hungry — the RAM-for-CPU side of the trade-off the
/// reactive governor arbitrates (paper section 4). Backed by the
/// vectorized JoinHashTable: keys are hashed batch-at-a-time over typed
/// vector data, matches are gathered into a selection vector, and
/// output is emitted with CopySelection for the probe side plus direct
/// row decodes for the build side — no per-row key serialization or map
/// lookups. Build rows live in buffer-manager segments so the memory
/// cost is visible to the governor's accounting.
///
/// Parallel probe: after the single Finalize the hash table is immutable
/// and its probe entry points are const and scratch-free, so a finalized
/// join is one more streaming step of its probe side's pipeline.
/// PipelineSource builds the table on the calling thread and hands the
/// probe side's morsel table to the sink above; each pipeline worker's
/// join state is born built, probes the serial state's table with its
/// own ProbeCursor, and streams its matches straight into the operators
/// above it (filters, further joins, the sink), with nothing
/// materialized. A join whose output goes to the host, or whose probe
/// side has no parallel shape, probes serially.
///
/// Grace (out-of-core) mode: when the build side exceeds the governor's
/// budget the JoinHashTable finalizes into grace mode — its 16 radix
/// partitions stay unloaded instead of forming one global directory.
/// The probe side is then routed once into 16 partition stashes
/// (SpillRowStore of [hash | encoded probe row]; spillable, so the
/// route itself stays in budget), and partitions are joined one at a
/// time: resident ones first, spilled ones reloaded via LoadPartition +
/// FinalizePartition, each probed by replaying its stash through the
/// regular ProbeChunk body and dropped when drained. A partition that
/// alone exceeds the budget is rebuilt into a child table partitioned
/// on the next 4 hash bits (recursive grace), down to kMaxRadixShift.
/// Every join type works unchanged because each probe row lives in
/// exactly one stash and is replayed exactly once.
class PhysicalHashJoin final : public PhysicalOperator {
 private:
  /// Probe-side state of one State: the current probe chunk, its
  /// evaluated keys/hashes/chain heads, and the mid-chain resume
  /// position. The grace stash replay reuses the serial state's one.
  struct ProbeCursor {
    DataChunk chunk;
    DataChunk keys;
    std::vector<uint64_t> hashes;
    std::vector<uint64_t> heads;
    std::vector<uint32_t> sel;   // gather scratch
    std::vector<uint64_t> refs;  // gather scratch
    idx_t position = 0;
    uint64_t chain_ref = JoinHashTable::kNullRef;
    bool chain_active = false;  // FirstMatch already run for current row
    bool row_matched = false;   // current row produced a match (left join)
    bool exhausted = false;  // source drained and cursor fully consumed
  };

  /// One unit of grace-mode probe work: join partition `partition` of
  /// `table` against the stashed probe rows. `owner` keeps a recursion
  /// child table alive for as long as any of its jobs are pending;
  /// root jobs (over the execution's own table) leave it null. A
  /// `whole_table` job probes the entire table (a recursion child that
  /// turned out to fit in memory) with the parent partition's stash.
  struct GraceJob {
    std::shared_ptr<JoinHashTable> owner;
    JoinHashTable* table = nullptr;
    idx_t partition = 0;
    bool whole_table = false;
    std::unique_ptr<SpillRowStore> stash;
  };

 public:
  PhysicalHashJoin(JoinType join_type, std::vector<JoinCondition> conditions,
                   std::unique_ptr<PhysicalOperator> left,
                   std::unique_ptr<PhysicalOperator> right);
  Status GetChunk(ExecutionContext* context, OperatorState* state,
                  DataChunk* out) const override;
  std::string name() const override;

  /// One execution of the join (or one pipeline worker's share of it):
  /// the hash table, the probe cursor and the grace jobs.
  struct State : OperatorState {
    /// Owned by the serial state only; a worker state probes the serial
    /// state's table through `probe_table`.
    std::unique_ptr<JoinHashTable> table;
    bool built = false;
    // Table the probe paths read from: `table` normally; in grace mode
    // the per-partition (or recursion-child) table of the active job.
    const JoinHashTable* probe_table = nullptr;
    // Grace probe state: the stash replay of the active job runs through
    // `grace_source` (with its own state) into the probe cursor.
    bool grace_routed = false;
    bool grace_active = false;
    std::unique_ptr<RowCodec> probe_codec;
    std::vector<GraceJob> grace_jobs;  // LIFO; resident partitions on top
    GraceJob grace_current;
    std::unique_ptr<PhysicalOperator> grace_source;
    StatePtr grace_source_state;
    ProbeCursor probe;
    /// Phase timing (benches): build = sink + Finalize of the hash
    /// table; probe = time in this state's GetChunk after the build (a
    /// pipeline worker's probe time lands in its own state).
    double build_ms = 0;
    double probe_ms = 0;
  };

  /// Builds the table on the calling thread; a grace-mode join stays
  /// serial (null), otherwise the probe side's pipeline continues.
  Result<const DataTable*> PipelineSource(
      ExecutionContext* context, OperatorState* state) const override;

 protected:
  StatePtr CreateState(const MorselWorker* worker,
                       const OperatorState* serial) const override;

 private:
  Status Build(ExecutionContext* context, State* state) const;
  /// Morsel-driven partitioned build: workers scan disjoint row-group
  /// morsels of the build side into private JoinHashTable partitions,
  /// which are then merged into the state's table (still un-finalized).
  /// Sets `*done` when the parallel path ran; otherwise the caller falls
  /// back to the serial pull loop.
  Status ParallelBuild(ExecutionContext* context, State* state,
                       bool* done) const;
  /// The build-side sink loop shared by the serial path (the state's
  /// child state, table = the state's) and every parallel worker (its
  /// own state of the build subtree, table = its partition): pull
  /// chunks, evaluate keys, append. Keeping one body keeps serial and
  /// parallel semantics from diverging.
  Status SinkBuildSide(ExecutionContext* context, OperatorState* source_state,
                       JoinHashTable* table) const;
  /// Produces the next output chunk (up to kVectorSize rows) by pulling
  /// probe chunks from `source` (through `source_state`) via `cursor`
  /// against `table` — the probe loop body shared by the serial path,
  /// every pipeline worker and the grace stash replay. An empty output
  /// chunk signals source exhaustion.
  Status ProbeChunk(ExecutionContext* context, const PhysicalOperator* source,
                    OperatorState* source_state, const JoinHashTable* table,
                    ProbeCursor* cursor, DataChunk* out) const;
  /// Evaluates one side's condition expressions over `input`.
  Status EvaluateKeys(const ExecutionContext& context, bool left_side,
                      const DataChunk& input, DataChunk* keys) const;
  /// Gathers up to `capacity` output rows from the cursor's current
  /// probe chunk into (probe row, build ref) pairs; build ref kNullRef
  /// marks a NULL-padded left-join row. Resumes mid-chain across calls.
  idx_t GatherMatches(const JoinHashTable* table, ProbeCursor* cursor,
                      idx_t capacity, uint32_t* sel, uint64_t* refs) const;

  /// Grace-mode driver: routes the probe side once, then pops jobs off
  /// the LIFO stack until every partition has been joined.
  Status GraceProbe(ExecutionContext* context, State* state,
                    DataChunk* out) const;
  /// Pulls the whole probe side and scatters it into one spillable
  /// stash per build partition ([hash | RowCodec-encoded probe row]).
  Status RouteProbeSide(ExecutionContext* context, State* state) const;
  /// Activates a job (load + per-partition finalize + stash replay), or
  /// splits it into 16 finer jobs when the partition alone exceeds the
  /// budget (recursive grace at radix shift + 4).
  Status PrepareGraceJob(ExecutionContext* context, State* state,
                         GraceJob job) const;
  Status SplitGraceJob(ExecutionContext* context, State* state,
                       GraceJob job) const;
  /// Pushes one job per partition, spilled partitions first so the LIFO
  /// stack pops resident ones before reload pressure can evict them.
  static void PushGraceJobs(
      State* state, std::shared_ptr<JoinHashTable> owner,
      JoinHashTable* table,
      std::array<std::unique_ptr<SpillRowStore>, JoinHashTable::kPartitions>*
          stashes);

  JoinType join_type_;
  std::vector<JoinCondition> conditions_;
  std::vector<TypeId> right_types_;
};

/// Sort-merge join over both children using the out-of-core external
/// sort: the RAM-light, CPU/IO-heavy alternative (paper section 4).
/// Supports inner and left joins on equality keys.
class PhysicalMergeJoin final : public PhysicalOperator {
 public:
  PhysicalMergeJoin(JoinType join_type, std::vector<JoinCondition> conditions,
                    std::unique_ptr<PhysicalOperator> left,
                    std::unique_ptr<PhysicalOperator> right);
  Status GetChunk(ExecutionContext* context, OperatorState* state,
                  DataChunk* out) const override;
  std::string name() const override;

 protected:
  StatePtr CreateState(const MorselWorker* worker,
                       const OperatorState* serial) const override;

 private:
  struct MergeState;

  Status SortInputs(ExecutionContext* context, MergeState* state) const;
  Status AdvanceLeft(MergeState* state) const;
  Status LoadNextRightGroup(MergeState* state) const;

  JoinType join_type_;
  std::vector<JoinCondition> conditions_;
  std::vector<TypeId> left_types_;
  std::vector<TypeId> right_types_;
};

/// Cross product with the right side materialized as chunks in a
/// SpillRowStore, so a right side larger than memory spills instead of
/// growing the heap. Non-equi joins lower to this + filter.
class PhysicalCrossProduct final : public PhysicalOperator {
 public:
  PhysicalCrossProduct(std::unique_ptr<PhysicalOperator> left,
                       std::unique_ptr<PhysicalOperator> right);
  Status GetChunk(ExecutionContext* context, OperatorState* state,
                  DataChunk* out) const override;
  std::string name() const override;

 protected:
  StatePtr CreateState(const MorselWorker* worker,
                       const OperatorState* serial) const override;
};

}  // namespace mallard

#endif  // MALLARD_EXECUTION_PHYSICAL_JOIN_H_
