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
#include "mallard/parallel/morsel.h"
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
/// and its probe entry points are const and scratch-free, so the probe
/// side runs morsel-parallel when it is a scan-shaped pipeline — each
/// worker owns a private ProbeCursor and a private SpillRowStore of
/// result chunks, drained in worker-index order afterwards. Covers
/// inner/left/semi/anti; the governor's budget is re-read at every
/// morsel boundary exactly like the build side. Memory is bounded: the
/// pipeline runs in *passes* — each pass materializes at most a
/// governor-derived byte budget per worker, GetChunk drains those
/// buffers, and the next pass resumes from the shared morsel counter
/// (and mid-morsel cursors), so a high-fanout join never buffers more
/// than one pass of output. When the probe subtree has no parallel
/// shape (or the budget is 1) the classic streaming serial probe runs
/// unchanged.
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
  /// Per-worker (or serial) probe-side state: the current probe chunk,
  /// its evaluated keys/hashes/chain heads, and the mid-chain resume
  /// position. Each parallel probe worker owns one; the serial path
  /// (and the grace stash replay) uses the state's own instance.
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

  /// One execution of the join: the hash table, the probe cursors and
  /// pass buffers, and the grace jobs.
  struct State : OperatorState {
    std::unique_ptr<JoinHashTable> table;
    bool built = false;
    // Table the probe paths read from: `table` normally; in grace mode
    // the per-partition (or recursion-child) table of the active job.
    JoinHashTable* probe_table = nullptr;
    // Grace probe state: the stash replay of the active job runs through
    // `grace_source` (with its own state) into the serial cursor.
    bool grace_routed = false;
    bool grace_active = false;
    std::unique_ptr<RowCodec> probe_codec;
    std::vector<GraceJob> grace_jobs;  // LIFO; resident partitions on top
    GraceJob grace_current;
    std::unique_ptr<PhysicalOperator> grace_source;
    StatePtr grace_source_state;
    // Serial probe state.
    ProbeCursor probe;
    // Parallel probe state: the resumable pipeline, per-worker cursors,
    // this pass's per-worker result buffers (null for workers that did
    // not run this pass) and the drain cursor over them.
    bool probe_planned = false;
    bool parallel_probe = false;
    parallel::MorselPipeline probe_pipeline;
    std::vector<std::unique_ptr<ProbeCursor>> probe_cursors;
    std::vector<std::unique_ptr<SpillRowStore>> probe_results;
    idx_t drain_index = 0;
    SpillRowStore::Cursor drain_scan;
    /// Phase timing (benches): build = sink + Finalize of the hash
    /// table; probe = everything after (for a parallel probe, the whole
    /// materialization lands in the first GetChunk and is counted here).
    double build_ms = 0;
    double probe_ms = 0;
  };

 protected:
  StatePtr CreateState(const MorselWorker* worker) const override;

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
  /// Sizes a cursor's chunks and scratch.
  void InitCursor(ProbeCursor* cursor) const;
  /// Produces the next output chunk (up to kVectorSize rows) by pulling
  /// probe chunks from `source` (through `source_state`) via `cursor`
  /// against `table` — the probe loop body shared by the serial path,
  /// every parallel worker and the grace stash replay. An empty output
  /// chunk signals source exhaustion.
  Status ProbeChunk(ExecutionContext* context, const PhysicalOperator* source,
                    OperatorState* source_state, const JoinHashTable* table,
                    ProbeCursor* cursor, DataChunk* out) const;
  /// Plans the morsel-parallel probe over the (finalized, immutable)
  /// hash table: one state of the probe subtree per worker and the
  /// per-worker cursors. Sets parallel_probe; when false the serial
  /// streaming probe runs instead.
  Status PlanParallelProbe(ExecutionContext* context, State* state) const;
  /// One bounded pass: every unfinished cursor probes morsels into a
  /// fresh private SpillRowStore until the source is exhausted for it
  /// or the pass's per-cursor byte budget is reached (mid-morsel
  /// cursors resume next pass). Pass runners claim pending cursors from
  /// a shared queue, so every unfinished cursor advances even when the
  /// governor clamps a pass to fewer runners than cursors — the pass
  /// always makes progress. GetChunk drains the buffers in cursor order
  /// between passes.
  Status RunProbePass(ExecutionContext* context, State* state) const;
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
  StatePtr CreateState(const MorselWorker* worker) const override;

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
  StatePtr CreateState(const MorselWorker* worker) const override;
};

}  // namespace mallard

#endif  // MALLARD_EXECUTION_PHYSICAL_JOIN_H_
