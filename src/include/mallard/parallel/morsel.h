/**
 * @file morsel.h
 * @brief Morsel-driven parallel table scans (Leis et al., SIGMOD 2014).
 *
 * A morsel is one row group (kRowGroupSize rows) of a DataTable. A
 * TableMorselSource hands out morsels to workers on demand, so fast
 * workers automatically take more of the table (work stealing by
 * construction) and the governor's reactive thread budget is re-checked
 * at every morsel boundary — a worker whose index no longer fits the
 * budget simply stops asking and exits.
 */
#ifndef MALLARD_PARALLEL_MORSEL_H_
#define MALLARD_PARALLEL_MORSEL_H_

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "mallard/execution/physical_operator.h"
#include "mallard/storage/table/data_table.h"

namespace mallard {

class ResourceGovernor;

/// Hands out row-group morsels of one table scan to a set of workers.
/// Shared by the scan-leaf states of every worker of a pipeline (see
/// MorselWorker).
class TableMorselSource {
 public:
  /// `row_group_count` is a snapshot taken when the pipeline launches;
  /// row groups appended later hold rows that are invisible to the
  /// running transaction's snapshot anyway. `thread_limit` > 0 (the
  /// connection's PRAGMA threads override) pins the budget; otherwise
  /// the governor's reactive budget — further clamped to the query's
  /// fair share when `scheduler`+`ticket` are given — is consulted live,
  /// so a running scan sheds workers the moment a second query arrives.
  TableMorselSource(idx_t row_group_count, const ResourceGovernor* governor,
                    int thread_limit, const TaskScheduler* scheduler = nullptr,
                    const QueryTicket* ticket = nullptr);

  /// Claims the next morsel for `worker`. Returns false when the table
  /// is exhausted — or, for workers other than 0, when the thread
  /// budget has dropped to `worker` or below (the drain point of
  /// reactive governing; worker 0 never drains, so the query always
  /// makes progress).
  bool Next(int worker, idx_t* row_group);

  idx_t row_group_count() const { return row_group_count_; }

  /// Thread budget at this instant (PRAGMA override or governor).
  int EffectiveBudget() const;

  /// Morsels handed to `worker` so far (tests observe draining).
  idx_t MorselsClaimed(int worker) const {
    return claimed_[worker < kMaxWorkers ? worker : 0].load();
  }

  static constexpr int kMaxWorkers = 64;

 private:
  std::atomic<idx_t> next_{0};
  idx_t row_group_count_;
  const ResourceGovernor* governor_;
  int thread_limit_;
  const TaskScheduler* scheduler_;
  const QueryTicket* ticket_;
  std::atomic<idx_t> claimed_[kMaxWorkers] = {};
};

namespace parallel {

/// Resolves how wide a parallel phase launched right now may fan out:
/// the connection's PRAGMA threads override, or the governor's effective
/// budget clamped to the query's fair share of the pool (when the
/// context carries a QueryTicket), clamped to
/// TableMorselSource::kMaxWorkers and to `item_count` (morsels,
/// partitions, ...), floored at 1. The single definition of the
/// launch-width contract — every parallel phase (scan pipelines,
/// partition-task fan-out) resolves through it.
int ResolveLaunchWidth(const ExecutionContext* context, idx_t item_count);

/// A pipeline worker's body: `scan` is the worker's own state of the
/// shared subtree, whose scan leaf claims morsels from the shared source.
using MorselTask = std::function<Status(int worker, OperatorState* scan)>;

/// The one launcher of every parallel sink (hash-join build, grouped and
/// ungrouped aggregation). Readies `serial_state` (the sink's own state
/// of `subtree`) through PipelineSource, which builds every hash join of
/// the pipeline on the calling thread; then, when the subtree has a
/// morsel table and the launch width is above 1, builds one worker state
/// per worker from `serial_state` and runs `worker(w, state_w)` on the
/// scheduler (width pinned when the connection's PRAGMA threads override
/// is set, governed otherwise). `prepare(workers)` runs once on the
/// calling thread before fan-out — size per-worker results there. Sets
/// `*ran` = false (without calling either) when the subtree stays
/// serial; the caller then pulls `serial_state` in its serial loop.
/// Workers the scheduler clamps away below the planned width simply
/// never run — their morsels are claimed by the others, so per-worker
/// results must tolerate untouched slots.
Status RunMorselPipeline(ExecutionContext* context,
                         const PhysicalOperator* subtree,
                         OperatorState* serial_state, bool* ran,
                         const std::function<void(idx_t workers)>& prepare,
                         const MorselTask& worker);

/// Runs `task(i)` for i in [0, task_count) across the worker pool, each
/// task claimed from a shared atomic counter (the non-scan sibling of a
/// morsel source — used for e.g. the per-partition merges of
/// radix-partitioned aggregation). Honors the same budget contract as
/// morsel scans: launch width is the PRAGMA override or the governor's
/// budget, the budget is re-read at every task boundary so surplus
/// workers drain mid-merge, and worker 0 is exempt so the work always
/// completes. Runs inline on the calling thread when the context has no
/// scheduler or the budget is 1.
Status RunPartitionedTasks(ExecutionContext* context, idx_t task_count,
                           const std::function<Status(idx_t task)>& task);

}  // namespace parallel

}  // namespace mallard

#endif  // MALLARD_PARALLEL_MORSEL_H_
