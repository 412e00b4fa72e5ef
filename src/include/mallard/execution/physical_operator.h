#ifndef MALLARD_EXECUTION_PHYSICAL_OPERATOR_H_
#define MALLARD_EXECUTION_PHYSICAL_OPERATOR_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "mallard/common/result.h"
#include "mallard/common/value.h"
#include "mallard/vector/data_chunk.h"

namespace mallard {

class Transaction;
class BufferManager;
class ResourceGovernor;
class TaskScheduler;
class TableMorselSource;
class DataTable;
class QueryTicket;

/// Per-query execution context threaded through the operator tree. The
/// struct is read-only while a query runs, so one instance is safely
/// shared by every worker of a parallel pipeline.
struct ExecutionContext {
  Transaction* txn = nullptr;
  BufferManager* buffers = nullptr;
  ResourceGovernor* governor = nullptr;
  /// Worker pool for morsel-driven parallel sinks; null = serial only
  /// (contexts built outside Connection, e.g. unit tests, stay serial
  /// unless they opt in).
  TaskScheduler* scheduler = nullptr;
  /// Per-connection PRAGMA threads override; 0 = use the governor's
  /// (possibly reactive) thread budget.
  int thread_limit = 0;
  /// This query's registration with the shared scheduler (null outside
  /// Connection). Parallel phases clamp their width to the ticket's
  /// fair share so concurrent queries split the pool.
  const QueryTicket* ticket = nullptr;
  /// Connection::Interrupt() flag; scans poll it at chunk/morsel
  /// boundaries and fail with kInterrupted when set. Null = never
  /// interrupted (contexts built outside Connection).
  std::atomic<bool>* interrupt = nullptr;
  /// Statement deadline (PRAGMA statement_timeout_ms); checked at the
  /// same chunk/morsel boundaries as `interrupt`. Unset = no timeout.
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};
  /// PRAGMA salvage_mode: table scans skip quarantined row groups
  /// (reporting skipped counts) instead of failing with kCorruption.
  bool salvage_mode = false;
  /// The values this execution binds to the statement's parameters;
  /// null when it binds none.
  const ParameterValues* parameters = nullptr;

  /// Chunk/morsel-boundary cancellation point: a pending
  /// Connection::Interrupt() becomes kInterrupted, as does an expired
  /// statement deadline. The check only loads (every parallel worker
  /// sees it and stops at its next boundary); the Connection clears the
  /// flag when the statement finishes, so one Interrupt() kills at most
  /// one statement and the connection stays reusable.
  Status CheckInterrupt() const {
    if (interrupt && interrupt->load(std::memory_order_relaxed)) {
      return Status::Interrupted("query canceled by Connection::Interrupt()");
    }
    if (has_deadline && std::chrono::steady_clock::now() >= deadline) {
      return Status::Interrupted("statement timeout reached");
    }
    return Status::OK();
  }
};

/// One worker's seat in a parallel pipeline: the morsel source its
/// scan leaf claims row groups from, shared by every worker, and its
/// worker index.
struct MorselWorker {
  std::shared_ptr<TableMorselSource> source;
  int worker = 0;
};

/// What one execution of one operator mutates: scan cursors, child
/// chunks, hash tables, sort runs, counters. The running statement
/// builds the tree with PhysicalOperator::MakeState and destroys it when
/// it finishes; a child's state lives in its parent's `children`.
struct OperatorState {
  virtual ~OperatorState() = default;
  std::vector<std::unique_ptr<OperatorState>> children;
};

using StatePtr = std::unique_ptr<OperatorState>;

/// The state of an operator that emits its one result chunk once
/// (aggregates without GROUP BY, DML counts).
struct EmitOnceState : OperatorState {
  bool done = false;
};

/// Base class of the "Vector Volcano" pull-based execution model (paper
/// section 6): the consumer repeatedly pulls chunks from the root; an
/// empty chunk signals completion. Operators recursively pull from their
/// children.
///
/// A plan is immutable once planned: an operator keeps only what the
/// planner decided (types, expressions, keys, estimates, the table),
/// and everything a run changes lives in its OperatorState. Any number
/// of executions, and every worker of a parallel pipeline, therefore
/// run one plan at the same time, and an idle plan holds no run's
/// memory.
class PhysicalOperator {
 public:
  explicit PhysicalOperator(std::vector<TypeId> types)
      : types_(std::move(types)) {}
  virtual ~PhysicalOperator() = default;

  PhysicalOperator(const PhysicalOperator&) = delete;
  PhysicalOperator& operator=(const PhysicalOperator&) = delete;

  /// Output column types of this operator.
  const std::vector<TypeId>& types() const { return types_; }

  /// Builds the execution state of this subtree. With `worker` set it
  /// is one worker's state of a parallel pipeline: the leaf table scan
  /// claims row groups from the worker's shared morsel source instead of
  /// scanning the whole table, and `serial` is the matching node of the
  /// serial state the pipeline was readied on (PipelineSource), whose
  /// finished hash tables the worker probes; it has no state of a hash
  /// join's build side.
  StatePtr MakeState(const MorselWorker* worker = nullptr,
                     const OperatorState* serial = nullptr) const;

  /// Produces the next chunk into `out` (initialized with types()),
  /// advancing `state` (made by MakeState). An output cardinality of 0
  /// signals exhaustion.
  virtual Status GetChunk(ExecutionContext* context, OperatorState* state,
                          DataChunk* out) const = 0;

  virtual std::string name() const = 0;

  /// Readies `state`, this subtree's serial state, for a morsel-driven
  /// fan-out and returns the table the pipeline's workers scan, or null
  /// when the subtree has no parallel implementation. Runs on the
  /// calling thread before any worker starts, so a hash join builds its
  /// table here and its workers only probe. Streaming per-chunk
  /// operators (filter, projection, a built hash join) delegate to their
  /// probe-side child; everything else defaults to "not parallelizable".
  virtual Result<const DataTable*> PipelineSource(ExecutionContext*,
                                                  OperatorState*) const {
    return nullptr;
  }

  const PhysicalOperator* child(idx_t i) const { return children_[i].get(); }
  void AddChild(std::unique_ptr<PhysicalOperator> child) {
    children_.push_back(std::move(child));
  }

  /// Renders the operator tree (EXPLAIN), with `est=<rows>` on operators
  /// the planner estimated.
  std::string ToString(int indent = 0) const;

  /// Records the planner's estimate of this operator's output rows
  /// (scans and joins carry one).
  void set_estimated_rows(idx_t rows) { estimated_rows_ = rows; }

 protected:
  /// This operator's own state; MakeState adds the children's. Stateless
  /// operators keep the empty default.
  virtual StatePtr CreateState(const MorselWorker*,
                               const OperatorState*) const {
    return std::make_unique<OperatorState>();
  }

  /// Pulls the next chunk of child `i` through its state in `state`.
  Status ChildChunk(idx_t i, ExecutionContext* context, OperatorState* state,
                    DataChunk* out) const {
    return children_[i]->GetChunk(context, state->children[i].get(), out);
  }

  std::vector<TypeId> types_;
  std::vector<std::unique_ptr<PhysicalOperator>> children_;
  idx_t estimated_rows_ = kInvalidIndex;  // none
};

}  // namespace mallard

#endif  // MALLARD_EXECUTION_PHYSICAL_OPERATOR_H_
