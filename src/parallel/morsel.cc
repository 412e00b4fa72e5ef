#include "mallard/parallel/morsel.h"

#include <algorithm>

#include "mallard/governor/resource_governor.h"
#include "mallard/parallel/task_scheduler.h"

namespace mallard {

TableMorselSource::TableMorselSource(idx_t row_group_count,
                                     const ResourceGovernor* governor,
                                     int thread_limit,
                                     const TaskScheduler* scheduler,
                                     const QueryTicket* ticket)
    : row_group_count_(row_group_count),
      governor_(governor),
      thread_limit_(thread_limit),
      scheduler_(scheduler),
      ticket_(ticket) {}

int TableMorselSource::EffectiveBudget() const {
  if (thread_limit_ > 0) return thread_limit_;
  int budget = governor_ ? governor_->EffectiveThreadBudget() : 1;
  if (scheduler_ && ticket_) {
    // Inter-query fairness: this query's weighted slice of the pool,
    // re-read at every morsel boundary so a long scan sheds workers the
    // moment another query registers.
    budget = std::min(budget, scheduler_->FairThreadShare(ticket_));
  }
  return budget;
}

bool TableMorselSource::Next(int worker, idx_t* row_group) {
  // The drain point of reactive governing: budgets are only re-read
  // between morsels, so a budget cut never interrupts in-flight work —
  // it just stops surplus workers from claiming more.
  if (worker > 0 && worker >= EffectiveBudget()) return false;
  idx_t g = next_.fetch_add(1);
  if (g >= row_group_count_) return false;
  claimed_[worker < kMaxWorkers ? worker : 0].fetch_add(1);
  *row_group = g;
  return true;
}

namespace parallel {

int ResolveLaunchWidth(const ExecutionContext* context, idx_t item_count) {
  int budget = context->thread_limit > 0
                   ? context->thread_limit
                   : context->governor->EffectiveThreadBudget();
  if (context->thread_limit <= 0 && context->scheduler && context->ticket) {
    budget =
        std::min(budget, context->scheduler->FairThreadShare(context->ticket));
  }
  int width = std::min<int>(budget, TableMorselSource::kMaxWorkers);
  return static_cast<int>(std::min<idx_t>(
      static_cast<idx_t>(std::max(width, 1)), item_count));
}

Status RunMorselPipeline(ExecutionContext* context,
                         const PhysicalOperator* subtree,
                         OperatorState* serial_state, bool* ran,
                         const std::function<void(idx_t workers)>& prepare,
                         const MorselTask& worker) {
  *ran = false;
  if (!context || !context->scheduler || !context->governor) {
    return Status::OK();
  }
  MALLARD_ASSIGN_OR_RETURN(const DataTable* table,
                           subtree->PipelineSource(context, serial_state));
  if (!table) return Status::OK();
  idx_t groups = table->RowGroupCount();
  int threads = ResolveLaunchWidth(context, groups);
  if (threads <= 1) return Status::OK();
  auto source = std::make_shared<TableMorselSource>(
      groups, context->governor, context->thread_limit, context->scheduler,
      context->ticket);
  std::vector<StatePtr> states;
  for (int w = 0; w < threads; w++) {
    MorselWorker seat{source, w};
    states.push_back(subtree->MakeState(&seat, serial_state));
  }
  prepare(threads);
  MALLARD_RETURN_NOT_OK(context->scheduler->Run(
      threads, [&](int w) { return worker(w, states[w].get()); },
      /*governed=*/context->thread_limit == 0, context->ticket));
  *ran = true;
  return Status::OK();
}

Status RunPartitionedTasks(ExecutionContext* context, idx_t task_count,
                           const std::function<Status(idx_t task)>& task) {
  auto run_serial = [&]() -> Status {
    for (idx_t i = 0; i < task_count; i++) {
      MALLARD_RETURN_NOT_OK(task(i));
    }
    return Status::OK();
  };
  if (!context || !context->scheduler || !context->governor ||
      task_count <= 1) {
    return run_serial();
  }
  int width = ResolveLaunchWidth(context, task_count);
  if (width <= 1) return run_serial();
  std::atomic<idx_t> next{0};
  auto claim = [&](int worker) -> Status {
    while (true) {
      // Budget re-read at every task boundary, mirroring
      // TableMorselSource::Next: surplus workers stop claiming, worker 0
      // drains whatever is left. The fair-share clamp inside
      // ResolveLaunchWidth applies here too, so partition merges shed
      // workers to concurrent queries just like scans do.
      if (worker > 0 && context->thread_limit <= 0 &&
          worker >= ResolveLaunchWidth(context, task_count)) {
        return Status::OK();
      }
      idx_t i = next.fetch_add(1);
      if (i >= task_count) return Status::OK();
      MALLARD_RETURN_NOT_OK(task(i));
    }
  };
  return context->scheduler->Run(width, claim,
                                 /*governed=*/context->thread_limit == 0,
                                 context->ticket);
}

}  // namespace parallel

}  // namespace mallard
