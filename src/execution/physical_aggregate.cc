#include "mallard/execution/physical_aggregate.h"

#include <algorithm>
#include <chrono>

#include "mallard/expression/expression_executor.h"
#include "mallard/parallel/morsel.h"
#include "mallard/parallel/task_scheduler.h"

namespace mallard {

// ---------------------------------------------------------------------------
// PhysicalUngroupedAggregate
// ---------------------------------------------------------------------------

namespace {
std::vector<TypeId> AggregateTypes(const std::vector<ExprPtr>& groups,
                                   const std::vector<BoundAggregate>& aggs) {
  std::vector<TypeId> types;
  for (const auto& g : groups) types.push_back(g->return_type());
  for (const auto& a : aggs) types.push_back(a.return_type);
  return types;
}
}  // namespace

PhysicalUngroupedAggregate::PhysicalUngroupedAggregate(
    std::vector<BoundAggregate> aggregates,
    std::unique_ptr<PhysicalOperator> child)
    : PhysicalOperator(AggregateTypes({}, aggregates)),
      aggregates_(std::move(aggregates)) {
  AddChild(std::move(child));
}

std::vector<ExprPtr> PhysicalUngroupedAggregate::CopyArgExprs() const {
  std::vector<ExprPtr> exprs;
  for (const auto& agg : aggregates_) {
    exprs.push_back(agg.arg ? agg.arg->Copy() : nullptr);
  }
  return exprs;
}

Status PhysicalUngroupedAggregate::AggregateSource(
    ExecutionContext* context, PhysicalOperator* source,
    const std::vector<ExprPtr>& arg_exprs, State* state) {
  DataChunk chunk;
  chunk.Initialize(source->types());
  // Every input row updates the one state row: group id 0.
  const std::vector<idx_t> group_ids(kVectorSize, 0);
  std::vector<Vector> arg_vectors;
  for (const auto& agg : aggregates_) {
    arg_vectors.emplace_back(agg.arg ? agg.arg->return_type()
                                     : TypeId::kBigInt);
  }
  while (true) {
    MALLARD_RETURN_NOT_OK(source->GetChunk(context, &chunk));
    if (chunk.size() == 0) break;
    for (idx_t a = 0; a < aggregates_.size(); a++) {
      const Vector* arg = nullptr;
      if (arg_exprs[a]) {
        arg_vectors[a].Reset();
        MALLARD_RETURN_NOT_OK(ExpressionExecutor::Execute(
            *arg_exprs[a], chunk, &arg_vectors[a]));
        arg = &arg_vectors[a];
      }
      layout_.Update(a, arg, chunk.size(), group_ids.data(), nullptr,
                     state->row.data(), &state->strings);
    }
  }
  return Status::OK();
}

Status PhysicalUngroupedAggregate::ParallelAggregate(
    ExecutionContext* context, State* state, bool* done) {
  std::vector<std::vector<ExprPtr>> arg_exprs;
  std::vector<State> partials;
  MALLARD_RETURN_NOT_OK(parallel::RunMorselPipeline(
      context, child(0), done,
      [&](idx_t workers) {
        for (idx_t w = 0; w < workers; w++) {
          partials.emplace_back(layout_.row_size());
          arg_exprs.push_back(CopyArgExprs());
        }
      },
      [&](int w, PhysicalOperator* scan) -> Status {
        return AggregateSource(context, scan, arg_exprs[w], &partials[w]);
      }));
  if (!*done) return Status::OK();
  const idx_t dst_id = 0;
  for (const State& partial : partials) {
    layout_.Combine(partial.row.data(), 0, 1, &dst_id, state->row.data(),
                    &state->strings);
  }
  return Status::OK();
}

Status PhysicalUngroupedAggregate::GetChunk(ExecutionContext* context,
                                            DataChunk* out) {
  out->Reset();
  if (done_) return Status::OK();
  layout_ = AggStateLayout::Plan(aggregates_);
  State state(layout_.row_size());
  bool parallel_done = false;
  MALLARD_RETURN_NOT_OK(ParallelAggregate(context, &state, &parallel_done));
  if (!parallel_done) {
    MALLARD_RETURN_NOT_OK(
        AggregateSource(context, child(0), CopyArgExprs(), &state));
  }
  for (idx_t a = 0; a < aggregates_.size(); a++) {
    out->SetValue(a, 0, layout_.Finalize(a, state.row.data()));
  }
  out->SetCardinality(1);
  done_ = true;
  return Status::OK();
}

std::string PhysicalUngroupedAggregate::name() const {
  std::string result = "UNGROUPED_AGGREGATE(";
  for (size_t i = 0; i < aggregates_.size(); i++) {
    if (i > 0) result += ", ";
    result += AggregateFunction::Name(aggregates_[i].type);
  }
  return result + ")";
}

// ---------------------------------------------------------------------------
// PhysicalHashAggregate
// ---------------------------------------------------------------------------

PhysicalHashAggregate::PhysicalHashAggregate(
    std::vector<ExprPtr> groups, std::vector<BoundAggregate> aggregates,
    std::unique_ptr<PhysicalOperator> child)
    : PhysicalOperator(AggregateTypes(groups, aggregates)),
      groups_(std::move(groups)),
      aggregates_(std::move(aggregates)) {
  AddChild(std::move(child));
}

std::vector<TypeId> PhysicalHashAggregate::GroupTypes() const {
  std::vector<TypeId> types;
  for (const auto& g : groups_) types.push_back(g->return_type());
  return types;
}

std::vector<ExprPtr> PhysicalHashAggregate::CopyGroupExprs() const {
  std::vector<ExprPtr> exprs;
  for (const auto& g : groups_) exprs.push_back(g->Copy());
  return exprs;
}

std::vector<ExprPtr> PhysicalHashAggregate::CopyArgExprs() const {
  std::vector<ExprPtr> exprs;
  for (const auto& a : aggregates_) {
    exprs.push_back(a.arg ? a.arg->Copy() : nullptr);
  }
  return exprs;
}

Status PhysicalHashAggregate::SinkSource(
    ExecutionContext* context, PhysicalOperator* source,
    const std::vector<ExprPtr>& group_exprs,
    const std::vector<ExprPtr>& arg_exprs,
    RadixPartitionedAggregateTable* table) {
  DataChunk chunk;
  chunk.Initialize(source->types());
  DataChunk group_chunk;
  group_chunk.Initialize(GroupTypes());
  std::vector<Vector> arg_vectors;
  for (const auto& agg : aggregates_) {
    arg_vectors.emplace_back(agg.arg ? agg.arg->return_type()
                                     : TypeId::kBigInt);
  }
  while (true) {
    MALLARD_RETURN_NOT_OK(source->GetChunk(context, &chunk));
    if (chunk.size() == 0) break;
    idx_t count = chunk.size();
    group_chunk.Reset();
    for (idx_t g = 0; g < group_exprs.size(); g++) {
      MALLARD_RETURN_NOT_OK(ExpressionExecutor::Execute(
          *group_exprs[g], chunk, &group_chunk.column(g)));
    }
    group_chunk.SetCardinality(count);
    table->FindOrCreateGroups(group_chunk, count);
    // Evaluate aggregate arguments once per chunk, then fold each into
    // the per-group states in one typed batch.
    for (idx_t a = 0; a < aggregates_.size(); a++) {
      const Vector* arg = nullptr;
      if (arg_exprs[a]) {
        arg_vectors[a].Reset();
        MALLARD_RETURN_NOT_OK(ExpressionExecutor::Execute(
            *arg_exprs[a], chunk, &arg_vectors[a]));
        arg = &arg_vectors[a];
      }
      table->UpdateStates(a, arg, count);
    }
    // The partition-sink budget consultation: externalizes the largest
    // partition whenever resident groups exceed the operator's share.
    MALLARD_RETURN_NOT_OK(table->MaybeSpill());
  }
  return Status::OK();
}

Status PhysicalHashAggregate::ParallelSink(ExecutionContext* context,
                                           bool* done) {
  std::vector<TypeId> group_types = GroupTypes();
  // Per-worker copies of the group and argument expressions, made up
  // front so workers never evaluate through shared trees.
  std::vector<std::vector<ExprPtr>> group_exprs;
  std::vector<std::vector<ExprPtr>> arg_exprs;
  std::vector<std::unique_ptr<RadixPartitionedAggregateTable>> partials;
  idx_t worker_count = 1;
  MALLARD_RETURN_NOT_OK(parallel::RunMorselPipeline(
      context, child(0), done,
      [&](idx_t workers) {
        worker_count = workers;
        partials.resize(workers);
        for (idx_t w = 0; w < workers; w++) {
          group_exprs.push_back(CopyGroupExprs());
          arg_exprs.push_back(CopyArgExprs());
        }
      },
      [&](int w, PhysicalOperator* scan) -> Status {
        auto local = std::make_unique<RadixPartitionedAggregateTable>(
            group_types, aggregates_, /*partitioned=*/true);
        if (context->governor && context->buffers) {
          // Workers split the operator's budget share evenly; each
          // spills its thread-local partitions independently.
          local->EnableSpilling(context->governor, context->buffers,
                                2 * worker_count, &aggregates_);
        }
        MALLARD_RETURN_NOT_OK(SinkSource(context, scan, group_exprs[w],
                                         arg_exprs[w], local.get()));
        partials[w] = std::move(local);
        return Status::OK();
      }));
  if (!*done) return Status::OK();
  // Per-partition merge: the first partial becomes the result and the
  // rest fold into it, partition by partition. All thread-local tables
  // radix-partition by the same hash bits, so the kPartitions merges
  // touch disjoint group sets and run in parallel under the governor's
  // budget (clamped-away workers leave null partials).
  auto merge_start = std::chrono::steady_clock::now();
  std::vector<RadixPartitionedAggregateTable*> rest;
  for (auto& partial : partials) {
    if (!partial) continue;
    if (!table_) {
      table_ = std::move(partial);
    } else {
      rest.push_back(partial.get());
    }
  }
  if (!table_) {
    table_ = std::make_unique<RadixPartitionedAggregateTable>(
        group_types, aggregates_, /*partitioned=*/true);
  }
  if (context->governor && context->buffers) {
    // One table survives the sink: it gets the full operator share back.
    table_->EnableSpilling(context->governor, context->buffers, 2,
                           &aggregates_);
  }
  if (!rest.empty()) {
    MALLARD_RETURN_NOT_OK(parallel::RunPartitionedTasks(
        context, table_->PartitionCount(), [&](idx_t p) -> Status {
          for (RadixPartitionedAggregateTable* other : rest) {
            table_->partition(p).Merge(other->partition(p));
          }
          // Partitions merge on different threads; each checks its own
          // 1/16 share of the budget (disjoint state, atomic flag).
          return table_->MaybeSpillPartition(p);
        }));
  }
  // Workers that spilled left runs behind; adopt them so emission merges
  // every run of a partition in one pass.
  for (RadixPartitionedAggregateTable* other : rest) {
    table_->AdoptRuns(other);
  }
  merge_ms_ += std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - merge_start)
                   .count();
  return Status::OK();
}

Status PhysicalHashAggregate::Sink(ExecutionContext* context) {
  auto sink_start = std::chrono::steady_clock::now();
  bool parallel_done = false;
  Status status = ParallelSink(context, &parallel_done);
  if (status.ok() && !parallel_done) {
    table_ = std::make_unique<RadixPartitionedAggregateTable>(
        GroupTypes(), aggregates_, /*partitioned=*/false);
    if (context->governor && context->buffers) {
      table_->EnableSpilling(context->governor, context->buffers, 2,
                             &aggregates_);
    }
    status = SinkSource(context, child(0), CopyGroupExprs(), CopyArgExprs(),
                        table_.get());
  }
  sink_ms_ += std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - sink_start)
                  .count() -
              merge_ms_;
  return status;
}

Status PhysicalHashAggregate::GetChunk(ExecutionContext* context,
                                       DataChunk* out) {
  if (!sunk_) {
    MALLARD_RETURN_NOT_OK(Sink(context));
    sunk_ = true;
  }
  out->Reset();
  // Emission pulls fully-merged tables from the radix front one at a
  // time (a resident partition, or a partition's spill runs merged back
  // in — see NextEmitTable); within a table it is aligned to group-chunk
  // boundaries, so each output chunk is one plain columnar copy plus
  // per-group finalizes. Chunks shrink at table tails (never to zero
  // before the last table).
  idx_t produced = 0;
  while (true) {
    if (!emit_current_) {
      MALLARD_RETURN_NOT_OK(table_->NextEmitTable(&emit_current_));
      emit_offset_ = 0;
      if (!emit_current_) break;  // every group emitted
    }
    idx_t remaining = emit_current_->GroupCount() - emit_offset_;
    if (remaining == 0) {
      emit_current_ = nullptr;
      continue;
    }
    produced = std::min<idx_t>(remaining, kVectorSize);
    emit_current_->EmitKeys(emit_offset_, produced, out);
    for (idx_t i = 0; i < produced; i++) {
      idx_t group = emit_offset_ + i;
      for (idx_t a = 0; a < aggregates_.size(); a++) {
        out->SetValue(groups_.size() + a, i,
                      emit_current_->FinalizeState(group, a));
      }
    }
    emit_offset_ += produced;
    emitted_groups_ += produced;
    break;
  }
  out->SetCardinality(produced);
  return Status::OK();
}

std::string PhysicalHashAggregate::name() const {
  std::string result = "HASH_GROUP_BY(";
  for (size_t i = 0; i < groups_.size(); i++) {
    if (i > 0) result += ", ";
    result += groups_[i]->ToString();
  }
  return result + ")";
}

}  // namespace mallard
