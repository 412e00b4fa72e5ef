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
      aggregates_(std::move(aggregates)),
      layout_(AggStateLayout::Plan(aggregates_)) {
  AddChild(std::move(child));
}

StatePtr PhysicalUngroupedAggregate::CreateState(const MorselWorker*,
                                                 const OperatorState*) const {
  return std::make_unique<EmitOnceState>();
}

Status PhysicalUngroupedAggregate::AggregateSource(
    ExecutionContext* context, OperatorState* source_state,
    Accumulator* acc) const {
  DataChunk chunk;
  chunk.Initialize(child(0)->types());
  // Every input row updates the one state row: group id 0.
  const std::vector<idx_t> group_ids(kVectorSize, 0);
  std::vector<Vector> arg_vectors;
  for (const auto& agg : aggregates_) {
    arg_vectors.emplace_back(agg.arg ? agg.arg->return_type()
                                     : TypeId::kBigInt);
  }
  while (true) {
    MALLARD_RETURN_NOT_OK(child(0)->GetChunk(context, source_state, &chunk));
    if (chunk.size() == 0) break;
    for (idx_t a = 0; a < aggregates_.size(); a++) {
      const Vector* arg = nullptr;
      if (aggregates_[a].arg) {
        arg_vectors[a].Reset();
        MALLARD_RETURN_NOT_OK(
            ExpressionExecutor::Execute(*aggregates_[a].arg, chunk,
                                        &arg_vectors[a], context->parameters));
        arg = &arg_vectors[a];
      }
      layout_.Update(a, arg, chunk.size(), group_ids.data(), nullptr,
                     acc->row.data(), &acc->strings);
    }
  }
  return Status::OK();
}

Status PhysicalUngroupedAggregate::ParallelAggregate(
    ExecutionContext* context, OperatorState* serial_state, Accumulator* total,
    bool* done) const {
  std::vector<Accumulator> partials;
  MALLARD_RETURN_NOT_OK(parallel::RunMorselPipeline(
      context, child(0), serial_state, done,
      [&](idx_t workers) {
        for (idx_t w = 0; w < workers; w++) {
          partials.emplace_back(layout_.row_size());
        }
      },
      [&](int w, OperatorState* scan) -> Status {
        return AggregateSource(context, scan, &partials[w]);
      }));
  if (!*done) return Status::OK();
  const idx_t dst_id = 0;
  for (const Accumulator& partial : partials) {
    layout_.Combine(partial.row.data(), 0, 1, &dst_id, total->row.data(),
                    &total->strings);
  }
  return Status::OK();
}

Status PhysicalUngroupedAggregate::GetChunk(ExecutionContext* context,
                                            OperatorState* state,
                                            DataChunk* out) const {
  bool& done = static_cast<EmitOnceState&>(*state).done;
  out->Reset();
  if (done) return Status::OK();
  Accumulator total(layout_.row_size());
  bool parallel_done = false;
  OperatorState* child_state = state->children[0].get();
  MALLARD_RETURN_NOT_OK(
      ParallelAggregate(context, child_state, &total, &parallel_done));
  if (!parallel_done) {
    MALLARD_RETURN_NOT_OK(AggregateSource(context, child_state, &total));
  }
  for (idx_t a = 0; a < aggregates_.size(); a++) {
    out->SetValue(a, 0, layout_.Finalize(a, total.row.data()));
  }
  out->SetCardinality(1);
  done = true;
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

StatePtr PhysicalHashAggregate::CreateState(const MorselWorker*,
                                            const OperatorState*) const {
  return std::make_unique<State>();
}

Status PhysicalHashAggregate::SinkSource(
    ExecutionContext* context, OperatorState* source_state,
    RadixPartitionedAggregateTable* table) const {
  DataChunk chunk;
  chunk.Initialize(child(0)->types());
  DataChunk group_chunk;
  group_chunk.Initialize(GroupTypes());
  std::vector<Vector> arg_vectors;
  for (const auto& agg : aggregates_) {
    arg_vectors.emplace_back(agg.arg ? agg.arg->return_type()
                                     : TypeId::kBigInt);
  }
  while (true) {
    MALLARD_RETURN_NOT_OK(child(0)->GetChunk(context, source_state, &chunk));
    if (chunk.size() == 0) break;
    idx_t count = chunk.size();
    group_chunk.Reset();
    for (idx_t g = 0; g < groups_.size(); g++) {
      MALLARD_RETURN_NOT_OK(ExpressionExecutor::Execute(
          *groups_[g], chunk, &group_chunk.column(g), context->parameters));
    }
    group_chunk.SetCardinality(count);
    table->FindOrCreateGroups(group_chunk, count);
    // Evaluate aggregate arguments once per chunk, then fold each into
    // the per-group states in one typed batch.
    for (idx_t a = 0; a < aggregates_.size(); a++) {
      const Vector* arg = nullptr;
      if (aggregates_[a].arg) {
        arg_vectors[a].Reset();
        MALLARD_RETURN_NOT_OK(
            ExpressionExecutor::Execute(*aggregates_[a].arg, chunk,
                                        &arg_vectors[a], context->parameters));
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
                                           State* state, bool* done) const {
  std::unique_ptr<RadixPartitionedAggregateTable>& table = state->table;
  std::vector<TypeId> group_types = GroupTypes();
  std::vector<std::unique_ptr<RadixPartitionedAggregateTable>> partials;
  idx_t worker_count = 1;
  MALLARD_RETURN_NOT_OK(parallel::RunMorselPipeline(
      context, child(0), state->children[0].get(), done,
      [&](idx_t workers) {
        worker_count = workers;
        partials.resize(workers);
      },
      [&](int w, OperatorState* scan) -> Status {
        auto local = std::make_unique<RadixPartitionedAggregateTable>(
            group_types, aggregates_, /*partitioned=*/true);
        if (context->governor && context->buffers) {
          // Workers split the operator's budget share evenly; each
          // spills its thread-local partitions independently.
          local->EnableSpilling(context->governor, context->buffers,
                                2 * worker_count, &aggregates_);
        }
        MALLARD_RETURN_NOT_OK(SinkSource(context, scan, local.get()));
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
    if (!table) {
      table = std::move(partial);
    } else {
      rest.push_back(partial.get());
    }
  }
  if (!table) {
    table = std::make_unique<RadixPartitionedAggregateTable>(
        group_types, aggregates_, /*partitioned=*/true);
  }
  if (context->governor && context->buffers) {
    // One table survives the sink: it gets the full operator share back.
    table->EnableSpilling(context->governor, context->buffers, 2,
                          &aggregates_);
  }
  if (!rest.empty()) {
    MALLARD_RETURN_NOT_OK(parallel::RunPartitionedTasks(
        context, table->PartitionCount(), [&](idx_t p) -> Status {
          for (RadixPartitionedAggregateTable* other : rest) {
            table->partition(p).Merge(other->partition(p));
          }
          // Partitions merge on different threads; each checks its own
          // 1/16 share of the budget (disjoint state, atomic flag).
          return table->MaybeSpillPartition(p);
        }));
  }
  // Workers that spilled left runs behind; adopt them so emission merges
  // every run of a partition in one pass.
  for (RadixPartitionedAggregateTable* other : rest) {
    table->AdoptRuns(other);
  }
  state->merge_ms += std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - merge_start)
                         .count();
  return Status::OK();
}

Status PhysicalHashAggregate::Sink(ExecutionContext* context,
                                   State* state) const {
  std::unique_ptr<RadixPartitionedAggregateTable>& table = state->table;
  auto sink_start = std::chrono::steady_clock::now();
  bool parallel_done = false;
  Status status = ParallelSink(context, state, &parallel_done);
  if (status.ok() && !parallel_done) {
    table = std::make_unique<RadixPartitionedAggregateTable>(
        GroupTypes(), aggregates_, /*partitioned=*/false);
    if (context->governor && context->buffers) {
      table->EnableSpilling(context->governor, context->buffers, 2,
                            &aggregates_);
    }
    status = SinkSource(context, state->children[0].get(), table.get());
  }
  state->sink_ms += std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - sink_start)
                        .count() -
                    state->merge_ms;
  return status;
}

Status PhysicalHashAggregate::GetChunk(ExecutionContext* context,
                                       OperatorState* state,
                                       DataChunk* out) const {
  auto& s = static_cast<State&>(*state);
  if (!s.sunk) {
    MALLARD_RETURN_NOT_OK(Sink(context, &s));
    s.sunk = true;
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
    if (!s.emit_current) {
      MALLARD_RETURN_NOT_OK(s.table->NextEmitTable(&s.emit_current));
      s.emit_offset = 0;
      if (!s.emit_current) break;  // every group emitted
    }
    idx_t remaining = s.emit_current->GroupCount() - s.emit_offset;
    if (remaining == 0) {
      s.emit_current = nullptr;
      continue;
    }
    produced = std::min<idx_t>(remaining, kVectorSize);
    s.emit_current->EmitKeys(s.emit_offset, produced, out);
    for (idx_t i = 0; i < produced; i++) {
      idx_t group = s.emit_offset + i;
      for (idx_t a = 0; a < aggregates_.size(); a++) {
        out->SetValue(groups_.size() + a, i,
                      s.emit_current->FinalizeState(group, a));
      }
    }
    s.emit_offset += produced;
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
