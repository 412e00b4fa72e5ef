#include "mallard/execution/physical_join.h"

#include <chrono>
#include <cstring>

#include "mallard/expression/expression_executor.h"
#include "mallard/parallel/morsel.h"
#include "mallard/vector/vector_hash.h"

namespace mallard {

namespace {

std::vector<TypeId> JoinOutputTypes(JoinType join_type,
                                    const std::vector<TypeId>& left,
                                    const std::vector<TypeId>& right) {
  std::vector<TypeId> types = left;
  if (join_type == JoinType::kInner || join_type == JoinType::kLeft) {
    types.insert(types.end(), right.begin(), right.end());
  }
  return types;
}

std::vector<TypeId> KeyTypes(const std::vector<JoinCondition>& conditions,
                             bool left_side) {
  std::vector<TypeId> types;
  for (const auto& c : conditions) {
    types.push_back(left_side ? c.left->return_type()
                              : c.right->return_type());
  }
  return types;
}

std::vector<SortSpec> KeySpecs(idx_t count) {
  std::vector<SortSpec> specs;
  for (idx_t i = 0; i < count; i++) specs.push_back(SortSpec{i, true, true});
  return specs;
}

/// Internal probe source for one grace job: streams the stashed probe
/// rows ([hash | RowCodec-encoded row]) of a partition back out as
/// chunks, so the regular ProbeChunk body replays them unchanged. It is
/// made per job by the running execution, never by the planner.
class GraceStashScan final : public PhysicalOperator {
 public:
  GraceStashScan(std::vector<TypeId> types, SpillRowStore* store,
                 const RowCodec* codec)
      : PhysicalOperator(std::move(types)), store_(store), codec_(codec) {}

  Status GetChunk(ExecutionContext*, OperatorState* state,
                  DataChunk* out) const override {
    SpillRowStore::Cursor& cursor = static_cast<CursorState&>(*state).cursor;
    out->Reset();
    idx_t n = 0;
    while (n < kVectorSize) {
      const uint8_t* row;
      uint32_t len;
      MALLARD_RETURN_NOT_OK(store_->Next(&cursor, &row, &len));
      if (!row) break;
      codec_->DecodeRow(row + 8, out, n, 0);
      n++;
    }
    out->SetCardinality(n);
    return Status::OK();
  }
  std::string name() const override { return "GRACE_STASH_SCAN"; }

 protected:
  StatePtr CreateState(const MorselWorker*,
                       const OperatorState*) const override {
    return std::make_unique<CursorState>();
  }

 private:
  struct CursorState : OperatorState {
    SpillRowStore::Cursor cursor;
  };

  SpillRowStore* store_;
  const RowCodec* codec_;
};

/// The materialized right side and the block cursor: the current left
/// chunk, the right chunk paired with it, and the next (left row, right
/// row) pair of that block.
struct CrossProductState : OperatorState {
  std::unique_ptr<SpillRowStore> right_data;
  DataChunk left_chunk;
  DataChunk right_chunk;
  SpillRowStore::Cursor right_scan;
  idx_t left_position = 0;
  idx_t right_position = 0;
  bool done = false;
};

}  // namespace

// ---------------------------------------------------------------------------
// PhysicalHashJoin
// ---------------------------------------------------------------------------

PhysicalHashJoin::PhysicalHashJoin(JoinType join_type,
                                   std::vector<JoinCondition> conditions,
                                   std::unique_ptr<PhysicalOperator> left,
                                   std::unique_ptr<PhysicalOperator> right)
    : PhysicalOperator(
          JoinOutputTypes(join_type, left->types(), right->types())),
      join_type_(join_type),
      conditions_(std::move(conditions)),
      right_types_(right->types()) {
  AddChild(std::move(left));
  AddChild(std::move(right));
}

StatePtr PhysicalHashJoin::CreateState(const MorselWorker*,
                                       const OperatorState* serial) const {
  auto state = std::make_unique<State>();
  ProbeCursor& cursor = state->probe;
  cursor.chunk.Initialize(children_[0]->types());
  cursor.keys.Initialize(KeyTypes(conditions_, /*left_side=*/true));
  cursor.hashes.resize(kVectorSize);
  cursor.heads.resize(kVectorSize);
  cursor.sel.resize(kVectorSize);
  cursor.refs.resize(kVectorSize);
  if (serial) {
    // A pipeline worker: PipelineSource finished the serial state's
    // table before fan-out. The worker only reads it through the const,
    // scratch-free probe calls (docs/CONCURRENCY.md) and has no state of
    // the build side.
    state->probe_table = static_cast<const State&>(*serial).probe_table;
    state->built = true;
  }
  return state;
}

Status PhysicalHashJoin::EvaluateKeys(const ExecutionContext& context,
                                      bool left_side, const DataChunk& input,
                                      DataChunk* keys) const {
  keys->Reset();
  for (idx_t i = 0; i < conditions_.size(); i++) {
    const BoundExpression& expr =
        left_side ? *conditions_[i].left : *conditions_[i].right;
    MALLARD_RETURN_NOT_OK(ExpressionExecutor::Execute(
        expr, input, &keys->column(i), context.parameters));
  }
  keys->SetCardinality(input.size());
  return Status::OK();
}

Status PhysicalHashJoin::SinkBuildSide(ExecutionContext* context,
                                       OperatorState* source_state,
                                       JoinHashTable* table) const {
  DataChunk build_chunk;
  build_chunk.Initialize(right_types_);
  DataChunk key_chunk;
  key_chunk.Initialize(KeyTypes(conditions_, /*left_side=*/false));
  while (true) {
    MALLARD_RETURN_NOT_OK(
        child(1)->GetChunk(context, source_state, &build_chunk));
    if (build_chunk.size() == 0) break;
    MALLARD_RETURN_NOT_OK(
        EvaluateKeys(*context, /*left_side=*/false, build_chunk, &key_chunk));
    MALLARD_RETURN_NOT_OK(
        table->Append(context, key_chunk, build_chunk, build_chunk.size()));
  }
  return Status::OK();
}

Status PhysicalHashJoin::ParallelBuild(ExecutionContext* context,
                                       State* state, bool* done) const {
  std::vector<TypeId> key_types = KeyTypes(conditions_, /*left_side=*/false);
  std::vector<std::unique_ptr<JoinHashTable>> partitions;
  idx_t worker_count = 1;
  MALLARD_RETURN_NOT_OK(parallel::RunMorselPipeline(
      context, child(1), state->children[1].get(), done,
      [&](idx_t workers) {
        worker_count = workers;
        partitions.resize(workers);
      },
      [&](int w, OperatorState* scan) -> Status {
        auto partition =
            std::make_unique<JoinHashTable>(key_types, right_types_);
        if (context->governor) {
          // Each worker keeps its thread-local partitions under an equal
          // share of the join's half of the budget and spills the rest
          // independently — no cross-worker coordination needed.
          partition->EnableSpilling(context->governor, 2 * worker_count,
                                    /*radix_shift=*/0);
        }
        MALLARD_RETURN_NOT_OK(SinkBuildSide(context, scan, partition.get()));
        partitions[w] = std::move(partition);
        return Status::OK();
      }));
  if (!*done) return Status::OK();
  for (auto& partition : partitions) {
    // Clamped-away workers leave a null slot; their morsels were
    // claimed by the workers that did run.
    if (partition) state->table->MergePartition(std::move(*partition));
  }
  return Status::OK();
}

Status PhysicalHashJoin::Build(ExecutionContext* context, State* state) const {
  auto build_start = std::chrono::steady_clock::now();
  state->table = std::make_unique<JoinHashTable>(
      KeyTypes(conditions_, /*left_side=*/false), right_types_);
  if (context->governor) {
    // The build side gets half the governor's budget; the other half
    // covers the probe stashes and operator scratch. Exceeding it turns
    // Finalize into grace mode instead of failing the query.
    state->table->EnableSpilling(context->governor, /*divisor=*/2,
                                 /*radix_shift=*/0);
  }
  bool built_parallel = false;
  MALLARD_RETURN_NOT_OK(ParallelBuild(context, state, &built_parallel));
  if (!built_parallel) {
    MALLARD_RETURN_NOT_OK(SinkBuildSide(context, state->children[1].get(),
                                        state->table.get()));
  }
  MALLARD_RETURN_NOT_OK(state->table->Finalize());
  state->probe_table = state->table.get();
  state->built = true;
  state->build_ms += std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - build_start)
                         .count();
  return Status::OK();
}

idx_t PhysicalHashJoin::GatherMatches(const JoinHashTable* table,
                                      ProbeCursor* cursor, idx_t capacity,
                                      uint32_t* sel, uint64_t* refs) const {
  constexpr uint64_t kNullRef = JoinHashTable::kNullRef;
  ProbeCursor& c = *cursor;
  idx_t n = 0;
  const bool walk_chains =
      join_type_ == JoinType::kInner || join_type_ == JoinType::kLeft;
  while (n < capacity && c.position < c.chunk.size()) {
    idx_t r = c.position;
    if (walk_chains) {
      if (!c.chain_active) {
        c.chain_ref = table->FirstMatch(c.heads[r], c.keys, r, c.hashes[r]);
        c.chain_active = true;
        c.row_matched = false;
      }
      while (c.chain_ref != kNullRef && n < capacity) {
        sel[n] = static_cast<uint32_t>(r);
        refs[n] = c.chain_ref;
        n++;
        c.row_matched = true;
        c.chain_ref = table->NextMatch(c.chain_ref, c.keys, r, c.hashes[r]);
      }
      if (c.chain_ref != kNullRef) break;  // capacity filled mid-chain
      if (join_type_ == JoinType::kLeft && !c.row_matched) {
        if (n >= capacity) break;  // emit the NULL-padded row next call
        sel[n] = static_cast<uint32_t>(r);
        refs[n] = kNullRef;
        n++;
      }
      c.position++;
      c.chain_active = false;
    } else {
      // Semi/anti: existence check only, one output row at most.
      uint64_t match = table->FirstMatch(c.heads[r], c.keys, r, c.hashes[r]);
      if ((join_type_ == JoinType::kSemi) == (match != kNullRef)) {
        sel[n] = static_cast<uint32_t>(r);
        refs[n] = kNullRef;
        n++;
      }
      c.position++;
    }
  }
  return n;
}

Status PhysicalHashJoin::ProbeChunk(ExecutionContext* context,
                                    const PhysicalOperator* source,
                                    OperatorState* source_state,
                                    const JoinHashTable* table,
                                    ProbeCursor* cursor, DataChunk* out) const {
  ProbeCursor& c = *cursor;
  out->Reset();
  idx_t produced = 0;
  idx_t left_width = c.chunk.ColumnCount();
  bool emit_right =
      join_type_ == JoinType::kInner || join_type_ == JoinType::kLeft;

  while (produced < kVectorSize) {
    if (c.position >= c.chunk.size()) {
      if (c.exhausted) break;
      MALLARD_RETURN_NOT_OK(source->GetChunk(context, source_state, &c.chunk));
      c.position = 0;
      c.chain_active = false;
      if (c.chunk.size() == 0) {
        c.exhausted = true;
        break;
      }
      MALLARD_RETURN_NOT_OK(
          EvaluateKeys(*context, /*left_side=*/true, c.chunk, &c.keys));
      table->ProbeHeads(c.keys, c.chunk.size(), c.hashes.data(),
                        c.heads.data());
      continue;
    }
    idx_t n = GatherMatches(table, cursor, kVectorSize - produced,
                            c.sel.data(), c.refs.data());
    if (n == 0) continue;
    // Probe side: one selection-vector copy per column; build side:
    // decode each matched row straight into the output chunk.
    for (idx_t col = 0; col < left_width; col++) {
      out->column(col).CopySelection(c.chunk.column(col), c.sel.data(), n,
                                     produced);
    }
    if (emit_right) {
      for (idx_t i = 0; i < n; i++) {
        if (c.refs[i] != JoinHashTable::kNullRef) {
          table->DecodePayload(c.refs[i], out, produced + i, left_width);
        } else {
          for (idx_t col = left_width; col < out->ColumnCount(); col++) {
            out->column(col).validity().SetInvalid(produced + i);
          }
        }
      }
    }
    produced += n;
  }
  out->SetCardinality(produced);
  return Status::OK();
}

Result<const DataTable*> PhysicalHashJoin::PipelineSource(
    ExecutionContext* context, OperatorState* state) const {
  auto& s = static_cast<State&>(*state);
  if (!s.built) {
    MALLARD_RETURN_NOT_OK(Build(context, &s));
  }
  // Grace mode routes the whole probe side before it probes anything.
  if (s.table->GraceMode()) return nullptr;
  return child(0)->PipelineSource(context, state->children[0].get());
}

Status PhysicalHashJoin::GetChunk(ExecutionContext* context,
                                  OperatorState* state, DataChunk* out) const {
  auto& s = static_cast<State&>(*state);
  if (!s.built) {
    MALLARD_RETURN_NOT_OK(Build(context, &s));
  }
  auto probe_start = std::chrono::steady_clock::now();
  // Worker states own no table: PipelineSource never fans out a join in
  // grace mode.
  Status status =
      s.table && s.table->GraceMode()
          ? GraceProbe(context, &s, out)
          : ProbeChunk(context, child(0), state->children[0].get(),
                       s.probe_table, &s.probe, out);
  s.probe_ms += std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - probe_start)
                    .count();
  return status;
}

Status PhysicalHashJoin::RouteProbeSide(ExecutionContext* context,
                                        State* state) const {
  state->probe_codec = std::make_unique<RowCodec>(children_[0]->types());
  std::array<std::unique_ptr<SpillRowStore>, JoinHashTable::kPartitions>
      stashes;
  for (auto& stash : stashes) {
    stash = std::make_unique<SpillRowStore>(context->buffers);
  }
  DataChunk chunk;
  chunk.Initialize(children_[0]->types());
  DataChunk keys;
  keys.Initialize(KeyTypes(conditions_, /*left_side=*/true));
  std::vector<uint64_t> hashes(kVectorSize);
  std::vector<uint8_t> row;
  const int radix_shift = state->table->radix_shift();
  while (true) {
    MALLARD_RETURN_NOT_OK(ChildChunk(0, context, state, &chunk));
    if (chunk.size() == 0) break;
    MALLARD_RETURN_NOT_OK(
        EvaluateKeys(*context, /*left_side=*/true, chunk, &keys));
    HashKeyColumns(keys, chunk.size(), hashes.data());
    for (idx_t r = 0; r < chunk.size(); r++) {
      row.clear();
      row.resize(8);
      std::memcpy(row.data(), &hashes[r], 8);
      state->probe_codec->EncodeRow(chunk, r, &row);
      idx_t p = JoinHashTable::PartitionOf(hashes[r], radix_shift);
      MALLARD_RETURN_NOT_OK(
          stashes[p]->Append(row.data(), static_cast<uint32_t>(row.size())));
    }
  }
  for (auto& stash : stashes) stash->FinishAppend();
  PushGraceJobs(state, nullptr, state->table.get(), &stashes);
  return Status::OK();
}

void PhysicalHashJoin::PushGraceJobs(
    State* state, std::shared_ptr<JoinHashTable> owner, JoinHashTable* table,
    std::array<std::unique_ptr<SpillRowStore>, JoinHashTable::kPartitions>*
        stashes) {
  // LIFO stack: spilled partitions go on first, resident ones on top, so
  // resident partitions are joined before reload pressure from spilled
  // ones can evict them.
  for (int pass = 0; pass < 2; pass++) {
    bool want_resident = pass == 1;
    for (idx_t p = 0; p < JoinHashTable::kPartitions; p++) {
      if (table->PartitionResident(p) != want_resident) continue;
      GraceJob job;
      job.owner = owner;
      job.table = table;
      job.partition = p;
      job.stash = std::move((*stashes)[p]);
      state->grace_jobs.push_back(std::move(job));
    }
  }
}

Status PhysicalHashJoin::SplitGraceJob(ExecutionContext* context,
                                       State* state, GraceJob job) const {
  JoinHashTable* table = job.table;
  idx_t p = job.partition;
  int child_shift = table->radix_shift() + JoinHashTable::kRadixBits;
  auto sub = std::make_shared<JoinHashTable>(
      KeyTypes(conditions_, /*left_side=*/false), right_types_);
  sub->EnableSpilling(context->governor, /*divisor=*/2, child_shift);
  // Rebuild the oversized partition into a table partitioned on the
  // next 4 hash bits, scanning one segment at a time so the partition
  // is never loaded wholesale.
  DataChunk keys;
  keys.Initialize(KeyTypes(conditions_, /*left_side=*/false));
  DataChunk payload;
  payload.Initialize(right_types_);
  JoinHashTable::ScanCursor cursor;
  while (true) {
    idx_t n = 0;
    MALLARD_RETURN_NOT_OK(
        table->ScanPartition(p, &cursor, &keys, &payload, &n));
    if (n == 0) break;
    MALLARD_RETURN_NOT_OK(sub->Append(context, keys, payload, n));
  }
  table->DropPartition(p);
  MALLARD_RETURN_NOT_OK(sub->Finalize());
  if (!sub->GraceMode()) {
    // The finer split fits in budget: probe the whole child table with
    // the parent partition's stash.
    GraceJob whole;
    whole.owner = sub;
    whole.table = sub.get();
    whole.whole_table = true;
    whole.stash = std::move(job.stash);
    state->grace_jobs.push_back(std::move(whole));
    return Status::OK();
  }
  // Still over budget at the finer level (skewed keys): re-route the
  // stash by the deeper radix digit and recurse per sub-partition.
  std::array<std::unique_ptr<SpillRowStore>, JoinHashTable::kPartitions>
      stashes;
  for (auto& stash : stashes) {
    stash = std::make_unique<SpillRowStore>(context->buffers);
  }
  SpillRowStore::Cursor read;
  while (true) {
    const uint8_t* row;
    uint32_t len;
    MALLARD_RETURN_NOT_OK(job.stash->Next(&read, &row, &len));
    if (!row) break;
    uint64_t hash;
    std::memcpy(&hash, row, 8);
    idx_t sp = JoinHashTable::PartitionOf(hash, child_shift);
    MALLARD_RETURN_NOT_OK(stashes[sp]->Append(row, len));
  }
  for (auto& stash : stashes) stash->FinishAppend();
  PushGraceJobs(state, sub, sub.get(), &stashes);
  return Status::OK();
}

Status PhysicalHashJoin::PrepareGraceJob(ExecutionContext* context,
                                         State* state, GraceJob job) const {
  JoinHashTable* table = job.table;
  if (!job.whole_table) {
    idx_t p = job.partition;
    if (!job.stash || job.stash->rows() == 0) {
      // No probe rows landed here: no matches and nothing to NULL-pad.
      table->DropPartition(p);
      return Status::OK();
    }
    // A partition that alone exceeds the budget splits recursively —
    // unless the shift is exhausted (identical-hash skew) or the
    // partition is small in rows; then it is processed whole, degraded.
    if (table->PartitionBytes(p) > table->SpillBudget() &&
        table->radix_shift() < JoinHashTable::kMaxRadixShift &&
        table->PartitionRows(p) > kVectorSize) {
      return SplitGraceJob(context, state, std::move(job));
    }
    MALLARD_RETURN_NOT_OK(table->LoadPartition(p));
    MALLARD_RETURN_NOT_OK(table->FinalizePartition(p));
  }
  state->probe_table = table;
  state->grace_source = std::make_unique<GraceStashScan>(
      children_[0]->types(), job.stash.get(), state->probe_codec.get());
  state->grace_source_state = state->grace_source->MakeState();
  // Fresh serial cursor for this job's stash replay.
  ProbeCursor& probe = state->probe;
  probe.chunk.Reset();
  probe.position = 0;
  probe.chain_ref = JoinHashTable::kNullRef;
  probe.chain_active = false;
  probe.row_matched = false;
  probe.exhausted = false;
  state->grace_current = std::move(job);
  state->grace_active = true;
  return Status::OK();
}

Status PhysicalHashJoin::GraceProbe(ExecutionContext* context, State* state,
                                    DataChunk* out) const {
  if (!state->grace_routed) {
    MALLARD_RETURN_NOT_OK(RouteProbeSide(context, state));
    state->grace_routed = true;
  }
  while (true) {
    if (state->grace_active) {
      MALLARD_RETURN_NOT_OK(ProbeChunk(
          context, state->grace_source.get(), state->grace_source_state.get(),
          state->probe_table, &state->probe, out));
      if (out->size() > 0) return Status::OK();
      // Job drained: free its partition (and stash) before the next.
      GraceJob& current = state->grace_current;
      if (!current.whole_table) current.table->DropPartition(current.partition);
      state->grace_source_state.reset();
      state->grace_source.reset();
      current = GraceJob{};
      state->grace_active = false;
      continue;
    }
    if (state->grace_jobs.empty()) {
      out->Reset();
      out->SetCardinality(0);
      return Status::OK();
    }
    GraceJob job = std::move(state->grace_jobs.back());
    state->grace_jobs.pop_back();
    MALLARD_RETURN_NOT_OK(PrepareGraceJob(context, state, std::move(job)));
  }
}

std::string PhysicalHashJoin::name() const {
  std::string result = "HASH_JOIN(";
  for (size_t i = 0; i < conditions_.size(); i++) {
    if (i > 0) result += " AND ";
    result += conditions_[i].left->ToString() + " = " +
              conditions_[i].right->ToString();
  }
  return result + ")";
}

// ---------------------------------------------------------------------------
// PhysicalMergeJoin
// ---------------------------------------------------------------------------

PhysicalMergeJoin::PhysicalMergeJoin(JoinType join_type,
                                     std::vector<JoinCondition> conditions,
                                     std::unique_ptr<PhysicalOperator> left,
                                     std::unique_ptr<PhysicalOperator> right)
    : PhysicalOperator(
          JoinOutputTypes(join_type, left->types(), right->types())),
      join_type_(join_type),
      conditions_(std::move(conditions)),
      left_types_(left->types()),
      right_types_(right->types()) {
  AddChild(std::move(left));
  AddChild(std::move(right));
}

/// One execution of the merge join: both sorted inputs, the cursor over
/// each, and the right side's current equal-key group.
struct PhysicalMergeJoin::MergeState : OperatorState {
  std::unique_ptr<ExternalSort> left_sort;
  std::unique_ptr<ExternalSort> right_sort;
  // Left cursor.
  DataChunk left_chunk;
  idx_t left_position = 0;
  bool left_done = false;
  // Right cursor + current equal-key group.
  DataChunk right_chunk;
  idx_t right_position = 0;
  bool right_done = false;
  std::string group_key;
  std::vector<std::vector<Value>> group_rows;
  bool group_valid = false;
  idx_t emit_group_index = 0;
  bool emitting_matches = false;
};

StatePtr PhysicalMergeJoin::CreateState(const MorselWorker*,
                                        const OperatorState*) const {
  return std::make_unique<MergeState>();
}

Status PhysicalMergeJoin::SortInputs(ExecutionContext* context,
                                     MergeState* state) const {
  // Sort keys are materialized as leading columns so the sorted stream
  // can be compared without re-evaluating expressions:
  // sorted layout = [key columns..., payload columns...].
  auto sort_side = [&](idx_t side, const std::vector<TypeId>& payload_types)
      -> Result<std::unique_ptr<ExternalSort>> {
    const bool left_side = side == 0;
    std::vector<TypeId> all_types = KeyTypes(conditions_, left_side);
    idx_t key_count = all_types.size();
    all_types.insert(all_types.end(), payload_types.begin(),
                     payload_types.end());
    std::vector<SortSpec> specs;
    for (idx_t i = 0; i < key_count; i++) {
      specs.push_back(SortSpec{i, true, true});
    }
    auto sorter = std::make_unique<ExternalSort>(
        all_types, specs, context->buffers, context->governor);
    DataChunk input;
    input.Initialize(payload_types);
    DataChunk widened;
    widened.Initialize(all_types);
    DataChunk keys;
    keys.Initialize(KeyTypes(conditions_, left_side));
    while (true) {
      MALLARD_RETURN_NOT_OK(ChildChunk(side, context, state, &input));
      if (input.size() == 0) break;
      widened.Reset();
      for (idx_t k = 0; k < key_count; k++) {
        const JoinCondition& c = conditions_[k];
        MALLARD_RETURN_NOT_OK(ExpressionExecutor::Execute(
            left_side ? *c.left : *c.right, input, &widened.column(k),
            context->parameters));
      }
      for (idx_t c = 0; c < payload_types.size(); c++) {
        widened.column(key_count + c).Reference(input.column(c));
      }
      widened.SetCardinality(input.size());
      MALLARD_RETURN_NOT_OK(sorter->Sink(widened));
    }
    MALLARD_RETURN_NOT_OK(sorter->Finalize());
    return sorter;
  };
  MALLARD_ASSIGN_OR_RETURN(state->left_sort, sort_side(0, left_types_));
  MALLARD_ASSIGN_OR_RETURN(state->right_sort, sort_side(1, right_types_));
  // Cursor chunks have the widened layouts.
  std::vector<TypeId> lt = KeyTypes(conditions_, true);
  lt.insert(lt.end(), left_types_.begin(), left_types_.end());
  state->left_chunk.Initialize(lt);
  std::vector<TypeId> rt = KeyTypes(conditions_, false);
  rt.insert(rt.end(), right_types_.begin(), right_types_.end());
  state->right_chunk.Initialize(rt);
  return Status::OK();
}

Status PhysicalMergeJoin::AdvanceLeft(MergeState* state) const {
  MergeState& s = *state;
  s.left_position++;
  if (s.left_position >= s.left_chunk.size()) {
    MALLARD_RETURN_NOT_OK(s.left_sort->GetChunk(&s.left_chunk));
    s.left_position = 0;
    if (s.left_chunk.size() == 0) s.left_done = true;
  }
  return Status::OK();
}

Status PhysicalMergeJoin::LoadNextRightGroup(MergeState* state) const {
  MergeState& s = *state;
  s.group_rows.clear();
  s.group_valid = false;
  auto specs = KeySpecs(conditions_.size());
  idx_t key_count = conditions_.size();
  while (!s.right_done) {
    if (s.right_position >= s.right_chunk.size()) {
      MALLARD_RETURN_NOT_OK(s.right_sort->GetChunk(&s.right_chunk));
      s.right_position = 0;
      if (s.right_chunk.size() == 0) {
        s.right_done = true;
        break;
      }
    }
    // Key of the row at right_position (skip NULL keys).
    bool has_null = false;
    for (idx_t k = 0; k < key_count; k++) {
      if (!s.right_chunk.column(k).validity().RowIsValid(s.right_position)) {
        has_null = true;
        break;
      }
    }
    if (has_null) {
      s.right_position++;
      continue;
    }
    std::string key;
    // Build a key-only view chunk by encoding the first key_count columns.
    EncodeSortKey(s.right_chunk, s.right_position, specs, &key);
    if (!s.group_valid) {
      s.group_key = key;
      s.group_valid = true;
    } else if (key != s.group_key) {
      return Status::OK();  // next group starts here
    }
    std::vector<Value> row;
    for (idx_t c = 0; c < right_types_.size(); c++) {
      row.push_back(s.right_chunk.GetValue(key_count + c, s.right_position));
    }
    s.group_rows.push_back(std::move(row));
    s.right_position++;
  }
  return Status::OK();
}

Status PhysicalMergeJoin::GetChunk(ExecutionContext* context,
                                   OperatorState* state, DataChunk* out) const {
  auto& s = static_cast<MergeState&>(*state);
  if (!s.left_sort) {
    MALLARD_RETURN_NOT_OK(SortInputs(context, &s));
    MALLARD_RETURN_NOT_OK(s.left_sort->GetChunk(&s.left_chunk));
    s.left_position = 0;
    s.left_done = s.left_chunk.size() == 0;
    MALLARD_RETURN_NOT_OK(LoadNextRightGroup(&s));
  }
  out->Reset();
  idx_t key_count = conditions_.size();
  auto specs = KeySpecs(key_count);
  idx_t produced = 0;
  auto emit_left_row = [&](bool null_pad) {
    for (idx_t c = 0; c < left_types_.size(); c++) {
      out->column(c).CopyFrom(s.left_chunk.column(key_count + c), 1,
                              s.left_position, produced);
    }
    if (null_pad && (join_type_ == JoinType::kLeft)) {
      for (idx_t c = left_types_.size(); c < out->ColumnCount(); c++) {
        out->column(c).validity().SetInvalid(produced);
      }
    }
  };

  while (produced < kVectorSize && !s.left_done) {
    if (s.emitting_matches) {
      while (s.emit_group_index < s.group_rows.size() &&
             produced < kVectorSize) {
        emit_left_row(false);
        const auto& row = s.group_rows[s.emit_group_index];
        for (idx_t c = 0; c < right_types_.size(); c++) {
          out->SetValue(left_types_.size() + c, produced, row[c]);
        }
        produced++;
        s.emit_group_index++;
      }
      if (s.emit_group_index >= s.group_rows.size()) {
        s.emitting_matches = false;
        MALLARD_RETURN_NOT_OK(AdvanceLeft(&s));
      }
      continue;
    }
    // Left row key (NULL keys never match).
    bool has_null = false;
    for (idx_t k = 0; k < key_count; k++) {
      if (!s.left_chunk.column(k).validity().RowIsValid(s.left_position)) {
        has_null = true;
        break;
      }
    }
    std::string left_key;
    if (!has_null) {
      EncodeSortKey(s.left_chunk, s.left_position, specs, &left_key);
    }
    if (has_null) {
      if (join_type_ == JoinType::kLeft || join_type_ == JoinType::kAnti) {
        emit_left_row(true);
        produced++;
      }
      MALLARD_RETURN_NOT_OK(AdvanceLeft(&s));
      continue;
    }
    // Advance right groups until group_key >= left_key.
    while (s.group_valid && s.group_key < left_key) {
      MALLARD_RETURN_NOT_OK(LoadNextRightGroup(&s));
    }
    bool match = s.group_valid && s.group_key == left_key;
    switch (join_type_) {
      case JoinType::kInner:
      case JoinType::kLeft:
        if (match) {
          s.emitting_matches = true;
          s.emit_group_index = 0;
        } else {
          if (join_type_ == JoinType::kLeft) {
            emit_left_row(true);
            produced++;
          }
          MALLARD_RETURN_NOT_OK(AdvanceLeft(&s));
        }
        break;
      case JoinType::kSemi:
      case JoinType::kAnti:
        if ((join_type_ == JoinType::kSemi) == match) {
          emit_left_row(false);
          produced++;
        }
        MALLARD_RETURN_NOT_OK(AdvanceLeft(&s));
        break;
    }
  }
  out->SetCardinality(produced);
  return Status::OK();
}

std::string PhysicalMergeJoin::name() const {
  std::string result = "MERGE_JOIN(";
  for (size_t i = 0; i < conditions_.size(); i++) {
    if (i > 0) result += " AND ";
    result += conditions_[i].left->ToString() + " = " +
              conditions_[i].right->ToString();
  }
  return result + ")";
}

// ---------------------------------------------------------------------------
// PhysicalCrossProduct
// ---------------------------------------------------------------------------

PhysicalCrossProduct::PhysicalCrossProduct(
    std::unique_ptr<PhysicalOperator> left,
    std::unique_ptr<PhysicalOperator> right)
    : PhysicalOperator(
          JoinOutputTypes(JoinType::kInner, left->types(), right->types())) {
  AddChild(std::move(left));
  AddChild(std::move(right));
}

StatePtr PhysicalCrossProduct::CreateState(const MorselWorker*,
                                           const OperatorState*) const {
  auto state = std::make_unique<CrossProductState>();
  state->left_chunk.Initialize(children_[0]->types());
  state->right_chunk.Initialize(children_[1]->types());
  return state;
}

// A block-nested loop: each left chunk pairs with every right chunk in
// turn, so the right side is read once per left chunk.
Status PhysicalCrossProduct::GetChunk(ExecutionContext* context,
                                      OperatorState* state,
                                      DataChunk* out) const {
  auto& s = static_cast<CrossProductState&>(*state);
  if (!s.right_data) {
    s.right_data = std::make_unique<SpillRowStore>(context->buffers);
    DataChunk chunk;
    chunk.Initialize(child(1)->types());
    while (true) {
      MALLARD_RETURN_NOT_OK(ChildChunk(1, context, state, &chunk));
      if (chunk.size() == 0) break;
      MALLARD_RETURN_NOT_OK(s.right_data->AppendChunk(chunk));
    }
    s.right_data->FinishAppend();
  }
  out->Reset();
  // Advance to the next block with rows left: the next right chunk, or
  // the next left chunk paired with the first right chunk.
  while (!s.done && s.left_position >= s.left_chunk.size()) {
    if (s.left_chunk.size() > 0) {
      MALLARD_RETURN_NOT_OK(
          s.right_data->NextChunk(&s.right_scan, &s.right_chunk));
    }
    if (s.right_chunk.size() == 0) {
      MALLARD_RETURN_NOT_OK(ChildChunk(0, context, state, &s.left_chunk));
      s.done = s.left_chunk.size() == 0 || s.right_data->rows() == 0;
      if (s.done) return Status::OK();
      s.right_scan = SpillRowStore::Cursor{};
      MALLARD_RETURN_NOT_OK(
          s.right_data->NextChunk(&s.right_scan, &s.right_chunk));
    }
    s.left_position = 0;
    s.right_position = 0;
  }
  uint32_t left_sel[kVectorSize];
  uint32_t right_sel[kVectorSize];
  idx_t produced = 0;
  while (!s.done && produced < kVectorSize &&
         s.left_position < s.left_chunk.size()) {
    left_sel[produced] = static_cast<uint32_t>(s.left_position);
    right_sel[produced] = static_cast<uint32_t>(s.right_position);
    produced++;
    if (++s.right_position == s.right_chunk.size()) {
      s.right_position = 0;
      s.left_position++;
    }
  }
  idx_t left_width = s.left_chunk.ColumnCount();
  for (idx_t c = 0; c < left_width; c++) {
    out->column(c).CopySelection(s.left_chunk.column(c), left_sel, produced);
  }
  for (idx_t c = 0; c < s.right_chunk.ColumnCount(); c++) {
    out->column(left_width + c)
        .CopySelection(s.right_chunk.column(c), right_sel, produced);
  }
  out->SetCardinality(produced);
  return Status::OK();
}

std::string PhysicalCrossProduct::name() const { return "CROSS_PRODUCT"; }

}  // namespace mallard
