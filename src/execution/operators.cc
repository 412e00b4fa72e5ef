#include "mallard/execution/operators.h"

#include <algorithm>

#include "mallard/expression/expression_executor.h"
#include "mallard/parallel/morsel.h"

namespace mallard {

namespace {
/// A table scan's cursor. A serial scan covers the whole table as one
/// range; a parallel worker's scan claims one row-group morsel at a
/// time from the shared source.
struct TableScanOperatorState : OperatorState {
  TableScanState scan;
  bool initialized = false;
  bool range_active = false;
  MorselWorker morsels;  // source null: serial scan
};

/// The chunk an operator pulls its child's output into.
struct ChildChunkState : OperatorState {
  explicit ChildChunkState(const std::vector<TypeId>& types) {
    child_chunk.Initialize(types);
  }
  DataChunk child_chunk;
};

/// LIMIT's child chunk and how many rows it skipped and emitted.
struct LimitState : ChildChunkState {
  using ChildChunkState::ChildChunkState;
  idx_t skipped = 0;
  idx_t produced = 0;
};

/// The next row a VALUES or expression scan emits.
struct RowPositionState : OperatorState {
  idx_t position = 0;
};
}  // namespace

// ---------------------------------------------------------------------------
// PhysicalTableScan
// ---------------------------------------------------------------------------

PhysicalTableScan::PhysicalTableScan(
    DataTable* table, std::vector<idx_t> column_ids,
    std::vector<TableFilter> filters, std::vector<TypeId> types,
    std::vector<LateBoundTableFilter> late_filters)
    : PhysicalOperator(std::move(types)),
      table_(table),
      column_ids_(std::move(column_ids)),
      filters_(std::move(filters)),
      late_filters_(std::move(late_filters)) {}

std::vector<TableFilter> PhysicalTableScan::EffectiveFilters(
    const ExecutionContext& context) const {
  std::vector<TableFilter> filters = filters_;
  // Materialize parameterized zone-map filters from the values bound
  // for this execution. Unbound/NULL/uncastable values just skip the
  // pruning; the residual filter above the scan keeps results exact.
  for (const auto& late : late_filters_) {
    if (!context.parameters ||
        late.parameter_index >= context.parameters->size()) {
      continue;
    }
    const Value& bound = (*context.parameters)[late.parameter_index];
    if (bound.is_null()) continue;
    auto cast = bound.CastTo(late.column_type);
    if (!cast.ok()) continue;
    filters.push_back(
        TableFilter{late.column_index, late.op, std::move(*cast)});
  }
  return filters;
}

StatePtr PhysicalTableScan::CreateState(const MorselWorker* worker,
                                        const OperatorState*) const {
  auto state = std::make_unique<TableScanOperatorState>();
  if (worker) state->morsels = *worker;
  return state;
}

Status PhysicalTableScan::GetChunk(ExecutionContext* context,
                                   OperatorState* state,
                                   DataChunk* out) const {
  auto& s = static_cast<TableScanOperatorState&>(*state);
  if (!s.initialized) {
    table_->InitializeScan(&s.scan, column_ids_, EffectiveFilters(*context));
    s.scan.salvage = context->salvage_mode;
    s.initialized = true;
    s.range_active = !s.morsels.source;
  }
  while (true) {
    MALLARD_RETURN_NOT_OK(context->CheckInterrupt());
    if (!s.range_active) {
      idx_t row_group;
      if (!s.morsels.source->Next(s.morsels.worker, &row_group)) {
        out->Reset();
        return Status::OK();
      }
      s.scan.row_group_index = row_group;
      s.scan.max_row_group = row_group + 1;
      s.scan.offset = 0;
      s.scan.zonemap_checked = false;
      s.range_active = true;
    }
    if (table_->Scan(*context->txn, &s.scan, out)) return Status::OK();
    // A quarantined row group outside salvage mode: surface the
    // corruption instead of silently truncating the result.
    if (!s.scan.error.ok()) return std::move(s.scan.error);
    if (!s.morsels.source) return Status::OK();  // table exhausted
    s.range_active = false;  // morsel exhausted; claim the next one
  }
}

std::string PhysicalTableScan::name() const {
  const auto& columns = table_->columns();
  std::string result = "SEQ_SCAN(" + table_->name() + ") [";
  for (idx_t i = 0; i < column_ids_.size(); i++) {
    result += (i > 0 ? ", " : "") + columns[column_ids_[i]].name;
  }
  result += "]";
  std::string sep = " filters: ";
  for (const auto& f : filters_) {
    result += sep + columns[f.column_index].name + " " +
              CompareOpSymbol(f.op) + " " + f.constant.ToString();
    sep = ", ";
  }
  for (const auto& f : late_filters_) {
    result += sep + columns[f.column_index].name + " " +
              CompareOpSymbol(f.op) + " $" +
              std::to_string(f.parameter_index + 1);
    sep = ", ";
  }
  return result;
}

// ---------------------------------------------------------------------------
// PhysicalFilter
// ---------------------------------------------------------------------------

PhysicalFilter::PhysicalFilter(ExprPtr predicate,
                               std::unique_ptr<PhysicalOperator> child)
    : PhysicalOperator(child->types()), predicate_(std::move(predicate)) {
  AddChild(std::move(child));
}

StatePtr PhysicalFilter::CreateState(const MorselWorker*,
                                     const OperatorState*) const {
  return std::make_unique<ChildChunkState>(types_);
}

Status PhysicalFilter::GetChunk(ExecutionContext* context,
                                OperatorState* state, DataChunk* out) const {
  DataChunk& input = static_cast<ChildChunkState&>(*state).child_chunk;
  out->Reset();
  while (true) {
    MALLARD_RETURN_NOT_OK(ChildChunk(0, context, state, &input));
    if (input.size() == 0) return Status::OK();
    uint32_t sel[kVectorSize];
    MALLARD_ASSIGN_OR_RETURN(
        idx_t m, ExpressionExecutor::Select(*predicate_, input, sel,
                                            context->parameters));
    if (m == 0) continue;
    if (m == input.size()) {
      // All rows pass: alias child vectors, zero copies.
      for (idx_t c = 0; c < out->ColumnCount(); c++) {
        out->column(c).Reference(input.column(c));
      }
    } else {
      for (idx_t c = 0; c < out->ColumnCount(); c++) {
        out->column(c).CopySelection(input.column(c), sel, m);
      }
    }
    out->SetCardinality(m);
    return Status::OK();
  }
}

std::string PhysicalFilter::name() const {
  return "FILTER(" + predicate_->ToString() + ")";
}

// ---------------------------------------------------------------------------
// PhysicalProjection
// ---------------------------------------------------------------------------

PhysicalProjection::PhysicalProjection(std::vector<ExprPtr> expressions,
                                       std::unique_ptr<PhysicalOperator> child)
    : PhysicalOperator([&] {
        std::vector<TypeId> types;
        for (const auto& e : expressions) types.push_back(e->return_type());
        return types;
      }()),
      expressions_(std::move(expressions)) {
  AddChild(std::move(child));
}

StatePtr PhysicalProjection::CreateState(const MorselWorker*,
                                         const OperatorState*) const {
  return std::make_unique<ChildChunkState>(children_[0]->types());
}

Status PhysicalProjection::GetChunk(ExecutionContext* context,
                                    OperatorState* state,
                                    DataChunk* out) const {
  DataChunk& input = static_cast<ChildChunkState&>(*state).child_chunk;
  out->Reset();
  MALLARD_RETURN_NOT_OK(ChildChunk(0, context, state, &input));
  if (input.size() == 0) return Status::OK();
  for (idx_t c = 0; c < expressions_.size(); c++) {
    MALLARD_RETURN_NOT_OK(ExpressionExecutor::Execute(
        *expressions_[c], input, &out->column(c), context->parameters));
  }
  out->SetCardinality(input.size());
  return Status::OK();
}

std::string PhysicalProjection::name() const {
  std::string result = "PROJECTION(";
  for (size_t i = 0; i < expressions_.size(); i++) {
    if (i > 0) result += ", ";
    result += expressions_[i]->ToString();
  }
  return result + ")";
}

// ---------------------------------------------------------------------------
// PhysicalLimit
// ---------------------------------------------------------------------------

PhysicalLimit::PhysicalLimit(idx_t limit, idx_t offset,
                             std::unique_ptr<PhysicalOperator> child)
    : PhysicalOperator(child->types()), limit_(limit), offset_(offset) {
  AddChild(std::move(child));
}

StatePtr PhysicalLimit::CreateState(const MorselWorker*,
                                    const OperatorState*) const {
  return std::make_unique<LimitState>(types_);
}

Status PhysicalLimit::GetChunk(ExecutionContext* context, OperatorState* state,
                               DataChunk* out) const {
  auto& s = static_cast<LimitState&>(*state);
  out->Reset();
  while (s.produced < limit_) {
    MALLARD_RETURN_NOT_OK(ChildChunk(0, context, state, &s.child_chunk));
    if (s.child_chunk.size() == 0) return Status::OK();
    idx_t start = 0;
    idx_t available = s.child_chunk.size();
    if (s.skipped < offset_) {
      idx_t skip = std::min(offset_ - s.skipped, available);
      s.skipped += skip;
      start = skip;
      available -= skip;
      if (available == 0) continue;
    }
    idx_t take = std::min(available, limit_ - s.produced);
    for (idx_t c = 0; c < out->ColumnCount(); c++) {
      out->column(c).CopyFrom(s.child_chunk.column(c), take, start, 0);
    }
    out->SetCardinality(take);
    s.produced += take;
    return Status::OK();
  }
  return Status::OK();
}

std::string PhysicalLimit::name() const {
  return "LIMIT(" + std::to_string(limit_) +
         (offset_ ? " OFFSET " + std::to_string(offset_) : "") + ")";
}

// ---------------------------------------------------------------------------
// PhysicalValues
// ---------------------------------------------------------------------------

PhysicalValues::PhysicalValues(std::vector<std::vector<Value>> rows,
                               std::vector<TypeId> types)
    : PhysicalOperator(std::move(types)), rows_(std::move(rows)) {}

StatePtr PhysicalValues::CreateState(const MorselWorker*,
                                     const OperatorState*) const {
  return std::make_unique<RowPositionState>();
}

Status PhysicalValues::GetChunk(ExecutionContext*, OperatorState* state,
                                DataChunk* out) const {
  idx_t& position = static_cast<RowPositionState&>(*state).position;
  out->Reset();
  idx_t produced = 0;
  while (position < rows_.size() && produced < kVectorSize) {
    const auto& row = rows_[position++];
    for (idx_t c = 0; c < types_.size(); c++) {
      out->SetValue(c, produced, row[c]);
    }
    produced++;
  }
  out->SetCardinality(produced);
  return Status::OK();
}

std::string PhysicalValues::name() const {
  return "VALUES(" + std::to_string(rows_.size()) + " rows)";
}

// ---------------------------------------------------------------------------
// PhysicalExpressionScan
// ---------------------------------------------------------------------------

PhysicalExpressionScan::PhysicalExpressionScan(
    std::vector<std::vector<ExprPtr>> rows, std::vector<TypeId> types)
    : PhysicalOperator(std::move(types)), rows_(std::move(rows)) {}

StatePtr PhysicalExpressionScan::CreateState(const MorselWorker*,
                                             const OperatorState*) const {
  return std::make_unique<RowPositionState>();
}

Status PhysicalExpressionScan::GetChunk(ExecutionContext* context,
                                        OperatorState* state,
                                        DataChunk* out) const {
  idx_t& position = static_cast<RowPositionState&>(*state).position;
  out->Reset();
  idx_t produced = 0;
  while (position < rows_.size() && produced < kVectorSize) {
    const auto& row = rows_[position++];
    for (idx_t c = 0; c < types_.size(); c++) {
      MALLARD_ASSIGN_OR_RETURN(
          Value v, ExpressionExecutor::ExecuteScalar(*row[c], {},
                                                     context->parameters));
      if (!v.is_null() && v.type() != types_[c]) {
        MALLARD_ASSIGN_OR_RETURN(v, v.CastTo(types_[c]));
      }
      out->SetValue(c, produced, v);
    }
    produced++;
  }
  out->SetCardinality(produced);
  return Status::OK();
}

std::string PhysicalExpressionScan::name() const {
  return "EXPRESSION_SCAN(" + std::to_string(rows_.size()) + " rows)";
}

}  // namespace mallard
