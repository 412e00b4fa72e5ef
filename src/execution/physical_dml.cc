#include "mallard/execution/physical_dml.h"

#include "mallard/storage/wal.h"
#include "mallard/transaction/transaction.h"

namespace mallard {

namespace {
const std::vector<TypeId> kCountResult = {TypeId::kBigInt};
}

// ---------------------------------------------------------------------------
// PhysicalInsert
// ---------------------------------------------------------------------------

PhysicalInsert::PhysicalInsert(DataTable* table,
                               std::unique_ptr<PhysicalOperator> child)
    : PhysicalOperator(kCountResult), table_(table) {
  AddChild(std::move(child));
}

StatePtr PhysicalInsert::CreateState(const MorselWorker*,
                                     const OperatorState*) const {
  return std::make_unique<EmitOnceState>();
}

Status PhysicalInsert::GetChunk(ExecutionContext* context,
                                OperatorState* state, DataChunk* out) const {
  bool& done = static_cast<EmitOnceState&>(*state).done;
  out->Reset();
  if (done) return Status::OK();
  DataChunk chunk;
  chunk.Initialize(table_->ColumnTypes());
  int64_t inserted = 0;
  while (true) {
    MALLARD_RETURN_NOT_OK(ChildChunk(0, context, state, &chunk));
    if (chunk.size() == 0) break;
    MALLARD_RETURN_NOT_OK(table_->Append(context->txn, chunk));
    context->txn->wal_records().push_back(
        wal_record::Append(table_->name(), chunk));
    inserted += chunk.size();
  }
  out->SetValue(0, 0, Value::BigInt(inserted));
  out->SetCardinality(1);
  done = true;
  return Status::OK();
}

std::string PhysicalInsert::name() const {
  return "INSERT(" + table_->name() + ")";
}

// ---------------------------------------------------------------------------
// PhysicalDelete
// ---------------------------------------------------------------------------

PhysicalDelete::PhysicalDelete(DataTable* table,
                               std::unique_ptr<PhysicalOperator> child)
    : PhysicalOperator(kCountResult), table_(table) {
  AddChild(std::move(child));
}

StatePtr PhysicalDelete::CreateState(const MorselWorker*,
                                     const OperatorState*) const {
  return std::make_unique<EmitOnceState>();
}

Status PhysicalDelete::GetChunk(ExecutionContext* context,
                                OperatorState* state, DataChunk* out) const {
  bool& done = static_cast<EmitOnceState&>(*state).done;
  out->Reset();
  if (done) return Status::OK();
  DataChunk chunk;
  chunk.Initialize(child(0)->types());
  int64_t deleted = 0;
  while (true) {
    MALLARD_RETURN_NOT_OK(ChildChunk(0, context, state, &chunk));
    if (chunk.size() == 0) break;
    const Vector& row_ids = chunk.column(0);
    MALLARD_ASSIGN_OR_RETURN(idx_t n,
                             table_->Delete(context->txn, row_ids,
                                            chunk.size()));
    context->txn->wal_records().push_back(wal_record::Delete(
        table_->name(), row_ids.data<int64_t>(), chunk.size()));
    deleted += n;
  }
  out->SetValue(0, 0, Value::BigInt(deleted));
  out->SetCardinality(1);
  done = true;
  return Status::OK();
}

std::string PhysicalDelete::name() const {
  return "DELETE(" + table_->name() + ")";
}

// ---------------------------------------------------------------------------
// PhysicalUpdate
// ---------------------------------------------------------------------------

PhysicalUpdate::PhysicalUpdate(DataTable* table,
                               std::vector<idx_t> column_indexes,
                               std::unique_ptr<PhysicalOperator> child)
    : PhysicalOperator(kCountResult),
      table_(table),
      column_indexes_(std::move(column_indexes)) {
  AddChild(std::move(child));
}

StatePtr PhysicalUpdate::CreateState(const MorselWorker*,
                                     const OperatorState*) const {
  return std::make_unique<EmitOnceState>();
}

Status PhysicalUpdate::GetChunk(ExecutionContext* context,
                                OperatorState* state, DataChunk* out) const {
  bool& done = static_cast<EmitOnceState&>(*state).done;
  out->Reset();
  if (done) return Status::OK();
  DataChunk chunk;
  chunk.Initialize(child(0)->types());
  std::vector<TypeId> value_types;
  for (idx_t c = 1; c < child(0)->types().size(); c++) {
    value_types.push_back(child(0)->types()[c]);
  }
  int64_t updated = 0;
  while (true) {
    MALLARD_RETURN_NOT_OK(ChildChunk(0, context, state, &chunk));
    if (chunk.size() == 0) break;
    const Vector& row_ids = chunk.column(0);
    // Split off the value columns as their own chunk view.
    DataChunk values;
    values.Initialize(value_types);
    for (idx_t c = 0; c < value_types.size(); c++) {
      values.column(c).Reference(chunk.column(c + 1));
    }
    values.SetCardinality(chunk.size());
    MALLARD_RETURN_NOT_OK(table_->Update(context->txn, row_ids, chunk.size(),
                                         column_indexes_, values));
    context->txn->wal_records().push_back(
        wal_record::Update(table_->name(), column_indexes_,
                           row_ids.data<int64_t>(), chunk.size(), values));
    updated += chunk.size();
  }
  out->SetValue(0, 0, Value::BigInt(updated));
  out->SetCardinality(1);
  done = true;
  return Status::OK();
}

std::string PhysicalUpdate::name() const {
  return "UPDATE(" + table_->name() + ")";
}

}  // namespace mallard
