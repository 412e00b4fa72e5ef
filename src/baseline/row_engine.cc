#include "mallard/baseline/row_engine.h"

#include "mallard/expression/expression_executor.h"

namespace mallard {
namespace baseline {

RowScan::RowScan(DataTable* table, Transaction* txn,
                 std::vector<idx_t> column_ids)
    : table_(table), txn_(txn), column_ids_(std::move(column_ids)) {}

Result<bool> RowScan::Next(std::vector<Value>* row) {
  if (!initialized_) {
    table_->InitializeScan(&state_, column_ids_);
    std::vector<TypeId> types;
    for (idx_t id : column_ids_) {
      types.push_back(table_->ColumnTypes()[id]);
    }
    chunk_.Initialize(types);
    position_ = 0;
    chunk_.SetCardinality(0);
    initialized_ = true;
  }
  while (true) {
    if (position_ < chunk_.size()) {
      row->clear();
      for (idx_t c = 0; c < chunk_.ColumnCount(); c++) {
        row->push_back(chunk_.GetValue(c, position_));
      }
      position_++;
      return true;
    }
    if (!table_->Scan(*txn_, &state_, &chunk_)) {
      if (!state_.error.ok()) return std::move(state_.error);
      return false;
    }
    position_ = 0;
  }
}

Result<bool> RowFilter::Next(std::vector<Value>* row) {
  while (true) {
    MALLARD_ASSIGN_OR_RETURN(bool has, child_->Next(row));
    if (!has) return false;
    MALLARD_ASSIGN_OR_RETURN(
        Value v,
        ExpressionExecutor::ExecuteScalar(*predicate_, *row, nullptr));
    if (!v.is_null() && v.GetBoolean()) return true;
  }
}

Result<bool> RowProject::Next(std::vector<Value>* row) {
  MALLARD_ASSIGN_OR_RETURN(bool has, child_->Next(&input_row_));
  if (!has) return false;
  row->clear();
  for (const auto& expr : exprs_) {
    MALLARD_ASSIGN_OR_RETURN(
        Value v,
        ExpressionExecutor::ExecuteScalar(*expr, input_row_, nullptr));
    row->push_back(std::move(v));
  }
  return true;
}

Result<bool> RowHashAggregate::Next(std::vector<Value>* row) {
  if (!sunk_) {
    std::vector<Value> input;
    while (true) {
      MALLARD_ASSIGN_OR_RETURN(bool has, child_->Next(&input));
      if (!has) break;
      std::vector<Value> key;
      for (const auto& g : groups_) {
        MALLARD_ASSIGN_OR_RETURN(
            Value v, ExpressionExecutor::ExecuteScalar(*g, input, nullptr));
        key.push_back(std::move(v));
      }
      auto [it, inserted] =
          groups_map_.try_emplace(std::move(key), aggregates_.size());
      for (idx_t a = 0; a < aggregates_.size(); a++) {
        Value v;
        if (aggregates_[a].arg) {
          MALLARD_ASSIGN_OR_RETURN(
              v, ExpressionExecutor::ExecuteScalar(*aggregates_[a].arg,
                                                   input, nullptr));
        }
        AggregateFunction::UpdateValue(aggregates_[a].type, v,
                                       &it->second[a]);
      }
    }
    if (groups_.empty() && groups_map_.empty()) {
      // Ungrouped aggregate over empty input still yields one row.
      groups_map_.try_emplace({}, aggregates_.size());
    }
    output_it_ = groups_map_.begin();
    sunk_ = true;
  }
  if (output_it_ == groups_map_.end()) return false;
  row->clear();
  for (const auto& v : output_it_->first) row->push_back(v);
  for (idx_t a = 0; a < aggregates_.size(); a++) {
    row->push_back(AggregateFunction::Finalize(aggregates_[a].type,
                                               aggregates_[a].return_type,
                                               output_it_->second[a]));
  }
  ++output_it_;
  return true;
}

}  // namespace baseline
}  // namespace mallard
