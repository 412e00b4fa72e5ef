#include "mallard/main/prepared_statement.h"

#include <algorithm>

#include "mallard/main/connection.h"
#include "mallard/main/database.h"

namespace mallard {

PreparedStatement::PreparedStatement(
    Connection* connection, std::unique_ptr<SQLStatement> statement,
    std::shared_ptr<BoundParameterData> parameters, PreparedPlan plan,
    uint64_t catalog_version)
    : connection_(connection),
      statement_(std::move(statement)),
      parameters_(std::move(parameters)),
      values_(parameters_->Count()),
      bound_(parameters_->Count(), false),
      plan_(std::move(plan)),
      catalog_version_(catalog_version) {}

PreparedStatement::~PreparedStatement() = default;

TypeId PreparedStatement::ParameterType(idx_t index) const {
  if (index < 1 || index > parameters_->Count()) return TypeId::kInvalid;
  return parameters_->types[index - 1];
}

Status PreparedStatement::Bind(idx_t index, Value value) {
  if (index < 1 || index > parameters_->Count()) {
    return Status::InvalidArgument(
        "parameter index " + std::to_string(index) + " out of range (" +
        "statement has " + std::to_string(parameters_->Count()) +
        " parameters, indexes are 1-based)");
  }
  idx_t slot = index - 1;
  TypeId target = parameters_->types[slot];
  if (target != TypeId::kInvalid && !value.is_null() &&
      value.type() != target) {
    // Eager type check: surface mismatches at bind time.
    auto cast = value.CastTo(target);
    if (!cast.ok()) {
      return Status::InvalidArgument(
          "cannot bind value '" + value.ToString() + "' to parameter $" +
          std::to_string(index) + " of type " + TypeIdToString(target) +
          ": " + cast.status().message());
    }
    value = std::move(*cast);
  }
  values_[slot] = std::move(value);
  bound_[slot] = true;
  return Status::OK();
}

void PreparedStatement::ClearBindings() {
  std::fill(values_.begin(), values_.end(), Value());
  std::fill(bound_.begin(), bound_.end(), false);
}

Status PreparedStatement::CheckAllBound() const {
  for (idx_t i = 0; i < bound_.size(); i++) {
    if (!bound_[i]) {
      return Status::InvalidArgument(
          "cannot execute prepared statement: parameter $" +
          std::to_string(i + 1) + " has not been bound");
    }
  }
  return Status::OK();
}

Status PreparedStatement::CheckNoOpenStream() const {
  if (!stream_lease_.expired()) {
    return Status::InvalidArgument(
        "cannot execute: a streaming result of this prepared statement "
        "is still open; Close() or destroy it first");
  }
  return Status::OK();
}

Status PreparedStatement::EnsureCurrentPlan() {
  uint64_t current = connection_->database().catalog().version();
  if (current == catalog_version_) return Status::OK();
  // DDL happened since planning: re-plan from the stored AST. Bound
  // values and previously inferred types survive; a dropped table
  // surfaces here as a catalog/binder error.
  Planner planner = connection_->MakePlanner();
  planner.SetParameterData(parameters_);
  MALLARD_ASSIGN_OR_RETURN(plan_, planner.PlanStatement(*statement_));
  catalog_version_ = current;
  return Status::OK();
}

Result<std::unique_ptr<MaterializedQueryResult>> PreparedStatement::Execute() {
  MALLARD_RETURN_NOT_OK(CheckNoOpenStream());
  MALLARD_RETURN_NOT_OK(CheckAllBound());
  MALLARD_RETURN_NOT_OK(EnsureCurrentPlan());
  return connection_->ExecutePhysicalPlan(plan_.plan.get(), plan_.names,
                                          plan_.types, &values_);
}

Result<std::unique_ptr<StreamingQueryResult>>
PreparedStatement::ExecuteStream() {
  if (statement_->type != StatementType::kSelect) {
    return Status::InvalidArgument(
        "ExecuteStream supports SELECT statements only");
  }
  MALLARD_RETURN_NOT_OK(CheckNoOpenStream());
  MALLARD_RETURN_NOT_OK(CheckAllBound());
  MALLARD_RETURN_NOT_OK(EnsureCurrentPlan());
  // The statement keeps plan ownership so it stays re-executable; the
  // stream borrows it and must not outlive this object. The lease makes
  // executions reject while the stream is open, because EnsureCurrentPlan
  // could replace the plan the stream reads.
  auto lease = std::make_shared<char>();
  stream_lease_ = lease;
  return connection_->StreamPlan(nullptr, plan_.plan.get(), plan_.names,
                                 plan_.types, values_, std::move(lease));
}

}  // namespace mallard
