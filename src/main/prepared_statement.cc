#include "mallard/main/prepared_statement.h"

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
  parameters_->values[slot] = std::move(value);
  parameters_->is_set[slot] = true;
  return Status::OK();
}

Status PreparedStatement::CheckAllBound() const {
  for (idx_t i = 0; i < parameters_->Count(); i++) {
    if (!parameters_->is_set[i]) {
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
  // DDL happened since planning: re-plan from the stored AST. Parameter
  // values and previously inferred types survive in the shared slot; a
  // dropped table surfaces here as a catalog/binder error.
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
  // Rewind the cached plan in place: no re-parse, no re-plan.
  MALLARD_RETURN_NOT_OK(plan_.plan->Reset());
  return connection_->ExecutePhysicalPlan(plan_.plan.get(), plan_.names,
                                          plan_.types);
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
  MALLARD_RETURN_NOT_OK(plan_.plan->Reset());
  // The statement keeps plan ownership so it stays re-executable; the
  // stream borrows it (and holds a lease so overlapping executions are
  // rejected) and must not outlive this object.
  auto lease = std::make_shared<char>();
  stream_lease_ = lease;
  return connection_->StreamPlan(nullptr, plan_.plan.get(), plan_.names,
                                 plan_.types, std::move(lease));
}

}  // namespace mallard
