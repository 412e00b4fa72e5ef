#ifndef MALLARD_EXECUTION_OPERATORS_H_
#define MALLARD_EXECUTION_OPERATORS_H_

#include <memory>
#include <string>
#include <vector>

#include "mallard/execution/physical_operator.h"
#include "mallard/expression/bound_expression.h"
#include "mallard/storage/table/data_table.h"

namespace mallard {

/// A zone-map filter whose comparison value is a prepared-statement
/// parameter: the concrete TableFilter is materialized from the value
/// the execution binds when its scan starts, so every execution of a
/// prepared or cached plan prunes row groups with its own values.
struct LateBoundTableFilter {
  idx_t column_index;  // into the base table schema
  CompareOp op;
  TypeId column_type;
  idx_t parameter_index;
};

/// Sequential scan over a DataTable with projection pushdown (column ids)
/// and zone-map filters (plan-time constants plus late-bound parameters).
/// As one worker of a parallel pipeline it scans the row-group morsels
/// its shared source hands it instead of the whole table.
class PhysicalTableScan final : public PhysicalOperator {
 public:
  PhysicalTableScan(DataTable* table, std::vector<idx_t> column_ids,
                    std::vector<TableFilter> filters,
                    std::vector<TypeId> types,
                    std::vector<LateBoundTableFilter> late_filters = {});
  Status GetChunk(ExecutionContext* context, OperatorState* state,
                  DataChunk* out) const override;
  std::string name() const override;
  Result<const DataTable*> PipelineSource(ExecutionContext*,
                                          OperatorState*) const override {
    return table_;
  }

 protected:
  StatePtr CreateState(const MorselWorker* worker,
                       const OperatorState* serial) const override;

 private:
  /// Plan-time filters plus zone-map filters materialized from the
  /// execution's parameter values (late-bound filters with unbound,
  /// NULL or uncastable values are skipped — pruning stays optional).
  std::vector<TableFilter> EffectiveFilters(
      const ExecutionContext& context) const;

  DataTable* table_;
  std::vector<idx_t> column_ids_;
  std::vector<TableFilter> filters_;
  std::vector<LateBoundTableFilter> late_filters_;
};

/// Filters rows by a boolean predicate, compacting survivors.
class PhysicalFilter final : public PhysicalOperator {
 public:
  PhysicalFilter(ExprPtr predicate, std::unique_ptr<PhysicalOperator> child);
  Status GetChunk(ExecutionContext* context, OperatorState* state,
                  DataChunk* out) const override;
  std::string name() const override;
  Result<const DataTable*> PipelineSource(
      ExecutionContext* context, OperatorState* state) const override {
    return child(0)->PipelineSource(context, state->children[0].get());
  }

 protected:
  StatePtr CreateState(const MorselWorker* worker,
                       const OperatorState* serial) const override;

 private:
  ExprPtr predicate_;
};

/// Computes one output vector per expression.
class PhysicalProjection final : public PhysicalOperator {
 public:
  PhysicalProjection(std::vector<ExprPtr> expressions,
                     std::unique_ptr<PhysicalOperator> child);
  Status GetChunk(ExecutionContext* context, OperatorState* state,
                  DataChunk* out) const override;
  std::string name() const override;
  Result<const DataTable*> PipelineSource(
      ExecutionContext* context, OperatorState* state) const override {
    return child(0)->PipelineSource(context, state->children[0].get());
  }

 protected:
  StatePtr CreateState(const MorselWorker* worker,
                       const OperatorState* serial) const override;

 private:
  std::vector<ExprPtr> expressions_;
};

/// LIMIT / OFFSET.
class PhysicalLimit final : public PhysicalOperator {
 public:
  PhysicalLimit(idx_t limit, idx_t offset,
                std::unique_ptr<PhysicalOperator> child);
  Status GetChunk(ExecutionContext* context, OperatorState* state,
                  DataChunk* out) const override;
  std::string name() const override;

 protected:
  StatePtr CreateState(const MorselWorker* worker,
                       const OperatorState* serial) const override;

 private:
  idx_t limit_;
  idx_t offset_;
};

/// Constant VALUES rows.
class PhysicalValues final : public PhysicalOperator {
 public:
  PhysicalValues(std::vector<std::vector<Value>> rows,
                 std::vector<TypeId> types);
  Status GetChunk(ExecutionContext* context, OperatorState* state,
                  DataChunk* out) const override;
  std::string name() const override;

 protected:
  StatePtr CreateState(const MorselWorker* worker,
                       const OperatorState* serial) const override;

 private:
  std::vector<std::vector<Value>> rows_;
};

/// Rows of arbitrary (column-free) expressions, evaluated at execution
/// time — the child of prepared `INSERT INTO t VALUES (?, ?)` plans,
/// where values are only known once parameters are bound.
class PhysicalExpressionScan final : public PhysicalOperator {
 public:
  PhysicalExpressionScan(std::vector<std::vector<ExprPtr>> rows,
                         std::vector<TypeId> types);
  Status GetChunk(ExecutionContext* context, OperatorState* state,
                  DataChunk* out) const override;
  std::string name() const override;

 protected:
  StatePtr CreateState(const MorselWorker* worker,
                       const OperatorState* serial) const override;

 private:
  std::vector<std::vector<ExprPtr>> rows_;
};

/// Produces nothing (planner shortcut for provably empty results).
class PhysicalEmptyResult final : public PhysicalOperator {
 public:
  explicit PhysicalEmptyResult(std::vector<TypeId> types)
      : PhysicalOperator(std::move(types)) {}
  Status GetChunk(ExecutionContext*, OperatorState*,
                  DataChunk* out) const override {
    out->Reset();
    return Status::OK();
  }
  std::string name() const override { return "EMPTY_RESULT"; }
};

}  // namespace mallard

#endif  // MALLARD_EXECUTION_OPERATORS_H_
