#ifndef MALLARD_EXECUTION_PHYSICAL_DML_H_
#define MALLARD_EXECUTION_PHYSICAL_DML_H_

#include <memory>
#include <string>
#include <vector>

#include "mallard/execution/physical_operator.h"
#include "mallard/storage/table/data_table.h"

namespace mallard {

/// INSERT INTO table: consumes child chunks (already projected/cast to
/// the table layout), appends them, emits one row with the insert count.
class PhysicalInsert final : public PhysicalOperator {
 public:
  PhysicalInsert(DataTable* table, std::unique_ptr<PhysicalOperator> child);
  Status GetChunk(ExecutionContext* context, OperatorState* state,
                  DataChunk* out) const override;
  std::string name() const override;

 protected:
  StatePtr CreateState(const MorselWorker* worker,
                       const OperatorState* serial) const override;

 private:
  DataTable* table_;
};

/// DELETE: child produces a single row-id column; emits the delete count.
class PhysicalDelete final : public PhysicalOperator {
 public:
  PhysicalDelete(DataTable* table, std::unique_ptr<PhysicalOperator> child);
  Status GetChunk(ExecutionContext* context, OperatorState* state,
                  DataChunk* out) const override;
  std::string name() const override;

 protected:
  StatePtr CreateState(const MorselWorker* worker,
                       const OperatorState* serial) const override;

 private:
  DataTable* table_;
};

/// UPDATE: child produces [row id, new values...]; applies in-place MVCC
/// updates of `column_indexes`; emits the update count.
class PhysicalUpdate final : public PhysicalOperator {
 public:
  PhysicalUpdate(DataTable* table, std::vector<idx_t> column_indexes,
                 std::unique_ptr<PhysicalOperator> child);
  Status GetChunk(ExecutionContext* context, OperatorState* state,
                  DataChunk* out) const override;
  std::string name() const override;

 protected:
  StatePtr CreateState(const MorselWorker* worker,
                       const OperatorState* serial) const override;

 private:
  DataTable* table_;
  std::vector<idx_t> column_indexes_;
};

}  // namespace mallard

#endif  // MALLARD_EXECUTION_PHYSICAL_DML_H_
