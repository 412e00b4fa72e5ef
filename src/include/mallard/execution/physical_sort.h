#ifndef MALLARD_EXECUTION_PHYSICAL_SORT_H_
#define MALLARD_EXECUTION_PHYSICAL_SORT_H_

#include <memory>
#include <string>
#include <vector>

#include "mallard/execution/external_sort.h"
#include "mallard/execution/physical_operator.h"

namespace mallard {

/// ORDER BY via the out-of-core external sort.
class PhysicalOrderBy final : public PhysicalOperator {
 public:
  PhysicalOrderBy(std::vector<SortSpec> specs,
                  std::unique_ptr<PhysicalOperator> child);
  Status GetChunk(ExecutionContext* context, OperatorState* state,
                  DataChunk* out) const override;
  std::string name() const override;

 protected:
  StatePtr CreateState(const MorselWorker* worker,
                       const OperatorState* serial) const override;

 private:
  std::vector<SortSpec> specs_;
};

/// ORDER BY + LIMIT with a bounded heap: memory O(limit), not O(input).
class PhysicalTopN final : public PhysicalOperator {
 public:
  PhysicalTopN(std::vector<SortSpec> specs, idx_t limit, idx_t offset,
               std::unique_ptr<PhysicalOperator> child);
  Status GetChunk(ExecutionContext* context, OperatorState* state,
                  DataChunk* out) const override;
  std::string name() const override;

 protected:
  StatePtr CreateState(const MorselWorker* worker,
                       const OperatorState* serial) const override;

 private:
  std::vector<SortSpec> specs_;
  idx_t limit_;
  idx_t offset_;
};

}  // namespace mallard

#endif  // MALLARD_EXECUTION_PHYSICAL_SORT_H_
