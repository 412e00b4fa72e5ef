#include "mallard/execution/physical_operator.h"

#include <algorithm>

namespace mallard {

StatePtr PhysicalOperator::MakeState(const MorselWorker* worker,
                                     const OperatorState* serial) const {
  StatePtr state = CreateState(worker, serial);
  // A pipeline worker runs only the chain PipelineSource walked, in
  // which every operator pulls child 0 alone (a hash join's build side
  // was finished on the serial state).
  idx_t count = worker ? std::min<idx_t>(children_.size(), 1)
                       : children_.size();
  state->children.reserve(count);
  for (idx_t i = 0; i < count; i++) {
    state->children.push_back(children_[i]->MakeState(
        worker, serial ? serial->children[i].get() : nullptr));
  }
  return state;
}

std::string PhysicalOperator::ToString(int indent) const {
  std::string result(indent * 2, ' ');
  result += name();
  if (estimated_rows_ != kInvalidIndex) {
    result += " est=" + std::to_string(estimated_rows_);
  }
  result += "\n";
  for (const auto& child : children_) {
    result += child->ToString(indent + 1);
  }
  return result;
}

}  // namespace mallard
