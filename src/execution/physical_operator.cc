#include "mallard/execution/physical_operator.h"

namespace mallard {

StatePtr PhysicalOperator::MakeState(
    const MorselWorker* worker) const {
  StatePtr state = CreateState(worker);
  state->children.reserve(children_.size());
  for (const auto& child : children_) {
    state->children.push_back(child->MakeState(worker));
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
