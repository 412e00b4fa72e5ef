#include "mallard/execution/physical_operator.h"

namespace mallard {

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
