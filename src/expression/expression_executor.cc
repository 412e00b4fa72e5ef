#include "mallard/expression/expression_executor.h"

#include <algorithm>
#include <cmath>

#include "mallard/common/string_util.h"

namespace mallard {

namespace {

// ---------------------------------------------------------------------------
// Vectorized comparison kernels
// ---------------------------------------------------------------------------

template <typename T, typename Compare>
void CompareLoop(const Vector& left, const Vector& right, idx_t count,
                 Vector* result, Compare cmp) {
  const T* l = left.data<T>();
  const T* r = right.data<T>();
  int8_t* out = result->data<int8_t>();
  if (left.validity().AllValid() && right.validity().AllValid()) {
    for (idx_t i = 0; i < count; i++) {
      out[i] = cmp(l[i], r[i]) ? 1 : 0;
    }
    return;
  }
  for (idx_t i = 0; i < count; i++) {
    if (!left.validity().RowIsValid(i) || !right.validity().RowIsValid(i)) {
      result->validity().SetInvalid(i);
      continue;
    }
    out[i] = cmp(l[i], r[i]) ? 1 : 0;
  }
}

template <typename T>
void CompareDispatchOp(const Vector& left, const Vector& right, idx_t count,
                       CompareOp op, Vector* result) {
  switch (op) {
    case CompareOp::kEqual:
      CompareLoop<T>(left, right, count, result,
                     [](const T& a, const T& b) { return a == b; });
      break;
    case CompareOp::kNotEqual:
      CompareLoop<T>(left, right, count, result,
                     [](const T& a, const T& b) { return !(a == b); });
      break;
    case CompareOp::kLess:
      CompareLoop<T>(left, right, count, result,
                     [](const T& a, const T& b) { return a < b; });
      break;
    case CompareOp::kLessEqual:
      CompareLoop<T>(left, right, count, result,
                     [](const T& a, const T& b) { return !(b < a); });
      break;
    case CompareOp::kGreater:
      CompareLoop<T>(left, right, count, result,
                     [](const T& a, const T& b) { return b < a; });
      break;
    case CompareOp::kGreaterEqual:
      CompareLoop<T>(left, right, count, result,
                     [](const T& a, const T& b) { return !(a < b); });
      break;
  }
}

// VARCHAR comparison that tolerates dictionary inputs on either side by
// gathering through StringAt (no flattening, no string copies).
template <typename Compare>
void CompareVarcharLoop(const Vector& left, const Vector& right, idx_t count,
                        Vector* result, Compare cmp) {
  int8_t* out = result->data<int8_t>();
  for (idx_t i = 0; i < count; i++) {
    if (!left.validity().RowIsValid(i) || !right.validity().RowIsValid(i)) {
      result->validity().SetInvalid(i);
      continue;
    }
    out[i] = cmp(left.StringAt(i), right.StringAt(i)) ? 1 : 0;
  }
}

void CompareVarcharDispatch(const Vector& left, const Vector& right,
                            idx_t count, CompareOp op, Vector* result) {
  if (!left.is_dictionary() && !right.is_dictionary()) {
    CompareDispatchOp<StringRef>(left, right, count, op, result);
    return;
  }
  using S = const StringRef&;
  switch (op) {
    case CompareOp::kEqual:
      CompareVarcharLoop(left, right, count, result,
                         [](S a, S b) { return a == b; });
      break;
    case CompareOp::kNotEqual:
      CompareVarcharLoop(left, right, count, result,
                         [](S a, S b) { return !(a == b); });
      break;
    case CompareOp::kLess:
      CompareVarcharLoop(left, right, count, result,
                         [](S a, S b) { return a < b; });
      break;
    case CompareOp::kLessEqual:
      CompareVarcharLoop(left, right, count, result,
                         [](S a, S b) { return !(b < a); });
      break;
    case CompareOp::kGreater:
      CompareVarcharLoop(left, right, count, result,
                         [](S a, S b) { return b < a; });
      break;
    case CompareOp::kGreaterEqual:
      CompareVarcharLoop(left, right, count, result,
                         [](S a, S b) { return !(a < b); });
      break;
  }
}

/// Compares a dictionary VARCHAR vector against one constant: the
/// constant is located in the sorted dictionary once (binary search) and
/// every row then compares bit-packed codes against an index range.
void CompareDictWithConstant(const Vector& dict_vec, const Value& constant,
                             idx_t count, CompareOp op, Vector* result) {
  int8_t* out = result->data<int8_t>();
  if (constant.is_null()) {
    for (idx_t i = 0; i < count; i++) result->validity().SetInvalid(i);
    return;
  }
  const auto& entries = dict_vec.dictionary().entries;
  const std::string& s = constant.GetString();
  StringRef ref(s.data(), static_cast<uint32_t>(s.size()));
  uint32_t lower = static_cast<uint32_t>(
      std::lower_bound(entries.begin(), entries.end(), ref) - entries.begin());
  uint32_t upper = static_cast<uint32_t>(
      std::upper_bound(entries.begin(), entries.end(), ref) - entries.begin());
  // Pass iff lo <= code < hi, possibly inverted.
  uint32_t lo = 0, hi = 0;
  bool invert = false;
  switch (op) {
    case CompareOp::kEqual:
      lo = lower;
      hi = upper;
      break;
    case CompareOp::kNotEqual:
      lo = lower;
      hi = upper;
      invert = true;
      break;
    case CompareOp::kLess:
      lo = 0;
      hi = lower;
      break;
    case CompareOp::kLessEqual:
      lo = 0;
      hi = upper;
      break;
    case CompareOp::kGreater:
      lo = upper;
      hi = static_cast<uint32_t>(entries.size());
      break;
    case CompareOp::kGreaterEqual:
      lo = lower;
      hi = static_cast<uint32_t>(entries.size());
      break;
  }
  const uint32_t* codes = dict_vec.data<uint32_t>();
  for (idx_t i = 0; i < count; i++) {
    if (!dict_vec.validity().RowIsValid(i)) {
      result->validity().SetInvalid(i);
      continue;
    }
    bool in = codes[i] >= lo && codes[i] < hi;
    out[i] = (in != invert) ? 1 : 0;
  }
}

CompareOp MirrorOp(CompareOp op) {
  switch (op) {
    case CompareOp::kLess:
      return CompareOp::kGreater;
    case CompareOp::kLessEqual:
      return CompareOp::kGreaterEqual;
    case CompareOp::kGreater:
      return CompareOp::kLess;
    case CompareOp::kGreaterEqual:
      return CompareOp::kLessEqual;
    default:
      return op;
  }
}

bool IsConstantClass(const BoundExpression& expr) {
  return expr.expr_class() == ExprClass::kConstant ||
         expr.expr_class() == ExprClass::kParameter;
}

Status CompareVectors(const Vector& left, const Vector& right, idx_t count,
                      CompareOp op, Vector* result) {
  switch (left.type()) {
    case TypeId::kBoolean:
      CompareDispatchOp<int8_t>(left, right, count, op, result);
      break;
    case TypeId::kInteger:
    case TypeId::kDate:
      CompareDispatchOp<int32_t>(left, right, count, op, result);
      break;
    case TypeId::kBigInt:
    case TypeId::kTimestamp:
      CompareDispatchOp<int64_t>(left, right, count, op, result);
      break;
    case TypeId::kDouble:
      CompareDispatchOp<double>(left, right, count, op, result);
      break;
    case TypeId::kVarchar:
      CompareVarcharDispatch(left, right, count, op, result);
      break;
    default:
      return Status::Internal("comparison on invalid type");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Vectorized arithmetic kernels
// ---------------------------------------------------------------------------

template <typename T>
Status ArithLoop(const Vector& left, const Vector& right, idx_t count,
                 ArithOp op, Vector* result) {
  const T* l = left.data<T>();
  const T* r = right.data<T>();
  T* out = result->data<T>();
  for (idx_t i = 0; i < count; i++) {
    if (!left.validity().RowIsValid(i) || !right.validity().RowIsValid(i)) {
      result->validity().SetInvalid(i);
      continue;
    }
    switch (op) {
      case ArithOp::kAdd:
        out[i] = l[i] + r[i];
        break;
      case ArithOp::kSubtract:
        out[i] = l[i] - r[i];
        break;
      case ArithOp::kMultiply:
        out[i] = l[i] * r[i];
        break;
      case ArithOp::kDivide:
        if constexpr (std::is_integral_v<T>) {
          if (r[i] == 0) {
            result->validity().SetInvalid(i);  // SQL NULL on x/0
            continue;
          }
        }
        out[i] = l[i] / r[i];
        break;
      case ArithOp::kModulo:
        if constexpr (std::is_integral_v<T>) {
          if (r[i] == 0) {
            result->validity().SetInvalid(i);
            continue;
          }
          // x % -1 is 0; computing it traps (SIGFPE) for the type's
          // minimum, whose quotient overflows.
          out[i] = r[i] == -1 ? 0 : l[i] % r[i];
        } else {
          out[i] = static_cast<T>(
              std::fmod(static_cast<double>(l[i]), static_cast<double>(r[i])));
        }
        break;
    }
  }
  return Status::OK();
}

// Casting kernel: per-row via boxed values for cross-type pairs that are
// rare, with fast paths for the numeric lattice.
template <typename Src, typename Dst>
void NumericCastLoop(const Vector& in, idx_t count, Vector* out) {
  const Src* src = in.data<Src>();
  Dst* dst = out->data<Dst>();
  for (idx_t i = 0; i < count; i++) {
    if (!in.validity().RowIsValid(i)) {
      out->validity().SetInvalid(i);
      continue;
    }
    dst[i] = static_cast<Dst>(src[i]);
  }
}

Status CastVector(const Vector& in, idx_t count, Vector* out) {
  TypeId from = in.type(), to = out->type();
  if (from == to) {
    out->CopyFrom(in, count);
    return Status::OK();
  }
  auto slow_path = [&]() -> Status {
    for (idx_t i = 0; i < count; i++) {
      MALLARD_ASSIGN_OR_RETURN(Value v, in.GetValue(i).CastTo(to));
      out->SetValue(i, v);
    }
    return Status::OK();
  };
  switch (from) {
    case TypeId::kInteger:
      if (to == TypeId::kBigInt) {
        NumericCastLoop<int32_t, int64_t>(in, count, out);
        return Status::OK();
      }
      if (to == TypeId::kDouble) {
        NumericCastLoop<int32_t, double>(in, count, out);
        return Status::OK();
      }
      return slow_path();
    case TypeId::kBigInt:
      if (to == TypeId::kDouble) {
        NumericCastLoop<int64_t, double>(in, count, out);
        return Status::OK();
      }
      return slow_path();
    default:
      return slow_path();
  }
}

bool ListHasNull(const std::vector<Value>& values) {
  return std::any_of(values.begin(), values.end(),
                     [](const Value& v) { return v.is_null(); });
}

// Converts a boolean vector to 3-valued-logic state: 1 true, 0 false,
// -1 null.
inline int8_t BoolState(const Vector& v, idx_t i) {
  if (!v.validity().RowIsValid(i)) return -1;
  return v.data<int8_t>()[i] ? 1 : 0;
}

}  // namespace

std::string BoundComparison::ToString() const {
  return "(" + left_->ToString() + " " + CompareOpSymbol(op_) + " " +
         right_->ToString() + ")";
}

std::string BoundConjunction::ToString() const {
  std::string result = "(";
  for (size_t i = 0; i < children_.size(); i++) {
    if (i > 0) result += is_and_ ? " AND " : " OR ";
    result += children_[i]->ToString();
  }
  return result + ")";
}

std::string BoundArithmetic::ToString() const {
  static const char* kOps[] = {"+", "-", "*", "/", "%"};
  return "(" + left_->ToString() + " " + kOps[static_cast<int>(op_)] + " " +
         right_->ToString() + ")";
}

std::string BoundFunction::ToString() const {
  std::string result = name_ + "(";
  for (size_t i = 0; i < args_.size(); i++) {
    if (i > 0) result += ", ";
    result += args_[i]->ToString();
  }
  return result + ")";
}

std::string BoundCast::ToString() const {
  return "CAST(" + child_->ToString() + " AS " +
         TypeIdToString(return_type()) + ")";
}

std::string BoundIsNull::ToString() const {
  return child_->ToString() + (negated_ ? " IS NOT NULL" : " IS NULL");
}

std::string BoundNot::ToString() const {
  return "NOT " + child_->ToString();
}

std::string BoundCase::ToString() const {
  std::string result = "CASE";
  for (const auto& c : clauses_) {
    result += " WHEN " + c.when->ToString() + " THEN " + c.then->ToString();
  }
  if (else_) result += " ELSE " + else_->ToString();
  return result + " END";
}

Result<std::vector<Value>> BoundInList::Values(
    const ParameterValues* params) const {
  std::vector<Value> values;
  values.reserve(items_.size());
  for (const auto& item : items_) {
    MALLARD_ASSIGN_OR_RETURN(
        Value v, ExpressionExecutor::ExecuteScalar(*item, {}, params));
    values.push_back(std::move(v));
  }
  return values;
}

ExprPtr BoundInList::Copy() const {
  std::vector<ExprPtr> items;
  for (const auto& item : items_) items.push_back(item->Copy());
  return std::make_unique<BoundInList>(child_->Copy(), std::move(items),
                                       negated_);
}

std::string BoundInList::ToString() const {
  std::string result = child_->ToString() + (negated_ ? " NOT IN (" : " IN (");
  for (size_t i = 0; i < items_.size(); i++) {
    if (i > 0) result += ", ";
    result += items_[i]->ToString();
  }
  return result + ")";
}

std::string BoundLike::ToString() const {
  std::string pattern = pattern_->ToString();
  if (pattern_->expr_class() == ExprClass::kConstant) {
    pattern = "'" + pattern + "'";
  }
  return child_->ToString() + (negated_ ? " NOT LIKE " : " LIKE ") + pattern;
}

Result<Value> BoundParameter::GetValue(const ParameterValues* params) const {
  if (!params || index_ >= params->size()) {
    return Status::InvalidArgument(
        "prepared statement parameter $" + std::to_string(index_ + 1) +
        " has not been bound");
  }
  const Value& value = (*params)[index_];
  TypeId target = return_type();
  if (target == TypeId::kInvalid) return value;
  if (value.is_null()) return Value::Null(target);
  if (value.type() == target) return value;
  return value.CastTo(target);
}

Status ExpressionExecutor::Execute(const BoundExpression& expr,
                                   const DataChunk& input, Vector* result,
                                   const ParameterValues* params) {
  idx_t count = input.size();
  switch (expr.expr_class()) {
    case ExprClass::kConstant: {
      const auto& e = static_cast<const BoundConstant&>(expr);
      for (idx_t i = 0; i < count; i++) {
        result->SetValue(i, e.value());
      }
      return Status::OK();
    }
    case ExprClass::kColumnRef: {
      const auto& e = static_cast<const BoundColumnRef&>(expr);
      result->Reference(input.column(e.index()));
      return Status::OK();
    }
    case ExprClass::kComparison: {
      const auto& e = static_cast<const BoundComparison&>(expr);
      Vector left(e.left().return_type());
      Vector right(e.right().return_type());
      MALLARD_RETURN_NOT_OK(Execute(e.left(), input, &left, params));
      MALLARD_RETURN_NOT_OK(Execute(e.right(), input, &right, params));
      // Dictionary fast path: column vs constant translates the constant
      // into code space once instead of gathering strings per row.
      if (count > 0 && left.type() == TypeId::kVarchar) {
        if (left.is_dictionary() && IsConstantClass(e.right())) {
          CompareDictWithConstant(left, right.GetValue(0), count, e.op(),
                                  result);
          return Status::OK();
        }
        if (right.is_dictionary() && IsConstantClass(e.left())) {
          CompareDictWithConstant(right, left.GetValue(0), count,
                                  MirrorOp(e.op()), result);
          return Status::OK();
        }
      }
      return CompareVectors(left, right, count, e.op(), result);
    }
    case ExprClass::kConjunction: {
      const auto& e = static_cast<const BoundConjunction&>(expr);
      // 3-valued logic accumulation.
      std::vector<int8_t> state(count, e.is_and() ? 1 : 0);
      for (const auto& child : e.children()) {
        Vector v(TypeId::kBoolean);
        MALLARD_RETURN_NOT_OK(Execute(*child, input, &v, params));
        for (idx_t i = 0; i < count; i++) {
          int8_t s = BoolState(v, i);
          if (e.is_and()) {
            // AND: false dominates, then null.
            if (state[i] == 0 || s == 0) {
              state[i] = 0;
            } else if (state[i] == -1 || s == -1) {
              state[i] = -1;
            }
          } else {
            // OR: true dominates, then null.
            if (state[i] == 1 || s == 1) {
              state[i] = 1;
            } else if (state[i] == -1 || s == -1) {
              state[i] = -1;
            }
          }
        }
      }
      int8_t* out = result->data<int8_t>();
      for (idx_t i = 0; i < count; i++) {
        if (state[i] == -1) {
          result->validity().SetInvalid(i);
        } else {
          out[i] = state[i];
        }
      }
      return Status::OK();
    }
    case ExprClass::kArithmetic: {
      const auto& e = static_cast<const BoundArithmetic&>(expr);
      Vector left(e.left().return_type());
      Vector right(e.right().return_type());
      MALLARD_RETURN_NOT_OK(Execute(e.left(), input, &left, params));
      MALLARD_RETURN_NOT_OK(Execute(e.right(), input, &right, params));
      switch (expr.return_type()) {
        case TypeId::kInteger:
          return ArithLoop<int32_t>(left, right, count, e.op(), result);
        case TypeId::kBigInt:
          return ArithLoop<int64_t>(left, right, count, e.op(), result);
        case TypeId::kDouble:
          return ArithLoop<double>(left, right, count, e.op(), result);
        default:
          return Status::Internal("arithmetic on non-numeric type");
      }
    }
    case ExprClass::kFunction: {
      const auto& e = static_cast<const BoundFunction&>(expr);
      std::vector<Vector> arg_vectors;
      arg_vectors.reserve(e.args().size());
      for (const auto& arg : e.args()) {
        arg_vectors.emplace_back(arg->return_type());
      }
      std::vector<Vector*> arg_ptrs;
      for (idx_t i = 0; i < e.args().size(); i++) {
        MALLARD_RETURN_NOT_OK(
            Execute(*e.args()[i], input, &arg_vectors[i], params));
        arg_ptrs.push_back(&arg_vectors[i]);
      }
      return e.impl()(arg_ptrs, count, result);
    }
    case ExprClass::kCast: {
      const auto& e = static_cast<const BoundCast&>(expr);
      Vector child(e.child().return_type());
      MALLARD_RETURN_NOT_OK(Execute(e.child(), input, &child, params));
      return CastVector(child, count, result);
    }
    case ExprClass::kIsNull: {
      const auto& e = static_cast<const BoundIsNull&>(expr);
      Vector child(e.child().return_type());
      MALLARD_RETURN_NOT_OK(Execute(e.child(), input, &child, params));
      int8_t* out = result->data<int8_t>();
      for (idx_t i = 0; i < count; i++) {
        bool is_null = !child.validity().RowIsValid(i);
        out[i] = (is_null != e.negated()) ? 1 : 0;
      }
      return Status::OK();
    }
    case ExprClass::kNot: {
      const auto& e = static_cast<const BoundNot&>(expr);
      Vector child(TypeId::kBoolean);
      MALLARD_RETURN_NOT_OK(Execute(e.child(), input, &child, params));
      int8_t* out = result->data<int8_t>();
      for (idx_t i = 0; i < count; i++) {
        if (!child.validity().RowIsValid(i)) {
          result->validity().SetInvalid(i);
        } else {
          out[i] = child.data<int8_t>()[i] ? 0 : 1;
        }
      }
      return Status::OK();
    }
    case ExprClass::kCase: {
      const auto& e = static_cast<const BoundCase&>(expr);
      std::vector<bool> decided(count, false);
      for (const auto& clause : e.clauses()) {
        Vector when(TypeId::kBoolean);
        MALLARD_RETURN_NOT_OK(Execute(*clause.when, input, &when, params));
        Vector then(expr.return_type());
        MALLARD_RETURN_NOT_OK(Execute(*clause.then, input, &then, params));
        for (idx_t i = 0; i < count; i++) {
          if (decided[i]) continue;
          if (BoolState(when, i) == 1) {
            decided[i] = true;
            if (then.validity().RowIsValid(i)) {
              result->SetValue(i, then.GetValue(i));
            } else {
              result->validity().SetInvalid(i);
            }
          }
        }
      }
      Vector else_vec(expr.return_type());
      if (e.else_expr()) {
        MALLARD_RETURN_NOT_OK(
            Execute(*e.else_expr(), input, &else_vec, params));
      }
      for (idx_t i = 0; i < count; i++) {
        if (decided[i]) continue;
        if (e.else_expr() && else_vec.validity().RowIsValid(i)) {
          result->SetValue(i, else_vec.GetValue(i));
        } else {
          result->validity().SetInvalid(i);
        }
      }
      return Status::OK();
    }
    case ExprClass::kInList: {
      const auto& e = static_cast<const BoundInList&>(expr);
      MALLARD_ASSIGN_OR_RETURN(std::vector<Value> values, e.Values(params));
      const bool has_null = ListHasNull(values);
      Vector child(e.child().return_type());
      MALLARD_RETURN_NOT_OK(Execute(e.child(), input, &child, params));
      int8_t* out = result->data<int8_t>();
      for (idx_t i = 0; i < count; i++) {
        if (!child.validity().RowIsValid(i)) {
          result->validity().SetInvalid(i);
          continue;
        }
        Value v = child.GetValue(i);
        bool found = std::find(values.begin(), values.end(), v) != values.end();
        if (!found && has_null) {
          result->validity().SetInvalid(i);  // unknown, IN and NOT IN alike
          continue;
        }
        out[i] = (found != e.negated()) ? 1 : 0;
      }
      return Status::OK();
    }
    case ExprClass::kLike: {
      const auto& e = static_cast<const BoundLike&>(expr);
      MALLARD_ASSIGN_OR_RETURN(Value pattern_value,
                               ExecuteScalar(e.pattern(), {}, params));
      if (pattern_value.is_null()) {
        for (idx_t i = 0; i < count; i++) result->validity().SetInvalid(i);
        return Status::OK();
      }
      const std::string& pattern = pattern_value.GetString();
      Vector child(TypeId::kVarchar);
      MALLARD_RETURN_NOT_OK(Execute(e.child(), input, &child, params));
      int8_t* out = result->data<int8_t>();
      if (child.is_dictionary()) {
        // Match each distinct dictionary entry at most once, then fan
        // the verdict out to rows by code.
        const auto& entries = child.dictionary().entries;
        const uint32_t* codes = child.data<uint32_t>();
        std::vector<int8_t> memo(entries.size(), -1);
        for (idx_t i = 0; i < count; i++) {
          if (!child.validity().RowIsValid(i)) {
            result->validity().SetInvalid(i);
            continue;
          }
          uint32_t code = codes[i];
          if (memo[code] < 0) {
            memo[code] = StringUtil::Like(entries[code].data,
                                          entries[code].size,
                                          pattern.data(), pattern.size())
                             ? 1
                             : 0;
          }
          out[i] = ((memo[code] != 0) != e.negated()) ? 1 : 0;
        }
        return Status::OK();
      }
      const StringRef* strs = child.data<StringRef>();
      for (idx_t i = 0; i < count; i++) {
        if (!child.validity().RowIsValid(i)) {
          result->validity().SetInvalid(i);
          continue;
        }
        bool match = StringUtil::Like(strs[i].data, strs[i].size,
                                      pattern.data(), pattern.size());
        out[i] = (match != e.negated()) ? 1 : 0;
      }
      return Status::OK();
    }
    case ExprClass::kParameter: {
      const auto& e = static_cast<const BoundParameter&>(expr);
      MALLARD_ASSIGN_OR_RETURN(Value v, e.GetValue(params));
      for (idx_t i = 0; i < count; i++) {
        result->SetValue(i, v);
      }
      return Status::OK();
    }
  }
  return Status::Internal("unknown expression class");
}

Result<idx_t> ExpressionExecutor::Select(const BoundExpression& expr,
                                         const DataChunk& input, uint32_t* sel,
                                         const ParameterValues* params) {
  Vector result(TypeId::kBoolean);
  MALLARD_RETURN_NOT_OK(Execute(expr, input, &result, params));
  const int8_t* data = result.data<int8_t>();
  idx_t m = 0;
  if (result.validity().AllValid()) {
    for (idx_t i = 0; i < input.size(); i++) {
      if (data[i]) sel[m++] = static_cast<uint32_t>(i);
    }
  } else {
    for (idx_t i = 0; i < input.size(); i++) {
      if (result.validity().RowIsValid(i) && data[i]) {
        sel[m++] = static_cast<uint32_t>(i);
      }
    }
  }
  return m;
}

Result<Value> ExpressionExecutor::ExecuteScalar(
    const BoundExpression& expr, const std::vector<Value>& row,
    const ParameterValues* params) {
  switch (expr.expr_class()) {
    case ExprClass::kConstant:
      return static_cast<const BoundConstant&>(expr).value();
    case ExprClass::kColumnRef: {
      const auto& e = static_cast<const BoundColumnRef&>(expr);
      return row[e.index()];
    }
    case ExprClass::kComparison: {
      const auto& e = static_cast<const BoundComparison&>(expr);
      MALLARD_ASSIGN_OR_RETURN(Value l, ExecuteScalar(e.left(), row, params));
      MALLARD_ASSIGN_OR_RETURN(Value r, ExecuteScalar(e.right(), row, params));
      if (l.is_null() || r.is_null()) return Value::Null(TypeId::kBoolean);
      int cmp = l.Compare(r);
      bool v = false;
      switch (e.op()) {
        case CompareOp::kEqual:
          v = cmp == 0;
          break;
        case CompareOp::kNotEqual:
          v = cmp != 0;
          break;
        case CompareOp::kLess:
          v = cmp < 0;
          break;
        case CompareOp::kLessEqual:
          v = cmp <= 0;
          break;
        case CompareOp::kGreater:
          v = cmp > 0;
          break;
        case CompareOp::kGreaterEqual:
          v = cmp >= 0;
          break;
      }
      return Value::Boolean(v);
    }
    case ExprClass::kConjunction: {
      const auto& e = static_cast<const BoundConjunction&>(expr);
      int8_t state = e.is_and() ? 1 : 0;
      for (const auto& child : e.children()) {
        MALLARD_ASSIGN_OR_RETURN(Value v, ExecuteScalar(*child, row, params));
        int8_t s = v.is_null() ? -1 : (v.GetBoolean() ? 1 : 0);
        if (e.is_and()) {
          if (state == 0 || s == 0) {
            state = 0;
          } else if (state == -1 || s == -1) {
            state = -1;
          }
        } else {
          if (state == 1 || s == 1) {
            state = 1;
          } else if (state == -1 || s == -1) {
            state = -1;
          }
        }
      }
      if (state == -1) return Value::Null(TypeId::kBoolean);
      return Value::Boolean(state == 1);
    }
    case ExprClass::kArithmetic: {
      const auto& e = static_cast<const BoundArithmetic&>(expr);
      MALLARD_ASSIGN_OR_RETURN(Value l, ExecuteScalar(e.left(), row, params));
      MALLARD_ASSIGN_OR_RETURN(Value r, ExecuteScalar(e.right(), row, params));
      if (l.is_null() || r.is_null()) return Value::Null(expr.return_type());
      if (expr.return_type() == TypeId::kDouble) {
        double a = l.GetAsDouble(), b = r.GetAsDouble();
        switch (e.op()) {
          case ArithOp::kAdd:
            return Value::Double(a + b);
          case ArithOp::kSubtract:
            return Value::Double(a - b);
          case ArithOp::kMultiply:
            return Value::Double(a * b);
          case ArithOp::kDivide:
            return Value::Double(a / b);
          case ArithOp::kModulo:
            return Value::Double(std::fmod(a, b));
        }
      }
      int64_t a = l.GetAsBigInt(), b = r.GetAsBigInt();
      int64_t v = 0;
      switch (e.op()) {
        case ArithOp::kAdd:
          v = a + b;
          break;
        case ArithOp::kSubtract:
          v = a - b;
          break;
        case ArithOp::kMultiply:
          v = a * b;
          break;
        case ArithOp::kDivide:
          if (b == 0) return Value::Null(expr.return_type());
          v = a / b;
          break;
        case ArithOp::kModulo:
          if (b == 0) return Value::Null(expr.return_type());
          v = b == -1 ? 0 : a % b;  // INT64_MIN % -1 traps
          break;
      }
      return Value::Numeric(expr.return_type(), v);
    }
    case ExprClass::kCast: {
      const auto& e = static_cast<const BoundCast&>(expr);
      MALLARD_ASSIGN_OR_RETURN(Value v, ExecuteScalar(e.child(), row, params));
      return v.CastTo(expr.return_type());
    }
    case ExprClass::kIsNull: {
      const auto& e = static_cast<const BoundIsNull&>(expr);
      MALLARD_ASSIGN_OR_RETURN(Value v, ExecuteScalar(e.child(), row, params));
      return Value::Boolean(v.is_null() != e.negated());
    }
    case ExprClass::kNot: {
      const auto& e = static_cast<const BoundNot&>(expr);
      MALLARD_ASSIGN_OR_RETURN(Value v, ExecuteScalar(e.child(), row, params));
      if (v.is_null()) return Value::Null(TypeId::kBoolean);
      return Value::Boolean(!v.GetBoolean());
    }
    case ExprClass::kCase: {
      const auto& e = static_cast<const BoundCase&>(expr);
      for (const auto& clause : e.clauses()) {
        MALLARD_ASSIGN_OR_RETURN(Value w,
                                 ExecuteScalar(*clause.when, row, params));
        if (!w.is_null() && w.GetBoolean()) {
          return ExecuteScalar(*clause.then, row, params);
        }
      }
      if (e.else_expr()) return ExecuteScalar(*e.else_expr(), row, params);
      return Value::Null(expr.return_type());
    }
    case ExprClass::kInList: {
      const auto& e = static_cast<const BoundInList&>(expr);
      MALLARD_ASSIGN_OR_RETURN(Value v, ExecuteScalar(e.child(), row, params));
      if (v.is_null()) return Value::Null(TypeId::kBoolean);
      MALLARD_ASSIGN_OR_RETURN(std::vector<Value> values, e.Values(params));
      bool found = std::find(values.begin(), values.end(), v) != values.end();
      if (!found && ListHasNull(values)) return Value::Null(TypeId::kBoolean);
      return Value::Boolean(found != e.negated());
    }
    case ExprClass::kLike: {
      const auto& e = static_cast<const BoundLike&>(expr);
      MALLARD_ASSIGN_OR_RETURN(Value v, ExecuteScalar(e.child(), row, params));
      MALLARD_ASSIGN_OR_RETURN(Value pattern,
                               ExecuteScalar(e.pattern(), row, params));
      if (v.is_null() || pattern.is_null()) {
        return Value::Null(TypeId::kBoolean);
      }
      const std::string& s = v.GetString();
      const std::string& p = pattern.GetString();
      bool match = StringUtil::Like(s.data(), s.size(), p.data(), p.size());
      return Value::Boolean(match != e.negated());
    }
    case ExprClass::kFunction: {
      // Route scalar evaluation through the vectorized implementation on a
      // one-row chunk so both engines share function semantics.
      const auto& e = static_cast<const BoundFunction&>(expr);
      std::vector<Vector> arg_vectors;
      std::vector<Vector*> arg_ptrs;
      arg_vectors.reserve(e.args().size());
      for (const auto& arg : e.args()) {
        MALLARD_ASSIGN_OR_RETURN(Value v, ExecuteScalar(*arg, row, params));
        arg_vectors.emplace_back(arg->return_type());
        arg_vectors.back().SetValue(0, v);
        arg_ptrs.push_back(&arg_vectors.back());
      }
      Vector result(expr.return_type());
      MALLARD_RETURN_NOT_OK(e.impl()(arg_ptrs, 1, &result));
      return result.GetValue(0);
    }
    case ExprClass::kParameter:
      return static_cast<const BoundParameter&>(expr).GetValue(params);
  }
  return Status::Internal("unknown expression class");
}

}  // namespace mallard
