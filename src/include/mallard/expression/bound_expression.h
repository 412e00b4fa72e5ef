#ifndef MALLARD_EXPRESSION_BOUND_EXPRESSION_H_
#define MALLARD_EXPRESSION_BOUND_EXPRESSION_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mallard/common/value.h"
#include "mallard/storage/table/column_segment.h"  // CompareOp
#include "mallard/vector/data_chunk.h"

namespace mallard {

/// Kinds of bound (type-resolved) expressions the executor can evaluate.
enum class ExprClass : uint8_t {
  kConstant,
  kColumnRef,
  kComparison,
  kConjunction,
  kArithmetic,
  kFunction,
  kCast,
  kIsNull,
  kNot,
  kCase,
  kInList,
  kLike,
  kParameter,
};

/// Arithmetic operators.
enum class ArithOp : uint8_t { kAdd, kSubtract, kMultiply, kDivide, kModulo };

/// Base class of the bound expression tree produced by the binder and
/// consumed by the vectorized ExpressionExecutor and the tuple-at-a-time
/// baseline interpreter.
class BoundExpression {
 public:
  BoundExpression(ExprClass expr_class, TypeId return_type)
      : expr_class_(expr_class), return_type_(return_type) {}
  virtual ~BoundExpression() = default;

  ExprClass expr_class() const { return expr_class_; }
  TypeId return_type() const { return return_type_; }

  virtual std::unique_ptr<BoundExpression> Copy() const = 0;
  virtual std::string ToString() const = 0;

 protected:
  /// Used by the binder to resolve types discovered late (parameters).
  void set_return_type(TypeId type) { return_type_ = type; }

 private:
  ExprClass expr_class_;
  TypeId return_type_;
};

using ExprPtr = std::unique_ptr<BoundExpression>;

class BoundConstant final : public BoundExpression {
 public:
  explicit BoundConstant(Value value)
      : BoundExpression(ExprClass::kConstant, value.type()),
        value_(std::move(value)) {}
  const Value& value() const { return value_; }
  ExprPtr Copy() const override {
    return std::make_unique<BoundConstant>(value_);
  }
  std::string ToString() const override { return value_.ToString(); }

 private:
  Value value_;
};

/// Reference to a column of the operator's input chunk by position.
class BoundColumnRef final : public BoundExpression {
 public:
  BoundColumnRef(idx_t index, TypeId type, std::string name)
      : BoundExpression(ExprClass::kColumnRef, type),
        index_(index),
        name_(std::move(name)) {}
  idx_t index() const { return index_; }
  const std::string& name() const { return name_; }
  ExprPtr Copy() const override {
    return std::make_unique<BoundColumnRef>(index_, return_type(), name_);
  }
  std::string ToString() const override { return name_; }

 private:
  idx_t index_;
  std::string name_;
};

class BoundComparison final : public BoundExpression {
 public:
  BoundComparison(CompareOp op, ExprPtr left, ExprPtr right)
      : BoundExpression(ExprClass::kComparison, TypeId::kBoolean),
        op_(op),
        left_(std::move(left)),
        right_(std::move(right)) {}
  CompareOp op() const { return op_; }
  const BoundExpression& left() const { return *left_; }
  const BoundExpression& right() const { return *right_; }
  BoundExpression* mutable_left() { return left_.get(); }
  BoundExpression* mutable_right() { return right_.get(); }
  ExprPtr Copy() const override {
    return std::make_unique<BoundComparison>(op_, left_->Copy(),
                                             right_->Copy());
  }
  std::string ToString() const override;

 private:
  CompareOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

class BoundConjunction final : public BoundExpression {
 public:
  BoundConjunction(bool is_and, std::vector<ExprPtr> children)
      : BoundExpression(ExprClass::kConjunction, TypeId::kBoolean),
        is_and_(is_and),
        children_(std::move(children)) {}
  bool is_and() const { return is_and_; }
  const std::vector<ExprPtr>& children() const { return children_; }
  std::vector<ExprPtr>& mutable_children() { return children_; }
  ExprPtr Copy() const override {
    std::vector<ExprPtr> copies;
    for (const auto& c : children_) copies.push_back(c->Copy());
    return std::make_unique<BoundConjunction>(is_and_, std::move(copies));
  }
  std::string ToString() const override;

 private:
  bool is_and_;
  std::vector<ExprPtr> children_;
};

class BoundArithmetic final : public BoundExpression {
 public:
  BoundArithmetic(ArithOp op, TypeId result, ExprPtr left, ExprPtr right)
      : BoundExpression(ExprClass::kArithmetic, result),
        op_(op),
        left_(std::move(left)),
        right_(std::move(right)) {}
  ArithOp op() const { return op_; }
  const BoundExpression& left() const { return *left_; }
  const BoundExpression& right() const { return *right_; }
  ExprPtr Copy() const override {
    return std::make_unique<BoundArithmetic>(op_, return_type(),
                                             left_->Copy(), right_->Copy());
  }
  std::string ToString() const override;

 private:
  ArithOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

/// Vectorized scalar function implementation: consumes evaluated argument
/// vectors, produces `count` results.
using ScalarFunctionImpl = std::function<Status(
    const std::vector<Vector*>& args, idx_t count, Vector* result)>;

class BoundFunction final : public BoundExpression {
 public:
  BoundFunction(std::string name, TypeId result, std::vector<ExprPtr> args,
                ScalarFunctionImpl impl)
      : BoundExpression(ExprClass::kFunction, result),
        name_(std::move(name)),
        args_(std::move(args)),
        impl_(std::move(impl)) {}
  const std::string& name() const { return name_; }
  const std::vector<ExprPtr>& args() const { return args_; }
  const ScalarFunctionImpl& impl() const { return impl_; }
  ExprPtr Copy() const override {
    std::vector<ExprPtr> copies;
    for (const auto& a : args_) copies.push_back(a->Copy());
    return std::make_unique<BoundFunction>(name_, return_type(),
                                           std::move(copies), impl_);
  }
  std::string ToString() const override;

 private:
  std::string name_;
  std::vector<ExprPtr> args_;
  ScalarFunctionImpl impl_;
};

class BoundCast final : public BoundExpression {
 public:
  BoundCast(ExprPtr child, TypeId target)
      : BoundExpression(ExprClass::kCast, target), child_(std::move(child)) {}
  const BoundExpression& child() const { return *child_; }
  ExprPtr Copy() const override {
    return std::make_unique<BoundCast>(child_->Copy(), return_type());
  }
  std::string ToString() const override;

 private:
  ExprPtr child_;
};

class BoundIsNull final : public BoundExpression {
 public:
  BoundIsNull(ExprPtr child, bool negated)
      : BoundExpression(ExprClass::kIsNull, TypeId::kBoolean),
        child_(std::move(child)),
        negated_(negated) {}
  const BoundExpression& child() const { return *child_; }
  bool negated() const { return negated_; }
  ExprPtr Copy() const override {
    return std::make_unique<BoundIsNull>(child_->Copy(), negated_);
  }
  std::string ToString() const override;

 private:
  ExprPtr child_;
  bool negated_;
};

class BoundNot final : public BoundExpression {
 public:
  explicit BoundNot(ExprPtr child)
      : BoundExpression(ExprClass::kNot, TypeId::kBoolean),
        child_(std::move(child)) {}
  const BoundExpression& child() const { return *child_; }
  ExprPtr Copy() const override {
    return std::make_unique<BoundNot>(child_->Copy());
  }
  std::string ToString() const override;

 private:
  ExprPtr child_;
};

class BoundCase final : public BoundExpression {
 public:
  struct Clause {
    ExprPtr when;
    ExprPtr then;
  };
  BoundCase(TypeId result, std::vector<Clause> clauses, ExprPtr else_expr)
      : BoundExpression(ExprClass::kCase, result),
        clauses_(std::move(clauses)),
        else_(std::move(else_expr)) {}
  const std::vector<Clause>& clauses() const { return clauses_; }
  const BoundExpression* else_expr() const { return else_.get(); }
  ExprPtr Copy() const override {
    std::vector<Clause> copies;
    for (const auto& c : clauses_) {
      copies.push_back(Clause{c.when->Copy(), c.then->Copy()});
    }
    return std::make_unique<BoundCase>(return_type(), std::move(copies),
                                       else_ ? else_->Copy() : nullptr);
  }
  std::string ToString() const override;

 private:
  std::vector<Clause> clauses_;
  ExprPtr else_;
};

/// `child [NOT] IN (items)`. Each item is a constant of the child's type
/// or a parameter typed to it; Values() reads the set an execution uses.
/// A miss against a list holding a NULL is NULL, not FALSE (SQL's
/// three-valued IN), so NOT IN over such a list keeps no row.
class BoundInList final : public BoundExpression {
 public:
  BoundInList(ExprPtr child, std::vector<ExprPtr> items, bool negated)
      : BoundExpression(ExprClass::kInList, TypeId::kBoolean),
        child_(std::move(child)),
        items_(std::move(items)),
        negated_(negated) {}
  const BoundExpression& child() const { return *child_; }
  const std::vector<ExprPtr>& items() const { return items_; }
  bool negated() const { return negated_; }
  /// The items' values under the execution's parameter bindings.
  Result<std::vector<Value>> Values(const ParameterValues* params) const;
  ExprPtr Copy() const override;
  std::string ToString() const override;

 private:
  ExprPtr child_;
  std::vector<ExprPtr> items_;
  bool negated_;
};

/// `child [NOT] LIKE pattern`, the pattern a VARCHAR constant or
/// parameter; a NULL pattern makes every row NULL.
class BoundLike final : public BoundExpression {
 public:
  BoundLike(ExprPtr child, ExprPtr pattern, bool negated)
      : BoundExpression(ExprClass::kLike, TypeId::kBoolean),
        child_(std::move(child)),
        pattern_(std::move(pattern)),
        negated_(negated) {}
  const BoundExpression& child() const { return *child_; }
  const BoundExpression& pattern() const { return *pattern_; }
  bool negated() const { return negated_; }
  ExprPtr Copy() const override {
    return std::make_unique<BoundLike>(child_->Copy(), pattern_->Copy(),
                                       negated_);
  }
  std::string ToString() const override;

 private:
  ExprPtr child_;
  ExprPtr pattern_;
  bool negated_;
};

/// What the planner learns about a statement's parameters. One instance
/// is shared by every BoundParameter node of a plan while it is bound;
/// the values themselves never live here but travel with each execution
/// (ParameterValues), so one plan runs with different values at once.
struct BoundParameterData {
  std::vector<TypeId> types;     // type inferred at bind (plan) time
  std::vector<bool> referenced;  // slot appears in the statement?

  idx_t Count() const { return types.size(); }
  void EnsureSize(idx_t count) {
    if (types.size() < count) {
      types.resize(count, TypeId::kInvalid);
      referenced.resize(count, false);
    }
  }
};

/// A prepared-statement parameter ($N / ?). The node records the
/// parameter index and the type inferred from its binding context; the
/// value is read from the execution's ParameterValues.
class BoundParameter final : public BoundExpression {
 public:
  BoundParameter(idx_t index, std::shared_ptr<BoundParameterData> data,
                 TypeId type = TypeId::kInvalid)
      : BoundExpression(ExprClass::kParameter, type),
        index_(index),
        data_(std::move(data)) {}

  idx_t index() const { return index_; }
  const std::shared_ptr<BoundParameterData>& data() const { return data_; }

  /// Fixes this parameter's type from binding context; records it in the
  /// shared slot so the API layer can type-check Bind() calls.
  void ResolveType(TypeId type) {
    set_return_type(type);
    if (data_) {
      data_->EnsureSize(index_ + 1);
      if (data_->types[index_] == TypeId::kInvalid) {
        data_->types[index_] = type;
      }
    }
  }

  /// Returns the value `params` binds, cast to this node's type; errors
  /// if the parameter has not been bound.
  Result<Value> GetValue(const ParameterValues* params) const;

  ExprPtr Copy() const override {
    return std::make_unique<BoundParameter>(index_, data_, return_type());
  }
  std::string ToString() const override {
    return "$" + std::to_string(index_ + 1);
  }

 private:
  idx_t index_;
  std::shared_ptr<BoundParameterData> data_;
};

/// Aggregate function kinds (used by aggregate operators, not the scalar
/// expression executor).
enum class AggType : uint8_t { kCountStar, kCount, kSum, kAvg, kMin, kMax };

/// A bound aggregate: function plus (optional) argument expression.
struct BoundAggregate {
  AggType type;
  ExprPtr arg;  // null for COUNT(*)
  TypeId return_type;
};

}  // namespace mallard

#endif  // MALLARD_EXPRESSION_BOUND_EXPRESSION_H_
