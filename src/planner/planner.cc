#include "mallard/planner/planner.h"

#include <algorithm>
#include <map>

#include "mallard/common/string_util.h"
#include "mallard/etl/physical_csv_scan.h"
#include "mallard/execution/operators.h"
#include "mallard/execution/physical_aggregate.h"
#include "mallard/execution/physical_dml.h"
#include "mallard/execution/physical_sort.h"
#include "mallard/expression/expression_executor.h"
#include "mallard/expression/function_registry.h"
#include "mallard/governor/resource_governor.h"
#include "mallard/parser/parser.h"

namespace mallard {

namespace {

bool IsAggregateName(const std::string& name) {
  return name == "count" || name == "sum" || name == "avg" ||
         name == "min" || name == "max";
}

AggType AggTypeFromName(const std::string& name, bool star) {
  if (name == "count") return star ? AggType::kCountStar : AggType::kCount;
  if (name == "sum") return AggType::kSum;
  if (name == "avg") return AggType::kAvg;
  if (name == "min") return AggType::kMin;
  return AggType::kMax;
}

bool ExprHasColumnRef(const BoundExpression& expr);

template <typename Fn>
void VisitChildren(const BoundExpression& expr, Fn fn) {
  switch (expr.expr_class()) {
    case ExprClass::kComparison: {
      const auto& e = static_cast<const BoundComparison&>(expr);
      fn(e.left());
      fn(e.right());
      break;
    }
    case ExprClass::kConjunction:
      for (const auto& c :
           static_cast<const BoundConjunction&>(expr).children()) {
        fn(*c);
      }
      break;
    case ExprClass::kArithmetic: {
      const auto& e = static_cast<const BoundArithmetic&>(expr);
      fn(e.left());
      fn(e.right());
      break;
    }
    case ExprClass::kFunction:
      for (const auto& a : static_cast<const BoundFunction&>(expr).args()) {
        fn(*a);
      }
      break;
    case ExprClass::kCast:
      fn(static_cast<const BoundCast&>(expr).child());
      break;
    case ExprClass::kIsNull:
      fn(static_cast<const BoundIsNull&>(expr).child());
      break;
    case ExprClass::kNot:
      fn(static_cast<const BoundNot&>(expr).child());
      break;
    case ExprClass::kCase: {
      const auto& e = static_cast<const BoundCase&>(expr);
      for (const auto& c : e.clauses()) {
        fn(*c.when);
        fn(*c.then);
      }
      if (e.else_expr()) fn(*e.else_expr());
      break;
    }
    case ExprClass::kInList: {
      const auto& e = static_cast<const BoundInList&>(expr);
      fn(e.child());
      for (const auto& item : e.items()) fn(*item);
      break;
    }
    case ExprClass::kLike: {
      const auto& e = static_cast<const BoundLike&>(expr);
      fn(e.child());
      fn(e.pattern());
      break;
    }
    default:
      break;
  }
}

bool ExprHasColumnRef(const BoundExpression& expr) {
  if (expr.expr_class() == ExprClass::kColumnRef) return true;
  bool found = false;
  VisitChildren(expr, [&](const BoundExpression& child) {
    if (ExprHasColumnRef(child)) found = true;
  });
  return found;
}

// Parameters look constant to the folder but change between executions of
// a prepared statement; expressions containing them must stay unfolded.
bool ExprHasParameter(const BoundExpression& expr) {
  if (expr.expr_class() == ExprClass::kParameter) return true;
  bool found = false;
  VisitChildren(expr, [&](const BoundExpression& child) {
    if (ExprHasParameter(child)) found = true;
  });
  return found;
}

void CollectColumnIndexes(const BoundExpression& expr, std::set<idx_t>* out) {
  if (expr.expr_class() == ExprClass::kColumnRef) {
    out->insert(static_cast<const BoundColumnRef&>(expr).index());
    return;
  }
  VisitChildren(expr, [&](const BoundExpression& child) {
    CollectColumnIndexes(child, out);
  });
}

// Rewrites column-ref indexes in place via `mapping[old] = new`.
Status RemapColumnRefs(BoundExpression* expr,
                       const std::map<idx_t, idx_t>& mapping) {
  if (expr->expr_class() == ExprClass::kColumnRef) {
    auto* ref = static_cast<BoundColumnRef*>(expr);
    auto it = mapping.find(ref->index());
    if (it == mapping.end()) {
      return Status::Internal("planner: unmapped column reference " +
                              ref->name());
    }
    *ref = BoundColumnRef(it->second, ref->return_type(), ref->name());
    return Status::OK();
  }
  Status status = Status::OK();
  switch (expr->expr_class()) {
    case ExprClass::kComparison: {
      auto* e = static_cast<BoundComparison*>(expr);
      MALLARD_RETURN_NOT_OK(RemapColumnRefs(e->mutable_left(), mapping));
      return RemapColumnRefs(e->mutable_right(), mapping);
    }
    case ExprClass::kConjunction: {
      auto* e = static_cast<BoundConjunction*>(expr);
      for (auto& c : e->mutable_children()) {
        MALLARD_RETURN_NOT_OK(RemapColumnRefs(c.get(), mapping));
      }
      return Status::OK();
    }
    default:
      break;
  }
  // Generic path: rebuild via Copy is wasteful; handle remaining classes
  // through const_cast-free accessors by reconstructing children.
  // For simplicity the remaining composite classes expose only const
  // children; remap via a copy-and-replace visitor.
  switch (expr->expr_class()) {
    case ExprClass::kArithmetic: {
      auto* e = static_cast<BoundArithmetic*>(expr);
      MALLARD_RETURN_NOT_OK(RemapColumnRefs(
          const_cast<BoundExpression*>(&e->left()), mapping));
      return RemapColumnRefs(const_cast<BoundExpression*>(&e->right()),
                             mapping);
    }
    case ExprClass::kFunction: {
      auto* e = static_cast<BoundFunction*>(expr);
      for (const auto& a : e->args()) {
        MALLARD_RETURN_NOT_OK(
            RemapColumnRefs(const_cast<BoundExpression*>(a.get()), mapping));
      }
      return Status::OK();
    }
    case ExprClass::kCast: {
      auto* e = static_cast<BoundCast*>(expr);
      return RemapColumnRefs(const_cast<BoundExpression*>(&e->child()),
                             mapping);
    }
    case ExprClass::kIsNull: {
      auto* e = static_cast<BoundIsNull*>(expr);
      return RemapColumnRefs(const_cast<BoundExpression*>(&e->child()),
                             mapping);
    }
    case ExprClass::kNot: {
      auto* e = static_cast<BoundNot*>(expr);
      return RemapColumnRefs(const_cast<BoundExpression*>(&e->child()),
                             mapping);
    }
    case ExprClass::kCase: {
      auto* e = static_cast<BoundCase*>(expr);
      for (const auto& c : e->clauses()) {
        MALLARD_RETURN_NOT_OK(RemapColumnRefs(
            const_cast<BoundExpression*>(c.when.get()), mapping));
        MALLARD_RETURN_NOT_OK(RemapColumnRefs(
            const_cast<BoundExpression*>(c.then.get()), mapping));
      }
      if (e->else_expr()) {
        MALLARD_RETURN_NOT_OK(RemapColumnRefs(
            const_cast<BoundExpression*>(e->else_expr()), mapping));
      }
      return Status::OK();
    }
    case ExprClass::kInList: {
      auto* e = static_cast<BoundInList*>(expr);
      return RemapColumnRefs(const_cast<BoundExpression*>(&e->child()),
                             mapping);
    }
    case ExprClass::kLike: {
      auto* e = static_cast<BoundLike*>(expr);
      return RemapColumnRefs(const_cast<BoundExpression*>(&e->child()),
                             mapping);
    }
    default:
      return status;
  }
}

uint64_t EstimateBytes(PhysicalOperator* op, double rows) {
  uint64_t width = 0;
  for (TypeId t : op->types()) width += TypeSize(t);
  return static_cast<uint64_t>(rows) * std::max<uint64_t>(width, 8);
}

}  // namespace

// ===========================================================================
// Planner implementation
// ===========================================================================

struct Planner::Impl {
  Catalog* catalog;
  ResourceGovernor* governor;
  PlannerOptions options;
  std::shared_ptr<BoundParameterData> parameters;  // null: params rejected

  // --- binding context ------------------------------------------------------
  struct Leaf {
    std::string alias;
    // Pruned visible columns.
    std::vector<std::string> names;
    std::vector<TypeId> types;
    std::vector<idx_t> source_column_ids;  // into the unpruned schema
    idx_t width = 0;  // columns before pruning
    idx_t global_offset = 0;
    idx_t relation_id = 0;
    // Source (exactly one set):
    DataTable* table = nullptr;
    std::string csv_path;
    std::vector<TypeId> csv_file_types;
    // A FROM subquery or view (whose parsed text the leaf owns), planned
    // once pruning knows which of its outputs the statement reads.
    const SelectStatement* subquery = nullptr;
    std::unique_ptr<SQLStatement> view_statement;
    std::unique_ptr<PhysicalOperator> subquery_plan;
    std::vector<TableFilter> scan_filters;  // zone-map filters (base only)
    std::vector<LateBoundTableFilter> late_filters;  // parameterized ones
  };

  std::vector<Leaf> leaves;

  // Aggregate-binding state.
  bool in_aggregate_query = false;
  const std::vector<PExpr>* group_exprs_parsed = nullptr;
  std::vector<ExprPtr>* bound_groups = nullptr;
  std::vector<BoundAggregate>* aggregates = nullptr;
  bool binding_agg_mode = false;  // bind against group/agg outputs
  int select_depth = 0;

  // -------------------------------------------------------------------------
  Result<std::pair<idx_t, idx_t>> ResolveColumn(const std::string& table,
                                                const std::string& column) {
    // Returns (global index, leaf index).
    idx_t found_global = kInvalidIndex, found_leaf = kInvalidIndex;
    for (idx_t l = 0; l < leaves.size(); l++) {
      if (!table.empty() && !StringUtil::CIEquals(leaves[l].alias, table)) {
        continue;
      }
      for (idx_t c = 0; c < leaves[l].names.size(); c++) {
        if (StringUtil::CIEquals(leaves[l].names[c], column)) {
          if (found_global != kInvalidIndex) {
            return Status::Binder("ambiguous column reference '" + column +
                                  "'");
          }
          found_global = leaves[l].global_offset + c;
          found_leaf = l;
        }
      }
    }
    if (found_global == kInvalidIndex) {
      return Status::Binder("column '" +
                            (table.empty() ? column : table + "." + column) +
                            "' not found");
    }
    return std::make_pair(found_global, found_leaf);
  }

  /// The leaf holding global column `global`, or kInvalidIndex.
  idx_t LeafOf(idx_t global) const {
    for (idx_t l = 0; l < leaves.size(); l++) {
      if (global >= leaves[l].global_offset &&
          global < leaves[l].global_offset + leaves[l].types.size()) {
        return l;
      }
    }
    return kInvalidIndex;
  }

  TypeId GlobalType(idx_t global) const {
    idx_t l = LeafOf(global);
    return l == kInvalidIndex
               ? TypeId::kInvalid
               : leaves[l].types[global - leaves[l].global_offset];
  }

  // --- type coercion --------------------------------------------------------

  /// An untyped parameter adopts the type required by its context.
  static void ResolveUntypedParameter(const ExprPtr& expr, TypeId target) {
    if (expr->expr_class() == ExprClass::kParameter &&
        expr->return_type() == TypeId::kInvalid &&
        target != TypeId::kInvalid) {
      static_cast<BoundParameter*>(expr.get())->ResolveType(target);
    }
  }

  static Result<std::pair<ExprPtr, ExprPtr>> CoerceToSame(ExprPtr left,
                                                          ExprPtr right) {
    ResolveUntypedParameter(left, right->return_type());
    ResolveUntypedParameter(right, left->return_type());
    // Two untyped parameters compared against each other: default VARCHAR.
    ResolveUntypedParameter(left, TypeId::kVarchar);
    ResolveUntypedParameter(right, left->return_type());
    TypeId lt = left->return_type(), rt = right->return_type();
    if (lt == rt) return std::make_pair(std::move(left), std::move(right));
    TypeId target;
    if (TypeIsNumeric(lt) && TypeIsNumeric(rt)) {
      target = MaxNumericType(lt, rt);
    } else if (lt == TypeId::kVarchar && rt != TypeId::kVarchar) {
      target = rt;
    } else if (rt == TypeId::kVarchar && lt != TypeId::kVarchar) {
      target = lt;
    } else if ((lt == TypeId::kDate && rt == TypeId::kTimestamp) ||
               (lt == TypeId::kTimestamp && rt == TypeId::kDate)) {
      target = TypeId::kTimestamp;
    } else if (TypeCanCast(lt, rt)) {
      target = rt;
    } else {
      return Status::Binder(StringUtil::Format(
          "cannot compare values of type %s and %s", TypeIdToString(lt),
          TypeIdToString(rt)));
    }
    return std::make_pair(CastTo(std::move(left), target),
                          CastTo(std::move(right), target));
  }

  /// Converts `expr` to `target`. A constant is cast now (a cast that
  /// fails stays a BoundCast and errors at execution); a parameter takes
  /// the type, since BoundParameter::GetValue casts the bound value.
  /// Either way scan filters and estimates see a bare value.
  static ExprPtr CastTo(ExprPtr expr, TypeId target) {
    ResolveUntypedParameter(expr, target);
    if (expr->return_type() == target) return expr;
    if (expr->expr_class() == ExprClass::kParameter) {
      static_cast<BoundParameter*>(expr.get())->ResolveType(target);
      return expr;
    }
    if (expr->expr_class() == ExprClass::kConstant) {
      auto cast = static_cast<BoundConstant&>(*expr).value().CastTo(target);
      if (cast.ok()) return std::make_unique<BoundConstant>(std::move(*cast));
    }
    return std::make_unique<BoundCast>(std::move(expr), target);
  }

  // Folds expressions without column references into constants.
  static ExprPtr Fold(ExprPtr expr) {
    if (expr->expr_class() == ExprClass::kConstant) return expr;
    if (ExprHasColumnRef(*expr)) return expr;
    if (ExprHasParameter(*expr)) return expr;
    auto value = ExpressionExecutor::ExecuteScalar(*expr, {}, nullptr);
    if (!value.ok()) return expr;  // fold lazily; runtime will error
    Value v = *value;
    if (v.type() != expr->return_type() && v.type() == TypeId::kInvalid) {
      v = Value::Null(expr->return_type());
    }
    return std::make_unique<BoundConstant>(std::move(v));
  }

  // --- expression binding ---------------------------------------------------

  Result<ExprPtr> Bind(const ParsedExpression& expr) {
    // In aggregate mode, expressions matching a GROUP BY item bind to the
    // aggregate operator's group output.
    if (binding_agg_mode && group_exprs_parsed) {
      for (idx_t g = 0; g < group_exprs_parsed->size(); g++) {
        if (expr.Equals(*(*group_exprs_parsed)[g])) {
          return ExprPtr(std::make_unique<BoundColumnRef>(
              g, (*bound_groups)[g]->return_type(), expr.ToString()));
        }
      }
    }
    switch (expr.type) {
      case PExprType::kConstant: {
        return ExprPtr(std::make_unique<BoundConstant>(expr.constant));
      }
      case PExprType::kParameter: {
        if (!parameters) {
          return Status::Binder(
              "statement contains parameters ($" +
              std::to_string(expr.parameter_index + 1) +
              "); use Connection::Prepare to execute it");
        }
        parameters->EnsureSize(expr.parameter_index + 1);
        parameters->referenced[expr.parameter_index] = true;
        return ExprPtr(std::make_unique<BoundParameter>(
            expr.parameter_index, parameters,
            parameters->types[expr.parameter_index]));
      }
      case PExprType::kColumnRef: {
        if (binding_agg_mode) {
          return Status::Binder("column '" + expr.name +
                                "' must appear in the GROUP BY clause or be "
                                "used in an aggregate function");
        }
        MALLARD_ASSIGN_OR_RETURN(auto resolved,
                                 ResolveColumn(expr.table_name, expr.name));
        return ExprPtr(std::make_unique<BoundColumnRef>(
            resolved.first, GlobalType(resolved.first), expr.ToString()));
      }
      case PExprType::kComparison: {
        MALLARD_ASSIGN_OR_RETURN(auto left, Bind(*expr.children[0]));
        MALLARD_ASSIGN_OR_RETURN(auto right, Bind(*expr.children[1]));
        MALLARD_ASSIGN_OR_RETURN(
            auto pair, CoerceToSame(std::move(left), std::move(right)));
        return Fold(std::make_unique<BoundComparison>(
            expr.compare_op, std::move(pair.first), std::move(pair.second)));
      }
      case PExprType::kConjunction: {
        std::vector<ExprPtr> children;
        for (const auto& child : expr.children) {
          MALLARD_ASSIGN_OR_RETURN(auto bound, Bind(*child));
          if (bound->return_type() != TypeId::kBoolean) {
            bound = CastTo(std::move(bound), TypeId::kBoolean);
          }
          children.push_back(std::move(bound));
        }
        return Fold(std::make_unique<BoundConjunction>(expr.is_and,
                                                       std::move(children)));
      }
      case PExprType::kArithmetic:
        return BindArithmetic(expr);
      case PExprType::kFunction:
        return BindFunction(expr);
      case PExprType::kCast: {
        MALLARD_ASSIGN_OR_RETURN(auto child, Bind(*expr.children[0]));
        if (!TypeCanCast(child->return_type(), expr.cast_type)) {
          return Status::Binder(StringUtil::Format(
              "cannot cast %s to %s",
              TypeIdToString(child->return_type()),
              TypeIdToString(expr.cast_type)));
        }
        return Fold(
            std::make_unique<BoundCast>(std::move(child), expr.cast_type));
      }
      case PExprType::kIsNull: {
        MALLARD_ASSIGN_OR_RETURN(auto child, Bind(*expr.children[0]));
        return Fold(
            std::make_unique<BoundIsNull>(std::move(child), expr.negated));
      }
      case PExprType::kNot: {
        MALLARD_ASSIGN_OR_RETURN(auto child, Bind(*expr.children[0]));
        if (child->return_type() != TypeId::kBoolean) {
          child = CastTo(std::move(child), TypeId::kBoolean);
        }
        return Fold(std::make_unique<BoundNot>(std::move(child)));
      }
      case PExprType::kBetween: {
        // Desugar: x BETWEEN a AND b -> x >= a AND x <= b.
        MALLARD_ASSIGN_OR_RETURN(auto low_x, Bind(*expr.children[0]));
        MALLARD_ASSIGN_OR_RETURN(auto low, Bind(*expr.children[1]));
        MALLARD_ASSIGN_OR_RETURN(auto high_x, Bind(*expr.children[0]));
        MALLARD_ASSIGN_OR_RETURN(auto high, Bind(*expr.children[2]));
        MALLARD_ASSIGN_OR_RETURN(
            auto p1, CoerceToSame(std::move(low_x), std::move(low)));
        MALLARD_ASSIGN_OR_RETURN(
            auto p2, CoerceToSame(std::move(high_x), std::move(high)));
        std::vector<ExprPtr> conj;
        conj.push_back(std::make_unique<BoundComparison>(
            CompareOp::kGreaterEqual, std::move(p1.first),
            std::move(p1.second)));
        conj.push_back(std::make_unique<BoundComparison>(
            CompareOp::kLessEqual, std::move(p2.first),
            std::move(p2.second)));
        ExprPtr result =
            std::make_unique<BoundConjunction>(true, std::move(conj));
        if (expr.negated) {
          result = std::make_unique<BoundNot>(std::move(result));
        }
        return Fold(std::move(result));
      }
      case PExprType::kInList: {
        MALLARD_ASSIGN_OR_RETURN(auto child, Bind(*expr.children[0]));
        std::vector<ExprPtr> items;
        for (size_t i = 1; i < expr.children.size(); i++) {
          MALLARD_ASSIGN_OR_RETURN(auto item, Bind(*expr.children[i]));
          item = Fold(std::move(item));
          if (item->expr_class() == ExprClass::kConstant) {
            // A constant that does not convert fails the bind.
            MALLARD_ASSIGN_OR_RETURN(
                Value v, static_cast<BoundConstant&>(*item).value().CastTo(
                             child->return_type()));
            item = std::make_unique<BoundConstant>(std::move(v));
          } else if (item->expr_class() != ExprClass::kParameter) {
            return Status::Binder(
                "IN list elements must be constants or parameters");
          }
          items.push_back(CastTo(std::move(item), child->return_type()));
        }
        return Fold(std::make_unique<BoundInList>(
            std::move(child), std::move(items), expr.negated));
      }
      case PExprType::kLike: {
        MALLARD_ASSIGN_OR_RETURN(auto child, Bind(*expr.children[0]));
        child = CastTo(std::move(child), TypeId::kVarchar);
        MALLARD_ASSIGN_OR_RETURN(auto pattern, Bind(*expr.children[1]));
        pattern = Fold(CastTo(std::move(pattern), TypeId::kVarchar));
        if (pattern->expr_class() != ExprClass::kConstant &&
            pattern->expr_class() != ExprClass::kParameter) {
          return Status::Binder(
              "LIKE pattern must be a constant or a parameter");
        }
        return Fold(std::make_unique<BoundLike>(
            std::move(child), std::move(pattern), expr.negated));
      }
      case PExprType::kCase: {
        std::vector<BoundCase::Clause> clauses;
        size_t n = expr.children.size() - (expr.has_else ? 1 : 0);
        TypeId result_type = TypeId::kInvalid;
        std::vector<ExprPtr> thens;
        std::vector<ExprPtr> whens;
        for (size_t i = 0; i + 1 < n + 1 && i + 1 < expr.children.size() &&
                           i / 2 * 2 == i && i + 1 <= n;
             i += 2) {
          if (i + 1 >= n) break;
          MALLARD_ASSIGN_OR_RETURN(auto when, Bind(*expr.children[i]));
          when = CastTo(std::move(when), TypeId::kBoolean);
          MALLARD_ASSIGN_OR_RETURN(auto then, Bind(*expr.children[i + 1]));
          if (result_type == TypeId::kInvalid) {
            result_type = then->return_type();
          } else if (then->return_type() != result_type) {
            if (TypeIsNumeric(result_type) &&
                TypeIsNumeric(then->return_type())) {
              result_type = MaxNumericType(result_type, then->return_type());
            }
          }
          whens.push_back(std::move(when));
          thens.push_back(std::move(then));
        }
        ExprPtr else_expr;
        if (expr.has_else) {
          MALLARD_ASSIGN_OR_RETURN(else_expr, Bind(*expr.children.back()));
          if (result_type == TypeId::kInvalid) {
            result_type = else_expr->return_type();
          } else if (else_expr->return_type() != result_type &&
                     TypeIsNumeric(result_type) &&
                     TypeIsNumeric(else_expr->return_type())) {
            result_type =
                MaxNumericType(result_type, else_expr->return_type());
          }
        }
        for (size_t i = 0; i < thens.size(); i++) {
          clauses.push_back(BoundCase::Clause{
              std::move(whens[i]), CastTo(std::move(thens[i]), result_type)});
        }
        if (else_expr) else_expr = CastTo(std::move(else_expr), result_type);
        return Fold(std::make_unique<BoundCase>(
            result_type, std::move(clauses), std::move(else_expr)));
      }
      case PExprType::kStar:
        return Status::Binder("'*' is only allowed in the select list or "
                              "COUNT(*)");
    }
    return Status::Binder("unsupported expression");
  }

  Result<ExprPtr> BindArithmetic(const ParsedExpression& expr) {
    // Date +/- INTERVAL handling (parser marks interval constants).
    const ParsedExpression& lp = *expr.children[0];
    const ParsedExpression& rp = *expr.children[1];
    bool right_interval = rp.type == PExprType::kConstant &&
                          StringUtil::StartsWith(rp.name, "interval_");
    if (right_interval) {
      MALLARD_ASSIGN_OR_RETURN(auto left, Bind(lp));
      left = Fold(std::move(left));
      if (left->return_type() != TypeId::kDate) {
        return Status::Binder("INTERVAL arithmetic requires a DATE operand");
      }
      int32_t quantity = rp.constant.GetInteger();
      if (expr.arith_op == ArithOp::kSubtract) quantity = -quantity;
      if (left->expr_class() == ExprClass::kConstant) {
        const Value& v = static_cast<BoundConstant&>(*left).value();
        if (v.is_null()) {
          return ExprPtr(
              std::make_unique<BoundConstant>(Value::Null(TypeId::kDate)));
        }
        int32_t days = v.GetDate();
        int32_t y, m, d;
        date::ToYMD(days, &y, &m, &d);
        if (rp.name == "interval_day") {
          days += quantity;
        } else if (rp.name == "interval_month") {
          int32_t months = y * 12 + (m - 1) + quantity;
          y = months / 12;
          m = months % 12 + 1;
          days = date::FromYMD(y, m, d);
        } else if (rp.name == "interval_year") {
          days = date::FromYMD(y + quantity, m, d);
        } else {
          return Status::Binder("unsupported interval unit " + rp.name);
        }
        return ExprPtr(
            std::make_unique<BoundConstant>(Value::Date(days)));
      }
      if (rp.name != "interval_day") {
        return Status::NotImplemented(
            "non-constant date +/- month/year interval");
      }
      // date column + N days: integer arithmetic then cast back.
      ExprPtr as_int = CastTo(std::move(left), TypeId::kInteger);
      ExprPtr delta = std::make_unique<BoundConstant>(
          Value::Integer(quantity < 0 ? -quantity : quantity));
      ExprPtr sum = std::make_unique<BoundArithmetic>(
          quantity < 0 ? ArithOp::kSubtract : ArithOp::kAdd, TypeId::kInteger,
          std::move(as_int), std::move(delta));
      return ExprPtr(CastTo(std::move(sum), TypeId::kDate));
    }
    MALLARD_ASSIGN_OR_RETURN(auto left, Bind(lp));
    MALLARD_ASSIGN_OR_RETURN(auto right, Bind(rp));
    // Date - date => integer days.
    if (left->return_type() == TypeId::kDate &&
        right->return_type() == TypeId::kDate &&
        expr.arith_op == ArithOp::kSubtract) {
      left = CastTo(std::move(left), TypeId::kInteger);
      right = CastTo(std::move(right), TypeId::kInteger);
      return Fold(std::make_unique<BoundArithmetic>(
          ArithOp::kSubtract, TypeId::kInteger, std::move(left),
          std::move(right)));
    }
    if (!TypeIsNumeric(left->return_type())) {
      left = CastTo(std::move(left), TypeId::kDouble);
    }
    if (!TypeIsNumeric(right->return_type())) {
      right = CastTo(std::move(right), TypeId::kDouble);
    }
    TypeId result =
        MaxNumericType(left->return_type(), right->return_type());
    if (expr.arith_op == ArithOp::kDivide && result != TypeId::kDouble) {
      // SQL-friendly: '/' on integers promotes to double (use % for mod).
      result = TypeId::kDouble;
    }
    left = CastTo(std::move(left), result);
    right = CastTo(std::move(right), result);
    return Fold(std::make_unique<BoundArithmetic>(
        expr.arith_op, result, std::move(left), std::move(right)));
  }

  Result<ExprPtr> BindFunction(const ParsedExpression& expr) {
    if (IsAggregateName(expr.name)) {
      if (!in_aggregate_query || !aggregates) {
        return Status::Binder("aggregate function " + expr.name +
                              "() is not allowed here");
      }
      if (!binding_agg_mode) {
        return Status::Binder("nested aggregate functions are not allowed");
      }
      bool star = !expr.children.empty() &&
                  expr.children[0]->type == PExprType::kStar;
      AggType agg_type = AggTypeFromName(expr.name, star);
      BoundAggregate agg;
      agg.type = agg_type;
      if (!star) {
        if (expr.children.size() != 1) {
          return Status::Binder(expr.name + "() takes exactly one argument");
        }
        // Bind the argument against the *input* columns (plain mode).
        binding_agg_mode = false;
        auto arg = Bind(*expr.children[0]);
        binding_agg_mode = true;
        if (!arg.ok()) return arg.status();
        agg.arg = std::move(*arg);
        if ((agg_type == AggType::kSum || agg_type == AggType::kAvg) &&
            !TypeIsNumeric(agg.arg->return_type())) {
          return Status::Binder(expr.name + "() requires a numeric argument");
        }
        agg.return_type = AggregateFunction::ResolveType(
            agg_type, agg.arg->return_type());
      } else {
        agg.return_type = TypeId::kBigInt;
      }
      // Reuse an identical aggregate already requested by another clause
      // (SELECT sum(v) ... HAVING sum(v) > 4 computes one sum).
      for (idx_t i = 0; i < aggregates->size(); i++) {
        const BoundAggregate& existing = (*aggregates)[i];
        bool same_arg =
            (!existing.arg && !agg.arg) ||
            (existing.arg && agg.arg &&
             existing.arg->ToString() == agg.arg->ToString());
        if (existing.type == agg.type && same_arg) {
          return ExprPtr(std::make_unique<BoundColumnRef>(
              bound_groups->size() + i, existing.return_type,
              expr.ToString()));
        }
      }
      idx_t index = bound_groups->size() + aggregates->size();
      TypeId type = agg.return_type;
      aggregates->push_back(std::move(agg));
      return ExprPtr(
          std::make_unique<BoundColumnRef>(index, type, expr.ToString()));
    }
    std::vector<ExprPtr> args;
    std::vector<TypeId> arg_types;
    for (const auto& child : expr.children) {
      MALLARD_ASSIGN_OR_RETURN(auto bound, Bind(*child));
      arg_types.push_back(bound->return_type());
      args.push_back(std::move(bound));
    }
    MALLARD_ASSIGN_OR_RETURN(auto resolution,
                             FunctionRegistry::Resolve(expr.name, arg_types));
    for (idx_t i = 0; i < args.size(); i++) {
      args[i] = CastTo(std::move(args[i]), resolution.arg_types[i]);
    }
    return Fold(std::make_unique<BoundFunction>(
        expr.name, resolution.return_type, std::move(args),
        resolution.impl));
  }

  // --- FROM planning ---------------------------------------------------------

  struct RelationPlan {
    std::unique_ptr<PhysicalOperator> plan;
    std::vector<idx_t> layout;  // global index per output position
    std::set<idx_t> relations;
    double rows = 0;  // estimated output rows
  };

  static std::map<idx_t, idx_t> LayoutMapping(
      const std::vector<idx_t>& layout) {
    std::map<idx_t, idx_t> mapping;
    for (idx_t i = 0; i < layout.size(); i++) mapping[layout[i]] = i;
    return mapping;
  }

  // Collects the columns `expr` references, per leaf. The `*` of
  // COUNT(*) references none.
  void CollectRefs(const ParsedExpression& expr,
                   std::vector<std::set<std::string>>* per_leaf) {
    if (expr.type == PExprType::kColumnRef) {
      for (idx_t l = 0; l < leaves.size(); l++) {
        if (!expr.table_name.empty() &&
            !StringUtil::CIEquals(leaves[l].alias, expr.table_name)) {
          continue;
        }
        (*per_leaf)[l].insert(StringUtil::Lower(expr.name));
      }
      return;
    }
    for (const auto& child : expr.children) {
      CollectRefs(*child, per_leaf);
    }
  }

  // Builds the physical scan for one leaf.
  Result<std::unique_ptr<PhysicalOperator>> BuildLeafScan(Leaf* leaf) {
    if (leaf->table) {
      std::vector<idx_t> column_ids = leaf->source_column_ids;
      return std::unique_ptr<PhysicalOperator>(
          std::make_unique<PhysicalTableScan>(leaf->table, column_ids,
                                              leaf->scan_filters,
                                              leaf->types,
                                              leaf->late_filters));
    }
    if (!leaf->csv_path.empty()) {
      return std::unique_ptr<PhysicalOperator>(
          std::make_unique<PhysicalCsvScan>(leaf->csv_path, CsvOptions{},
                                            leaf->source_column_ids,
                                            leaf->csv_file_types,
                                            leaf->types));
    }
    if (leaf->subquery_plan) {
      // An aggregate or DISTINCT subquery returns every output: keep the
      // ones the statement reads.
      if (leaf->source_column_ids.size() ==
          leaf->subquery_plan->types().size()) {
        return std::move(leaf->subquery_plan);
      }
      std::vector<ExprPtr> exprs;
      for (idx_t i = 0; i < leaf->source_column_ids.size(); i++) {
        idx_t src = leaf->source_column_ids[i];
        exprs.push_back(std::make_unique<BoundColumnRef>(
            src, leaf->types[i], leaf->names[i]));
      }
      return std::unique_ptr<PhysicalOperator>(
          std::make_unique<PhysicalProjection>(
              std::move(exprs), std::move(leaf->subquery_plan)));
    }
    return Status::Internal("leaf without a source");
  }

  /// A hash or merge join by the governor's choice for a build side
  /// (`right`) of `right_rows` estimated rows.
  std::unique_ptr<PhysicalOperator> MakeJoin(
      JoinType type, std::vector<JoinCondition> conditions,
      std::unique_ptr<PhysicalOperator> left,
      std::unique_ptr<PhysicalOperator> right, double right_rows) {
    uint64_t build_bytes = EstimateBytes(right.get(), right_rows);
    JoinAlgorithm algo = governor ? governor->ChooseJoinAlgorithm(build_bytes)
                                  : JoinAlgorithm::kHash;
    if (algo == JoinAlgorithm::kMerge) {
      return std::make_unique<PhysicalMergeJoin>(
          type, std::move(conditions), std::move(left), std::move(right));
    }
    return std::make_unique<PhysicalHashJoin>(
        type, std::move(conditions), std::move(left), std::move(right));
  }
};

// ===========================================================================
// Public entry points
// ===========================================================================

namespace {

// Flattens an AND tree into conjuncts.
void SplitConjuncts(ExprPtr expr, std::vector<ExprPtr>* out) {
  if (expr->expr_class() == ExprClass::kConjunction) {
    auto* conj = static_cast<BoundConjunction*>(expr.get());
    if (conj->is_and()) {
      for (auto& child : conj->mutable_children()) {
        SplitConjuncts(std::move(child), out);
      }
      return;
    }
  }
  out->push_back(std::move(expr));
}

}  // namespace

// The full select planning routine lives in planner_select.cc; DML in
// planner_dml.cc. Impl is shared via this factory.
std::unique_ptr<Planner::Impl> MakePlannerImpl(
    Catalog* catalog, ResourceGovernor* governor,
    const PlannerOptions& options = {}) {
  auto impl = std::make_unique<Planner::Impl>();
  impl->catalog = catalog;
  impl->governor = governor;
  impl->options = options;
  return impl;
}

}  // namespace mallard

// Include the out-of-line planning logic (kept in separate files for
// readability; they are part of this translation unit to share Impl).
#include "planner_dml.inc"
#include "planner_join_order.inc"
#include "planner_select.inc"
