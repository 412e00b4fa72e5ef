#ifndef MALLARD_EXPRESSION_EXPRESSION_EXECUTOR_H_
#define MALLARD_EXPRESSION_EXPRESSION_EXECUTOR_H_

#include "mallard/expression/bound_expression.h"

namespace mallard {

/// Vectorized expression interpreter: evaluates a bound expression over a
/// chunk, producing one output vector per call — the execution style the
/// paper chooses over JIT for embeddability (section 6).
class ExpressionExecutor {
 public:
  /// Every entry point reads parameters from `params`, the values the
  /// running execution binds (null: none bound, so a parameter errors).

  /// Evaluates `expr` over the first `input.size()` rows; `result` must
  /// have the expression's return type.
  static Status Execute(const BoundExpression& expr, const DataChunk& input,
                        Vector* result, const ParameterValues* params);

  /// Evaluates a predicate and fills `sel` with indices of rows where it
  /// is TRUE (NULL and FALSE are filtered). Returns the match count.
  static Result<idx_t> Select(const BoundExpression& expr,
                              const DataChunk& input, uint32_t* sel,
                              const ParameterValues* params);

  /// Scalar (tuple-at-a-time) evaluation; reference implementation used
  /// by the baseline engine and by property tests of the vectorized path.
  static Result<Value> ExecuteScalar(const BoundExpression& expr,
                                     const std::vector<Value>& row,
                                     const ParameterValues* params);
};

}  // namespace mallard

#endif  // MALLARD_EXPRESSION_EXPRESSION_EXECUTOR_H_
