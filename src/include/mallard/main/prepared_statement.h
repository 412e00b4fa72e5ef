/**
 * @file prepared_statement.h
 * @brief PreparedStatement: parse/bind/plan once, execute many times.
 *
 * Lifetime: the owning Connection must outlive the statement; a
 * streaming result borrowed from the statement must be closed before
 * the statement is destroyed or re-executed.
 * Thread safety: same single-thread rule as the Connection it came
 * from.
 */
#ifndef MALLARD_MAIN_PREPARED_STATEMENT_H_
#define MALLARD_MAIN_PREPARED_STATEMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "mallard/common/result.h"
#include "mallard/expression/bound_expression.h"
#include "mallard/main/query_result.h"
#include "mallard/parser/ast.h"
#include "mallard/planner/planner.h"

namespace mallard {

class Connection;
class StreamingQueryResult;

/// A pre-parsed, pre-planned statement with typed parameter slots — the
/// paper's answer to per-query client overhead (sections 3 and 5): the
/// dashboard / edge-sensor loop pays parsing, binding and planning once,
/// then re-executes with new parameter values at in-process call cost.
///
/// Usage:
///   auto stmt = *connection.Prepare(
///       "SELECT v FROM readings WHERE sensor = $1 AND v > $2");
///   stmt->Bind(1, "s17");
///   stmt->Bind(2, 3.5);
///   auto result = stmt->Execute();   // re-executable: Bind + Execute again
///
/// Parameter indexes are 1-based ($1 is the first parameter; `?`
/// placeholders number left to right). The Connection must outlive the
/// statement; a streaming result must not outlive the statement.
class PreparedStatement {
 public:
  ~PreparedStatement();

  PreparedStatement(const PreparedStatement&) = delete;
  PreparedStatement& operator=(const PreparedStatement&) = delete;

  /// Number of parameter slots in the statement.
  idx_t ParameterCount() const { return parameters_->Count(); }

  /// Type inferred for parameter `index` (1-based) at plan time;
  /// kInvalid when the context did not constrain it.
  TypeId ParameterType(idx_t index) const;

  /// Binds a value to parameter `index`.
  ///
  /// \param index 1-based parameter slot ($1 is the first; `?`
  ///              placeholders number left to right).
  /// \param value bound value; cast to the inferred parameter type
  ///              eagerly, so type mismatches surface at bind time,
  ///              not mid-query. Bindings persist across Execute()
  ///              calls until rebound.
  /// \return InvalidArgument for an out-of-range index or impossible
  ///         cast.
  Status Bind(idx_t index, Value value);
  Status Bind(idx_t index, bool value) { return Bind(index, Value::Boolean(value)); }
  Status Bind(idx_t index, int32_t value) { return Bind(index, Value::Integer(value)); }
  Status Bind(idx_t index, int64_t value) { return Bind(index, Value::BigInt(value)); }
  Status Bind(idx_t index, double value) { return Bind(index, Value::Double(value)); }
  Status Bind(idx_t index, const std::string& value) {
    return Bind(index, Value::Varchar(value));
  }
  Status Bind(idx_t index, const char* value) {
    return Bind(index, Value::Varchar(value));
  }
  Status BindNull(idx_t index) { return Bind(index, Value()); }

  /// Forgets all bound values (types are kept).
  void ClearBindings();

  /// Executes with the current bindings; errors if any parameter is
  /// unbound. Re-executable: no re-parse or re-plan between calls (each
  /// execution builds its own state; only a DDL change triggers a
  /// re-plan).
  Result<std::unique_ptr<MaterializedQueryResult>> Execute();

  /// Streaming execution (SELECT only): chunks are pulled straight from
  /// the plan, the application acting as the root operator. The stream
  /// runs with the bindings of this call; later Bind calls do not
  /// affect it.
  Result<std::unique_ptr<StreamingQueryResult>> ExecuteStream();

  /// Result schema.
  const std::vector<std::string>& names() const { return plan_.names; }
  const std::vector<TypeId>& types() const { return plan_.types; }
  idx_t ColumnCount() const { return plan_.types.size(); }

 private:
  friend class Connection;

  PreparedStatement(Connection* connection,
                    std::unique_ptr<SQLStatement> statement,
                    std::shared_ptr<BoundParameterData> parameters,
                    PreparedPlan plan, uint64_t catalog_version);

  /// Re-plans from the stored AST when DDL has moved the catalog version
  /// (bound values survive; a dropped table surfaces as a binder error).
  Status EnsureCurrentPlan();
  Status CheckAllBound() const;
  /// Errors while a streaming result borrowed from this statement is
  /// still open — executing could re-plan, which frees the plan the
  /// live stream is reading.
  Status CheckNoOpenStream() const;

  Connection* connection_;
  std::unique_ptr<SQLStatement> statement_;  // kept for re-planning
  std::shared_ptr<BoundParameterData> parameters_;
  ParameterValues values_;   // the current bindings, one per slot
  std::vector<bool> bound_;  // Bind() called for this slot?
  PreparedPlan plan_;
  uint64_t catalog_version_;
  std::weak_ptr<void> stream_lease_;  // live while a stream is open
};

}  // namespace mallard

#endif  // MALLARD_MAIN_PREPARED_STATEMENT_H_
