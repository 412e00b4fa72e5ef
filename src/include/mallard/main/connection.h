/**
 * @file connection.h
 * @brief Connection (SQL entry point) and StreamingQueryResult.
 *
 * Lifetime: a Connection must outlive the PreparedStatements and
 * streaming results it hands out; destroying it rolls back an open
 * explicit transaction.
 * Thread safety: a Connection and everything derived from it belong to
 * one thread at a time (no internal locking) — open one per thread.
 * The single exception is Interrupt(), which any thread may call to
 * cancel the statement the owning thread is running.
 */
#ifndef MALLARD_MAIN_CONNECTION_H_
#define MALLARD_MAIN_CONNECTION_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "mallard/main/database.h"
#include "mallard/main/plan_cache.h"
#include "mallard/main/query_result.h"
#include "mallard/parser/ast.h"
#include "mallard/transaction/transaction.h"

namespace mallard {

class PreparedStatement;
class StreamingQueryResult;

/// A connection: the unit of transactional context. Multiple connections
/// (one per application thread) can operate on the same Database
/// concurrently under MVCC — the paper's dashboard scenario (section 2).
/// Each connection gets a session id; the scheduler multiplexes the
/// worker pool fairly across sessions and the admission gate bounds how
/// many statements execute at once.
class Connection {
 public:
  explicit Connection(Database* db);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Parses and executes `sql` (possibly multiple ';'-separated
  /// statements).
  ///
  /// Single plannable statements (SELECT/INSERT/UPDATE/DELETE) go
  /// through the Database's shared plan cache: literals are normalized
  /// into parameter slots, so `WHERE id=7` and `WHERE id=9` — from any
  /// connection, at the same time — run one immutable physical plan with
  /// their own literals and skip the parse-bind-plan pipeline.
  /// A catalog version change (DDL) triggers a transparent re-plan.
  /// `PRAGMA plan_cache=off` bypasses it for this connection (and
  /// clears the shared cache); `PRAGMA plan_cache_stats` reports the
  /// counters.
  ///
  /// \param sql one or more SQL statements.
  /// \return the materialized result of the last statement, or the
  ///         first parse/bind/execution error (later statements are
  ///         not run after a failure).
  Result<std::unique_ptr<MaterializedQueryResult>> Query(
      const std::string& sql);

  /// Requests cancellation of the statement this connection is
  /// currently running (or, if none is running, of the next one). The
  /// statement stops at its next chunk/morsel boundary with
  /// kInterrupted, releases its resources normally, and the connection
  /// stays usable. The one Connection member safe to call from another
  /// thread.
  void Interrupt() { interrupt_.store(true, std::memory_order_relaxed); }

  /// Number of entries currently in the Database's shared plan cache
  /// (tests/benches).
  idx_t PlanCacheSize() const { return db_->plan_cache().size(); }

  /// This connection's `PRAGMA threads` override for parallel operators
  /// (0 = follow the governor's budget). Other connections on the same
  /// Database are unaffected.
  int ThreadOverride() const { return thread_override_; }

  /// The scheduler-fairness identity of this connection.
  uint64_t session_id() const { return session_id_; }
  /// Fair-share weight set by `PRAGMA priority` (low=1, normal=2,
  /// high=4).
  int priority_weight() const { return priority_weight_; }

  /// Executes a single SELECT and streams chunks as they are produced —
  /// the client application becomes the root of the plan (paper
  /// section 5).
  ///
  /// \param sql exactly one SELECT statement.
  /// \return a streaming result that must not outlive this connection.
  Result<std::unique_ptr<StreamingQueryResult>> SendQuery(
      const std::string& sql);

  /// Parses and plans a single SELECT / INSERT / UPDATE / DELETE once,
  /// returning a PreparedStatement with typed parameter slots for the
  /// `?` / `$N` placeholders. Repeated Bind + Execute cycles skip the
  /// parse-bind-plan pipeline entirely (paper section 3). The connection
  /// must outlive the returned statement.
  Result<std::unique_ptr<PreparedStatement>> Prepare(const std::string& sql);

  /// Explicit transaction control (equivalent to BEGIN/COMMIT/ROLLBACK).
  Status BeginTransaction();
  Status Commit();
  Status Rollback();
  bool InTransaction() const { return transaction_ != nullptr; }

  Database& database() { return *db_; }

 private:
  friend class PreparedStatement;
  friend class StreamingQueryResult;

  /// A planner with this connection's plan settings (`PRAGMA
  /// join_order`).
  Planner MakePlanner() const {
    return Planner(&db_->catalog(), &db_->governor(),
                   PlannerOptions{join_order_});
  }

  Result<std::unique_ptr<MaterializedQueryResult>> ExecuteStatement(
      SQLStatement* stmt);

  /// The shared execute stage of the prepare-then-execute pipeline:
  /// admission slot, fair-share ticket, transaction setup (autocommit or
  /// explicit), chunk pull loop with interrupt checks, and
  /// commit/rollback. Query, prepared Execute and cached plans all route
  /// here. The plan is only read: the execution's state is built here
  /// and dropped before returning, and `parameters` (may be null) are
  /// the values this execution binds.
  Result<std::unique_ptr<MaterializedQueryResult>> ExecutePhysicalPlan(
      const PhysicalOperator* plan, const std::vector<std::string>& names,
      const std::vector<TypeId>& types,
      const ParameterValues* parameters = nullptr);
  Result<std::unique_ptr<MaterializedQueryResult>> ExecutePlan(
      struct PreparedPlan plan);

  /// Shared streaming stage: wraps a plan (owned or borrowed) in a
  /// StreamingQueryResult with autocommit handling. `lease` (if any) is
  /// held by the stream until it closes, letting the plan's owner detect
  /// that a stream is still live. The stream holds its admission slot
  /// and fair-share ticket until Close.
  Result<std::unique_ptr<StreamingQueryResult>> StreamPlan(
      std::unique_ptr<PhysicalOperator> owned_plan,
      const PhysicalOperator* plan, std::vector<std::string> names,
      std::vector<TypeId> types, ParameterValues parameters = {},
      std::shared_ptr<void> lease = nullptr);

  /// Executes one PRAGMA from its table entry: a value is applied (a
  /// single `ok` row); no value reads the setting or counters back.
  Result<std::unique_ptr<MaterializedQueryResult>> ExecutePragma(
      const PragmaStatement& stmt);

  /// Returns the active transaction, starting an autocommit one if
  /// needed; `started` reports whether this call opened it.
  Result<Transaction*> ActiveTransaction(bool* started);
  Status FinishAutocommit(bool started, bool success);

  /// Fills the execution context every chunk-pull loop uses: txn,
  /// engine services, thread override, fair-share ticket and the
  /// interrupt flag.
  void SetupContext(struct ExecutionContext* context, Transaction* txn,
                    const QueryTicket* ticket);

  /// Acquires an admission slot (blocking/shedding per the controller).
  /// The returned handle releases it; null when this connection already
  /// holds one (nested execution, e.g. COPY TO's inner SELECT, rides
  /// the outer slot — and cannot deadlock on it).
  Result<std::shared_ptr<void>> AdmitSlot();

  /// Parses the normalized tokens of a cacheable statement (consuming
  /// them; `sql` is their source) and plans them into a shared-cache
  /// entry: parameter slots are pre-typed from the extracted literals, so
  /// binding reproduces the cold plan's literal coercions exactly.
  Result<std::unique_ptr<SharedPlanCache::Entry>> PlanNormalized(
      NormalizedQuery* normalized, const std::string& sql);

  /// Plans `statement` into a cache entry filed under `key`, with
  /// parameter slots typed as `parameters` says.
  Result<std::unique_ptr<SharedPlanCache::Entry>> PlanEntry(
      std::string key, std::shared_ptr<const SQLStatement> statement,
      const BoundParameterData& parameters);

  /// Executes a shared cache entry with `literals` bound to its
  /// parameter slots, re-planning it into a fresh entry first if DDL
  /// moved the catalog version.
  Result<std::unique_ptr<MaterializedQueryResult>> ExecuteCachedEntry(
      SharedPlanCache::EntryPtr entry, const std::vector<Value>& literals);

  Database* db_;
  std::unique_ptr<Transaction> transaction_;  // explicit transaction
  // Per-connection PRAGMA threads override; 0 = governor budget.
  int thread_override_ = 0;

  uint64_t session_id_;
  // PRAGMA priority: weight divides the thread budget, class orders the
  // admission queue (0 = low, 1 = normal, 2 = high).
  int priority_weight_ = 2;
  int priority_class_ = 1;
  // Admission slots this connection currently holds (a running
  // statement, an open stream); nested executions skip re-admission.
  int admission_depth_ = 0;

  // Set by Interrupt() from any thread; checked at chunk/morsel
  // boundaries, cleared when the statement finishes.
  std::atomic<bool> interrupt_{false};

  // PRAGMA statement_timeout_ms: per-statement wall-clock budget,
  // enforced at the same chunk/morsel boundaries as Interrupt().
  // 0 = no timeout.
  uint64_t statement_timeout_ms_ = 0;

  bool plan_cache_enabled_ = true;
  // PRAGMA join_order; part of the shared plan cache key.
  JoinOrder join_order_ = JoinOrder::kCost;
};

/// Streaming result: pulls chunks straight from the physical plan. The
/// plan is either owned (ad-hoc SendQuery) or borrowed from a
/// PreparedStatement, which must then outlive this result; the
/// execution's state and parameter values belong to the stream until
/// Close. While open it holds an admission slot and counts as an active
/// query for fair scheduling.
class StreamingQueryResult final : public QueryResult {
 public:
  StreamingQueryResult(Connection* connection,
                       std::unique_ptr<PhysicalOperator> owned_plan,
                       const PhysicalOperator* plan,
                       std::vector<std::string> names,
                       std::vector<TypeId> types, ParameterValues parameters,
                       bool owns_transaction,
                       std::unique_ptr<Transaction> txn,
                       std::shared_ptr<void> lease = nullptr,
                       std::unique_ptr<QueryTicket> ticket = nullptr,
                       std::shared_ptr<void> admission = nullptr);
  ~StreamingQueryResult() override;

  /// Next chunk or nullptr at the end. The returned chunk is the
  /// engine's own buffer — zero-copy hand-over. Interrupt() surfaces
  /// here as kInterrupted.
  Result<std::unique_ptr<DataChunk>> Fetch() override;

  /// Finishes the stream early (commits the autocommit transaction,
  /// releases the admission slot and fair-share ticket).
  Status Close();

 private:
  Connection* connection_;
  std::unique_ptr<PhysicalOperator> owned_plan_;
  const PhysicalOperator* plan_;
  ParameterValues parameters_;
  StatePtr state_;                            // dropped on Close()
  bool owns_transaction_;
  std::unique_ptr<Transaction> txn_;
  std::shared_ptr<void> lease_;               // released on Close()
  std::unique_ptr<QueryTicket> ticket_;       // released on Close()
  std::shared_ptr<void> admission_;           // released on Close()
  bool done_ = false;
};

}  // namespace mallard

#endif  // MALLARD_MAIN_CONNECTION_H_
