#include "mallard/main/connection.h"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <limits>

#include "mallard/common/string_util.h"
#include "mallard/etl/csv.h"
#include "mallard/main/prepared_statement.h"
#include "mallard/parallel/morsel.h"
#include "mallard/parser/parser.h"
#include "mallard/planner/planner.h"
#include "mallard/resilience/retry_policy.h"
#include "mallard/resilience/scrubber.h"

namespace mallard {

Connection::Connection(Database* db)
    : db_(db), session_id_(db->NextSessionId()) {}

Connection::~Connection() {
  if (transaction_) {
    db_->transactions().Rollback(transaction_.get());
  }
}

Status Connection::BeginTransaction() {
  if (transaction_) {
    return Status::TransactionContext("transaction already active");
  }
  transaction_ = db_->transactions().Begin();
  return Status::OK();
}

Status Connection::Commit() {
  if (!transaction_) {
    return Status::TransactionContext("no transaction active");
  }
  Status status = db_->transactions().Commit(transaction_.get());
  transaction_.reset();
  return status;
}

Status Connection::Rollback() {
  if (!transaction_) {
    return Status::TransactionContext("no transaction active");
  }
  db_->transactions().Rollback(transaction_.get());
  transaction_.reset();
  return Status::OK();
}

Result<Transaction*> Connection::ActiveTransaction(bool* started) {
  if (transaction_) {
    *started = false;
    return transaction_.get();
  }
  transaction_ = db_->transactions().Begin();
  *started = true;
  return transaction_.get();
}

Status Connection::FinishAutocommit(bool started, bool success) {
  if (!started) return Status::OK();
  Status status = Status::OK();
  if (success) {
    status = db_->transactions().Commit(transaction_.get());
  } else {
    db_->transactions().Rollback(transaction_.get());
  }
  transaction_.reset();
  return status;
}

void Connection::SetupContext(ExecutionContext* context, Transaction* txn,
                              const QueryTicket* ticket) {
  context->txn = txn;
  context->buffers = &db_->buffers();
  context->governor = &db_->governor();
  context->scheduler = &db_->scheduler();
  context->thread_limit = thread_override_;
  context->ticket = ticket;
  context->interrupt = &interrupt_;
  context->salvage_mode = db_->config().salvage_mode;
  if (statement_timeout_ms_ > 0) {
    context->has_deadline = true;
    context->deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(statement_timeout_ms_);
  }
}

Result<std::shared_ptr<void>> Connection::AdmitSlot() {
  if (admission_depth_ > 0) return std::shared_ptr<void>();
  MALLARD_RETURN_NOT_OK(db_->admission().Admit(priority_class_));
  admission_depth_++;
  return std::shared_ptr<void>(static_cast<void*>(this), [this](void*) {
    admission_depth_--;
    db_->admission().Release();
  });
}

namespace {
bool IsPlanCacheable(StatementType type) {
  switch (type) {
    case StatementType::kSelect:
    case StatementType::kInsert:
    case StatementType::kUpdate:
    case StatementType::kDelete:
      return true;
    default:
      return false;
  }
}
}  // namespace

Result<std::unique_ptr<MaterializedQueryResult>> Connection::Query(
    const std::string& sql) {
  if (plan_cache_enabled_) {
    NormalizedQuery normalized = NormalizeQueryText(sql);
    // Plans differ by join order, so the setting is part of the key.
    if (join_order_ == JoinOrder::kSyntactic) normalized.key += "\x01syntactic";
    if (normalized.cacheable) {
      SharedPlanCache& cache = db_->plan_cache();
      SharedPlanCache::EntryPtr entry = cache.Acquire(normalized.key);
      if (!entry) {
        auto planned = PlanNormalized(&normalized, sql);
        // Planning the normalized statement can fail. Either the error
        // is real (a missing table: the uncached path below reproduces
        // it from the original text) or a literal the binder needs as a
        // constant became a parameter; both execute uncached.
        if (planned.ok()) entry = cache.Insert(std::move(*planned));
      }
      if (entry) {
        return ExecuteCachedEntry(std::move(entry), normalized.literals);
      }
    } else {
      db_->plan_cache().RecordUncacheable();
    }
  }
  MALLARD_ASSIGN_OR_RETURN(auto statements, Parser::Parse(sql));
  if (statements.empty()) {
    return Status::InvalidArgument("no statements to execute");
  }
  std::unique_ptr<MaterializedQueryResult> result;
  for (auto& stmt : statements) {
    MALLARD_ASSIGN_OR_RETURN(result, ExecuteStatement(stmt.get()));
  }
  return result;
}

Result<std::unique_ptr<SharedPlanCache::Entry>> Connection::PlanNormalized(
    NormalizedQuery* normalized, const std::string& sql) {
  MALLARD_ASSIGN_OR_RETURN(
      auto statements, Parser::Parse(std::move(normalized->tokens), sql));
  if (statements.size() != 1 || !IsPlanCacheable(statements[0]->type)) {
    return Status::InvalidArgument("normalized statement is not cacheable");
  }
  // Pre-typing each slot with its literal's parsed type makes the
  // binder coerce exactly as it would have with the literal in place —
  // `id = 7` and `id = 7.5` already landed on different cache keys.
  BoundParameterData parameters;
  for (const Value& literal : normalized->literals) {
    parameters.types.push_back(literal.type());
  }
  parameters.referenced.resize(parameters.types.size(), false);
  return PlanEntry(normalized->key, std::move(statements[0]), parameters);
}

Result<std::unique_ptr<SharedPlanCache::Entry>> Connection::PlanEntry(
    std::string key, std::shared_ptr<const SQLStatement> statement,
    const BoundParameterData& parameters) {
  auto entry = std::make_unique<SharedPlanCache::Entry>();
  entry->key = std::move(key);
  // Each entry binds against its own copy: the planner records types in
  // it while the entry it replaces may still be running.
  auto own = std::make_shared<BoundParameterData>(parameters);
  Planner planner = MakePlanner();
  planner.SetParameterData(own);
  entry->catalog_version = db_->catalog().version();
  MALLARD_ASSIGN_OR_RETURN(entry->plan, planner.PlanStatement(*statement));
  entry->statement = std::move(statement);
  entry->parameters = std::move(own);
  return entry;
}

Result<std::unique_ptr<MaterializedQueryResult>>
Connection::ExecuteCachedEntry(SharedPlanCache::EntryPtr entry,
                               const std::vector<Value>& literals) {
  SharedPlanCache& cache = db_->plan_cache();
  if (entry->catalog_version != db_->catalog().version()) {
    // DDL since planning: re-plan from the stored AST into a new entry
    // that replaces this one, like PreparedStatement::EnsureCurrentPlan.
    // A dropped table surfaces here as a binder error and the entry dies.
    cache.RecordInvalidation();
    auto fresh = PlanEntry(entry->key, entry->statement, *entry->parameters);
    if (!fresh.ok()) {
      cache.Drop(entry);
      return fresh.status();
    }
    SharedPlanCache::EntryPtr replanned = std::move(*fresh);
    cache.Replace(entry, replanned);
    entry = std::move(replanned);
  }
  auto result = ExecutePhysicalPlan(entry->plan.plan.get(), entry->plan.names,
                                    entry->plan.types, &literals);
  if (!result.ok()) cache.Drop(entry);
  return result;
}

namespace {
/// Collects a plan's output densely. A chunk at least half full is kept
/// as the plan produced it, so a `SELECT *` pays no copy. Smaller chunks
/// (a selective filter yields a few rows per scanned vector) are copied
/// into an engine-owned tail chunk until it is full, and the plan's
/// chunk is reused for the next GetChunk. A lone small chunk is kept as
/// is until a second one arrives, so a one-chunk result costs no copy.
/// Every chunk except the last of a run of small ones thus holds at
/// least kVectorSize/2 rows.
class DenseChunkSink {
 public:
  explicit DenseChunkSink(const std::vector<TypeId>& types) : types_(types) {}

  /// The chunk the plan fills next; empty.
  DataChunk* Next() {
    if (!scratch_) scratch_ = NewChunk();
    return scratch_.get();
  }

  /// Takes the rows the plan just wrote into Next().
  void Collect() {
    if (scratch_->size() >= kVectorSize / 2) {
      chunks_.push_back(std::move(scratch_));
      tail_open_ = lone_small_ = false;
      return;
    }
    if (!tail_open_ && !lone_small_) {
      chunks_.push_back(std::move(scratch_));
      lone_small_ = true;
      return;
    }
    if (lone_small_) {
      // The held chunk came from the plan and may alias operator
      // buffers: copy it into a fresh tail instead of appending to it.
      std::unique_ptr<DataChunk> held = std::move(chunks_.back());
      chunks_.back() = NewChunk();
      chunks_.back()->Append(*held);
      lone_small_ = false;
      tail_open_ = true;
    }
    idx_t appended = chunks_.back()->Append(*scratch_);
    if (appended < scratch_->size()) {
      chunks_.push_back(NewChunk());
      chunks_.back()->Append(*scratch_, appended);
    }
    scratch_->Reset();
  }

  std::vector<std::unique_ptr<DataChunk>> Finish() {
    return std::move(chunks_);
  }

 private:
  std::unique_ptr<DataChunk> NewChunk() const {
    auto chunk = std::make_unique<DataChunk>();
    chunk->Initialize(types_);
    return chunk;
  }

  const std::vector<TypeId>& types_;
  std::vector<std::unique_ptr<DataChunk>> chunks_;
  std::unique_ptr<DataChunk> scratch_;
  bool lone_small_ = false;  // chunks_.back() is a small chunk of the plan's
  bool tail_open_ = false;   // chunks_.back() is an engine-owned tail
};
}  // namespace

Result<std::unique_ptr<MaterializedQueryResult>>
Connection::ExecutePhysicalPlan(const PhysicalOperator* plan,
                                const std::vector<std::string>& names,
                                const std::vector<TypeId>& types,
                                const ParameterValues* parameters) {
  MALLARD_ASSIGN_OR_RETURN(auto slot, AdmitSlot());
  auto ticket = db_->scheduler().RegisterQuery(session_id_, priority_weight_);
  bool started = false;
  MALLARD_ASSIGN_OR_RETURN(Transaction * txn, ActiveTransaction(&started));
  ExecutionContext context;
  SetupContext(&context, txn, ticket.get());
  context.parameters = parameters;
  StatePtr state = plan->MakeState();
  DenseChunkSink sink(types);
  Status status = Status::OK();
  while (true) {
    // Chunk-boundary interrupt check: even a plan whose operators never
    // look at the flag (VALUES, tiny scans) cancels between chunks.
    status = context.CheckInterrupt();
    if (!status.ok()) break;
    DataChunk* chunk = sink.Next();
    status = plan->GetChunk(&context, state.get(), chunk);
    if (!status.ok()) break;
    if (chunk->size() == 0) break;
    sink.Collect();
  }
  // The execution's operator state (hash tables, sort runs, chunks) dies
  // with the execution, before the transaction finishes.
  state.reset();
  // One Interrupt() cancels at most one statement: the flag is consumed
  // when the statement it hit (or outlived) completes.
  interrupt_.store(false, std::memory_order_relaxed);
  if (!status.ok()) {
    if (status.IsTransactionConflict()) db_->transactions().CountConflict();
    Status finish = FinishAutocommit(started, false);
    (void)finish;
    // A failed statement inside an explicit transaction poisons it.
    if (!started && transaction_) {
      db_->transactions().Rollback(transaction_.get());
      transaction_.reset();
    }
    return status;
  }
  MALLARD_RETURN_NOT_OK(FinishAutocommit(started, true));
  return std::make_unique<MaterializedQueryResult>(names, types,
                                                   sink.Finish());
}

Result<std::unique_ptr<MaterializedQueryResult>> Connection::ExecutePlan(
    PreparedPlan prepared) {
  return ExecutePhysicalPlan(prepared.plan.get(), prepared.names,
                             prepared.types);
}

namespace {
/// A result holding `rows` (one Value per column), chunked by
/// kVectorSize.
std::unique_ptr<MaterializedQueryResult> RowsResult(
    std::vector<std::string> names, std::vector<TypeId> types,
    const std::vector<std::vector<Value>>& rows) {
  std::vector<std::unique_ptr<DataChunk>> chunks;
  for (idx_t r = 0; r < rows.size(); r++) {
    if (r % kVectorSize == 0) {
      chunks.push_back(std::make_unique<DataChunk>());
      chunks.back()->Initialize(types);
    }
    for (idx_t c = 0; c < types.size(); c++) {
      chunks.back()->SetValue(c, r % kVectorSize, rows[r][c]);
    }
    chunks.back()->SetCardinality(r % kVectorSize + 1);
  }
  return std::make_unique<MaterializedQueryResult>(
      std::move(names), std::move(types), std::move(chunks));
}

std::unique_ptr<MaterializedQueryResult> SingleValueResult(
    const std::string& name, Value value) {
  return RowsResult({name}, {value.type()}, {{value}});
}
}  // namespace

Result<std::unique_ptr<MaterializedQueryResult>> Connection::ExecuteStatement(
    SQLStatement* stmt) {
  Planner planner = MakePlanner();
  switch (stmt->type) {
    // Plannable statements share one prepare-then-execute pipeline with
    // SendQuery and Connection::Prepare.
    case StatementType::kSelect:
    case StatementType::kInsert:
    case StatementType::kUpdate:
    case StatementType::kDelete: {
      MALLARD_ASSIGN_OR_RETURN(auto plan, planner.PlanStatement(*stmt));
      return ExecutePlan(std::move(plan));
    }
    case StatementType::kCreateTable: {
      auto& create = static_cast<CreateTableStatement&>(*stmt);
      if (create.as_select) {
        // CTAS: plan the select, create the table, insert.
        MALLARD_ASSIGN_OR_RETURN(auto sub,
                                 planner.PlanSelect(*create.as_select));
        MALLARD_ASSIGN_OR_RETURN(auto slot, AdmitSlot());
        auto ticket =
            db_->scheduler().RegisterQuery(session_id_, priority_weight_);
        std::vector<ColumnDefinition> columns;
        for (idx_t i = 0; i < sub.names.size(); i++) {
          columns.emplace_back(sub.names[i], sub.types[i]);
        }
        MALLARD_RETURN_NOT_OK(db_->catalog().CreateTable(
            create.name, columns, create.if_not_exists));
        bool started = false;
        MALLARD_ASSIGN_OR_RETURN(Transaction * txn,
                                 ActiveTransaction(&started));
        txn->wal_records().push_back(
            wal_record::CreateTable(create.name, columns));
        MALLARD_ASSIGN_OR_RETURN(DataTable * table,
                                 db_->catalog().GetTable(create.name));
        ExecutionContext context;
        SetupContext(&context, txn, ticket.get());
        StatePtr state = sub.plan->MakeState();
        DataChunk chunk;
        chunk.Initialize(sub.types);
        int64_t inserted = 0;
        Status status = Status::OK();
        while (true) {
          status = context.CheckInterrupt();
          if (!status.ok()) break;
          status = sub.plan->GetChunk(&context, state.get(), &chunk);
          if (!status.ok()) break;
          if (chunk.size() == 0) break;
          status = table->Append(txn, chunk);
          if (!status.ok()) break;
          txn->wal_records().push_back(
              wal_record::Append(create.name, chunk));
          inserted += chunk.size();
        }
        interrupt_.store(false, std::memory_order_relaxed);
        if (!status.ok()) {
          Status finish = FinishAutocommit(started, false);
          (void)finish;
          return status;
        }
        MALLARD_RETURN_NOT_OK(FinishAutocommit(started, true));
        return SingleValueResult("count", Value::BigInt(inserted));
      }
      MALLARD_RETURN_NOT_OK(db_->catalog().CreateTable(
          create.name, create.columns, create.if_not_exists));
      bool started = false;
      MALLARD_ASSIGN_OR_RETURN(Transaction * txn,
                               ActiveTransaction(&started));
      txn->wal_records().push_back(
          wal_record::CreateTable(create.name, create.columns));
      MALLARD_RETURN_NOT_OK(FinishAutocommit(started, true));
      return SingleValueResult("ok", Value::Boolean(true));
    }
    case StatementType::kCreateView: {
      auto& create = static_cast<CreateViewStatement&>(*stmt);
      MALLARD_RETURN_NOT_OK(db_->catalog().CreateView(
          create.name, create.select_sql, create.aliases,
          create.or_replace));
      bool started = false;
      MALLARD_ASSIGN_OR_RETURN(Transaction * txn,
                               ActiveTransaction(&started));
      txn->wal_records().push_back(wal_record::CreateView(
          create.name, create.select_sql, create.aliases));
      MALLARD_RETURN_NOT_OK(FinishAutocommit(started, true));
      return SingleValueResult("ok", Value::Boolean(true));
    }
    case StatementType::kDrop: {
      auto& drop = static_cast<DropStatement&>(*stmt);
      if (drop.is_view) {
        MALLARD_RETURN_NOT_OK(
            db_->catalog().DropView(drop.name, drop.if_exists));
      } else {
        MALLARD_RETURN_NOT_OK(
            db_->catalog().DropTable(drop.name, drop.if_exists));
      }
      bool started = false;
      MALLARD_ASSIGN_OR_RETURN(Transaction * txn,
                               ActiveTransaction(&started));
      txn->wal_records().push_back(drop.is_view
                                       ? wal_record::DropView(drop.name)
                                       : wal_record::DropTable(drop.name));
      MALLARD_RETURN_NOT_OK(FinishAutocommit(started, true));
      return SingleValueResult("ok", Value::Boolean(true));
    }
    case StatementType::kCopy: {
      auto& copy = static_cast<CopyStatement&>(*stmt);
      if (copy.is_from) {
        MALLARD_ASSIGN_OR_RETURN(auto plan, planner.PlanStatement(copy));
        return ExecutePlan(std::move(plan));
      }
      // COPY table TO 'path': run SELECT * and write CSV.
      MALLARD_ASSIGN_OR_RETURN(
          auto result, Query("SELECT * FROM " + copy.table));
      std::vector<DataChunk*> chunks;
      for (const auto& chunk : result->Chunks()) {
        chunks.push_back(chunk.get());
      }
      CsvOptions options;
      options.delimiter = copy.delimiter;
      options.header = copy.header;
      MALLARD_RETURN_NOT_OK(
          CsvWriter::Write(copy.path, result->names(), chunks, options));
      return SingleValueResult("count",
                               Value::BigInt(result->RowCount()));
    }
    case StatementType::kTransaction: {
      auto& txn_stmt = static_cast<TransactionStatement&>(*stmt);
      switch (txn_stmt.kind) {
        case TransactionStatement::Kind::kBegin:
          MALLARD_RETURN_NOT_OK(BeginTransaction());
          break;
        case TransactionStatement::Kind::kCommit:
          MALLARD_RETURN_NOT_OK(Commit());
          break;
        case TransactionStatement::Kind::kRollback:
          MALLARD_RETURN_NOT_OK(Rollback());
          break;
      }
      return SingleValueResult("ok", Value::Boolean(true));
    }
    case StatementType::kPragma: {
      return ExecutePragma(static_cast<const PragmaStatement&>(*stmt));
    }
    case StatementType::kExplain: {
      auto& explain = static_cast<ExplainStatement&>(*stmt);
      // Estimate even a single relation, so every scan shows est=.
      planner = Planner(&db_->catalog(), &db_->governor(),
                        PlannerOptions{join_order_, /*estimate_all=*/true});
      PreparedPlan plan;
      switch (explain.inner->type) {
        case StatementType::kSelect: {
          MALLARD_ASSIGN_OR_RETURN(
              plan, planner.PlanSelect(
                        static_cast<const SelectStatement&>(*explain.inner)));
          break;
        }
        case StatementType::kUpdate: {
          MALLARD_ASSIGN_OR_RETURN(
              plan, planner.PlanUpdate(
                        static_cast<const UpdateStatement&>(*explain.inner)));
          break;
        }
        case StatementType::kDelete: {
          MALLARD_ASSIGN_OR_RETURN(
              plan, planner.PlanDelete(
                        static_cast<const DeleteStatement&>(*explain.inner)));
          break;
        }
        default:
          return Status::NotImplemented("EXPLAIN for this statement type");
      }
      return SingleValueResult("plan",
                               Value::Varchar(plan.plan->ToString()));
    }
    case StatementType::kCheckpoint: {
      MALLARD_RETURN_NOT_OK(db_->Checkpoint());
      return SingleValueResult("ok", Value::Boolean(true));
    }
  }
  return Status::NotImplemented("statement type not supported");
}

namespace {
using PragmaResult = Result<std::unique_ptr<MaterializedQueryResult>>;
using StatsColumns = std::vector<std::pair<const char*, uint64_t>>;

/// One PRAGMA. Given no value it runs `read`: the current setting as a
/// one-column row named after the PRAGMA, or a row of counters. Given a
/// value, a settable PRAGMA validates and applies it through `apply`; a
/// read-only one (no `apply`) ignores the value.
struct Pragma {
  const char* name;
  std::function<PragmaResult(Connection&)> read;
  std::function<Status(Connection&, const std::string&)> apply;
};

Status Expected(const char* pragma, const std::string& what,
                const std::string& text) {
  return Status::InvalidArgument("PRAGMA " + std::string(pragma) +
                                 " expects " + what + ", got '" + text + "'");
}

/// The position of `text` in `choices`, compared case-insensitively.
Result<size_t> ParseChoice(const char* pragma,
                           const std::vector<const char*>& choices,
                           const std::string& text) {
  std::string list;
  for (size_t i = 0; i < choices.size(); i++) {
    if (StringUtil::CIEquals(text, choices[i])) return i;
    list += (i == 0 ? "" : ", ") + std::string(choices[i]);
  }
  return Expected(pragma, "one of " + list, text);
}

/// An integer setting: the whole value must parse, without overflow,
/// into [min, max].
template <typename Get, typename Set>
Pragma IntSetting(const char* name, int64_t min, int64_t max, Get get,
                  Set set) {
  return {name,
          [=](Connection& c) {
            return SingleValueResult(
                name, Value::BigInt(static_cast<int64_t>(get(c))));
          },
          [=](Connection& c, const std::string& text) {
            char* end = nullptr;
            errno = 0;
            long long v = std::strtoll(text.c_str(), &end, 10);
            if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
                v < min || v > max) {
              return Expected(name,
                              "an integer in " + std::to_string(min) + ".." +
                                  std::to_string(max),
                              text);
            }
            set(c, static_cast<int64_t>(v));
            return Status::OK();
          }};
}

/// A setting that takes one of `choices`; `set` gets its position.
template <typename Get, typename Set>
Pragma ChoiceSetting(const char* name, std::vector<const char*> choices,
                     Get get, Set set) {
  return {name,
          [=](Connection& c) {
            return SingleValueResult(name, Value::Varchar(get(c)));
          },
          [=](Connection& c, const std::string& text) -> Status {
            MALLARD_ASSIGN_OR_RETURN(size_t i,
                                     ParseChoice(name, choices, text));
            return set(c, i);
          }};
}

/// A boolean setting: on/off, true/false or 1/0, in any case.
template <typename Get, typename Set>
Pragma BoolSetting(const char* name, Get get, Set set) {
  return {name,
          [=](Connection& c) {
            return SingleValueResult(name, Value::Boolean(get(c)));
          },
          [=](Connection& c, const std::string& text) -> Status {
            MALLARD_ASSIGN_OR_RETURN(
                size_t i,
                ParseChoice(name, {"off", "on", "false", "true", "0", "1"},
                            text));
            set(c, i % 2 == 1);
            return Status::OK();
          }};
}

/// A read-only row of BIGINT counters. Each column name sits next to
/// its value, so the two cannot drift out of order.
template <typename Read>
Pragma Counters(const char* name, bool persistent_only, Read read) {
  return {name,
          [=](Connection& c) -> PragmaResult {
            if (persistent_only && c.database().in_memory()) {
              return Status::InvalidArgument(
                  std::string(name) + " requires a persistent database");
            }
            std::vector<std::string> names;
            std::vector<Value> values;
            for (const auto& [column, value] : read(c)) {
              names.push_back(column);
              values.push_back(Value::BigInt(static_cast<int64_t>(value)));
            }
            std::vector<TypeId> types(names.size(), TypeId::kBigInt);
            return RowsResult(std::move(names), std::move(types), {values});
          },
          nullptr};
}
}  // namespace

Result<std::unique_ptr<MaterializedQueryResult>> Connection::ExecutePragma(
    const PragmaStatement& stmt) {
  // Every PRAGMA, documented in docs/API.md. The accessors are written
  // here, inside a member, so they may reach the connection's settings.
  static const std::vector<Pragma> kPragmas = {
      // The budget the out-of-core operators spill against right now:
      // the governor's effective (possibly reactive) number.
      IntSetting(
          "memory_limit", 1, std::numeric_limits<int64_t>::max(),
          [](Connection& c) {
            return c.db_->governor().EffectiveMemoryBudget();
          },
          [](Connection& c, int64_t v) {
            c.db_->governor().SetMemoryLimit(v);
          }),
      // Workers this connection's parallel pipelines use: the pinned
      // override, else the governor's (possibly reactive) budget capped
      // at the morsel source's ceiling. 0 clears the override.
      IntSetting(
          "threads", 0, TableMorselSource::kMaxWorkers,
          [](Connection& c) {
            return c.thread_override_ > 0
                       ? c.thread_override_
                       : std::min(c.db_->governor().EffectiveThreadBudget(),
                                  TableMorselSource::kMaxWorkers);
          },
          [](Connection& c, int64_t v) { c.thread_override_ = int(v); }),
      IntSetting(
          "statement_timeout_ms", 0, 1LL << 40,
          [](Connection& c) { return c.statement_timeout_ms_; },
          [](Connection& c, int64_t v) { c.statement_timeout_ms_ = v; }),
      // Weight (1, 2, 4) divides the scheduler's threads across queries;
      // class orders the admission queue.
      ChoiceSetting(
          "priority", {"low", "normal", "high"},
          [](Connection& c) {
            return c.priority_class_ == 0   ? "low"
                   : c.priority_class_ == 1 ? "normal"
                                            : "high";
          },
          [](Connection& c, size_t i) {
            c.priority_class_ = int(i);
            c.priority_weight_ = 1 << i;
            return Status::OK();
          }),
      // Off also empties the shared cache: the contract is "stop holding
      // plans", not just "stop using them on this connection".
      BoolSetting(
          "plan_cache", [](Connection& c) { return c.plan_cache_enabled_; },
          [](Connection& c, bool on) {
            c.plan_cache_enabled_ = on;
            if (!on) c.db_->plan_cache().Clear();
          }),
      // 0 = auto: 4x the governor's thread cap.
      IntSetting(
          "admission_limit", 0, 1 << 20,
          [](Connection& c) { return c.db_->admission().max_active(); },
          [](Connection& c, int64_t v) {
            c.db_->admission().SetMaxActive(int(v));
          }),
      IntSetting(
          "admission_queue_depth", 0, 1 << 20,
          [](Connection& c) { return c.db_->admission().queue_depth(); },
          [](Connection& c, int64_t v) {
            c.db_->admission().SetQueueDepth(int(v));
          }),
      IntSetting(
          "admission_timeout_ms", 1, 1LL << 40,
          [](Connection& c) { return c.db_->admission().timeout_ms(); },
          [](Connection& c, int64_t v) { c.db_->admission().SetTimeoutMs(v); }),
      BoolSetting(
          "reactive",
          [](Connection& c) { return c.db_->governor().reactive(); },
          [](Connection& c, bool on) { c.db_->governor().SetReactive(on); }),
      // Reads back the level in force: the manual one, or the reactive
      // staircase's current step.
      ChoiceSetting(
          "compression", {"none", "light", "heavy"},
          [](Connection& c) {
            return CompressionLevelToString(
                c.db_->governor().ChooseCompressionLevel());
          },
          [](Connection& c, size_t i) {
            c.db_->governor().SetCompressionLevel(CompressionLevel(i));
            return Status::OK();
          }),
      BoolSetting(
          "memtest_on_allocation",
          [](Connection& c) { return c.db_->buffers().allocation_testing(); },
          [](Connection& c, bool on) {
            c.db_->buffers().EnableAllocationTesting(on);
          }),
      BoolSetting(
          "salvage_mode",
          [](Connection& c) { return c.db_->config().salvage_mode; },
          [](Connection& c, bool on) { c.db_->config().salvage_mode = on; }),
      // In-memory databases have no WAL and read back "none". Switching
      // to sync flushes what async already acknowledged.
      ChoiceSetting(
          "wal_commit_mode", {"sync", "async"},
          [](Connection& c) {
            WriteAheadLog* wal = c.db_->wal();
            return wal == nullptr ? "none"
                   : wal->commit_mode() == WalCommitMode::kAsync ? "async"
                                                                 : "sync";
          },
          [](Connection& c, size_t i) {
            if (c.db_->wal() == nullptr) {
              return Status::InvalidArgument(
                  "wal_commit_mode requires a persistent database");
            }
            return c.db_->wal()->SetCommitMode(WalCommitMode(i));
          }),
      // A differential axis for testing, not a tuning knob: cost-based
      // order is the default; syntactic keeps the FROM order and builds
      // on the right input.
      ChoiceSetting(
          "join_order", {"cost", "syntactic"},
          [](Connection& c) {
            return c.join_order_ == JoinOrder::kCost ? "cost" : "syntactic";
          },
          [](Connection& c, size_t i) {
            c.join_order_ = JoinOrder(i);
            return Status::OK();
          }),
      Counters("buffer_stats", false, [](Connection& c) -> StatsColumns {
        BufferManagerStats s = c.db_->buffers().GetStats();
        return {{"memory_used", s.memory_used},
                {"memory_limit", s.memory_limit},
                {"peak_memory", s.peak_memory},
                {"spill_count", s.spill_count},
                {"spilled_bytes", s.spilled_bytes},
                {"unspill_count", s.unspill_count},
                {"eviction_count", s.eviction_count},
                {"spilled_bytes_now", s.spilled_bytes_now},
                {"spill_compressed_count", s.spill_compressed_count},
                {"spill_saved_bytes", s.spill_saved_bytes}};
      }),
      // Segments per encoding and logical vs encoded bytes over every
      // table, then this Database's encoding events.
      Counters("storage_stats", false, [](Connection& c) -> StatsColumns {
        TableEncodingStats t;
        c.db_->catalog().ForEachTable(
            [&t](DataTable* table) { table->AddEncodingStats(&t); });
        const EncodingCounters& e = c.db_->encoding_counters();
        return {{"segments_total", t.segments_total},
                {"segments_plain", t.segments_plain},
                {"segments_dict", t.segments_dict},
                {"segments_for", t.segments_for},
                {"logical_bytes", t.logical_bytes},
                {"encoded_bytes", t.encoded_bytes},
                {"dict_entries", t.dict_entries},
                {"dict_rows", t.dict_rows},
                {"encode_count", e.encodes},
                {"decode_count", e.decodes},
                {"code_filter_windows", e.filter_windows},
                {"zonemap_skips", e.zonemap_skips}};
      }),
      Counters("scheduler_stats", false, [](Connection& c) -> StatsColumns {
        SchedulerStats s = c.db_->scheduler().GetStats();
        return {{"tasks_executed", s.tasks_executed}, {"runs", s.runs},
                {"active_queries", s.active_queries},
                {"pool_size", s.pool_size}};
      }),
      Counters("admission_stats", false, [](Connection& c) -> StatsColumns {
        AdmissionStats s = c.db_->admission().GetStats();
        return {{"admitted", s.admitted}, {"queued", s.queued},
                {"shed", s.shed},         {"timeouts", s.timeouts},
                {"active", s.active},     {"waiting", s.waiting}};
      }),
      Counters("plan_cache_stats", false, [](Connection& c) -> StatsColumns {
        PlanCacheStats s = c.db_->plan_cache().GetStats();
        return {{"hits", s.hits},
                {"misses", s.misses},
                {"evictions", s.evictions},
                {"invalidations", s.invalidations},
                // Entries are shared, never busy: always 0, kept so the
                // column list stays stable.
                {"busy_skips", 0},
                {"uncacheable", s.uncacheable},
                {"entries", s.entries}};
      }),
      Counters("wal_stats", true, [](Connection& c) -> StatsColumns {
        WalStats s = c.db_->wal()->GetStats();
        return {{"commits", s.commits},
                {"fsyncs", s.fsyncs},
                {"flushes", s.flushes},
                {"group_commits", s.group_commits},
                {"max_group", s.max_group},
                {"async_acks", s.async_acks},
                {"flush_errors", s.flush_errors},
                {"bytes_written", s.bytes_written},
                {"pending_bytes", s.pending_bytes},
                {"torn_tail_recoveries", s.torn_tail_recoveries}};
      }),
      Counters("checkpoint_stats", true, [](Connection& c) -> StatsColumns {
        CheckpointStats s = c.db_->checkpoint_stats();
        return {{"checkpoints", s.checkpoints},
                {"groups_written", s.groups_written},
                {"groups_reused", s.groups_reused},
                {"blocks_written", s.blocks_written}};
      }),
      // What the I/O retry layer absorbed, what the checksums caught,
      // what salvage mode skipped and what the scrubber verified.
      Counters("resilience_stats", false, [](Connection& c) -> StatsColumns {
        const ResilienceStats& s = c.db_->resilience_stats();
        return {{"io_attempts", s.io_attempts},
                {"io_retries", s.io_retries},
                {"retry_successes", s.retry_successes},
                {"retry_exhausted", s.retry_exhausted},
                {"backoff_waits", s.backoff_waits},
                {"backoff_micros", s.backoff_micros},
                {"block_checksum_failures", s.block_checksum_failures},
                {"spill_checksum_failures", s.spill_checksum_failures},
                {"quarantined_row_groups", s.quarantined_row_groups},
                {"salvage_skipped_groups", s.salvage_skipped_groups},
                {"salvage_skipped_rows", s.salvage_skipped_rows},
                {"scrub_runs", s.scrub_runs},
                {"scrub_objects", s.scrub_objects},
                {"scrub_failures", s.scrub_failures}};
      }),
      // Online scrub of every live block, the WAL and every row group:
      // one (object, status, detail) row per damaged object plus a
      // summary row per category.
      {"integrity_check",
       [](Connection& c) {
         Database& db = *c.db_;
         ScrubReport report = IntegrityScrubber(db.blocks(), db.wal(),
                                                &db.catalog(), &db.governor())
                                  .Run();
         db.resilience_stats().scrub_runs.fetch_add(1);
         db.resilience_stats().scrub_objects.fetch_add(report.objects);
         db.resilience_stats().scrub_failures.fetch_add(report.failures);
         std::vector<std::vector<Value>> rows;
         for (const ScrubFinding& f : report.findings) {
           rows.push_back({Value::Varchar(f.object),
                           Value::Varchar(f.ok ? "ok" : "corrupt"),
                           Value::Varchar(f.detail)});
         }
         return RowsResult({"object", "status", "detail"},
                           std::vector<TypeId>(3, TypeId::kVarchar), rows);
       },
       nullptr},
  };
  std::string name = StringUtil::Lower(stmt.name);
  for (const Pragma& pragma : kPragmas) {
    if (name != pragma.name) continue;
    if (stmt.value.empty() || !pragma.apply) return pragma.read(*this);
    MALLARD_RETURN_NOT_OK(pragma.apply(*this, stmt.value));
    return SingleValueResult("ok", Value::Boolean(true));
  }
  return Status::InvalidArgument("unknown pragma '" + stmt.name + "'");
}

Result<std::unique_ptr<StreamingQueryResult>> Connection::SendQuery(
    const std::string& sql) {
  MALLARD_ASSIGN_OR_RETURN(auto statements, Parser::Parse(sql));
  if (statements.size() != 1 ||
      statements[0]->type != StatementType::kSelect) {
    return Status::InvalidArgument(
        "SendQuery supports exactly one SELECT statement");
  }
  Planner planner = MakePlanner();
  MALLARD_ASSIGN_OR_RETURN(auto plan, planner.PlanStatement(*statements[0]));
  const PhysicalOperator* raw = plan.plan.get();
  return StreamPlan(std::move(plan.plan), raw, std::move(plan.names),
                    std::move(plan.types));
}

Result<std::unique_ptr<StreamingQueryResult>> Connection::StreamPlan(
    std::unique_ptr<PhysicalOperator> owned_plan, const PhysicalOperator* plan,
    std::vector<std::string> names, std::vector<TypeId> types,
    ParameterValues parameters, std::shared_ptr<void> lease) {
  // An open stream is an executing query: it holds its admission slot
  // and fair-share ticket until Close, so a client that opens a stream
  // and fetches slowly still counts against concurrency and fairness.
  MALLARD_ASSIGN_OR_RETURN(auto slot, AdmitSlot());
  auto ticket = db_->scheduler().RegisterQuery(session_id_, priority_weight_);
  bool owns = !transaction_;
  std::unique_ptr<Transaction> txn;
  if (owns) {
    txn = db_->transactions().Begin();
  }
  return std::make_unique<StreamingQueryResult>(
      this, std::move(owned_plan), plan, std::move(names), std::move(types),
      std::move(parameters), owns, std::move(txn), std::move(lease),
      std::move(ticket), std::move(slot));
}

Result<std::unique_ptr<PreparedStatement>> Connection::Prepare(
    const std::string& sql) {
  MALLARD_ASSIGN_OR_RETURN(auto statements, Parser::Parse(sql));
  if (statements.size() != 1) {
    return Status::InvalidArgument(
        "Prepare expects exactly one statement, got " +
        std::to_string(statements.size()));
  }
  auto parameters = std::make_shared<BoundParameterData>();
  Planner planner = MakePlanner();
  planner.SetParameterData(parameters);
  uint64_t catalog_version = db_->catalog().version();
  MALLARD_ASSIGN_OR_RETURN(auto plan, planner.PlanStatement(*statements[0]));
  // $N numbering must be gapless: a skipped slot would demand a binding
  // for a parameter that appears nowhere in the SQL.
  for (idx_t i = 0; i < parameters->Count(); i++) {
    if (!parameters->referenced[i]) {
      return Status::Binder(
          "parameter $" + std::to_string(i + 1) +
          " is never referenced; parameters must be numbered "
          "consecutively from $1");
    }
  }
  return std::unique_ptr<PreparedStatement>(new PreparedStatement(
      this, std::move(statements[0]), std::move(parameters), std::move(plan),
      catalog_version));
}

StreamingQueryResult::StreamingQueryResult(
    Connection* connection, std::unique_ptr<PhysicalOperator> owned_plan,
    const PhysicalOperator* plan, std::vector<std::string> names,
    std::vector<TypeId> types, ParameterValues parameters,
    bool owns_transaction, std::unique_ptr<Transaction> txn,
    std::shared_ptr<void> lease, std::unique_ptr<QueryTicket> ticket,
    std::shared_ptr<void> admission)
    : QueryResult(std::move(names), std::move(types)),
      connection_(connection),
      owned_plan_(std::move(owned_plan)),
      plan_(plan),
      parameters_(std::move(parameters)),
      state_(plan->MakeState()),
      owns_transaction_(owns_transaction),
      txn_(std::move(txn)),
      lease_(std::move(lease)),
      ticket_(std::move(ticket)),
      admission_(std::move(admission)) {}

StreamingQueryResult::~StreamingQueryResult() {
  Status status = Close();
  (void)status;
}

Result<std::unique_ptr<DataChunk>> StreamingQueryResult::Fetch() {
  if (done_) return std::unique_ptr<DataChunk>();
  ExecutionContext context;
  connection_->SetupContext(&context,
                            owns_transaction_
                                ? txn_.get()
                                : connection_->transaction_.get(),
                            ticket_.get());
  context.parameters = &parameters_;
  MALLARD_RETURN_NOT_OK(context.CheckInterrupt());
  auto chunk = std::make_unique<DataChunk>();
  chunk->Initialize(types_);
  MALLARD_RETURN_NOT_OK(plan_->GetChunk(&context, state_.get(), chunk.get()));
  if (chunk->size() == 0) {
    MALLARD_RETURN_NOT_OK(Close());
    return std::unique_ptr<DataChunk>();
  }
  return chunk;
}

Status StreamingQueryResult::Close() {
  if (done_) return Status::OK();
  done_ = true;
  state_.reset();
  lease_.reset();  // the borrowed plan may be re-planned again
  ticket_.reset();
  admission_.reset();
  // The stream was this connection's running statement; closing it
  // consumes a pending interrupt just like statement completion does.
  connection_->interrupt_.store(false, std::memory_order_relaxed);
  if (owns_transaction_ && txn_) {
    Status status =
        connection_->db_->transactions().Commit(txn_.get());
    txn_.reset();
    return status;
  }
  return Status::OK();
}

}  // namespace mallard
