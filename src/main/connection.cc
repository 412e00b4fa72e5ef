#include "mallard/main/connection.h"

#include <cerrno>
#include <chrono>
#include <cstdlib>

#include "mallard/common/string_util.h"
#include "mallard/etl/csv.h"
#include "mallard/main/prepared_statement.h"
#include "mallard/parallel/morsel.h"
#include "mallard/parser/parser.h"
#include "mallard/planner/planner.h"
#include "mallard/resilience/retry_policy.h"
#include "mallard/resilience/scrubber.h"
#include "mallard/storage/table/column_segment.h"

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
    if (normalized.cacheable) {
      SharedPlanCache& cache = db_->plan_cache();
      bool busy = false;
      SharedPlanCache::Entry* entry = cache.Acquire(normalized.key, &busy);
      if (entry) {
        return ExecuteCachedEntry(entry, normalized.literals);
      }
      if (!busy) {
        auto planned = PlanNormalized(normalized);
        if (planned.ok()) {
          entry = cache.Insert(std::move(*planned));
          return ExecuteCachedEntry(entry, normalized.literals);
        }
        // Planning the normalized text failed — either the error is
        // real (missing table: the uncached path below reproduces it
        // with the original text) or the normalizer misjudged a literal
        // position; both execute uncached.
      }
      // A busy entry means another connection is executing this exact
      // plan right now: plan fresh, uncached, instead of waiting.
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
    const NormalizedQuery& normalized) {
  MALLARD_ASSIGN_OR_RETURN(auto statements,
                           Parser::Parse(normalized.normalized_sql));
  if (statements.size() != 1 || !IsPlanCacheable(statements[0]->type)) {
    return Status::InvalidArgument("normalized statement is not cacheable");
  }
  auto entry = std::make_unique<SharedPlanCache::Entry>();
  entry->key = normalized.key;
  entry->parameters = std::make_shared<BoundParameterData>();
  entry->parameters->EnsureSize(normalized.literals.size());
  // Pre-typing each slot with its literal's parsed type makes the
  // binder coerce exactly as it would have with the literal in place —
  // `id = 7` and `id = 7.5` already landed on different cache keys.
  for (idx_t i = 0; i < normalized.literals.size(); i++) {
    entry->parameters->types[i] = normalized.literals[i].type();
  }
  Planner planner(&db_->catalog(), &db_->governor());
  planner.SetParameterData(entry->parameters);
  entry->catalog_version = db_->catalog().version();
  MALLARD_ASSIGN_OR_RETURN(entry->plan,
                           planner.PlanStatement(*statements[0]));
  entry->statement = std::move(statements[0]);
  return entry;
}

Result<std::unique_ptr<MaterializedQueryResult>>
Connection::ExecuteCachedEntry(SharedPlanCache::Entry* entry,
                               const std::vector<Value>& literals) {
  SharedPlanCache& cache = db_->plan_cache();
  uint64_t current_version = db_->catalog().version();
  if (entry->catalog_version != current_version) {
    // DDL since planning: re-plan in place from the stored AST, like
    // PreparedStatement::EnsureCurrentPlan. A dropped table surfaces
    // here as a binder error and the entry dies.
    cache.RecordInvalidation();
    Planner planner(&db_->catalog(), &db_->governor());
    planner.SetParameterData(entry->parameters);
    auto plan = planner.PlanStatement(*entry->statement);
    if (!plan.ok()) {
      cache.Release(entry, /*keep=*/false);
      return plan.status();
    }
    entry->plan = std::move(*plan);
    entry->catalog_version = current_version;
  }
  for (idx_t i = 0; i < literals.size(); i++) {
    entry->parameters->values[i] = literals[i];
    entry->parameters->is_set[i] = true;
  }
  Status rewind = entry->plan.plan->Reset();
  if (!rewind.ok()) {
    cache.Release(entry, /*keep=*/false);
    return rewind;
  }
  auto result = ExecutePhysicalPlan(entry->plan.plan.get(), entry->plan.names,
                                    entry->plan.types);
  // Idle cached plans must not pin their last execution's operator
  // state (join build tables live in non-spillable buffer segments).
  Status clear = entry->plan.plan->Reset();
  cache.Release(entry, result.ok() && clear.ok());
  return result;
}

Result<std::unique_ptr<MaterializedQueryResult>>
Connection::ExecutePhysicalPlan(PhysicalOperator* plan,
                                const std::vector<std::string>& names,
                                const std::vector<TypeId>& types) {
  MALLARD_ASSIGN_OR_RETURN(auto slot, AdmitSlot());
  auto ticket = db_->scheduler().RegisterQuery(session_id_, priority_weight_);
  bool started = false;
  MALLARD_ASSIGN_OR_RETURN(Transaction * txn, ActiveTransaction(&started));
  ExecutionContext context;
  SetupContext(&context, txn, ticket.get());
  std::vector<std::unique_ptr<DataChunk>> chunks;
  Status status = Status::OK();
  while (true) {
    // Chunk-boundary interrupt check: even a plan whose operators never
    // look at the flag (VALUES, tiny scans) cancels between chunks.
    status = context.CheckInterrupt();
    if (!status.ok()) break;
    auto chunk = std::make_unique<DataChunk>();
    chunk->Initialize(types);
    status = plan->GetChunk(&context, chunk.get());
    if (!status.ok()) break;
    if (chunk->size() == 0) break;
    chunks.push_back(std::move(chunk));
  }
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
                                                   std::move(chunks));
}

Result<std::unique_ptr<MaterializedQueryResult>> Connection::ExecutePlan(
    PreparedPlan prepared) {
  return ExecutePhysicalPlan(prepared.plan.get(), prepared.names,
                             prepared.types);
}

namespace {
std::unique_ptr<MaterializedQueryResult> SingleValueResult(
    const std::string& name, Value value) {
  auto chunk = std::make_unique<DataChunk>();
  chunk->Initialize({value.type()});
  chunk->SetValue(0, 0, value);
  chunk->SetCardinality(1);
  std::vector<std::unique_ptr<DataChunk>> chunks;
  chunks.push_back(std::move(chunk));
  return std::make_unique<MaterializedQueryResult>(
      std::vector<std::string>{name}, std::vector<TypeId>{value.type()},
      std::move(chunks));
}
}  // namespace

Result<std::unique_ptr<MaterializedQueryResult>> Connection::ExecuteStatement(
    SQLStatement* stmt) {
  Planner planner(&db_->catalog(), &db_->governor());
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
        DataChunk chunk;
        chunk.Initialize(sub.types);
        int64_t inserted = 0;
        Status status = Status::OK();
        while (true) {
          status = context.CheckInterrupt();
          if (!status.ok()) break;
          status = sub.plan->GetChunk(&context, &chunk);
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
/// Builds a one-row result from parallel name/value arrays (the shape
/// every *_stats PRAGMA returns).
std::unique_ptr<MaterializedQueryResult> CountersResult(
    std::vector<std::string> names, const std::vector<uint64_t>& values) {
  auto chunk = std::make_unique<DataChunk>();
  std::vector<TypeId> types(names.size(), TypeId::kBigInt);
  chunk->Initialize(types);
  for (idx_t c = 0; c < names.size(); c++) {
    chunk->SetValue(c, 0, Value::BigInt(static_cast<int64_t>(values[c])));
  }
  chunk->SetCardinality(1);
  std::vector<std::unique_ptr<DataChunk>> chunks;
  chunks.push_back(std::move(chunk));
  return std::make_unique<MaterializedQueryResult>(
      std::move(names), std::move(types), std::move(chunks));
}
}  // namespace

Result<std::unique_ptr<MaterializedQueryResult>> Connection::ExecutePragma(
    const PragmaStatement& stmt) {
  auto ok_result = [] { return SingleValueResult("ok", Value::Boolean(true)); };
  auto parse_int = [](const std::string& text, long min_value,
                      long max_value, long* out) -> bool {
    char* end = nullptr;
    errno = 0;
    long v = std::strtol(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
        v < min_value || v > max_value) {
      return false;
    }
    *out = v;
    return true;
  };
  std::string name = StringUtil::Lower(stmt.name);
  if (name == "memory_limit") {
    if (stmt.value.empty()) {
      // Readback: `PRAGMA memory_limit` (no value) reports the budget
      // the out-of-core operators spill against right now — the
      // governor's effective (possibly reactive) number, not just the
      // configured cap. Spill tests assert this to prove what budget
      // they actually ran under.
      return SingleValueResult(
          "memory_limit",
          Value::BigInt(static_cast<int64_t>(
              db_->governor().EffectiveMemoryBudget())));
    }
    uint64_t bytes = std::strtoull(stmt.value.c_str(), nullptr, 10);
    if (bytes == 0) {
      return Status::InvalidArgument("memory_limit must be bytes > 0");
    }
    db_->governor().SetMemoryLimit(bytes);
    return ok_result();
  }
  if (name == "buffer_stats") {
    // One row of BufferManager counters: how much is resident, how much
    // has ever spilled, and how much sits in the temp file right now.
    BufferManagerStats stats = db_->buffers().GetStats();
    return CountersResult(
        {"memory_used", "memory_limit", "peak_memory", "spill_count",
         "spilled_bytes", "unspill_count", "eviction_count",
         "spilled_bytes_now", "spill_compressed_count", "spill_saved_bytes"},
        {stats.memory_used, stats.memory_limit, stats.peak_memory,
         stats.spill_count, stats.spilled_bytes, stats.unspill_count,
         stats.eviction_count, stats.spilled_bytes_now,
         stats.spill_compressed_count, stats.spill_saved_bytes});
  }
  if (name == "storage_stats") {
    // One row of compressed-storage counters across every table: how
    // many finalized segments landed on each encoding, the logical vs
    // encoded footprint, and the global encode/decode/filter-window
    // counters. The compression tests assert encoded_bytes <
    // logical_bytes on dictionary/FOR-friendly data.
    TableEncodingStats total;
    db_->catalog().ForEachTable([&total](DataTable* table) {
      TableEncodingStats s = table->EncodingStats();
      total.segments_total += s.segments_total;
      total.segments_plain += s.segments_plain;
      total.segments_dict += s.segments_dict;
      total.segments_for += s.segments_for;
      total.logical_bytes += s.logical_bytes;
      total.encoded_bytes += s.encoded_bytes;
      total.dict_entries += s.dict_entries;
      total.dict_rows += s.dict_rows;
    });
    return CountersResult(
        {"segments_total", "segments_plain", "segments_dict", "segments_for",
         "logical_bytes", "encoded_bytes", "dict_entries", "dict_rows",
         "encode_count", "decode_count", "code_filter_windows"},
        {total.segments_total, total.segments_plain, total.segments_dict,
         total.segments_for, total.logical_bytes, total.encoded_bytes,
         total.dict_entries, total.dict_rows,
         SegmentEncodingCounters::encodes.load(),
         SegmentEncodingCounters::decodes.load(),
         SegmentEncodingCounters::filter_windows.load()});
  }
  if (name == "threads") {
    if (stmt.value.empty()) {
      // Readback: `PRAGMA threads` (no value) reports the number of
      // workers a parallel pipeline launched by *this connection* would
      // use right now — the pinned override if one is set, else the
      // governor's (possibly reactive) budget, clamped to the morsel
      // source's worker ceiling. Scaling tests assert this to prove
      // what they actually ran with.
      int effective =
          thread_override_ > 0
              ? thread_override_
              : std::min(db_->governor().EffectiveThreadBudget(),
                         TableMorselSource::kMaxWorkers);
      return SingleValueResult("threads", Value::BigInt(effective));
    }
    long threads = 0;
    // Full-string parse, no overflow, bounded: anything beyond the
    // morsel source's worker ceiling is meaningless as a pin.
    if (!parse_int(stmt.value, 0, TableMorselSource::kMaxWorkers, &threads)) {
      return Status::InvalidArgument(
          "threads must be 1.." +
          std::to_string(TableMorselSource::kMaxWorkers) +
          ", or 0 to follow the governor's budget");
    }
    // Per-connection override: this connection's parallel pipelines use
    // exactly `threads` workers; other connections keep following the
    // governor's (possibly reactive) budget. 0 clears the override.
    thread_override_ = static_cast<int>(threads);
    return ok_result();
  }
  if (name == "priority") {
    if (stmt.value.empty()) {
      // Readback: this connection's fair-share class.
      const char* level = priority_class_ == 0
                              ? "low"
                              : (priority_class_ == 2 ? "high" : "normal");
      return SingleValueResult("priority", Value::Varchar(level));
    }
    // Weight divides the scheduler's thread budget across concurrent
    // queries; class orders the admission queue. Takes effect on this
    // connection's next statement.
    if (StringUtil::CIEquals(stmt.value, "low")) {
      priority_weight_ = 1;
      priority_class_ = 0;
    } else if (StringUtil::CIEquals(stmt.value, "normal")) {
      priority_weight_ = 2;
      priority_class_ = 1;
    } else if (StringUtil::CIEquals(stmt.value, "high")) {
      priority_weight_ = 4;
      priority_class_ = 2;
    } else {
      return Status::InvalidArgument(
          "priority must be low, normal or high");
    }
    return ok_result();
  }
  if (name == "admission_limit") {
    if (stmt.value.empty()) {
      // Readback: concurrent statements admitted right now before new
      // arrivals queue (0 = auto: 4x the governor's thread cap).
      return SingleValueResult(
          "admission_limit",
          Value::BigInt(db_->admission().max_active()));
    }
    long limit = 0;
    if (!parse_int(stmt.value, 0, 1 << 20, &limit)) {
      return Status::InvalidArgument(
          "admission_limit must be >= 1, or 0 for auto (4x thread cap)");
    }
    db_->admission().SetMaxActive(static_cast<int>(limit));
    return ok_result();
  }
  if (name == "admission_queue_depth") {
    if (stmt.value.empty()) {
      return SingleValueResult(
          "admission_queue_depth",
          Value::BigInt(db_->admission().queue_depth()));
    }
    long depth = 0;
    if (!parse_int(stmt.value, 0, 1 << 20, &depth)) {
      return Status::InvalidArgument(
          "admission_queue_depth must be >= 0 (0 sheds instead of queueing)");
    }
    db_->admission().SetQueueDepth(static_cast<int>(depth));
    return ok_result();
  }
  if (name == "admission_timeout_ms") {
    if (stmt.value.empty()) {
      return SingleValueResult(
          "admission_timeout_ms",
          Value::BigInt(static_cast<int64_t>(db_->admission().timeout_ms())));
    }
    long timeout = 0;
    if (!parse_int(stmt.value, 1, 1L << 40, &timeout)) {
      return Status::InvalidArgument("admission_timeout_ms must be >= 1");
    }
    db_->admission().SetTimeoutMs(static_cast<uint64_t>(timeout));
    return ok_result();
  }
  if (name == "scheduler_stats") {
    // One row of shared-pool counters; the fairness tests use
    // tasks_executed as a progress proxy and active_queries to observe
    // concurrent registration.
    SchedulerStats stats = db_->scheduler().GetStats();
    return CountersResult(
        {"tasks_executed", "runs", "active_queries", "pool_size"},
        {stats.tasks_executed, stats.runs,
         static_cast<uint64_t>(stats.active_queries),
         static_cast<uint64_t>(stats.pool_size)});
  }
  if (name == "admission_stats") {
    AdmissionStats stats = db_->admission().GetStats();
    return CountersResult(
        {"admitted", "queued", "shed", "timeouts", "active", "waiting"},
        {stats.admitted, stats.queued, stats.shed, stats.timeouts,
         static_cast<uint64_t>(stats.active),
         static_cast<uint64_t>(stats.waiting)});
  }
  if (name == "plan_cache_stats") {
    PlanCacheStats stats = db_->plan_cache().GetStats();
    return CountersResult(
        {"hits", "misses", "evictions", "invalidations", "busy_skips",
         "uncacheable", "entries"},
        {stats.hits, stats.misses, stats.evictions, stats.invalidations,
         stats.busy_skips, stats.uncacheable, stats.entries});
  }
  if (name == "reactive") {
    db_->governor().SetReactive(StringUtil::CIEquals(stmt.value, "true") ||
                                stmt.value == "1");
    return ok_result();
  }
  if (name == "compression") {
    if (StringUtil::CIEquals(stmt.value, "none")) {
      db_->governor().SetCompressionLevel(CompressionLevel::kNone);
    } else if (StringUtil::CIEquals(stmt.value, "light")) {
      db_->governor().SetCompressionLevel(CompressionLevel::kLight);
    } else if (StringUtil::CIEquals(stmt.value, "heavy")) {
      db_->governor().SetCompressionLevel(CompressionLevel::kHeavy);
    } else {
      return Status::InvalidArgument(
          "compression must be none, light or heavy");
    }
    return ok_result();
  }
  if (name == "plan_cache") {
    bool enable = StringUtil::CIEquals(stmt.value, "true") ||
                  StringUtil::CIEquals(stmt.value, "on") ||
                  stmt.value == "1";
    plan_cache_enabled_ = enable;
    // Turning the cache off drops the shared cache's plans too — the
    // PRAGMA's contract is "stop holding plans", not just "stop using
    // them on this connection".
    if (!enable) db_->plan_cache().Clear();
    return ok_result();
  }
  if (name == "memtest_on_allocation") {
    db_->buffers().EnableAllocationTesting(
        StringUtil::CIEquals(stmt.value, "true") || stmt.value == "1");
    return ok_result();
  }
  if (name == "wal_commit_mode") {
    WriteAheadLog* wal = db_->wal();
    if (stmt.value.empty()) {
      // Readback: the durability contract commits on this database get
      // right now (in-memory databases have no WAL and report "none").
      const char* mode =
          wal == nullptr
              ? "none"
              : (wal->commit_mode() == WalCommitMode::kAsync ? "async"
                                                             : "sync");
      return SingleValueResult("wal_commit_mode", Value::Varchar(mode));
    }
    if (wal == nullptr) {
      return Status::InvalidArgument(
          "wal_commit_mode requires a persistent database");
    }
    if (StringUtil::CIEquals(stmt.value, "sync")) {
      // Switching to sync flushes everything already acknowledged, so
      // the stronger guarantee holds from this statement's return.
      MALLARD_RETURN_NOT_OK(wal->SetCommitMode(WalCommitMode::kSync));
    } else if (StringUtil::CIEquals(stmt.value, "async")) {
      MALLARD_RETURN_NOT_OK(wal->SetCommitMode(WalCommitMode::kAsync));
    } else {
      return Status::InvalidArgument("wal_commit_mode must be sync or async");
    }
    return ok_result();
  }
  if (name == "wal_stats") {
    // One row of WAL counters; the group-commit tests assert that
    // `fsyncs` stays well below `commits` under concurrent writers.
    if (db_->wal() == nullptr) {
      return Status::InvalidArgument(
          "wal_stats requires a persistent database");
    }
    WalStats stats = db_->wal()->GetStats();
    return CountersResult(
        {"commits", "fsyncs", "flushes", "group_commits", "max_group",
         "async_acks", "flush_errors", "bytes_written", "pending_bytes",
         "torn_tail_recoveries"},
        {stats.commits, stats.fsyncs, stats.flushes, stats.group_commits,
         stats.max_group, stats.async_acks, stats.flush_errors,
         stats.bytes_written, stats.pending_bytes,
         stats.torn_tail_recoveries});
  }
  if (name == "checkpoint_stats") {
    // One row of checkpoint counters; the incremental-checkpoint tests
    // assert that an unchanged table is carried over, not rewritten.
    if (db_->in_memory()) {
      return Status::InvalidArgument(
          "checkpoint_stats requires a persistent database");
    }
    CheckpointStats stats = db_->checkpoint_stats();
    return CountersResult(
        {"checkpoints", "groups_written", "groups_reused", "blocks_written"},
        {stats.checkpoints, stats.groups_written, stats.groups_reused,
         stats.blocks_written});
  }
  if (name == "statement_timeout_ms") {
    if (stmt.value.empty()) {
      // Readback: this connection's per-statement wall-clock budget.
      return SingleValueResult(
          "statement_timeout_ms",
          Value::BigInt(static_cast<int64_t>(statement_timeout_ms_)));
    }
    long ms = 0;
    if (!parse_int(stmt.value, 0, 1L << 40, &ms)) {
      return Status::InvalidArgument(
          "statement_timeout_ms must be >= 0 (0 disables the timeout)");
    }
    statement_timeout_ms_ = static_cast<uint64_t>(ms);
    return ok_result();
  }
  if (name == "salvage_mode") {
    if (stmt.value.empty()) {
      return SingleValueResult("salvage_mode",
                               Value::Boolean(db_->config().salvage_mode));
    }
    bool on;
    if (StringUtil::CIEquals(stmt.value, "on") ||
        StringUtil::CIEquals(stmt.value, "true") || stmt.value == "1") {
      on = true;
    } else if (StringUtil::CIEquals(stmt.value, "off") ||
               StringUtil::CIEquals(stmt.value, "false") ||
               stmt.value == "0") {
      on = false;
    } else {
      return Status::InvalidArgument("salvage_mode must be on or off");
    }
    db_->config().salvage_mode = on;
    return ok_result();
  }
  if (name == "resilience_stats") {
    // One row of corruption/retry counters, process-wide: what the I/O
    // retry layer absorbed, what the checksums caught, what salvage mode
    // skipped, and what the scrubber has verified.
    ResilienceStats& s = GlobalResilienceStats();
    return CountersResult(
        {"io_attempts", "io_retries", "retry_successes", "retry_exhausted",
         "backoff_waits", "backoff_micros", "block_checksum_failures",
         "spill_checksum_failures", "quarantined_row_groups",
         "salvage_skipped_groups", "salvage_skipped_rows", "scrub_runs",
         "scrub_objects", "scrub_failures"},
        {s.io_attempts.load(), s.io_retries.load(), s.retry_successes.load(),
         s.retry_exhausted.load(), s.backoff_waits.load(),
         s.backoff_micros.load(), s.block_checksum_failures.load(),
         s.spill_checksum_failures.load(), s.quarantined_row_groups.load(),
         s.salvage_skipped_groups.load(), s.salvage_skipped_rows.load(),
         s.scrub_runs.load(), s.scrub_objects.load(),
         s.scrub_failures.load()});
  }
  if (name == "integrity_check") {
    // Online scrub: every live block, the WAL, every table row group.
    // Result set: one row per damaged object plus a summary row per
    // category, so a clean database reads as a handful of "ok" rows and
    // a damaged one names exactly what to restore or salvage.
    IntegrityScrubber scrubber(db_->blocks(), db_->wal(), &db_->catalog(),
                               &db_->governor());
    ScrubReport report = scrubber.Run();
    std::vector<std::string> names = {"object", "status", "detail"};
    std::vector<TypeId> types(3, TypeId::kVarchar);
    std::vector<std::unique_ptr<DataChunk>> chunks;
    idx_t emitted = 0;
    while (emitted < report.findings.size()) {
      idx_t n = std::min<idx_t>(kVectorSize, report.findings.size() - emitted);
      auto chunk = std::make_unique<DataChunk>();
      chunk->Initialize(types);
      for (idx_t i = 0; i < n; i++) {
        const ScrubFinding& f = report.findings[emitted + i];
        chunk->SetValue(0, i, Value::Varchar(f.object));
        chunk->SetValue(1, i, Value::Varchar(f.ok ? "ok" : "corrupt"));
        chunk->SetValue(2, i, Value::Varchar(f.detail));
      }
      chunk->SetCardinality(n);
      chunks.push_back(std::move(chunk));
      emitted += n;
    }
    return std::make_unique<MaterializedQueryResult>(
        std::move(names), std::move(types), std::move(chunks));
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
  Planner planner(&db_->catalog(), &db_->governor());
  MALLARD_ASSIGN_OR_RETURN(auto plan, planner.PlanStatement(*statements[0]));
  PhysicalOperator* raw = plan.plan.get();
  return StreamPlan(std::move(plan.plan), raw, std::move(plan.names),
                    std::move(plan.types));
}

Result<std::unique_ptr<StreamingQueryResult>> Connection::StreamPlan(
    std::unique_ptr<PhysicalOperator> owned_plan, PhysicalOperator* plan,
    std::vector<std::string> names, std::vector<TypeId> types,
    std::shared_ptr<void> lease) {
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
      owns, std::move(txn), std::move(lease), std::move(ticket),
      std::move(slot));
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
  Planner planner(&db_->catalog(), &db_->governor());
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
    PhysicalOperator* plan, std::vector<std::string> names,
    std::vector<TypeId> types, bool owns_transaction,
    std::unique_ptr<Transaction> txn, std::shared_ptr<void> lease,
    std::unique_ptr<QueryTicket> ticket, std::shared_ptr<void> admission)
    : QueryResult(std::move(names), std::move(types)),
      connection_(connection),
      owned_plan_(std::move(owned_plan)),
      plan_(plan),
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
  MALLARD_RETURN_NOT_OK(context.CheckInterrupt());
  auto chunk = std::make_unique<DataChunk>();
  chunk->Initialize(types_);
  MALLARD_RETURN_NOT_OK(plan_->GetChunk(&context, chunk.get()));
  if (chunk->size() == 0) {
    MALLARD_RETURN_NOT_OK(Close());
    return std::unique_ptr<DataChunk>();
  }
  return chunk;
}

Status StreamingQueryResult::Close() {
  if (done_) return Status::OK();
  done_ = true;
  lease_.reset();  // the borrowed plan may be rewound/re-planned again
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
