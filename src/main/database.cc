#include "mallard/main/database.h"

#include <algorithm>
#include <cstdlib>
#include <thread>
#include <vector>

#include "mallard/resilience/memtest.h"
#include "mallard/storage/checkpoint.h"

namespace mallard {

Database::Database(DBConfig config)
    : config_(config), catalog_(&resilience_stats_, &encoding_counters_) {}

Result<std::unique_ptr<Database>> Database::Open(const std::string& path,
                                                 DBConfig config) {
  auto db = std::unique_ptr<Database>(new Database(config));
  MALLARD_RETURN_NOT_OK(db->Initialize(path));
  return db;
}

Status Database::Initialize(const std::string& path) {
  bool persistent = !path.empty() && path != ":memory:";
  path_ = persistent ? path : ":memory:";
  bool memtest = config_.verify_memory;
  if (!memtest) {
    if (const char* env = std::getenv("MALLARD_MEMTEST")) {
      memtest = std::atoi(env) != 0;
    }
  }
  if (memtest) {
    // Open-time self-test over a bounded scratch region — whole-RAM
    // testing is infeasible online (docs/RESILIENCE.md); the goal is to
    // catch a DIMM that is already flipping bits before the engine
    // starts trusting it with user data.
    std::vector<uint8_t> scratch(4ull << 20);
    DirectMemory mem(scratch.data(), scratch.size());
    MALLARD_RETURN_NOT_OK(RunMemorySelfTest(mem));
  }
  // An untouched memory_limit follows the MALLARD_MEMORY_LIMIT
  // environment variable (bytes) when set — CI runs the whole suite
  // under a tight budget this way (mirror of MALLARD_THREADS). An
  // explicit DBConfig value always wins.
  if (config_.memory_limit == DBConfig{}.memory_limit) {
    if (const char* env = std::getenv("MALLARD_MEMORY_LIMIT")) {
      uint64_t bytes = std::strtoull(env, nullptr, 10);
      if (bytes > 0) config_.memory_limit = bytes;
    }
  }
  buffers_ = std::make_unique<BufferManager>(
      config_.memory_limit, persistent ? path + ".tmp" : "",
      &resilience_stats_);
  buffers_->EnableAllocationTesting(config_.memtest_on_allocation);
  GovernorConfig gc;
  gc.total_memory = config_.total_memory;
  gc.dbms_memory_limit = config_.memory_limit;
  // threads <= 0 = auto-detect: the MALLARD_THREADS environment variable
  // when set (CI pins the whole test suite to a thread count this way),
  // else exactly as parallel as the hardware.
  int auto_threads = 0;
  if (const char* env = std::getenv("MALLARD_THREADS")) {
    auto_threads = std::atoi(env);
  }
  if (auto_threads <= 0) {
    auto_threads =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  }
  gc.max_threads = config_.threads > 0 ? config_.threads : auto_threads;
  gc.reactive = config_.reactive;
  governor_ = std::make_unique<ResourceGovernor>(gc);
  governor_->SetBufferManager(buffers_.get());
  // Eviction follows the governor: it works down to the effective
  // (possibly reactive) budget, and spilled buffers compress through the
  // pressure staircase (none under light pressure, RLE, then LZ) —
  // resident intermediates shrink exactly when memory is scarce.
  buffers_->SetSpillPolicy([gov = governor_.get()] {
    return SpillPolicy{gov->ChooseCompressionLevel(),
                       gov->EffectiveMemoryBudget()};
  });
  // Thread-less until the first parallel Run spawns workers.
  scheduler_ = std::make_unique<TaskScheduler>(governor_.get());
  admission_ = std::make_unique<AdmissionController>(governor_.get());
  admission_->SetBufferManager(buffers_.get());
  if (config_.max_active_queries > 0) {
    admission_->SetMaxActive(config_.max_active_queries);
  }
  admission_->SetQueueDepth(config_.admission_queue_depth);
  admission_->SetTimeoutMs(config_.admission_timeout_ms);

  if (persistent) {
    bool created = false;
    MALLARD_ASSIGN_OR_RETURN(
        blocks_, BlockManager::Open(path, config_.enable_checksums, &created,
                                    &resilience_stats_));
    if (!created) {
      MALLARD_RETURN_NOT_OK(LoadCheckpoint(&catalog_, blocks_.get()));
    }
    MALLARD_ASSIGN_OR_RETURN(
        wal_, WriteAheadLog::Open(path + ".wal", &resilience_stats_));
    MALLARD_ASSIGN_OR_RETURN(
        idx_t replayed,
        wal_->Replay(&catalog_, &transactions_, blocks_->header().iteration));
    (void)replayed;
    wal_->SetGovernor(governor_.get());
    transactions_.SetWal(wal_.get());
  }
  transactions_.SetCleanupHook([this](uint64_t lowest) {
    catalog_.ForEachTable(
        [lowest](DataTable* table) { table->CleanupUpdates(lowest); });
  });
  return Status::OK();
}

Status Database::Checkpoint() {
  if (in_memory()) return Status::OK();
  std::lock_guard<std::mutex> guard(checkpoint_lock_);
  // Online checkpoint: only commits stand still (the gate below);
  // readers keep scanning their MVCC snapshots and in-flight writers
  // keep executing — their uncommitted versions are invisible to the
  // checkpoint snapshot and stay recoverable via the WAL once they
  // commit after the gate drops.
  TransactionManager::CommitBlock commit_block(&transactions_);
  auto snapshot = transactions_.Begin();
  Status status = WriteCheckpoint(&catalog_, blocks_.get(), &transactions_,
                                  *snapshot, governor_.get(),
                                  &checkpoint_stats_);
  transactions_.Rollback(snapshot.get());
  MALLARD_RETURN_NOT_OK(status);
  // The WAL may be truncated only now: the new block tree and its root
  // are durable, and the commit gate guarantees no commit is sitting in
  // the WAL-durable-but-not-stamped window. The truncation stamps the
  // new root's iteration into the fresh log, so a crash between the two
  // steps is detected at replay (the stale log is skipped, not
  // re-applied) — the gate is still held here, which is what makes
  // "stale log == fully checkpointed log" true.
  if (wal_) MALLARD_RETURN_NOT_OK(wal_->Truncate(blocks_->header().iteration));
  return Status::OK();
}

CheckpointStats Database::checkpoint_stats() {
  std::lock_guard<std::mutex> guard(checkpoint_lock_);
  return checkpoint_stats_;
}

Database::~Database() {
  if (!in_memory() && config_.checkpoint_on_close &&
      !transactions_.HasActiveTransactions()) {
    // Best-effort final checkpoint; committed data is already durable in
    // the WAL if this fails.
    Status status = Checkpoint();
    (void)status;
  } else if (wal_) {
    // Still flush any async-acknowledged commits before closing.
    Status status = wal_->FlushPending();
    (void)status;
  }
}

}  // namespace mallard
