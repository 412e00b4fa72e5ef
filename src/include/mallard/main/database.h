/**
 * @file database.h
 * @brief Database: the embedded instance a host application links in.
 *
 * Lifetime: the Database must outlive every Connection, Appender,
 * PreparedStatement and streaming result created from it.
 * Thread safety: one Database may be shared across threads; open one
 * Connection per thread (MVCC isolates them).
 */
#ifndef MALLARD_MAIN_DATABASE_H_
#define MALLARD_MAIN_DATABASE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>

#include "mallard/catalog/catalog.h"
#include "mallard/common/result.h"
#include "mallard/governor/resource_governor.h"
#include "mallard/main/config.h"
#include "mallard/main/plan_cache.h"
#include "mallard/parallel/task_scheduler.h"
#include "mallard/storage/block_manager.h"
#include "mallard/storage/buffer_manager.h"
#include "mallard/storage/checkpoint.h"
#include "mallard/storage/wal.h"
#include "mallard/transaction/transaction_manager.h"

namespace mallard {

/// The embedded database instance: a single file on disk (plus a WAL
/// side file) or a transient in-memory database, living in the host
/// application's process (paper sections 1 and 6).
class Database {
 public:
  /// Opens (creating if needed) the database at `path`.
  ///
  /// \param path   filesystem path of the single database file (a
  ///               `.wal` side file is created next to it); "" or
  ///               ":memory:" opens a transient in-memory database.
  /// \param config resource/behavior knobs, see DBConfig.
  /// \return the instance, or a Status describing why the file could
  ///         not be opened, recovered or created.
  static Result<std::unique_ptr<Database>> Open(const std::string& path,
                                                DBConfig config = {});
  /// Closes the database; persistent databases are checkpointed if no
  /// transactions are active.
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  bool in_memory() const { return blocks_ == nullptr; }
  const std::string& path() const { return path_; }
  DBConfig& config() { return config_; }

  Catalog& catalog() { return catalog_; }
  TransactionManager& transactions() { return transactions_; }
  BufferManager& buffers() { return *buffers_; }
  ResourceGovernor& governor() { return *governor_; }
  BlockManager* blocks() { return blocks_.get(); }
  WriteAheadLog* wal() { return wal_.get(); }

  /// The morsel-driven scheduler. The object exists from Open (it is a
  /// queue + empty pool, no lock needed to reach it); worker threads
  /// spawn lazily on the first parallel pipeline run — see
  /// docs/CONCURRENCY.md. Thread-safe.
  TaskScheduler& scheduler() { return *scheduler_; }

  /// The admission gate every statement passes before executing.
  /// Thread-safe.
  AdmissionController& admission() { return *admission_; }

  /// The cross-connection shared plan cache behind Connection::Query.
  /// Thread-safe.
  SharedPlanCache& plan_cache() { return plan_cache_; }

  /// Hands each new Connection a unique session id (the unit of fair
  /// scheduling and round-robin task pickup). Thread-safe.
  uint64_t NextSessionId() { return next_session_id_.fetch_add(1); }

  /// Writes an online checkpoint and truncates the WAL. Commits are
  /// briefly blocked (they queue on the commit gate); readers and
  /// in-flight statements proceed on their MVCC snapshots throughout.
  /// Only row groups changed by a commit since the last checkpoint are
  /// rewritten; the rest keep their blocks.
  Status Checkpoint();

  /// Cumulative counters of the successful checkpoints since Open
  /// (`PRAGMA checkpoint_stats`). Thread-safe; waits for a running
  /// checkpoint to finish.
  CheckpointStats checkpoint_stats();

  /// Retry, checksum, quarantine, salvage and scrub counters of this
  /// Database since Open (`PRAGMA resilience_stats`). Another Database
  /// in the same process keeps its own.
  ResilienceStats& resilience_stats() { return resilience_stats_; }
  /// Segment encode/decode/code-space-filter counts of this Database's
  /// tables since Open (`PRAGMA storage_stats`).
  const EncodingCounters& encoding_counters() const {
    return encoding_counters_;
  }

 private:
  explicit Database(DBConfig config);

  Status Initialize(const std::string& path);

  DBConfig config_;
  std::string path_;
  // Declared before every member that is handed a pointer to them.
  ResilienceStats resilience_stats_;
  EncodingCounters encoding_counters_;
  Catalog catalog_;
  TransactionManager transactions_;
  std::unique_ptr<BufferManager> buffers_;
  std::unique_ptr<ResourceGovernor> governor_;
  std::unique_ptr<BlockManager> blocks_;
  std::unique_ptr<WriteAheadLog> wal_;
  std::unique_ptr<AdmissionController> admission_;
  SharedPlanCache plan_cache_;
  std::atomic<uint64_t> next_session_id_{1};
  std::mutex checkpoint_lock_;
  CheckpointStats checkpoint_stats_;  // guarded by checkpoint_lock_
  // Declared last: destroyed first, so pool threads are gone before any
  // engine state they might reference.
  std::unique_ptr<TaskScheduler> scheduler_;
};

}  // namespace mallard

#endif  // MALLARD_MAIN_DATABASE_H_
