#ifndef MALLARD_STORAGE_WAL_H_
#define MALLARD_STORAGE_WAL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "mallard/catalog/catalog.h"
#include "mallard/common/serializer.h"
#include "mallard/storage/file_handle.h"
#include "mallard/vector/data_chunk.h"

namespace mallard {

class TransactionManager;
class ResourceGovernor;

/// WAL record kinds. Records of one transaction are written contiguously
/// and terminated by a kCommit marker; replay applies only complete
/// groups, so a torn tail never surfaces partial transactions.
enum class WalRecordType : uint8_t {
  kCreateTable = 1,
  kDropTable,
  kCreateView,
  kDropView,
  kAppend,
  kDelete,
  kUpdate,
  kCommit,
};

/// Builders for serialized WAL record payloads.
namespace wal_record {
std::vector<uint8_t> CreateTable(const std::string& name,
                                 const std::vector<ColumnDefinition>& cols);
std::vector<uint8_t> DropTable(const std::string& name);
std::vector<uint8_t> CreateView(const std::string& name,
                                const std::string& sql,
                                const std::vector<std::string>& aliases);
std::vector<uint8_t> DropView(const std::string& name);
std::vector<uint8_t> Append(const std::string& table, const DataChunk& chunk);
std::vector<uint8_t> Delete(const std::string& table, const int64_t* row_ids,
                            idx_t count);
std::vector<uint8_t> Update(const std::string& table,
                            const std::vector<idx_t>& columns,
                            const int64_t* row_ids, idx_t count,
                            const DataChunk& values);
std::vector<uint8_t> Commit();
}  // namespace wal_record

/// When a commit is acknowledged relative to WAL durability.
enum class WalCommitMode : uint8_t {
  /// Acknowledge only after the transaction's records are fsynced.
  /// Concurrent committers share fsyncs via group commit.
  kSync = 0,
  /// Acknowledge after the in-memory append; a background flusher
  /// fsyncs on a governor-timed interval. Bounded data loss on crash
  /// (at most one flush interval), never a torn or inconsistent state.
  kAsync = 1,
};

/// Counters behind `PRAGMA wal_stats`. All cumulative since Open.
struct WalStats {
  uint64_t commits = 0;        // WriteCommit calls acknowledged OK
  uint64_t fsyncs = 0;         // commit-path fsync syscalls issued
  uint64_t flushes = 0;        // leader/flusher batches written
  uint64_t group_commits = 0;  // commits that shared a flush with others
  uint64_t max_group = 0;      // largest commit count in one flush
  uint64_t async_acks = 0;     // commits acknowledged before durability
  uint64_t flush_errors = 0;   // async flushes that failed (data dropped)
  uint64_t bytes_written = 0;  // framed bytes appended to the log
  uint64_t pending_bytes = 0;  // async bytes not yet flushed (snapshot)
  uint64_t torn_tail_recoveries = 0;  // replays that truncated a torn tail
};

/// Write-ahead log in a separate file next to the database file (paper
/// section 6). Each record is framed [len u32][crc32c u32][payload]; the
/// CRC detects both bit rot and torn tail writes, and replay truncates at
/// the first bad frame.
///
/// Commit durability is group-committed: concurrent committing
/// connections enqueue their framed transaction, the first to arrive
/// becomes the flush leader and writes + fsyncs every queued batch in one
/// pass while followers wait; whoever queued during that flush leads the
/// next one. A failed append or fsync truncates the file back to the last
/// durable prefix so a retried commit writes fresh frames onto a clean
/// log. See docs/ARCHITECTURE.md "Durability".
class WriteAheadLog {
 public:
  /// Append retries count into `stats`.
  static Result<std::unique_ptr<WriteAheadLog>> Open(const std::string& path,
                                                     ResilienceStats* stats);
  ~WriteAheadLog();

  /// Appends all records of one committing transaction, acknowledging
  /// per the current commit mode (fsynced in kSync, queued in kAsync).
  Status WriteCommit(const std::vector<std::vector<uint8_t>>& records);

  /// Replays committed transaction groups into the catalog. Returns the
  /// number of transactions applied. `txn_manager` supplies replay
  /// transactions that commit without re-writing the WAL.
  ///
  /// `expected_generation` is the database header's checkpoint iteration.
  /// The log carries the generation of the checkpoint that last truncated
  /// it; a mismatch means the log predates the current root (the process
  /// died after the root swap became durable but before the truncation)
  /// — its transactions are already in the checkpoint image, so replaying
  /// them would duplicate rows. Such a stale log is discarded and
  /// re-initialized instead of replayed.
  Result<idx_t> Replay(Catalog* catalog, TransactionManager* txn_manager,
                       uint64_t expected_generation);

  /// Truncates the log after a checkpoint whose root swap is already
  /// durable, stamping `generation` (the new header iteration) so replay
  /// can tell this fresh log from a stale one. Pending async batches are
  /// discarded: every acknowledged commit is already stamped in memory
  /// and therefore part of the checkpoint image being truncated against.
  /// On failure the log is left stale and further commits are refused
  /// until a truncation succeeds (a crash in that state must not lose
  /// acknowledged commits to the generation check).
  Status Truncate(uint64_t generation);

  /// Switches the commit mode. Entering kSync flushes everything pending
  /// so the stronger guarantee holds from the PRAGMA's return onward;
  /// entering kAsync lazily starts the background flusher.
  Status SetCommitMode(WalCommitMode mode);
  WalCommitMode commit_mode() const { return commit_mode_.load(); }

  /// Forces pending async batches to disk (fsync included).
  Status FlushPending();

  /// Governor consulted by the async flusher for its sleep interval.
  void SetGovernor(const ResourceGovernor* governor) { governor_ = governor; }

  WalStats GetStats() const;

  /// Scrubber probe: re-reads the durable log from disk and verifies
  /// the header magic plus every frame CRC, holding the flush token so
  /// no append is in flight. `frames` (optional) receives the number of
  /// frames verified. Corruption here is reported, not repaired — the
  /// log stays untouched for Replay's torn-tail/mid-stream decision.
  Status VerifyFrames(uint64_t* frames);

  /// Benchmark baseline: disables the commit queue so every committer
  /// appends and fsyncs alone (the pre-group-commit behavior).
  void EnableGroupCommitForTest(bool enable) { group_commit_ = enable; }
  /// Test seam: sleep before each commit-path fsync so concurrency tests
  /// deterministically observe followers piling onto one leader flush.
  void SetFsyncDelayForTest(uint32_t micros) { fsync_delay_us_ = micros; }

  Result<uint64_t> SizeBytes() const;
  const std::string& path() const { return path_; }

 private:
  WriteAheadLog(std::string path, std::unique_ptr<FileHandle> file,
                ResilienceStats* stats)
      : path_(std::move(path)), file_(std::move(file)), resilience_(stats) {}

  Status ApplyRecord(BinaryReader* reader, WalRecordType type,
                     Catalog* catalog, Transaction* txn);

  /// Frames `records` as [len][crc][payload]* into one contiguous batch
  /// (runs the kWalWrite bit-flip injection like before).
  std::vector<uint8_t> FrameRecords(
      const std::vector<std::vector<uint8_t>>& records);

  /// Appends `batch` and fsyncs, holding the flush token. On any failure
  /// the file is truncated back to its pre-append size so the log always
  /// ends on a durable frame boundary. Fault sites: kWalAppend (error or
  /// half-written batch + kill), kWalFsync (error or kill before sync).
  Status AppendAndSync(const std::vector<uint8_t>& batch);

  Status CommitSync(std::vector<uint8_t> batch);
  Status CommitAsync(std::vector<uint8_t> batch);

  /// Writes + fsyncs the 16-byte log header [magic][generation] at
  /// offset 0.
  Status WriteWalHeader(uint64_t generation);

  /// Blocks until no flush is in progress and claims the token. Caller
  /// must hold `mutex_` (the lock is used for the wait).
  void AcquireFlushToken(std::unique_lock<std::mutex>* lock);
  void ReleaseFlushToken();

  void FlusherLoop();
  void StartFlusherLocked();

  struct CommitRequest {
    std::vector<uint8_t> batch;
    bool done = false;
    Status status;
  };

  std::string path_;
  std::unique_ptr<FileHandle> file_;
  ResilienceStats* resilience_;
  const ResourceGovernor* governor_ = nullptr;

  std::atomic<WalCommitMode> commit_mode_{WalCommitMode::kSync};
  std::atomic<bool> group_commit_{true};
  std::atomic<uint32_t> fsync_delay_us_{0};
  // Set when a truncation failed: the log's generation no longer matches
  // the durable root, so appended commits would be skipped by replay.
  // Commits are refused until a truncation succeeds.
  std::atomic<bool> truncate_failed_{false};

  // All mutable flush state below is guarded by mutex_; the file itself
  // is written only by the holder of the flush token.
  mutable std::mutex mutex_;
  std::condition_variable cv_;          // commit done / token released
  std::condition_variable flusher_cv_;  // async flusher wakeups
  std::condition_variable gather_cv_;   // a committer joined queue_
  std::deque<CommitRequest*> queue_;    // sync-mode committers
  // Group commit pacing: the size a leader waits for (the last group
  // plus the committers that queued during its flush) and how long that
  // flush took, which bounds the wait.
  size_t expected_group_ = 1;
  uint64_t last_flush_us_ = 0;
  std::vector<uint8_t> pending_;        // async-mode unflushed batches
  bool flush_in_progress_ = false;
  bool shutdown_ = false;
  std::thread flusher_;
  uint64_t file_size_ = 0;  // durable log end (token holder writes it)

  WalStats stats_;
};

}  // namespace mallard

#endif  // MALLARD_STORAGE_WAL_H_
