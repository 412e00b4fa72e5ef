#include "mallard/transaction/transaction_manager.h"

#include <algorithm>

#include "mallard/storage/table/row_group.h"
#include "mallard/storage/wal.h"

namespace mallard {

std::unique_ptr<Transaction> TransactionManager::Begin() {
  std::lock_guard<std::mutex> guard(mutex_);
  uint64_t txn_id = kTransactionIdBase + next_txn_offset_++;
  auto txn = std::make_unique<Transaction>(txn_id, commit_counter_);
  active_.push_back(txn.get());
  return txn;
}

void TransactionManager::StampCommitted(Transaction* txn,
                                        uint64_t commit_id) {
  // Each Commit* takes the row group's unique lock internally.
  for (const auto& entry : txn->appends()) {
    entry.row_group->CommitAppend(commit_id, entry.start, entry.count);
  }
  for (const auto& entry : txn->deletes()) {
    entry.row_group->CommitDelete(commit_id, entry.rows);
  }
  for (const auto& entry : txn->updates()) {
    entry.row_group->CommitUpdate(commit_id, entry.info);
  }
}

void TransactionManager::RemoveActive(Transaction* txn) {
  active_.erase(std::remove(active_.begin(), active_.end(), txn),
                active_.end());
}

TransactionManager::CommitBlock::CommitBlock(TransactionManager* manager)
    : manager_(manager) {
  manager_->commit_gate_.lock();
  manager_->commits_blocked_.store(true);
}

TransactionManager::CommitBlock::~CommitBlock() {
  manager_->commits_blocked_.store(false);
  manager_->commit_gate_.unlock();
}

Status TransactionManager::CommitInternal(Transaction* txn, bool write_wal) {
  // Shared commit gate, held from the WAL write through stamping: a
  // checkpoint (exclusive holder) can therefore never truncate the WAL
  // between a commit's durability and its visibility — the window in
  // which an acknowledged commit exists only in the log.
  std::shared_lock<std::shared_mutex> gate(commit_gate_);
  if (write_wal && wal_ && !txn->wal_records().empty()) {
    txn->wal_records().push_back(wal_record::Commit());
    // Deliberately outside mutex_: concurrent committers run into the
    // WAL's group-commit queue in parallel and share one fsync instead
    // of serializing the whole commit path on a per-commit sync.
    Status wal_status = wal_->WriteCommit(txn->wal_records());
    if (!wal_status.ok()) {
      // Durability cannot be guaranteed: abort instead of committing.
      gate.unlock();
      Rollback(txn);
      return Status::IOError("commit aborted, WAL write failed: " +
                             wal_status.message());
    }
  }
  std::lock_guard<std::mutex> guard(mutex_);
  uint64_t commit_id = ++commit_counter_;
  txn->set_commit_id(commit_id);
  StampCommitted(txn, commit_id);
  RemoveActive(txn);
  committed_++;
  // Periodic undo-chain garbage collection.
  if (cleanup_hook_ && (committed_ % 64 == 0 || active_.empty())) {
    uint64_t lowest = commit_counter_;
    for (const Transaction* t : active_) {
      lowest = std::min(lowest, t->start_id());
    }
    cleanup_hook_(lowest);
  }
  return Status::OK();
}

Status TransactionManager::Commit(Transaction* txn) {
  return CommitInternal(txn, /*write_wal=*/true);
}

Status TransactionManager::CommitWithoutWal(Transaction* txn) {
  return CommitInternal(txn, /*write_wal=*/false);
}

void TransactionManager::UndoAll(Transaction* txn) {
  // Undo in reverse order so later updates of the same row are rolled
  // back before earlier ones (each revert takes its row group's unique
  // lock internally).
  for (auto it = txn->updates().rbegin(); it != txn->updates().rend(); ++it) {
    it->row_group->RollbackUpdate(it->column_index, it->info);
  }
  for (const auto& entry : txn->deletes()) {
    entry.row_group->RevertDelete(entry.rows);
  }
  for (const auto& entry : txn->appends()) {
    entry.row_group->RevertAppend(entry.start, entry.count);
  }
}

void TransactionManager::Rollback(Transaction* txn) {
  std::lock_guard<std::mutex> guard(mutex_);
  UndoAll(txn);
  RemoveActive(txn);
}

uint64_t TransactionManager::LowestActiveStart() const {
  std::lock_guard<std::mutex> guard(mutex_);
  uint64_t lowest = commit_counter_;
  for (const Transaction* t : active_) {
    lowest = std::min(lowest, t->start_id());
  }
  return lowest;
}

bool TransactionManager::HasActiveTransactions() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return !active_.empty();
}

}  // namespace mallard
