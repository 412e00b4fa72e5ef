#ifndef MALLARD_STORAGE_TABLE_ROW_GROUP_H_
#define MALLARD_STORAGE_TABLE_ROW_GROUP_H_

#include <memory>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "mallard/storage/meta_block.h"
#include "mallard/storage/table/column_segment.h"
#include "mallard/storage/table/update_segment.h"
#include "mallard/transaction/transaction.h"
#include "mallard/vector/data_chunk.h"

namespace mallard {

/// A filter pushed into a table scan: `column <op> constant`. Checked
/// against zone maps to skip row groups (paper section 6: "skip
/// irrelevant blocks of rows during a scan").
struct TableFilter {
  idx_t column_index;
  CompareOp op;
  Value constant;
};

/// A horizontal partition of a table holding up to kRowGroupSize rows:
/// one ColumnSegment per column, lazily allocated MVCC version arrays
/// (inserted_by / deleted_by per row) and per-column undo chains.
/// A reader-writer lock serializes DML against scans.
class RowGroup {
 public:
  /// `counters` receives the encoding events of the group's segments.
  RowGroup(idx_t start, const std::vector<TypeId>& types,
           EncodingCounters* counters);

  /// Builds a quarantined placeholder for a row group whose checkpoint
  /// payload failed verification. It holds no column data but remembers
  /// its row count so it keeps its positional slot: later groups keep
  /// their row ids, and salvage-mode scans can report exactly how many
  /// rows were skipped. Any attempt to read or mutate it fails with
  /// kCorruption carrying `reason`.
  static std::unique_ptr<RowGroup> Quarantined(idx_t start,
                                               const std::vector<TypeId>& types,
                                               idx_t count, std::string reason);

  idx_t start() const { return start_; }
  idx_t count() const { return count_; }
  idx_t Capacity() const { return kRowGroupSize; }
  const ColumnSegment& column(idx_t i) const { return *columns_[i]; }

  bool quarantined() const { return quarantined_; }
  const std::string& quarantine_reason() const { return quarantine_reason_; }

  std::shared_mutex& lock() { return lock_; }

  /// --- append path (caller holds unique lock) ---------------------------
  /// Appends up to `max_count` rows of `chunk` starting at `chunk_offset`;
  /// rows are tagged with the appending transaction and invisible to
  /// others until commit. Returns rows appended.
  idx_t Append(Transaction* txn, const DataChunk& chunk, idx_t chunk_offset,
               idx_t max_count);
  /// The Commit* stamps mark the group dirty: a committed change is what
  /// makes its checkpointed chains stale, while an uncommitted or
  /// reverted one never does. Each takes the unique lock itself.
  void CommitAppend(uint64_t commit_id, idx_t start, idx_t count);
  void RevertAppend(idx_t start, idx_t count);

  /// --- delete path (caller holds unique lock) ---------------------------
  /// Marks rows deleted by `txn`; skips rows already invisible; returns
  /// the number of rows newly deleted, or a conflict error.
  Result<idx_t> Delete(Transaction* txn, const uint32_t* rows, idx_t count,
                       std::vector<uint32_t>* deleted_rows);
  void CommitDelete(uint64_t commit_id, const std::vector<uint32_t>& rows);
  void RevertDelete(const std::vector<uint32_t>& rows);

  /// --- update path (caller holds unique lock) ---------------------------
  /// In-place update of one column; pre-images go into the undo chain.
  Status Update(Transaction* txn, idx_t column_index, const uint32_t* rows,
                const uint32_t* value_idx, idx_t count,
                const Vector& new_values);
  void CommitUpdate(uint64_t commit_id, UpdateInfo* info);
  void RollbackUpdate(idx_t column_index, UpdateInfo* info);

  /// --- read path (caller holds shared lock) -----------------------------
  /// Row visibility for `txn`.
  bool RowIsVisible(const Transaction& txn, idx_t row) const;
  /// Number of rows visible to `txn`.
  idx_t VisibleCount(const Transaction& txn) const;
  /// Zone-map check of all filters; false = whole row group skippable.
  /// Conservative when the column has uncommitted updates.
  bool CheckZonemaps(const std::vector<TableFilter>& filters) const;
  /// Reads the snapshot value of one row/column for `txn`.
  Value FetchValue(const Transaction& txn, idx_t column_index,
                   idx_t row) const;
  /// Reads a window [offset, offset+count) of a column (base + undo
  /// reconstruction) into `out`.
  void ReadColumnWindow(const Transaction& txn, idx_t column_index,
                        idx_t offset, idx_t count, Vector* out) const;

  const UpdateSegment* update_segment(idx_t col) const {
    return updates_[col].get();
  }

  /// Garbage-collects undo chains (called with unique lock).
  void CleanupUpdates(uint64_t lowest_active_start);

  /// --- checkpoint --------------------------------------------------------
  /// The checkpoint chains that hold exactly this group's committed rows,
  /// or nullopt while the group is dirty: never checkpointed, or a commit
  /// touched it after its chains were written. Caller holds the lock.
  const std::optional<std::vector<GroupChain>>& persisted() const {
    return persisted_;
  }
  /// Records the chains a checkpoint wrote (or a load read) for this
  /// group; the caller must be past the root swap that made them live.
  /// Takes the unique lock.
  void SetPersisted(std::vector<GroupChain> chains);
  /// Marks the group dirty if one of its chains uses a block in
  /// `damaged`, so the next checkpoint rewrites it from memory instead
  /// of carrying the damage into the new root. Returns whether it did.
  /// Takes the unique lock.
  bool ForgetChainsUsing(const std::set<block_id_t>& damaged);

  static Result<std::unique_ptr<RowGroup>> Deserialize(
      BinaryReader* reader, idx_t start, const std::vector<TypeId>& types,
      EncodingCounters* counters);

  idx_t MemoryUsage() const;

  /// --- integrity scrub ----------------------------------------------------
  /// Verifies this group's invariants: every column round-trips through
  /// its serializer (which re-validates dictionary sortedness, packed
  /// widths and length fields on the way back in) and the zone-map
  /// statistics agree with the stored data (min/max bound every live
  /// value, null_count matches the validity mask). Quarantined groups
  /// report their quarantine reason. Takes the shared lock itself.
  Status ValidateIntegrity() const;

 private:
  void EnsureInsertedBy();
  void EnsureDeletedBy();

  idx_t start_;
  std::vector<TypeId> types_;
  idx_t count_ = 0;
  std::vector<std::unique_ptr<ColumnSegment>> columns_;
  std::vector<std::unique_ptr<UpdateSegment>> updates_;  // lazy per column
  /// Version of the inserting transaction per row; null = all committed.
  std::unique_ptr<std::vector<uint64_t>> inserted_by_;
  /// Version of the deleting transaction per row; null = none deleted.
  std::unique_ptr<std::vector<uint64_t>> deleted_by_;
  /// Set when the group's checkpoint payload failed verification: the
  /// placeholder has no column data and every access must error rather
  /// than fabricate rows.
  bool quarantined_ = false;
  std::string quarantine_reason_;
  std::optional<std::vector<GroupChain>> persisted_;
  mutable std::shared_mutex lock_;
};

}  // namespace mallard

#endif  // MALLARD_STORAGE_TABLE_ROW_GROUP_H_
