#include "mallard/storage/table/row_group.h"

#include <mutex>

#include <algorithm>

namespace mallard {

RowGroup::RowGroup(idx_t start, const std::vector<TypeId>& types,
                   EncodingCounters* counters)
    : start_(start), types_(types) {
  columns_.reserve(types.size());
  updates_.resize(types.size());
  for (TypeId type : types) {
    columns_.push_back(std::make_unique<ColumnSegment>(type, counters));
  }
}

std::unique_ptr<RowGroup> RowGroup::Quarantined(
    idx_t start, const std::vector<TypeId>& types, idx_t count,
    std::string reason) {
  auto rg = std::make_unique<RowGroup>(start, types, nullptr);
  // Drop the freshly allocated (empty) segments: a quarantined group must
  // never serve data, and keeping them would invite a path that reads
  // zeros where real rows used to be.
  rg->columns_.clear();
  rg->count_ = count;
  rg->quarantined_ = true;
  rg->quarantine_reason_ = std::move(reason);
  return rg;
}

void RowGroup::EnsureInsertedBy() {
  if (!inserted_by_) {
    inserted_by_ =
        std::make_unique<std::vector<uint64_t>>(kRowGroupSize, uint64_t(0));
  }
}

void RowGroup::EnsureDeletedBy() {
  if (!deleted_by_) {
    deleted_by_ =
        std::make_unique<std::vector<uint64_t>>(kRowGroupSize, kNotDeleted);
  }
}

idx_t RowGroup::Append(Transaction* txn, const DataChunk& chunk,
                       idx_t chunk_offset, idx_t max_count) {
  idx_t space = kRowGroupSize - count_;
  idx_t available = chunk.size() - chunk_offset;
  idx_t to_append = std::min({space, available, max_count});
  if (to_append == 0) return 0;
  for (idx_t c = 0; c < columns_.size(); c++) {
    columns_[c]->Append(chunk.column(c), chunk_offset, count_, to_append);
  }
  EnsureInsertedBy();
  for (idx_t i = 0; i < to_append; i++) {
    (*inserted_by_)[count_ + i] = txn->txn_id();
  }
  txn->RecordAppend(this, count_, to_append);
  count_ += to_append;
  if (count_ == kRowGroupSize) {
    // The row group is full and will never see another append; pick a
    // compressed representation per column. Encoding only changes the
    // physical form, so rows of a transaction that later aborts are
    // unaffected (they stay invisible and compact away at checkpoint).
    for (auto& col : columns_) {
      col->FinalizeEncoding(kRowGroupSize);
    }
  }
  return to_append;
}

void RowGroup::CommitAppend(uint64_t commit_id, idx_t start, idx_t count) {
  std::unique_lock<std::shared_mutex> guard(lock_);
  for (idx_t i = 0; i < count; i++) {
    (*inserted_by_)[start + i] = commit_id;
  }
  persisted_.reset();
}

void RowGroup::RevertAppend(idx_t start, idx_t count) {
  std::unique_lock<std::shared_mutex> guard(lock_);
  for (idx_t i = 0; i < count; i++) {
    (*inserted_by_)[start + i] = kAbortedVersion;
  }
}

Result<idx_t> RowGroup::Delete(Transaction* txn, const uint32_t* rows,
                               idx_t count,
                               std::vector<uint32_t>* deleted_rows) {
  EnsureDeletedBy();
  // First pass: detect conflicts before mutating anything.
  for (idx_t i = 0; i < count; i++) {
    uint64_t del = (*deleted_by_)[rows[i]];
    if (del == kNotDeleted || del == txn->txn_id()) continue;
    if (!txn->IsVisible(del)) {
      return Status::TransactionConflict(
          "conflict: row deleted by a concurrent transaction");
    }
  }
  // Deleting a row that a concurrent transaction updated is also a
  // write-write conflict.
  for (idx_t c = 0; c < updates_.size(); c++) {
    if (updates_[c]) {
      MALLARD_RETURN_NOT_OK(updates_[c]->CheckConflict(*txn, rows, count));
    }
  }
  idx_t deleted = 0;
  for (idx_t i = 0; i < count; i++) {
    uint64_t del = (*deleted_by_)[rows[i]];
    if (del != kNotDeleted) continue;  // already deleted (visibly or by us)
    (*deleted_by_)[rows[i]] = txn->txn_id();
    deleted_rows->push_back(rows[i]);
    deleted++;
  }
  return deleted;
}

void RowGroup::CommitDelete(uint64_t commit_id,
                            const std::vector<uint32_t>& rows) {
  std::unique_lock<std::shared_mutex> guard(lock_);
  for (uint32_t row : rows) {
    (*deleted_by_)[row] = commit_id;
  }
  persisted_.reset();
}

void RowGroup::RevertDelete(const std::vector<uint32_t>& rows) {
  std::unique_lock<std::shared_mutex> guard(lock_);
  for (uint32_t row : rows) {
    (*deleted_by_)[row] = kNotDeleted;
  }
}

Status RowGroup::Update(Transaction* txn, idx_t column_index,
                        const uint32_t* rows, const uint32_t* value_idx,
                        idx_t count, const Vector& new_values) {
  if (!updates_[column_index]) {
    updates_[column_index] =
        std::make_unique<UpdateSegment>(types_[column_index]);
  }
  UpdateSegment& seg = *updates_[column_index];
  MALLARD_RETURN_NOT_OK(seg.CheckConflict(*txn, rows, count));
  // Updating a row deleted by a concurrent transaction conflicts too.
  if (deleted_by_) {
    for (idx_t i = 0; i < count; i++) {
      uint64_t del = (*deleted_by_)[rows[i]];
      if (del != kNotDeleted && del != txn->txn_id() &&
          !txn->IsVisible(del)) {
        return Status::TransactionConflict(
            "conflict: row deleted by a concurrent transaction");
      }
    }
  }
  UpdateInfo* info = seg.Update(*txn, columns_[column_index].get(), rows,
                                value_idx, count, new_values);
  txn->RecordUpdate(this, column_index, info);
  return Status::OK();
}

void RowGroup::CommitUpdate(uint64_t commit_id, UpdateInfo* info) {
  std::unique_lock<std::shared_mutex> guard(lock_);
  info->version = commit_id;
  persisted_.reset();
}

void RowGroup::RollbackUpdate(idx_t column_index, UpdateInfo* info) {
  std::unique_lock<std::shared_mutex> guard(lock_);
  updates_[column_index]->Rollback(columns_[column_index].get(), info);
}

bool RowGroup::RowIsVisible(const Transaction& txn, idx_t row) const {
  if (inserted_by_) {
    uint64_t ins = (*inserted_by_)[row];
    // 0 marks rows loaded from a checkpoint: committed before any
    // currently possible snapshot.
    if (ins != 0 && !txn.IsVisible(ins)) return false;
  }
  if (deleted_by_) {
    uint64_t del = (*deleted_by_)[row];
    if (del != kNotDeleted && txn.IsVisible(del)) return false;
  }
  return true;
}

idx_t RowGroup::VisibleCount(const Transaction& txn) const {
  idx_t visible = 0;
  for (idx_t row = 0; row < count_; row++) {
    if (RowIsVisible(txn, row)) visible++;
  }
  return visible;
}

bool RowGroup::CheckZonemaps(const std::vector<TableFilter>& filters) const {
  for (const auto& filter : filters) {
    // Zone maps are widened by updates, never narrowed, so they stay
    // conservative in the presence of undo chains.
    if (!columns_[filter.column_index]->CheckZonemap(filter.op,
                                                     filter.constant)) {
      return false;
    }
  }
  return true;
}

Value RowGroup::FetchValue(const Transaction& txn, idx_t column_index,
                           idx_t row) const {
  const UpdateSegment* seg = updates_[column_index].get();
  if (seg && seg->HasUpdates()) {
    return seg->GetValueForTransaction(txn, *columns_[column_index], row);
  }
  return columns_[column_index]->GetValue(row);
}

void RowGroup::ReadColumnWindow(const Transaction& txn, idx_t column_index,
                                idx_t offset, idx_t count,
                                Vector* out) const {
  columns_[column_index]->Read(offset, count, out);
  const UpdateSegment* seg = updates_[column_index].get();
  if (seg && seg->HasUpdates()) {
    seg->ApplyUpdates(txn, offset, count, out);
  }
}

void RowGroup::CleanupUpdates(uint64_t lowest_active_start) {
  std::unique_lock<std::shared_mutex> guard(lock_);
  for (auto& seg : updates_) {
    if (seg) seg->Cleanup(lowest_active_start);
  }
}

void RowGroup::SetPersisted(std::vector<GroupChain> chains) {
  std::unique_lock<std::shared_mutex> guard(lock_);
  persisted_ = std::move(chains);
}

bool RowGroup::ForgetChainsUsing(const std::set<block_id_t>& damaged) {
  std::unique_lock<std::shared_mutex> guard(lock_);
  if (!persisted_) return false;
  for (const GroupChain& chain : *persisted_) {
    for (block_id_t id : chain.blocks) {
      if (damaged.count(id)) {
        persisted_.reset();
        return true;
      }
    }
  }
  return false;
}

Result<std::unique_ptr<RowGroup>> RowGroup::Deserialize(
    BinaryReader* reader, idx_t start, const std::vector<TypeId>& types,
    EncodingCounters* counters) {
  uint64_t count;
  MALLARD_RETURN_NOT_OK(reader->ReadU64(&count));
  uint32_t num_columns;
  MALLARD_RETURN_NOT_OK(reader->ReadU32(&num_columns));
  if (num_columns != types.size()) {
    return Status::Corruption("row group column count mismatch");
  }
  auto rg = std::make_unique<RowGroup>(start, types, counters);
  rg->columns_.clear();
  for (TypeId type : types) {
    MALLARD_ASSIGN_OR_RETURN(
        auto segment,
        ColumnSegment::Deserialize(reader, type, count, counters));
    rg->columns_.push_back(std::move(segment));
  }
  rg->count_ = count;
  return rg;
}

Status RowGroup::ValidateIntegrity() const {
  std::shared_lock<std::shared_mutex> guard(lock_);
  if (quarantined_) {
    return Status::Corruption("quarantined: " + quarantine_reason_);
  }
  for (idx_t c = 0; c < columns_.size(); c++) {
    const ColumnSegment& seg = *columns_[c];
    // Encoding invariants: serialize and re-read the segment; the
    // deserializer is the single place that checks dictionary order,
    // code widths and length fields, so the round-trip reuses it.
    BinaryWriter w;
    seg.Serialize(&w, count_);
    BinaryReader r(w.data().data(), w.data().size());
    EncodingCounters uncounted;  // the check is not a storage event
    auto round_trip =
        ColumnSegment::Deserialize(&r, types_[c], count_, &uncounted);
    if (!round_trip.ok()) {
      return Status::Corruption("column " + std::to_string(c) +
                                " failed encoding validation: " +
                                round_trip.status().ToString());
    }
    // Zone maps versus data. In-place updates widen the stats, so every
    // base value must lie inside [min, max] even mid-transaction; the
    // null count is only exact while no undo chain is active.
    idx_t nulls = 0;
    const Value& min = seg.stats_min();
    const Value& max = seg.stats_max();
    for (idx_t row = 0; row < count_; row++) {
      if (!seg.RowIsValid(row)) {
        nulls++;
        continue;
      }
      Value v = seg.GetValue(row);
      if (!min.is_null() && min.type() == v.type() && v.Compare(min) < 0) {
        return Status::Corruption("column " + std::to_string(c) + " row " +
                                  std::to_string(row) + " value " +
                                  v.ToString() + " below zone-map minimum " +
                                  min.ToString());
      }
      if (!max.is_null() && max.type() == v.type() && v.Compare(max) > 0) {
        return Status::Corruption("column " + std::to_string(c) + " row " +
                                  std::to_string(row) + " value " +
                                  v.ToString() + " above zone-map maximum " +
                                  max.ToString());
      }
    }
    bool has_updates = updates_[c] && updates_[c]->HasUpdates();
    if (!has_updates && nulls != seg.null_count()) {
      return Status::Corruption(
          "column " + std::to_string(c) + " validity mask holds " +
          std::to_string(nulls) + " NULLs but zone statistics recorded " +
          std::to_string(seg.null_count()));
    }
  }
  return Status::OK();
}

idx_t RowGroup::MemoryUsage() const {
  idx_t total = 0;
  for (const auto& col : columns_) total += col->MemoryUsage();
  for (const auto& seg : updates_) {
    if (seg) total += seg->MemoryUsage();
  }
  if (inserted_by_) total += kRowGroupSize * 8;
  if (deleted_by_) total += kRowGroupSize * 8;
  return total;
}

}  // namespace mallard
