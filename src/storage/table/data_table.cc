#include "mallard/storage/table/data_table.h"

#include <algorithm>

#include "mallard/common/string_util.h"

namespace mallard {

DataTable::DataTable(std::string table_name,
                     std::vector<ColumnDefinition> columns,
                     ResilienceStats* resilience, EncodingCounters* encoding)
    : name_(std::move(table_name)),
      columns_(std::move(columns)),
      resilience_(resilience),
      encoding_(encoding) {
  types_.reserve(columns_.size());
  for (const auto& col : columns_) {
    types_.push_back(col.type);
  }
}

std::vector<TypeId> DataTable::ColumnTypes() const { return types_; }

idx_t DataTable::ColumnIndex(const std::string& name) const {
  for (idx_t i = 0; i < columns_.size(); i++) {
    if (StringUtil::CIEquals(columns_[i].name, name)) return i;
  }
  return kInvalidIndex;
}

Status DataTable::Append(Transaction* txn, const DataChunk& chunk) {
  if (chunk.ColumnCount() != columns_.size()) {
    return Status::InvalidArgument("appended chunk has wrong column count");
  }
  std::lock_guard<std::mutex> append_guard(append_lock_);
  StatsChange change(this);
  idx_t offset = 0;
  while (offset < chunk.size()) {
    RowGroup* last = nullptr;
    {
      std::shared_lock<std::shared_mutex> guard(row_groups_lock_);
      if (!row_groups_.empty()) last = row_groups_.back().get();
    }
    bool full = false;
    if (last) {
      // count() is written under the row group's unique lock (another
      // transaction's RevertAppend can shrink it concurrently).
      // Quarantined groups are sealed: their placeholder holds the slot
      // but can never accept rows.
      std::shared_lock<std::shared_mutex> rg_guard(last->lock());
      full = last->quarantined() || last->count() == last->Capacity();
    }
    if (!last || full) {
      std::unique_lock<std::shared_mutex> guard(row_groups_lock_);
      row_groups_.push_back(std::make_unique<RowGroup>(
          row_groups_.size() * kRowGroupSize, types_, encoding_));
      last = row_groups_.back().get();
    }
    std::unique_lock<std::shared_mutex> rg_guard(last->lock());
    idx_t appended = last->Append(txn, chunk, offset, chunk.size() - offset);
    offset += appended;
  }
  return Status::OK();
}

void DataTable::InitializeScan(TableScanState* state,
                               std::vector<idx_t> column_ids,
                               std::vector<TableFilter> filters) const {
  state->column_ids = std::move(column_ids);
  state->filters = std::move(filters);
  state->row_group_index = 0;
  state->offset = 0;
  state->zonemap_checked = false;
  state->error = Status::OK();
}

bool DataTable::Scan(const Transaction& txn, TableScanState* state,
                     DataChunk* out) const {
  out->Reset();
  while (true) {
    RowGroup* rg = nullptr;
    {
      std::shared_lock<std::shared_mutex> guard(row_groups_lock_);
      if (state->row_group_index >=
          std::min<idx_t>(row_groups_.size(), state->max_row_group)) {
        return false;
      }
      rg = row_groups_[state->row_group_index].get();
    }
    std::shared_lock<std::shared_mutex> rg_guard(rg->lock());
    if (rg->quarantined()) {
      idx_t rows = rg->count();
      idx_t start = rg->start();
      std::string reason = rg->quarantine_reason();
      rg_guard.unlock();
      if (state->salvage) {
        resilience_->salvage_skipped_groups.fetch_add(1);
        resilience_->salvage_skipped_rows.fetch_add(rows);
        state->row_group_index++;
        state->offset = 0;
        state->zonemap_checked = false;
        continue;
      }
      state->error = Status::Corruption(
          "row group " + std::to_string(state->row_group_index) +
          " of table '" + name_ + "' (rows " + std::to_string(start) + ".." +
          std::to_string(start + rows) + ") is quarantined: " + reason +
          "; PRAGMA salvage_mode=on scans around it");
      return false;
    }
    if (!state->zonemap_checked) {
      state->zonemap_checked = true;
      if (!state->filters.empty() && !rg->CheckZonemaps(state->filters)) {
        rg_guard.unlock();
        encoding_->zonemap_skips.fetch_add(1, std::memory_order_relaxed);
        state->row_group_index++;
        state->offset = 0;
        state->zonemap_checked = false;
        continue;
      }
    }
    idx_t rg_count = rg->count();
    if (state->offset >= rg_count) {
      rg_guard.unlock();
      state->row_group_index++;
      state->offset = 0;
      state->zonemap_checked = false;
      continue;
    }
    idx_t n = std::min<idx_t>(kVectorSize, rg_count - state->offset);
    // Visibility selection over the window.
    uint32_t sel[kVectorSize];
    idx_t m = 0;
    for (idx_t i = 0; i < n; i++) {
      if (rg->RowIsVisible(txn, state->offset + i)) {
        sel[m++] = static_cast<uint32_t>(i);
      }
    }
    if (m == 0) {
      state->offset += n;
      continue;
    }
    // Code-space filtering: each pushed filter prunes the selection
    // against the column segment directly — on encoded segments the
    // constant is translated into code space once and rows compare
    // bit-packed codes, so pruned rows are never materialized. Columns
    // with an active undo chain are skipped here (the base data may not
    // be this transaction's snapshot); the residual filter in the plan
    // recomputes the same predicate, so dropping rows early is safe and
    // keeping them is merely conservative.
    if (!state->filters.empty()) {
      for (const auto& f : state->filters) {
        const UpdateSegment* useg = rg->update_segment(f.column_index);
        if (useg && useg->HasUpdates()) continue;
        m = rg->column(f.column_index)
                .FilterWindow(f.op, f.constant, state->offset, sel, m);
        if (m == 0) break;
      }
      if (m == 0) {
        state->offset += n;
        continue;
      }
    }
    for (idx_t c = 0; c < state->column_ids.size(); c++) {
      idx_t col_id = state->column_ids[c];
      Vector& out_col = out->column(c);
      if (col_id == kRowIdColumn) {
        int64_t* ids = out_col.data<int64_t>();
        for (idx_t i = 0; i < m; i++) {
          ids[i] = static_cast<int64_t>(rg->start() + state->offset + sel[i]);
        }
        continue;
      }
      if (m == n) {
        rg->ReadColumnWindow(txn, col_id, state->offset, n, &out_col);
      } else {
        const UpdateSegment* useg = rg->update_segment(col_id);
        if (useg && useg->HasUpdates()) {
          Vector scratch(types_[col_id]);
          rg->ReadColumnWindow(txn, col_id, state->offset, n, &scratch);
          out_col.CopySelection(scratch, sel, m);
        } else {
          // Late materialization: gather only the surviving rows
          // straight from the (possibly encoded) segment.
          rg->column(col_id).ReadSelection(state->offset, sel, m, &out_col);
        }
      }
    }
    out->SetCardinality(m);
    state->offset += n;
    return true;
  }
}

RowGroup* DataTable::GetRowGroupForRow(idx_t row_id) const {
  idx_t index = row_id / kRowGroupSize;
  std::shared_lock<std::shared_mutex> guard(row_groups_lock_);
  if (index >= row_groups_.size()) return nullptr;
  return row_groups_[index].get();
}

Result<idx_t> DataTable::Delete(Transaction* txn, const Vector& row_ids,
                                idx_t count) {
  const int64_t* ids = row_ids.data<int64_t>();
  idx_t total_deleted = 0;
  idx_t i = 0;
  while (i < count) {
    // Batch consecutive row ids that fall into the same row group.
    idx_t rg_index = static_cast<idx_t>(ids[i]) / kRowGroupSize;
    uint32_t rows[kVectorSize];
    idx_t batch = 0;
    while (i < count &&
           static_cast<idx_t>(ids[i]) / kRowGroupSize == rg_index &&
           batch < kVectorSize) {
      rows[batch++] = static_cast<uint32_t>(ids[i] % kRowGroupSize);
      i++;
    }
    RowGroup* rg = GetRowGroupForRow(rg_index * kRowGroupSize);
    if (!rg) return Status::Internal("delete: row id out of range");
    std::unique_lock<std::shared_mutex> guard(rg->lock());
    if (rg->quarantined()) {
      return Status::Corruption("cannot delete from quarantined row group " +
                                std::to_string(rg_index) + " of table '" +
                                name_ + "': " + rg->quarantine_reason());
    }
    std::vector<uint32_t> deleted_rows;
    MALLARD_ASSIGN_OR_RETURN(idx_t deleted,
                             rg->Delete(txn, rows, batch, &deleted_rows));
    if (!deleted_rows.empty()) {
      txn->RecordDelete(rg, std::move(deleted_rows));
    }
    total_deleted += deleted;
  }
  return total_deleted;
}

Status DataTable::Update(Transaction* txn, const Vector& row_ids, idx_t count,
                         const std::vector<idx_t>& column_indexes,
                         const DataChunk& values) {
  StatsChange change(this);
  const int64_t* ids = row_ids.data<int64_t>();
  idx_t i = 0;
  while (i < count) {
    idx_t rg_index = static_cast<idx_t>(ids[i]) / kRowGroupSize;
    uint32_t rows[kVectorSize];
    uint32_t value_idx[kVectorSize];
    idx_t batch = 0;
    while (i < count &&
           static_cast<idx_t>(ids[i]) / kRowGroupSize == rg_index &&
           batch < kVectorSize) {
      rows[batch] = static_cast<uint32_t>(ids[i] % kRowGroupSize);
      value_idx[batch] = static_cast<uint32_t>(i);
      batch++;
      i++;
    }
    RowGroup* rg = GetRowGroupForRow(rg_index * kRowGroupSize);
    if (!rg) return Status::Internal("update: row id out of range");
    std::unique_lock<std::shared_mutex> guard(rg->lock());
    if (rg->quarantined()) {
      return Status::Corruption("cannot update quarantined row group " +
                                std::to_string(rg_index) + " of table '" +
                                name_ + "': " + rg->quarantine_reason());
    }
    for (idx_t c = 0; c < column_indexes.size(); c++) {
      MALLARD_RETURN_NOT_OK(rg->Update(txn, column_indexes[c], rows,
                                       value_idx, batch, values.column(c)));
    }
  }
  return Status::OK();
}

idx_t DataTable::VisibleRowCount(const Transaction& txn) const {
  std::shared_lock<std::shared_mutex> guard(row_groups_lock_);
  idx_t total = 0;
  for (const auto& rg : row_groups_) {
    std::shared_lock<std::shared_mutex> rg_guard(rg->lock());
    if (rg->quarantined()) continue;  // unreadable rows are not visible
    total += rg->VisibleCount(txn);
  }
  return total;
}

idx_t DataTable::ApproxRowCount() const {
  std::shared_lock<std::shared_mutex> guard(row_groups_lock_);
  idx_t total = 0;
  for (const auto& rg : row_groups_) {
    // Per-row-group shared lock: concurrent appenders write count()
    // under the unique lock (the planner may run while DML commits).
    std::shared_lock<std::shared_mutex> rg_guard(rg->lock());
    total += rg->count();
  }
  return total;
}

ColumnStatistics DataTable::ColumnStats(idx_t column) const {
  uint64_t epoch = stats_epoch_.load();
  {
    std::lock_guard<std::mutex> guard(stats_lock_);
    if (column < stats_cache_.size() && stats_cache_[column].first == epoch) {
      return stats_cache_[column].second;
    }
  }
  ColumnStatistics stats = ComputeColumnStats(column);
  std::lock_guard<std::mutex> guard(stats_lock_);
  if (stats_cache_.size() <= column) stats_cache_.resize(column + 1);
  stats_cache_[column] = {epoch, stats};
  return stats;
}

ColumnStatistics DataTable::ComputeColumnStats(idx_t column) const {
  ColumnStatistics stats;
  idx_t dict_rows = 0, dict_entries = 0, max_entries = 0;
  // Groups whose value ranges follow one another without overlap (a
  // clustered key) hold disjoint dictionaries, so their sizes add up.
  bool disjoint = true;
  Value previous_max;
  std::shared_lock<std::shared_mutex> guard(row_groups_lock_);
  for (const auto& rg : row_groups_) {
    std::shared_lock<std::shared_mutex> rg_guard(rg->lock());
    if (rg->quarantined() || rg->count() == 0) continue;
    const ColumnSegment& seg = rg->column(column);
    stats.rows += rg->count();
    stats.null_count += seg.null_count();
    if (seg.stats_min().is_null()) continue;  // all NULL
    if (stats.min.is_null() || seg.stats_min().Compare(stats.min) < 0) {
      stats.min = seg.stats_min();
    }
    if (stats.max.is_null() || seg.stats_max().Compare(stats.max) > 0) {
      stats.max = seg.stats_max();
    }
    if (!previous_max.is_null() &&
        seg.stats_min().Compare(previous_max) <= 0) {
      disjoint = false;
    }
    previous_max = seg.stats_max();
    if (seg.encoding() == SegmentEncoding::kDictionary) {
      dict_rows += rg->count();
      dict_entries += seg.dict_entry_count();
      max_entries = std::max(max_entries, seg.dict_entry_count());
    }
  }
  if (dict_rows == 0) return stats;  // distinct stays unknown
  // Extrapolate the dictionary groups to the whole column. Disjoint
  // groups add up; overlapping ones share values in proportion to how
  // repetitive each group is (5 values per 8192 rows: ~5 overall; one
  // value per row: the sum).
  double sum = static_cast<double>(dict_entries) *
               static_cast<double>(stats.rows) / static_cast<double>(dict_rows);
  double ndv = sum;
  if (!disjoint) {
    double unique_share =
        static_cast<double>(dict_entries) / static_cast<double>(dict_rows);
    ndv = static_cast<double>(max_entries) +
          (sum - static_cast<double>(max_entries)) * unique_share;
  }
  double non_null = static_cast<double>(stats.rows - stats.null_count);
  ndv = std::min(ndv, non_null);
  stats.distinct = static_cast<idx_t>(
      std::max(ndv, static_cast<double>(max_entries)) + 0.5);
  return stats;
}

idx_t DataTable::RowGroupCount() const {
  std::shared_lock<std::shared_mutex> guard(row_groups_lock_);
  return row_groups_.size();
}

std::vector<RowGroup*> DataTable::RowGroups() const {
  std::shared_lock<std::shared_mutex> guard(row_groups_lock_);
  std::vector<RowGroup*> groups;
  groups.reserve(row_groups_.size());
  for (const auto& rg : row_groups_) groups.push_back(rg.get());
  return groups;
}

void DataTable::CleanupUpdates(uint64_t lowest_active_start) {
  std::shared_lock<std::shared_mutex> guard(row_groups_lock_);
  for (const auto& rg : row_groups_) {
    rg->CleanupUpdates(lowest_active_start);
  }
}

Status DataTable::LoadCheckpointGroup(BinaryReader* reader, GroupChain chain) {
  StatsChange change(this);
  std::unique_lock<std::shared_mutex> guard(row_groups_lock_);
  MALLARD_ASSIGN_OR_RETURN(
      auto rg, RowGroup::Deserialize(reader, row_groups_.size() * kRowGroupSize,
                                     types_, encoding_));
  if (rg->count() != chain.rows) {
    return Status::Corruption(
        "row group payload holds " + std::to_string(rg->count()) +
        " rows but the checkpoint directory recorded " +
        std::to_string(chain.rows));
  }
  if (rg->count() > 0) {
    rg->SetPersisted({std::move(chain)});
    row_groups_.push_back(std::move(rg));
  }
  return Status::OK();
}

void DataTable::LoadQuarantinedGroup(idx_t rows, std::string reason) {
  resilience_->quarantined_row_groups.fetch_add(1);
  StatsChange change(this);
  std::unique_lock<std::shared_mutex> guard(row_groups_lock_);
  row_groups_.push_back(RowGroup::Quarantined(
      row_groups_.size() * kRowGroupSize, types_, rows, std::move(reason)));
}

Status DataTable::FirstQuarantineError() const {
  std::shared_lock<std::shared_mutex> guard(row_groups_lock_);
  for (idx_t i = 0; i < row_groups_.size(); i++) {
    const auto& rg = row_groups_[i];
    if (rg->quarantined()) {
      return Status::Corruption(
          "row group " + std::to_string(i) + " of table '" + name_ +
          "' (" + std::to_string(rg->count()) + " rows) is quarantined: " +
          rg->quarantine_reason());
    }
  }
  return Status::OK();
}

idx_t DataTable::QuarantinedGroupCount() const {
  std::shared_lock<std::shared_mutex> guard(row_groups_lock_);
  idx_t n = 0;
  for (const auto& rg : row_groups_) {
    if (rg->quarantined()) n++;
  }
  return n;
}

Status DataTable::ValidateGroup(idx_t index) const {
  RowGroup* rg = nullptr;
  {
    std::shared_lock<std::shared_mutex> guard(row_groups_lock_);
    if (index >= row_groups_.size()) {
      return Status::InvalidArgument("row group index out of range");
    }
    rg = row_groups_[index].get();
  }
  return rg->ValidateIntegrity();
}

idx_t DataTable::MemoryUsage() const {
  std::shared_lock<std::shared_mutex> guard(row_groups_lock_);
  idx_t total = 0;
  for (const auto& rg : row_groups_) {
    std::shared_lock<std::shared_mutex> rg_guard(rg->lock());
    total += rg->MemoryUsage();
  }
  return total;
}

void DataTable::AddEncodingStats(TableEncodingStats* stats) const {
  std::shared_lock<std::shared_mutex> guard(row_groups_lock_);
  for (const auto& rg : row_groups_) {
    std::shared_lock<std::shared_mutex> rg_guard(rg->lock());
    if (rg->quarantined()) continue;  // no segments to report
    idx_t rows = rg->count();
    for (idx_t c = 0; c < types_.size(); c++) {
      const ColumnSegment& seg = rg->column(c);
      stats->segments_total++;
      switch (seg.encoding()) {
        case SegmentEncoding::kPlain:
          stats->segments_plain++;
          break;
        case SegmentEncoding::kDictionary:
          stats->segments_dict++;
          stats->dict_entries += seg.dict_entry_count();
          stats->dict_rows += rows;
          break;
        case SegmentEncoding::kFor:
          stats->segments_for++;
          break;
      }
      stats->logical_bytes += seg.LogicalBytes(rows);
      stats->encoded_bytes += seg.EncodedBytes(rows);
    }
  }
}

}  // namespace mallard
