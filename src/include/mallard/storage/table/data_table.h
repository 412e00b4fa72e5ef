#ifndef MALLARD_STORAGE_TABLE_DATA_TABLE_H_
#define MALLARD_STORAGE_TABLE_DATA_TABLE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "mallard/catalog/column_definition.h"
#include "mallard/resilience/retry_policy.h"
#include "mallard/storage/table/row_group.h"

namespace mallard {

/// Sentinel column id that makes a scan emit the 64-bit row identifier;
/// used by UPDATE/DELETE plans to address rows.
constexpr idx_t kRowIdColumn = static_cast<idx_t>(-1);

/// Cursor state of an in-progress table scan.
struct TableScanState {
  std::vector<idx_t> column_ids;
  std::vector<TableFilter> filters;
  idx_t row_group_index = 0;
  idx_t offset = 0;             // within the current row group
  bool zonemap_checked = false;  // for the current row group
  /// Exclusive upper bound on row groups this cursor may visit; the
  /// default (kInvalidIndex) scans to the end of the table. Morsel
  /// scans bound it to a single row group.
  idx_t max_row_group = kInvalidIndex;
  /// Salvage mode: quarantined row groups are skipped (and counted in
  /// the Database's resilience_stats) instead of failing the scan with
  /// kCorruption.
  bool salvage = false;
  /// Set when Scan returns false because of an error rather than
  /// exhaustion; callers must check it before treating false as EOF.
  Status error;
};

/// Per-table encoding statistics aggregated over all column segments
/// (PRAGMA storage_stats).
struct TableEncodingStats {
  idx_t segments_total = 0;
  idx_t segments_plain = 0;
  idx_t segments_dict = 0;
  idx_t segments_for = 0;
  idx_t logical_bytes = 0;  // bytes the plain representation would need
  idx_t encoded_bytes = 0;  // bytes the current representation holds
  idx_t dict_entries = 0;   // total dictionary entries
  idx_t dict_rows = 0;      // rows covered by dictionary segments
};

/// Planner statistics of one column, read from the zone maps and the
/// dictionary sizes the segments already keep — no column data.
struct ColumnStatistics {
  idx_t rows = 0;        ///< rows in the groups summarized
  idx_t null_count = 0;
  Value min;             ///< NULL when no non-NULL value is known
  Value max;
  /// Estimated number of distinct non-NULL values, or kInvalidIndex
  /// (unknown) when no segment of the column is dictionary-encoded.
  idx_t distinct = kInvalidIndex;
};

/// The physical storage of one table: an ordered list of row groups.
/// Provides transactional vectorized scans, bulk appends, bulk deletes
/// and per-column bulk updates — the combined OLAP & ETL workload of
/// paper section 2.
class DataTable {
 public:
  /// `resilience` counts salvage skips and quarantined groups;
  /// `encoding` receives the encoding events of every segment. Both
  /// belong to the Database that owns the table.
  DataTable(std::string table_name, std::vector<ColumnDefinition> columns,
            ResilienceStats* resilience, EncodingCounters* encoding);

  const std::string& name() const { return name_; }
  const std::vector<ColumnDefinition>& columns() const { return columns_; }
  std::vector<TypeId> ColumnTypes() const;
  /// Index of a column by (case-insensitive) name, or kInvalidIndex.
  idx_t ColumnIndex(const std::string& name) const;

  /// Appends a chunk; rows become visible when `txn` commits.
  Status Append(Transaction* txn, const DataChunk& chunk);

  /// Begins a scan over `column_ids` (kRowIdColumn allowed) with optional
  /// zone-map filters.
  void InitializeScan(TableScanState* state, std::vector<idx_t> column_ids,
                      std::vector<TableFilter> filters = {}) const;

  /// Produces the next chunk of visible rows; `out` must be initialized
  /// with the scan's output types. Returns false when exhausted.
  bool Scan(const Transaction& txn, TableScanState* state,
            DataChunk* out) const;

  /// Deletes rows by row id (BIGINT vector). Returns rows newly deleted.
  Result<idx_t> Delete(Transaction* txn, const Vector& row_ids, idx_t count);

  /// Updates `column_indexes` of the addressed rows with `values`
  /// columns; values row i applies to row_ids row i.
  Status Update(Transaction* txn, const Vector& row_ids, idx_t count,
                const std::vector<idx_t>& column_indexes,
                const DataChunk& values);

  /// Number of rows visible to `txn` (scans version info; O(rows)).
  idx_t VisibleRowCount(const Transaction& txn) const;
  /// Fast upper bound of the physical row count (planner statistics).
  idx_t ApproxRowCount() const;
  /// Min, max, NULL count and a distinct-count estimate of one column;
  /// O(row groups), reads no data (see ColumnStatistics). Cached until
  /// the next append, update or checkpoint load.
  ColumnStatistics ColumnStats(idx_t column) const;
  /// Current number of row groups — the morsel count of a parallel scan.
  idx_t RowGroupCount() const;
  /// The current row groups in order. Groups are never removed, so the
  /// pointers stay valid for the table's lifetime.
  std::vector<RowGroup*> RowGroups() const;

  /// Garbage-collects undo chains across all row groups.
  void CleanupUpdates(uint64_t lowest_active_start);

  /// --- checkpoint load ----------------------------------------------------
  /// Appends the next row group from a verified checkpoint payload
  /// ([count u64][ncols u32][segments], RowGroup::Deserialize layout).
  /// `chain` is the group's checkpoint directory entry: its row count
  /// must match the payload's own, and the loaded group starts clean,
  /// holding `chain` for the next checkpoint to reuse.
  Status LoadCheckpointGroup(BinaryReader* reader, GroupChain chain);
  /// Appends a quarantined placeholder covering `rows` rows whose
  /// checkpoint payload failed verification. The slot is kept so later
  /// groups retain their row ids; scans over it fail with kCorruption
  /// unless salvage mode is on. Counts as a quarantined row group.
  void LoadQuarantinedGroup(idx_t rows, std::string reason);

  /// Corruption status naming the first quarantined row group, or OK.
  /// Checkpoints refuse to rewrite a table in this state — a checkpoint
  /// that silently dropped the quarantined rows would turn detected
  /// corruption into permanent data loss.
  Status FirstQuarantineError() const;
  idx_t QuarantinedGroupCount() const;

  /// Integrity scrub of one row group: encoding round-trip plus
  /// zone-map-versus-data verification. Quarantined groups report their
  /// quarantine reason as the error.
  Status ValidateGroup(idx_t index) const;

  idx_t MemoryUsage() const;

  /// Adds this table's per-segment encoding statistics to `stats`
  /// (PRAGMA storage_stats sums them over every table).
  void AddEncodingStats(TableEncodingStats* stats) const;
  /// Where new segments of this table (checkpoint staging too) count
  /// their encoding events.
  EncodingCounters* encoding_counters() const { return encoding_; }

 private:
  RowGroup* GetRowGroupForRow(idx_t row_id) const;

  std::string name_;
  std::vector<ColumnDefinition> columns_;
  std::vector<TypeId> types_;
  ResilienceStats* resilience_;
  EncodingCounters* encoding_;

  mutable std::shared_mutex row_groups_lock_;  // guards the list structure
  std::vector<std::unique_ptr<RowGroup>> row_groups_;
  std::mutex append_lock_;  // serializes appenders

  /// Advances stats_epoch_ when it leaves scope, after the change it
  /// guards, so a ColumnStats computed during the change is never kept
  /// as current.
  struct StatsChange {
    explicit StatsChange(DataTable* table) : table_(table) {}
    ~StatsChange() { table_->stats_epoch_.fetch_add(1); }
    DataTable* table_;
  };
  ColumnStatistics ComputeColumnStats(idx_t column) const;
  std::atomic<uint64_t> stats_epoch_{1};
  mutable std::mutex stats_lock_;
  /// Per column: (epoch computed at, statistics); epoch 0 = none yet.
  mutable std::vector<std::pair<uint64_t, ColumnStatistics>> stats_cache_;
};

}  // namespace mallard

#endif  // MALLARD_STORAGE_TABLE_DATA_TABLE_H_
