#ifndef MALLARD_EXECUTION_EXTERNAL_SORT_H_
#define MALLARD_EXECUTION_EXTERNAL_SORT_H_

#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "mallard/execution/row_codec.h"
#include "mallard/execution/spill/spill_row_store.h"

namespace mallard {

class ResourceGovernor;

/// External merge sort over chunks. Rows are encoded as
/// [key_len | order-preserving key | payload row] entries; runs are cut
/// when the in-memory accumulation exceeds a quarter of the governor's
/// budget, sorted, and written into a SpillRowStore (which spills, and
/// compresses, under memory pressure). The merge phase reads each run in
/// place from one pinned segment per run — the out-of-core behaviour the
/// paper's merge join relies on (section 4).
class ExternalSort {
 public:
  ExternalSort(std::vector<TypeId> types, std::vector<SortSpec> specs,
               BufferManager* buffers, ResourceGovernor* governor);

  Status Sink(const DataChunk& chunk);
  /// Sorts the tail run and prepares merging.
  Status Finalize();
  /// Streams sorted output; cardinality 0 = done. `out` must be
  /// initialized with the input types.
  Status GetChunk(DataChunk* out);

  struct Stats {
    idx_t runs = 0;
    idx_t rows = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  /// One run during the merge: its read cursor and the current entry,
  /// both pointing into the cursor's pinned segment.
  struct RunCursor {
    SpillRowStore::Cursor cursor;
    std::string_view key;
    const uint8_t* row = nullptr;
  };
  /// An accumulated entry of the current run: its bytes in `entries_`.
  struct EntryRef {
    uint64_t offset;
    uint64_t size;
  };

  Status FinishRun();
  uint64_t RunBudget() const;
  /// Loads run `run`'s next entry into its cursor; false at end of run.
  Result<bool> Advance(idx_t run);

  std::vector<SortSpec> specs_;
  BufferManager* buffers_;
  ResourceGovernor* governor_;
  RowCodec codec_;

  // Current (unsorted) run accumulation.
  std::string key_;
  std::vector<uint8_t> entries_;
  std::vector<EntryRef> refs_;

  std::vector<std::unique_ptr<SpillRowStore>> runs_;
  std::vector<RunCursor> cursors_;
  // Merge heap: (key view, run index); min-heap by key.
  struct HeapEntry {
    std::string_view key;
    idx_t run;
  };
  struct HeapCompare {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      return a.key > b.key || (a.key == b.key && a.run > b.run);
    }
  };
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapCompare> heap_;

  Stats stats_;
};

}  // namespace mallard

#endif  // MALLARD_EXECUTION_EXTERNAL_SORT_H_
