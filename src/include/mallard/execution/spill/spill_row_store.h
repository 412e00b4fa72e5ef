#ifndef MALLARD_EXECUTION_SPILL_SPILL_ROW_STORE_H_
#define MALLARD_EXECUTION_SPILL_SPILL_ROW_STORE_H_

#include <algorithm>
#include <memory>
#include <vector>

#include "mallard/common/constants.h"
#include "mallard/common/result.h"
#include "mallard/storage/buffer_manager.h"
#include "mallard/vector/chunk_serde.h"

namespace mallard {

/// Append-only store of length-prefixed byte rows inside *spillable*
/// buffer-manager segments — the store for intermediates that may
/// outgrow memory: grace hash join probe stashes, external aggregation
/// runs, external sort runs and the cross product's right side. It never compresses: the buffer manager
/// compresses a segment when it evicts it, at the governor's level.
///
/// Spilling falls out of the pin/unpin contract rather than bespoke file
/// I/O: only the tail segment is pinned while appending; completed
/// segments are unpinned immediately and become LRU-evictable, so the
/// buffer manager moves them to the temp file exactly when allocation
/// pressure against `memory_limit` demands it. Reading goes through a
/// Cursor that pins one segment at a time (reloading evicted segments
/// transparently), so a scan over an arbitrarily large store keeps at
/// most one segment resident beyond the evictable pool.
///
/// Segments grow geometrically from kFirstSegmentBytes up to
/// `segment_bytes`, so a small run does not spill a mostly empty
/// full-size segment. Rows never straddle a segment boundary (a row
/// larger than a segment gets a segment of its own). Not thread-safe;
/// each store has a single writer, and reads happen after FinishAppend().
class SpillRowStore {
 public:
  static constexpr uint64_t kDefaultSegmentBytes = 256 * 1024;
  static constexpr uint64_t kFirstSegmentBytes = 16 * 1024;

  explicit SpillRowStore(BufferManager* buffers,
                         uint64_t segment_bytes = kDefaultSegmentBytes)
      : buffers_(buffers),
        segment_bytes_(segment_bytes),
        next_segment_bytes_(std::min(kFirstSegmentBytes, segment_bytes)) {}

  /// Appends one row ([u32 length][bytes]).
  Status Append(const uint8_t* row, uint32_t len);

  /// Appends `chunk` as one row in SerializeChunk format (an empty chunk
  /// appends nothing).
  Status AppendChunk(const DataChunk& chunk);

  /// Releases the tail pin so every segment is evictable. Idempotent;
  /// appends after it re-pin the tail (possibly reloading it).
  void FinishAppend();

  idx_t rows() const { return rows_; }
  uint64_t bytes() const { return bytes_; }

  /// Sequential read cursor; holds a pin on the segment it is inside.
  struct Cursor {
    idx_t segment = 0;
    uint64_t offset = 0;
    BufferHandle pin;
    const uint8_t* data = nullptr;
  };

  /// Advances the cursor and returns the next row via `*row` (`*len` its
  /// length), or sets `*row = nullptr` at end of store. The returned
  /// pointer stays valid until the next Next() call.
  Status Next(Cursor* cursor, const uint8_t** row, uint32_t* len);

  /// Reads the next AppendChunk row into `out`, deserialized straight from
  /// the pinned segment; cardinality 0 at end of store.
  Status NextChunk(Cursor* cursor, DataChunk* out);

 private:
  struct Segment {
    std::shared_ptr<ManagedBuffer> buffer;
    uint64_t used = 0;
  };

  BufferManager* buffers_;
  uint64_t segment_bytes_;
  uint64_t next_segment_bytes_;
  std::vector<Segment> segments_;
  BufferHandle tail_pin_;
  uint8_t* tail_data_ = nullptr;
  idx_t rows_ = 0;
  uint64_t bytes_ = 0;
  BinaryWriter chunk_scratch_;
};

}  // namespace mallard

#endif  // MALLARD_EXECUTION_SPILL_SPILL_ROW_STORE_H_
