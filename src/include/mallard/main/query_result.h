/**
 * @file query_result.h
 * @brief QueryResult base and MaterializedQueryResult.
 *
 * Ownership: chunks own their payloads (VARCHAR bytes live in
 * per-vector heaps), so a materialized result stays readable after its
 * connection — even its database — is gone. Chunks obtained from
 * Fetch() are handed over, not copied.
 * Thread safety: a result belongs to the thread using it; no locking.
 */
#ifndef MALLARD_MAIN_QUERY_RESULT_H_
#define MALLARD_MAIN_QUERY_RESULT_H_

#include <memory>
#include <string>
#include <vector>

#include "mallard/common/result.h"
#include "mallard/vector/data_chunk.h"

namespace mallard {

/// Base query result: schema plus a chunk stream. Fetch() hands over the
/// engine's own chunks without copying — the transfer-efficiency design
/// of paper section 5 ("the client application becomes the root operator
/// of the physical plan").
class QueryResult {
 public:
  QueryResult(std::vector<std::string> names, std::vector<TypeId> types)
      : names_(std::move(names)), types_(std::move(types)) {}
  virtual ~QueryResult() = default;

  const std::vector<std::string>& names() const { return names_; }
  const std::vector<TypeId>& types() const { return types_; }
  idx_t ColumnCount() const { return types_.size(); }

  /// Returns the next chunk, or nullptr when the result is exhausted.
  virtual Result<std::unique_ptr<DataChunk>> Fetch() = 0;

 protected:
  std::vector<std::string> names_;
  std::vector<TypeId> types_;
};

/// Fully materialized result. Also exposes the row/value-at-a-time API
/// (GetValue) that the paper identifies as the traditional client
/// bottleneck — kept so benches can measure chunk-based vs value-based
/// access (section 5).
///
/// Storage is dense: Connection collects a plan's output so that every
/// chunk except the last of a run of small ones holds at least
/// kVectorSize/2 rows, and the result keeps each chunk's first row, so
/// a row is found in O(log chunks).
class MaterializedQueryResult final : public QueryResult {
 public:
  MaterializedQueryResult(std::vector<std::string> names,
                          std::vector<TypeId> types,
                          std::vector<std::unique_ptr<DataChunk>> chunks);

  idx_t RowCount() const { return row_count_; }

  /// The chunk holding `row` (0-based across all chunks), with the row's
  /// position inside it in `*in_chunk` and, when asked, the chunk's
  /// index in Chunks() in `*chunk_index`. O(log chunks).
  /// \return nullptr when `row` is out of range or its chunk was already
  ///         handed over via Fetch().
  const DataChunk* ChunkFor(idx_t row, idx_t* in_chunk,
                            idx_t* chunk_index = nullptr) const;

  /// Value-based access through ChunkFor, boxed.
  ///
  /// \param column 0-based column index.
  /// \param row    0-based row index across all chunks.
  /// \return the boxed value; out-of-range coordinates — and rows whose
  ///         chunk was already handed over via Fetch() — yield a NULL
  ///         Value rather than undefined behavior.
  Value GetValue(idx_t column, idx_t row) const;

  /// Streams the materialized chunks (no copies).
  Result<std::unique_ptr<DataChunk>> Fetch() override;

  /// Renders rows as tab-separated text (debugging/examples).
  std::string ToString(idx_t max_rows = 20) const;

  /// The chunks; a slot already handed over via Fetch() is null.
  const std::vector<std::unique_ptr<DataChunk>>& Chunks() const {
    return chunks_;
  }

 private:
  std::vector<std::unique_ptr<DataChunk>> chunks_;
  std::vector<idx_t> chunk_starts_;  // first row of each chunk, ascending
  idx_t row_count_ = 0;
  idx_t fetch_position_ = 0;
};

}  // namespace mallard

#endif  // MALLARD_MAIN_QUERY_RESULT_H_
