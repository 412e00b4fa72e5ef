#include "mallard/main/query_result.h"

#include <algorithm>

namespace mallard {

MaterializedQueryResult::MaterializedQueryResult(
    std::vector<std::string> names, std::vector<TypeId> types,
    std::vector<std::unique_ptr<DataChunk>> chunks)
    : QueryResult(std::move(names), std::move(types)),
      chunks_(std::move(chunks)) {
  chunk_starts_.reserve(chunks_.size());
  for (const auto& chunk : chunks_) {
    chunk_starts_.push_back(row_count_);
    row_count_ += chunk->size();
  }
}

const DataChunk* MaterializedQueryResult::ChunkFor(idx_t row, idx_t* in_chunk,
                                                   idx_t* chunk_index) const {
  if (row >= row_count_) return nullptr;
  // The last chunk starting at or before `row`; an empty chunk shares its
  // start with the next one, so this always lands on a non-empty chunk.
  idx_t i = static_cast<idx_t>(std::upper_bound(chunk_starts_.begin(),
                                                chunk_starts_.end(), row) -
                               chunk_starts_.begin()) -
            1;
  *in_chunk = row - chunk_starts_[i];
  if (chunk_index) *chunk_index = i;
  return chunks_[i].get();  // null once Fetch() handed the chunk over
}

Value MaterializedQueryResult::GetValue(idx_t column, idx_t row) const {
  idx_t in_chunk = 0;
  const DataChunk* chunk = ChunkFor(row, &in_chunk);
  if (chunk == nullptr || column >= ColumnCount()) return Value();
  return chunk->GetValue(column, in_chunk);
}

Result<std::unique_ptr<DataChunk>> MaterializedQueryResult::Fetch() {
  if (fetch_position_ >= chunks_.size()) return std::unique_ptr<DataChunk>();
  return std::move(chunks_[fetch_position_++]);
}

std::string MaterializedQueryResult::ToString(idx_t max_rows) const {
  std::string result;
  for (size_t i = 0; i < names_.size(); i++) {
    if (i > 0) result += "\t";
    result += names_[i];
  }
  result += "\n";
  idx_t printed = 0;
  for (const auto& chunk : chunks_) {
    if (!chunk) continue;  // handed over via Fetch()
    for (idx_t r = 0; r < chunk->size() && printed < max_rows; r++) {
      for (idx_t c = 0; c < chunk->ColumnCount(); c++) {
        if (c > 0) result += "\t";
        result += chunk->GetValue(c, r).ToString();
      }
      result += "\n";
      printed++;
    }
  }
  if (row_count_ > printed) {
    result += "... (" + std::to_string(row_count_) + " rows total)\n";
  }
  return result;
}

}  // namespace mallard
