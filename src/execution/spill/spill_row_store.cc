#include "mallard/execution/spill/spill_row_store.h"

#include <algorithm>
#include <cstring>

namespace mallard {

Status SpillRowStore::Append(const uint8_t* row, uint32_t len) {
  uint64_t needed = 4 + static_cast<uint64_t>(len);
  bool need_segment =
      segments_.empty() || segments_.back().used + needed >
                               segments_.back().buffer->size();
  if (!need_segment && !tail_pin_) {
    // FinishAppend released the tail; re-pin it (reloads if evicted).
    MALLARD_ASSIGN_OR_RETURN(tail_pin_,
                             buffers_->Pin(segments_.back().buffer));
    tail_data_ = tail_pin_.data();
    tail_pin_.MarkDirty();
  }
  if (need_segment) {
    tail_pin_.Release();  // completed segment becomes LRU-evictable
    tail_data_ = nullptr;
    MALLARD_ASSIGN_OR_RETURN(
        BufferHandle handle,
        buffers_->Allocate(std::max(next_segment_bytes_, needed),
                           /*spillable=*/true));
    next_segment_bytes_ = std::min(segment_bytes_, 2 * next_segment_bytes_);
    tail_data_ = handle.data();
    segments_.push_back(Segment{handle.buffer(), 0});
    tail_pin_ = std::move(handle);
  }
  Segment& tail = segments_.back();
  std::memcpy(tail_data_ + tail.used, &len, 4);
  std::memcpy(tail_data_ + tail.used + 4, row, len);
  tail.used += needed;
  tail_pin_.MarkFilled(tail.used);
  rows_++;
  bytes_ += needed;
  return Status::OK();
}

Status SpillRowStore::AppendChunk(const DataChunk& chunk) {
  if (chunk.size() == 0) return Status::OK();
  chunk_scratch_.Clear();
  SerializeChunk(chunk, &chunk_scratch_);
  return Append(chunk_scratch_.data().data(),
                static_cast<uint32_t>(chunk_scratch_.size()));
}

void SpillRowStore::FinishAppend() {
  tail_pin_.Release();
  tail_data_ = nullptr;
}

Status SpillRowStore::Next(Cursor* cursor, const uint8_t** row,
                           uint32_t* len) {
  while (true) {
    if (cursor->segment >= segments_.size()) {
      cursor->pin.Release();
      cursor->data = nullptr;
      *row = nullptr;
      *len = 0;
      return Status::OK();
    }
    const Segment& segment = segments_[cursor->segment];
    if (cursor->offset >= segment.used) {
      cursor->segment++;
      cursor->offset = 0;
      cursor->pin.Release();
      cursor->data = nullptr;
      continue;
    }
    if (!cursor->data) {
      MALLARD_ASSIGN_OR_RETURN(cursor->pin, buffers_->Pin(segment.buffer));
      cursor->data = cursor->pin.data();
    }
    std::memcpy(len, cursor->data + cursor->offset, 4);
    *row = cursor->data + cursor->offset + 4;
    cursor->offset += 4 + static_cast<uint64_t>(*len);
    return Status::OK();
  }
}

Status SpillRowStore::NextChunk(Cursor* cursor, DataChunk* out) {
  const uint8_t* row = nullptr;
  uint32_t len = 0;
  MALLARD_RETURN_NOT_OK(Next(cursor, &row, &len));
  if (!row) {
    out->SetCardinality(0);
    return Status::OK();
  }
  BinaryReader reader(row, len);
  return DeserializeChunk(&reader, out);
}

}  // namespace mallard
