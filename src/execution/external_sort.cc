#include "mallard/execution/external_sort.h"

#include <algorithm>
#include <cstring>

#include "mallard/governor/resource_governor.h"

namespace mallard {

namespace {
/// The key of an entry starting at `entry`.
std::string_view EntryKey(const uint8_t* entry) {
  uint32_t key_len;
  std::memcpy(&key_len, entry, 4);
  return std::string_view(reinterpret_cast<const char*>(entry + 4), key_len);
}
}  // namespace

ExternalSort::ExternalSort(std::vector<TypeId> types,
                           std::vector<SortSpec> specs, BufferManager* buffers,
                           ResourceGovernor* governor)
    : specs_(std::move(specs)),
      buffers_(buffers),
      governor_(governor),
      codec_(std::move(types)) {}

uint64_t ExternalSort::RunBudget() const {
  uint64_t budget = governor_ ? governor_->EffectiveMemoryBudget()
                              : (256ull << 20);
  // A run may use a quarter of the budget before being cut.
  return std::max<uint64_t>(budget / 4, 1 << 20);
}

Status ExternalSort::Sink(const DataChunk& chunk) {
  for (idx_t r = 0; r < chunk.size(); r++) {
    EncodeSortKey(chunk, r, specs_, &key_);
    uint64_t start = entries_.size();
    uint32_t key_len = static_cast<uint32_t>(key_.size());
    entries_.resize(start + 4 + key_len);
    std::memcpy(entries_.data() + start, &key_len, 4);
    std::memcpy(entries_.data() + start + 4, key_.data(), key_len);
    codec_.EncodeRow(chunk, r, &entries_);
    refs_.push_back(EntryRef{start, entries_.size() - start});
  }
  stats_.rows += chunk.size();
  if (entries_.size() + refs_.size() * sizeof(EntryRef) > RunBudget()) {
    MALLARD_RETURN_NOT_OK(FinishRun());
  }
  return Status::OK();
}

Status ExternalSort::FinishRun() {
  if (refs_.empty()) return Status::OK();
  // Stable by key (memcmp order == tuple order): equal keys keep their
  // arrival order.
  std::stable_sort(refs_.begin(), refs_.end(),
                   [&](const EntryRef& a, const EntryRef& b) {
                     return EntryKey(entries_.data() + a.offset) <
                            EntryKey(entries_.data() + b.offset);
                   });
  auto run = std::make_unique<SpillRowStore>(buffers_);
  for (const EntryRef& ref : refs_) {
    MALLARD_RETURN_NOT_OK(run->Append(entries_.data() + ref.offset,
                                      static_cast<uint32_t>(ref.size)));
  }
  run->FinishAppend();
  runs_.push_back(std::move(run));
  stats_.runs++;
  entries_.clear();
  refs_.clear();
  return Status::OK();
}

Status ExternalSort::Finalize() {
  MALLARD_RETURN_NOT_OK(FinishRun());
  cursors_.resize(runs_.size());
  for (idx_t i = 0; i < runs_.size(); i++) {
    MALLARD_ASSIGN_OR_RETURN(bool has, Advance(i));
    if (has) heap_.push(HeapEntry{cursors_[i].key, i});
  }
  return Status::OK();
}

Status ExternalSort::GetChunk(DataChunk* out) {
  out->Reset();
  idx_t produced = 0;
  while (produced < kVectorSize && !heap_.empty()) {
    HeapEntry top = heap_.top();
    heap_.pop();
    codec_.DecodeRow(cursors_[top.run].row, out, produced);
    produced++;
    MALLARD_ASSIGN_OR_RETURN(bool has, Advance(top.run));
    if (has) heap_.push(HeapEntry{cursors_[top.run].key, top.run});
  }
  out->SetCardinality(produced);
  return Status::OK();
}

Result<bool> ExternalSort::Advance(idx_t run) {
  RunCursor& cursor = cursors_[run];
  const uint8_t* entry = nullptr;
  uint32_t len = 0;
  MALLARD_RETURN_NOT_OK(runs_[run]->Next(&cursor.cursor, &entry, &len));
  if (!entry) return false;
  cursor.key = EntryKey(entry);
  cursor.row = entry + 4 + cursor.key.size();
  return true;
}

}  // namespace mallard
