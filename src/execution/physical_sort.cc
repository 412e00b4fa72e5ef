#include "mallard/execution/physical_sort.h"

#include <algorithm>

namespace mallard {

namespace {
/// The sorted runs, made by the first GetChunk.
struct OrderByState : OperatorState {
  std::unique_ptr<ExternalSort> sort;
};

/// The kept rows in output order, made by the first GetChunk, and the
/// next one to emit.
struct TopNState : OperatorState {
  std::vector<std::vector<uint8_t>> sorted_rows;
  bool computed = false;
  idx_t position = 0;
};
}  // namespace

PhysicalOrderBy::PhysicalOrderBy(std::vector<SortSpec> specs,
                                 std::unique_ptr<PhysicalOperator> child)
    : PhysicalOperator(child->types()), specs_(std::move(specs)) {
  AddChild(std::move(child));
}

StatePtr PhysicalOrderBy::CreateState(const MorselWorker*,
                                      const OperatorState*) const {
  return std::make_unique<OrderByState>();
}

Status PhysicalOrderBy::GetChunk(ExecutionContext* context,
                                 OperatorState* state, DataChunk* out) const {
  std::unique_ptr<ExternalSort>& sort = static_cast<OrderByState&>(*state).sort;
  if (!sort) {
    sort = std::make_unique<ExternalSort>(types_, specs_, context->buffers,
                                          context->governor);
    DataChunk chunk;
    chunk.Initialize(types_);
    while (true) {
      MALLARD_RETURN_NOT_OK(ChildChunk(0, context, state, &chunk));
      if (chunk.size() == 0) break;
      MALLARD_RETURN_NOT_OK(sort->Sink(chunk));
    }
    MALLARD_RETURN_NOT_OK(sort->Finalize());
  }
  return sort->GetChunk(out);
}

std::string PhysicalOrderBy::name() const {
  std::string result = "ORDER_BY(";
  for (size_t i = 0; i < specs_.size(); i++) {
    if (i > 0) result += ", ";
    result += "#" + std::to_string(specs_[i].column) +
              (specs_[i].ascending ? " ASC" : " DESC");
  }
  return result + ")";
}

PhysicalTopN::PhysicalTopN(std::vector<SortSpec> specs, idx_t limit,
                           idx_t offset,
                           std::unique_ptr<PhysicalOperator> child)
    : PhysicalOperator(child->types()),
      specs_(std::move(specs)),
      limit_(limit),
      offset_(offset) {
  AddChild(std::move(child));
}

StatePtr PhysicalTopN::CreateState(const MorselWorker*,
                                   const OperatorState*) const {
  return std::make_unique<TopNState>();
}

Status PhysicalTopN::GetChunk(ExecutionContext* context, OperatorState* state,
                              DataChunk* out) const {
  auto& s = static_cast<TopNState&>(*state);
  idx_t keep = limit_ + offset_;
  if (!s.computed) {
    RowCodec codec(types_);
    DataChunk chunk;
    chunk.Initialize(types_);
    std::vector<std::pair<std::string, std::vector<uint8_t>>> heap;
    std::string key;
    // Max-heap on the key: the root is the worst row kept so far.
    auto cmp = [](const std::pair<std::string, std::vector<uint8_t>>& a,
                  const std::pair<std::string, std::vector<uint8_t>>& b) {
      return a.first < b.first;
    };
    while (true) {
      MALLARD_RETURN_NOT_OK(ChildChunk(0, context, state, &chunk));
      if (chunk.size() == 0) break;
      for (idx_t r = 0; r < chunk.size(); r++) {
        EncodeSortKey(chunk, r, specs_, &key);
        if (heap.size() >= keep && key >= heap.front().first) continue;
        std::vector<uint8_t> row;
        codec.EncodeRow(chunk, r, &row);
        heap.emplace_back(key, std::move(row));
        std::push_heap(heap.begin(), heap.end(), cmp);
        if (heap.size() > keep) {
          std::pop_heap(heap.begin(), heap.end(), cmp);
          heap.pop_back();
        }
      }
    }
    std::sort(heap.begin(), heap.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (idx_t i = offset_; i < heap.size(); i++) {
      s.sorted_rows.push_back(std::move(heap[i].second));
    }
    s.computed = true;
  }
  out->Reset();
  RowCodec codec(types_);
  idx_t produced = 0;
  while (s.position < s.sorted_rows.size() && produced < kVectorSize) {
    codec.DecodeRow(s.sorted_rows[s.position].data(), out, produced);
    s.position++;
    produced++;
  }
  out->SetCardinality(produced);
  return Status::OK();
}

std::string PhysicalTopN::name() const {
  return "TOP_N(" + std::to_string(limit_) + ")";
}

}  // namespace mallard
