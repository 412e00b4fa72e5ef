#include "mallard/execution/aggregate_function.h"

#include <cstring>

namespace mallard {

TypeId AggregateFunction::ResolveType(AggType type, TypeId arg_type) {
  switch (type) {
    case AggType::kCountStar:
    case AggType::kCount:
      return TypeId::kBigInt;
    case AggType::kSum:
      return arg_type == TypeId::kDouble ? TypeId::kDouble : TypeId::kBigInt;
    case AggType::kAvg:
      return TypeId::kDouble;
    case AggType::kMin:
    case AggType::kMax:
      return arg_type;
  }
  return TypeId::kInvalid;
}

void AggregateFunction::UpdateValue(AggType type, const Value& v,
                                    AggState* state) {
  if (type == AggType::kCountStar) {
    state->count++;
    return;
  }
  if (v.is_null()) return;
  switch (type) {
    case AggType::kCount:
      state->count++;
      break;
    case AggType::kSum:
    case AggType::kAvg:
      state->count++;
      state->isum += v.GetAsBigInt();
      state->dsum += v.GetAsDouble();
      state->seen = true;
      break;
    case AggType::kMin:
    case AggType::kMax:
      if (!state->seen) {
        state->extreme = v;
        state->seen = true;
      } else if (type == AggType::kMin ? v.Compare(state->extreme) < 0
                                       : v.Compare(state->extreme) > 0) {
        state->extreme = v;
      }
      break;
    default:
      break;
  }
}

Value AggregateFunction::Finalize(AggType type, TypeId result_type,
                                  const AggState& state) {
  switch (type) {
    case AggType::kCountStar:
    case AggType::kCount:
      return Value::BigInt(state.count);
    case AggType::kSum:
      if (!state.seen) return Value::Null(result_type);
      if (result_type == TypeId::kDouble) return Value::Double(state.dsum);
      return Value::BigInt(state.isum);
    case AggType::kAvg:
      if (state.count == 0) return Value::Null(TypeId::kDouble);
      return Value::Double(state.dsum / static_cast<double>(state.count));
    case AggType::kMin:
    case AggType::kMax:
      if (!state.seen) return Value::Null(result_type);
      return state.extreme;
  }
  return Value();
}

const char* AggregateFunction::Name(AggType type) {
  switch (type) {
    case AggType::kCountStar:
      return "count_star";
    case AggType::kCount:
      return "count";
    case AggType::kSum:
      return "sum";
    case AggType::kAvg:
      return "avg";
    case AggType::kMin:
      return "min";
    case AggType::kMax:
      return "max";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// AggStateLayout — compact fixed-width state rows
// ---------------------------------------------------------------------------

namespace {

// Slot state structs. All are trivially copyable and all-zero-initial;
// rows are 8-aligned so direct member access through a cast is safe.
struct SumI64 {
  int64_t sum;
  int64_t count;
};
struct SumF64 {
  double sum;
  int64_t count;
};
struct alignas(8) MinMax32 {
  int32_t value;
  int32_t seen;
};
template <typename T>
struct MinMax64 {
  T value;
  int64_t seen;
};
struct MinMaxString {
  char* data;  // owned by the state row owner's arena
  uint32_t size;
  uint32_t seen;
  StringRef value() const { return StringRef(data, size); }
};

// Spill runs store state rows byte for byte, so the slot layouts are
// part of the spill row format.
static_assert(sizeof(SumI64) == 16 && alignof(SumI64) == 8, "SumI64");
static_assert(sizeof(SumF64) == 16 && alignof(SumF64) == 8, "SumF64");
static_assert(sizeof(MinMax32) == 8 && alignof(MinMax32) == 8, "MinMax32");
static_assert(sizeof(MinMax64<int64_t>) == 16 &&
                  alignof(MinMax64<int64_t>) == 8,
              "MinMax64<int64_t>");
static_assert(sizeof(MinMax64<double>) == 16 &&
                  alignof(MinMax64<double>) == 8,
              "MinMax64<double>");
static_assert(sizeof(MinMaxString) == 16 && alignof(MinMaxString) == 8,
              "MinMaxString");

// Makes `v` the slot's extreme. The slot's previous bytes belong to it
// alone, so a value that fits their 8-byte-rounded allocation overwrites
// them in place instead of leaving dead bytes in the arena.
void SetExtreme(MinMaxString* s, StringRef v, ArenaAllocator* strings) {
  if (!s->seen || v.size > ((s->size + 7u) & ~7u)) {
    s->data = reinterpret_cast<char*>(strings->Allocate(v.size));
  }
  if (v.size > 0) std::memcpy(s->data, v.data, v.size);
  s->size = v.size;
  s->seen = 1;
}

template <typename T, typename State>
void UpdateSumSlot(const Vector& arg, idx_t count, const idx_t* group_ids,
                   const uint32_t* sel, uint8_t* base, idx_t row_size,
                   uint32_t offset) {
  const T* data = arg.data<T>();
  const ValidityMask& validity = arg.validity();
  for (idx_t i = 0; i < count; i++) {
    idx_t r = sel ? sel[i] : i;
    if (!validity.RowIsValid(r)) continue;
    State* s =
        reinterpret_cast<State*>(base + group_ids[i] * row_size + offset);
    s->sum += data[r];
    s->count++;
  }
}

template <typename T, typename State, bool kIsMin>
void UpdateMinMaxSlot(const Vector& arg, idx_t count, const idx_t* group_ids,
                      const uint32_t* sel, uint8_t* base, idx_t row_size,
                      uint32_t offset) {
  const T* data = arg.data<T>();
  const ValidityMask& validity = arg.validity();
  for (idx_t i = 0; i < count; i++) {
    idx_t r = sel ? sel[i] : i;
    if (!validity.RowIsValid(r)) continue;
    State* s =
        reinterpret_cast<State*>(base + group_ids[i] * row_size + offset);
    T v = data[r];
    if (!s->seen || (kIsMin ? v < s->value : v > s->value)) {
      s->value = v;
      s->seen = 1;
    }
  }
}

template <bool kIsMin>
void UpdateMinMax(TypeId arg_type, const Vector& arg, idx_t count,
                  const idx_t* group_ids, const uint32_t* sel, uint8_t* base,
                  idx_t row_size, uint32_t offset, ArenaAllocator* strings) {
  switch (arg_type) {
    case TypeId::kBoolean:
      UpdateMinMaxSlot<int8_t, MinMax32, kIsMin>(arg, count, group_ids, sel,
                                                 base, row_size, offset);
      return;
    case TypeId::kInteger:
    case TypeId::kDate:
      UpdateMinMaxSlot<int32_t, MinMax32, kIsMin>(arg, count, group_ids, sel,
                                                  base, row_size, offset);
      return;
    case TypeId::kBigInt:
    case TypeId::kTimestamp:
      UpdateMinMaxSlot<int64_t, MinMax64<int64_t>, kIsMin>(
          arg, count, group_ids, sel, base, row_size, offset);
      return;
    case TypeId::kDouble:
      UpdateMinMaxSlot<double, MinMax64<double>, kIsMin>(
          arg, count, group_ids, sel, base, row_size, offset);
      return;
    case TypeId::kVarchar: {
      // StringAt also reads dictionary vectors straight off a scan.
      const ValidityMask& validity = arg.validity();
      for (idx_t i = 0; i < count; i++) {
        idx_t r = sel ? sel[i] : i;
        if (!validity.RowIsValid(r)) continue;
        MinMaxString* s = reinterpret_cast<MinMaxString*>(
            base + group_ids[i] * row_size + offset);
        StringRef v = arg.StringAt(r);
        if (!s->seen || (kIsMin ? v < s->value() : s->value() < v)) {
          SetExtreme(s, v, strings);
        }
      }
      return;
    }
    default:
      return;  // the untyped NULL: every value is NULL
  }
}

template <typename State, bool kIsMin>
void CombineMinMaxSlot(const uint8_t* src_base, idx_t src_first, idx_t count,
                       const idx_t* dst_ids, uint8_t* dst_base,
                       idx_t row_size, uint32_t offset) {
  for (idx_t i = 0; i < count; i++) {
    const State* src = reinterpret_cast<const State*>(
        src_base + (src_first + i) * row_size + offset);
    if (!src->seen) continue;
    State* dst =
        reinterpret_cast<State*>(dst_base + dst_ids[i] * row_size + offset);
    if (!dst->seen ||
        (kIsMin ? src->value < dst->value : src->value > dst->value)) {
      dst->value = src->value;
      dst->seen = 1;
    }
  }
}

template <bool kIsMin>
void CombineMinMax(TypeId arg_type, const uint8_t* src_base, idx_t src_first,
                   idx_t count, const idx_t* dst_ids, uint8_t* dst_base,
                   idx_t row_size, uint32_t offset,
                   ArenaAllocator* dst_strings) {
  switch (arg_type) {
    case TypeId::kBoolean:
    case TypeId::kInteger:
    case TypeId::kDate:
      CombineMinMaxSlot<MinMax32, kIsMin>(src_base, src_first, count, dst_ids,
                                          dst_base, row_size, offset);
      return;
    case TypeId::kBigInt:
    case TypeId::kTimestamp:
      CombineMinMaxSlot<MinMax64<int64_t>, kIsMin>(
          src_base, src_first, count, dst_ids, dst_base, row_size, offset);
      return;
    case TypeId::kDouble:
      CombineMinMaxSlot<MinMax64<double>, kIsMin>(
          src_base, src_first, count, dst_ids, dst_base, row_size, offset);
      return;
    case TypeId::kVarchar:
      for (idx_t i = 0; i < count; i++) {
        const MinMaxString* src = reinterpret_cast<const MinMaxString*>(
            src_base + (src_first + i) * row_size + offset);
        if (!src->seen) continue;
        MinMaxString* dst = reinterpret_cast<MinMaxString*>(
            dst_base + dst_ids[i] * row_size + offset);
        if (!dst->seen || (kIsMin ? src->value() < dst->value()
                                  : dst->value() < src->value())) {
          SetExtreme(dst, src->value(), dst_strings);
        }
      }
      return;
    default:
      return;
  }
}

template <typename State>
void CombineSumSlot(const uint8_t* src_base, idx_t src_first, idx_t count,
                    const idx_t* dst_ids, uint8_t* dst_base, idx_t row_size,
                    uint32_t offset) {
  for (idx_t i = 0; i < count; i++) {
    const State* src = reinterpret_cast<const State*>(
        src_base + (src_first + i) * row_size + offset);
    State* dst =
        reinterpret_cast<State*>(dst_base + dst_ids[i] * row_size + offset);
    dst->sum += src->sum;
    dst->count += src->count;
  }
}

/// Bytes of a slot's state.
uint32_t SlotSize(AggType type, TypeId arg_type) {
  switch (type) {
    case AggType::kCountStar:
    case AggType::kCount:
      // COUNT(x) only reads the argument's validity mask; any argument
      // type works.
      return 8;
    case AggType::kSum:
    case AggType::kAvg:
      return 16;  // the binder admits numeric arguments only
    case AggType::kMin:
    case AggType::kMax:
      break;
  }
  switch (arg_type) {
    case TypeId::kBigInt:
    case TypeId::kTimestamp:
    case TypeId::kDouble:
    case TypeId::kVarchar:
      return 16;
    default:
      return 8;  // INTEGER, DATE, BOOLEAN and the untyped NULL
  }
}

}  // namespace

AggStateLayout AggStateLayout::Plan(
    const std::vector<BoundAggregate>& aggregates) {
  AggStateLayout layout;
  uint32_t offset = 0;
  for (const auto& agg : aggregates) {
    TypeId arg_type = agg.arg ? agg.arg->return_type() : TypeId::kInvalid;
    layout.slots_.push_back(
        AggStateSlot{agg.type, arg_type, agg.return_type, offset});
    if ((agg.type == AggType::kMin || agg.type == AggType::kMax) &&
        arg_type == TypeId::kVarchar) {
      layout.string_offsets_.push_back(offset);
    }
    offset += SlotSize(agg.type, arg_type);  // 8 or 16: stays 8-aligned
  }
  layout.row_size_ = offset;
  return layout;
}

void AggStateLayout::Update(idx_t slot_index, const Vector* arg, idx_t count,
                            const idx_t* group_ids, const uint32_t* sel,
                            uint8_t* base, ArenaAllocator* strings) const {
  const AggStateSlot& slot = slots_[slot_index];
  const idx_t row_size = row_size_;
  const uint32_t offset = slot.offset;
  if (slot.type == AggType::kCountStar) {
    for (idx_t i = 0; i < count; i++) {
      ++*reinterpret_cast<int64_t*>(base + group_ids[i] * row_size + offset);
    }
    return;
  }
  if (slot.type == AggType::kCount) {
    const ValidityMask& validity = arg->validity();
    for (idx_t i = 0; i < count; i++) {
      idx_t r = sel ? sel[i] : i;
      if (!validity.RowIsValid(r)) continue;
      ++*reinterpret_cast<int64_t*>(base + group_ids[i] * row_size + offset);
    }
    return;
  }
  if (slot.type == AggType::kSum || slot.type == AggType::kAvg) {
    switch (slot.arg_type) {
      case TypeId::kInteger:
        UpdateSumSlot<int32_t, SumI64>(*arg, count, group_ids, sel, base,
                                       row_size, offset);
        return;
      case TypeId::kBigInt:
        UpdateSumSlot<int64_t, SumI64>(*arg, count, group_ids, sel, base,
                                       row_size, offset);
        return;
      case TypeId::kDouble:
        UpdateSumSlot<double, SumF64>(*arg, count, group_ids, sel, base,
                                      row_size, offset);
        return;
      default:
        return;
    }
  }
  if (slot.type == AggType::kMin) {
    UpdateMinMax<true>(slot.arg_type, *arg, count, group_ids, sel, base,
                       row_size, offset, strings);
  } else {
    UpdateMinMax<false>(slot.arg_type, *arg, count, group_ids, sel, base,
                        row_size, offset, strings);
  }
}

void AggStateLayout::Combine(const uint8_t* src_base, idx_t src_first,
                             idx_t count, const idx_t* dst_ids,
                             uint8_t* dst_base,
                             ArenaAllocator* dst_strings) const {
  const idx_t row_size = row_size_;
  for (const AggStateSlot& slot : slots_) {
    const uint32_t offset = slot.offset;
    switch (slot.type) {
      case AggType::kCountStar:
      case AggType::kCount:
        for (idx_t i = 0; i < count; i++) {
          *reinterpret_cast<int64_t*>(dst_base + dst_ids[i] * row_size +
                                      offset) +=
              *reinterpret_cast<const int64_t*>(
                  src_base + (src_first + i) * row_size + offset);
        }
        break;
      case AggType::kSum:
      case AggType::kAvg:
        if (slot.arg_type == TypeId::kDouble) {
          CombineSumSlot<SumF64>(src_base, src_first, count, dst_ids,
                                 dst_base, row_size, offset);
        } else {
          CombineSumSlot<SumI64>(src_base, src_first, count, dst_ids,
                                 dst_base, row_size, offset);
        }
        break;
      case AggType::kMin:
        CombineMinMax<true>(slot.arg_type, src_base, src_first, count,
                            dst_ids, dst_base, row_size, offset, dst_strings);
        break;
      case AggType::kMax:
        CombineMinMax<false>(slot.arg_type, src_base, src_first, count,
                             dst_ids, dst_base, row_size, offset,
                             dst_strings);
        break;
    }
  }
}

Value AggStateLayout::Finalize(idx_t slot_index, const uint8_t* row) const {
  const AggStateSlot& slot = slots_[slot_index];
  const uint8_t* p = row + slot.offset;
  switch (slot.type) {
    case AggType::kCountStar:
    case AggType::kCount:
      return Value::BigInt(*reinterpret_cast<const int64_t*>(p));
    case AggType::kSum: {
      if (slot.arg_type == TypeId::kDouble) {
        const SumF64* s = reinterpret_cast<const SumF64*>(p);
        return s->count ? Value::Double(s->sum)
                        : Value::Null(slot.result_type);
      }
      const SumI64* s = reinterpret_cast<const SumI64*>(p);
      return s->count ? Value::BigInt(s->sum) : Value::Null(slot.result_type);
    }
    case AggType::kAvg: {
      if (slot.arg_type == TypeId::kDouble) {
        const SumF64* s = reinterpret_cast<const SumF64*>(p);
        return s->count
                   ? Value::Double(s->sum / static_cast<double>(s->count))
                   : Value::Null(TypeId::kDouble);
      }
      // Integer arguments accumulate an exact int64 sum; dividing once at
      // finalize is at least as accurate as the old per-row double
      // accumulation.
      const SumI64* s = reinterpret_cast<const SumI64*>(p);
      return s->count
                 ? Value::Double(static_cast<double>(s->sum) /
                                 static_cast<double>(s->count))
                 : Value::Null(TypeId::kDouble);
    }
    case AggType::kMin:
    case AggType::kMax:
      switch (slot.arg_type) {
        case TypeId::kBoolean: {
          const MinMax32* s = reinterpret_cast<const MinMax32*>(p);
          return s->seen ? Value::Boolean(s->value != 0)
                         : Value::Null(slot.result_type);
        }
        case TypeId::kInteger: {
          const MinMax32* s = reinterpret_cast<const MinMax32*>(p);
          return s->seen ? Value::Integer(s->value)
                         : Value::Null(slot.result_type);
        }
        case TypeId::kDate: {
          const MinMax32* s = reinterpret_cast<const MinMax32*>(p);
          return s->seen ? Value::Date(s->value)
                         : Value::Null(slot.result_type);
        }
        case TypeId::kBigInt: {
          const MinMax64<int64_t>* s =
              reinterpret_cast<const MinMax64<int64_t>*>(p);
          return s->seen ? Value::BigInt(s->value)
                         : Value::Null(slot.result_type);
        }
        case TypeId::kTimestamp: {
          const MinMax64<int64_t>* s =
              reinterpret_cast<const MinMax64<int64_t>*>(p);
          return s->seen ? Value::Timestamp(s->value)
                         : Value::Null(slot.result_type);
        }
        case TypeId::kDouble: {
          const MinMax64<double>* s =
              reinterpret_cast<const MinMax64<double>*>(p);
          return s->seen ? Value::Double(s->value)
                         : Value::Null(slot.result_type);
        }
        case TypeId::kVarchar: {
          const MinMaxString* s = reinterpret_cast<const MinMaxString*>(p);
          return s->seen ? Value::Varchar(s->value().ToString())
                         : Value::Null(slot.result_type);
        }
        default:
          return Value::Null(slot.result_type);
      }
  }
  return Value();
}

void AggStateLayout::AppendStrings(const uint8_t* row,
                                   std::vector<uint8_t>* out) const {
  for (uint32_t offset : string_offsets_) {
    const MinMaxString* s =
        reinterpret_cast<const MinMaxString*>(row + offset);
    if (!s->seen) continue;
    size_t pos = out->size();
    out->resize(pos + 4 + s->size);
    std::memcpy(out->data() + pos, &s->size, 4);
    if (s->size > 0) std::memcpy(out->data() + pos + 4, s->data, s->size);
  }
}

void AggStateLayout::LoadStrings(const uint8_t* tail, uint8_t* row,
                                 ArenaAllocator* strings) const {
  for (uint32_t offset : string_offsets_) {
    MinMaxString* s = reinterpret_cast<MinMaxString*>(row + offset);
    if (!s->seen) continue;
    std::memcpy(&s->size, tail, 4);
    s->data = reinterpret_cast<char*>(strings->Allocate(s->size));
    std::memcpy(s->data, tail + 4, s->size);
    tail += 4 + s->size;
  }
}

}  // namespace mallard
