#include "mallard/storage/table/column_segment.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "mallard/common/constants.h"
#include "mallard/common/string_util.h"
#include "mallard/compression/packed_ints.h"

namespace mallard {

const char* CompareOpSymbol(CompareOp op) {
  static const char* kSymbols[] = {"=", "<>", "<", "<=", ">", ">="};
  return kSymbols[static_cast<int>(op)];
}

const char* SegmentEncodingToString(SegmentEncoding encoding) {
  switch (encoding) {
    case SegmentEncoding::kPlain:
      return "plain";
    case SegmentEncoding::kDictionary:
      return "dict";
    case SegmentEncoding::kFor:
      return "for";
  }
  return "unknown";
}

namespace {

/// How a segment's encoding is chosen. The environment override mirrors
/// MALLARD_THREADS / MALLARD_MEMORY_LIMIT: CI pins whole test runs so
/// every existing test exercises the encoded read paths.
enum class ForceEncoding { kAuto, kPlain, kDict, kFor };

ForceEncoding GetForcedEncoding() {
  const char* env = std::getenv("MALLARD_FORCE_ENCODING");
  if (env == nullptr || env[0] == '\0') return ForceEncoding::kAuto;
  if (StringUtil::CIEquals(env, "plain")) return ForceEncoding::kPlain;
  if (StringUtil::CIEquals(env, "dict")) return ForceEncoding::kDict;
  if (StringUtil::CIEquals(env, "for")) return ForceEncoding::kFor;
  return ForceEncoding::kAuto;
}

/// Auto mode caps dictionaries at a 12-bit code space: past 4096 distinct
/// values per segment the dictionary stops paying for itself and the
/// segment falls back to plain (the "dictionary overflow" case).
constexpr idx_t kMaxAutoDictEntries = 4096;

bool IsIntFamily(TypeId type) {
  return type == TypeId::kInteger || type == TypeId::kDate ||
         type == TypeId::kBigInt || type == TypeId::kTimestamp;
}

Value MakeIntValue(TypeId type, int64_t v) {
  switch (type) {
    case TypeId::kInteger:
      return Value::Integer(static_cast<int32_t>(v));
    case TypeId::kDate:
      return Value::Date(static_cast<int32_t>(v));
    case TypeId::kTimestamp:
      return Value::Timestamp(v);
    default:
      return Value::BigInt(v);
  }
}

bool CompareInt64(int64_t a, CompareOp op, int64_t b) {
  switch (op) {
    case CompareOp::kEqual:
      return a == b;
    case CompareOp::kNotEqual:
      return a != b;
    case CompareOp::kLess:
      return a < b;
    case CompareOp::kLessEqual:
      return a <= b;
    case CompareOp::kGreater:
      return a > b;
    case CompareOp::kGreaterEqual:
      return a >= b;
  }
  return false;
}

bool CompareDouble(double a, CompareOp op, double b) {
  switch (op) {
    case CompareOp::kEqual:
      return a == b;
    case CompareOp::kNotEqual:
      return a != b;
    case CompareOp::kLess:
      return a < b;
    case CompareOp::kLessEqual:
      return a <= b;
    case CompareOp::kGreater:
      return a > b;
    case CompareOp::kGreaterEqual:
      return a >= b;
  }
  return false;
}

bool CompareString(const StringRef& a, CompareOp op, const StringRef& b) {
  switch (op) {
    case CompareOp::kEqual:
      return a == b;
    case CompareOp::kNotEqual:
      return !(a == b);
    case CompareOp::kLess:
      return a < b;
    case CompareOp::kLessEqual:
      return !(b < a);
    case CompareOp::kGreater:
      return b < a;
    case CompareOp::kGreaterEqual:
      return !(a < b);
  }
  return false;
}

/// Translates `code <op> constant` against a sorted dictionary into a
/// code-space predicate: pass iff lo <= code < hi, optionally inverted
/// (kNotEqual). Returns false when no row can pass.
struct CodePredicate {
  uint64_t lo = 0;
  uint64_t hi = 0;
  bool invert = false;  // pass iff code NOT in [lo, hi)
  bool Pass(uint64_t code) const {
    // Unsigned-wrap range test: one compare, no branches — this runs
    // once per row in the scan filter loop.
    return ((code - lo) < (hi - lo)) != invert;
  }
};

/// Same idea for plain int64 values: the op+constant collapse into one
/// order-preserving biased-unsigned range test evaluated per row.
struct Int64RangePred {
  uint64_t biased_lo = 0;
  uint64_t span = 0;  // inclusive width of the passing range
  bool invert = false;
  bool none = false;  // no value can pass (range over/underflow)

  static uint64_t Bias(int64_t v) {
    return static_cast<uint64_t>(v) ^ (uint64_t(1) << 63);
  }
  static Int64RangePred Make(CompareOp op, int64_t c) {
    Int64RangePred p;
    uint64_t bc = Bias(c);
    switch (op) {
      case CompareOp::kEqual:
        p.biased_lo = bc;
        p.span = 0;
        break;
      case CompareOp::kNotEqual:
        p.biased_lo = bc;
        p.span = 0;
        p.invert = true;
        break;
      case CompareOp::kLess:
        if (bc == 0) p.none = true;
        p.biased_lo = 0;
        p.span = bc - 1;
        break;
      case CompareOp::kLessEqual:
        p.biased_lo = 0;
        p.span = bc;
        break;
      case CompareOp::kGreater:
        if (bc == ~uint64_t(0)) p.none = true;
        p.biased_lo = bc + 1;
        p.span = ~uint64_t(0) - bc - 1;
        break;
      case CompareOp::kGreaterEqual:
        p.biased_lo = bc;
        p.span = ~uint64_t(0) - bc;
        break;
    }
    return p;
  }
  bool Pass(int64_t v) const {
    return ((Bias(v) - biased_lo) <= span) != invert;
  }
};

bool TranslateToCodeSpace(CompareOp op, uint64_t lower, uint64_t upper,
                          uint64_t entry_count, CodePredicate* pred) {
  // `lower`/`upper` are lower_bound/upper_bound indexes of the constant
  // in the sorted dictionary.
  pred->invert = false;
  switch (op) {
    case CompareOp::kEqual:
      if (lower == upper) return false;  // constant not in dictionary
      pred->lo = lower;
      pred->hi = upper;
      return true;
    case CompareOp::kNotEqual:
      if (lower == upper) {
        pred->lo = 0;
        pred->hi = entry_count;
        return true;
      }
      pred->lo = lower;
      pred->hi = upper;
      pred->invert = true;
      return true;
    case CompareOp::kLess:
      if (lower == 0) return false;
      pred->lo = 0;
      pred->hi = lower;
      return true;
    case CompareOp::kLessEqual:
      if (upper == 0) return false;
      pred->lo = 0;
      pred->hi = upper;
      return true;
    case CompareOp::kGreater:
      if (upper == entry_count) return false;
      pred->lo = upper;
      pred->hi = entry_count;
      return true;
    case CompareOp::kGreaterEqual:
      if (lower == entry_count) return false;
      pred->lo = lower;
      pred->hi = entry_count;
      return true;
  }
  return false;
}

}  // namespace

ColumnSegment::ColumnSegment(TypeId type, EncodingCounters* counters)
    : type_(type),
      counters_(counters),
      width_(TypeSize(type)),
      data_(std::make_unique<uint8_t[]>(width_ * kRowGroupSize)),
      validity_((kRowGroupSize + 63) / 64, ~uint64_t(0)),
      min_(type),
      max_(type) {}

void ColumnSegment::MergeStatsValue(const Value& v) {
  if (v.is_null()) {
    null_count_++;
    return;
  }
  if (min_.is_null() || v.Compare(min_) < 0) min_ = v;
  if (max_.is_null() || v.Compare(max_) > 0) max_ = v;
}

int64_t ColumnSegment::PlainIntAt(idx_t row) const {
  if (width_ == 4) {
    return reinterpret_cast<const int32_t*>(data_.get())[row];
  }
  return reinterpret_cast<const int64_t*>(data_.get())[row];
}

int64_t ColumnSegment::EncodedIntAt(idx_t row) const {
  uint64_t packed = packedbits::Get(packed_.data(), row, code_bits_);
  if (encoding_ == SegmentEncoding::kDictionary) {
    return int_dict_[packed];
  }
  return for_base_ + static_cast<int64_t>(packed);
}

void ColumnSegment::ReleasePlain() {
  data_.reset();
  heap_ = ArenaAllocator();
}

void ColumnSegment::Append(const Vector& source, idx_t source_offset,
                           idx_t target_offset, idx_t count) {
  // Appends land on partially-filled segments loaded from a checkpoint
  // in encoded form; fall back to the mutable plain representation.
  if (encoding_ != SegmentEncoding::kPlain) EnsurePlain();
  if (type_ == TypeId::kVarchar) {
    StringRef* dst = reinterpret_cast<StringRef*>(data_.get());
    for (idx_t i = 0; i < count; i++) {
      idx_t s = source_offset + i, t = target_offset + i;
      if (source.validity().RowIsValid(s)) {
        dst[t] = heap_.AddString(source.StringAt(s));
        SetValid(t, true);
        MergeStatsValue(Value::Varchar(dst[t].ToString()));
      } else {
        dst[t] = StringRef();
        SetValid(t, false);
        null_count_++;
      }
    }
    return;
  }
  std::memcpy(data_.get() + target_offset * width_,
              source.raw_data() + source_offset * width_, count * width_);
  for (idx_t i = 0; i < count; i++) {
    idx_t s = source_offset + i, t = target_offset + i;
    bool valid = source.validity().RowIsValid(s);
    SetValid(t, valid);
    if (!valid) {
      std::memset(data_.get() + t * width_, 0, width_);  // unspecified bytes
      null_count_++;
    } else {
      MergeStatsValue(source.GetValue(s));
    }
  }
}

void ColumnSegment::Read(idx_t offset, idx_t count, Vector* out) const {
  switch (encoding_) {
    case SegmentEncoding::kPlain:
      break;
    case SegmentEncoding::kDictionary: {
      if (type_ == TypeId::kVarchar) {
        // Late materialization: hand out codes plus the shared
        // dictionary; no string bytes are touched or copied.
        out->SetDictionary(dict_, count);
        uint32_t* codes = out->data<uint32_t>();
        for (idx_t i = 0; i < count; i++) {
          codes[i] = static_cast<uint32_t>(
              packedbits::Get(packed_.data(), offset + i, code_bits_));
          out->validity().Set(i, RowIsValid(offset + i));
        }
        return;
      }
      // Integer dictionary: decode to plain (integer consumers are
      // already cheap; the win is footprint + code-space filters).
      if (width_ == 4) {
        int32_t* dst = out->data<int32_t>();
        for (idx_t i = 0; i < count; i++) {
          bool valid = RowIsValid(offset + i);
          dst[i] = valid ? static_cast<int32_t>(EncodedIntAt(offset + i)) : 0;
          out->validity().Set(i, valid);
        }
      } else {
        int64_t* dst = out->data<int64_t>();
        for (idx_t i = 0; i < count; i++) {
          bool valid = RowIsValid(offset + i);
          dst[i] = valid ? EncodedIntAt(offset + i) : 0;
          out->validity().Set(i, valid);
        }
      }
      return;
    }
    case SegmentEncoding::kFor: {
      if (width_ == 4) {
        int32_t* dst = out->data<int32_t>();
        for (idx_t i = 0; i < count; i++) {
          bool valid = RowIsValid(offset + i);
          dst[i] = valid ? static_cast<int32_t>(EncodedIntAt(offset + i)) : 0;
          out->validity().Set(i, valid);
        }
      } else {
        int64_t* dst = out->data<int64_t>();
        for (idx_t i = 0; i < count; i++) {
          bool valid = RowIsValid(offset + i);
          dst[i] = valid ? EncodedIntAt(offset + i) : 0;
          out->validity().Set(i, valid);
        }
      }
      return;
    }
  }
  if (type_ == TypeId::kVarchar) {
    const StringRef* src = reinterpret_cast<const StringRef*>(data_.get());
    StringRef* dst = out->data<StringRef>();
    for (idx_t i = 0; i < count; i++) {
      idx_t s = offset + i;
      if (RowIsValid(s)) {
        dst[i] = out->heap().AddString(src[s]);
        out->validity().SetValid(i);
      } else {
        out->validity().SetInvalid(i);
      }
    }
    return;
  }
  std::memcpy(out->raw_data(), data_.get() + offset * width_, count * width_);
  for (idx_t i = 0; i < count; i++) {
    out->validity().Set(i, RowIsValid(offset + i));
  }
}

void ColumnSegment::ReadSelection(idx_t offset, const uint32_t* sel,
                                  idx_t count, Vector* out) const {
  switch (encoding_) {
    case SegmentEncoding::kPlain:
      break;
    case SegmentEncoding::kDictionary:
      if (type_ == TypeId::kVarchar) {
        out->SetDictionary(dict_, count);
        uint32_t* codes = out->data<uint32_t>();
        for (idx_t i = 0; i < count; i++) {
          idx_t s = offset + sel[i];
          codes[i] = static_cast<uint32_t>(
              packedbits::Get(packed_.data(), s, code_bits_));
          out->validity().Set(i, RowIsValid(s));
        }
        return;
      }
      [[fallthrough]];
    case SegmentEncoding::kFor: {
      if (width_ == 4) {
        int32_t* dst = out->data<int32_t>();
        for (idx_t i = 0; i < count; i++) {
          idx_t s = offset + sel[i];
          bool valid = RowIsValid(s);
          dst[i] = valid ? static_cast<int32_t>(EncodedIntAt(s)) : 0;
          out->validity().Set(i, valid);
        }
      } else {
        int64_t* dst = out->data<int64_t>();
        for (idx_t i = 0; i < count; i++) {
          idx_t s = offset + sel[i];
          bool valid = RowIsValid(s);
          dst[i] = valid ? EncodedIntAt(s) : 0;
          out->validity().Set(i, valid);
        }
      }
      return;
    }
  }
  if (type_ == TypeId::kVarchar) {
    const StringRef* src = reinterpret_cast<const StringRef*>(data_.get());
    StringRef* dst = out->data<StringRef>();
    for (idx_t i = 0; i < count; i++) {
      idx_t s = offset + sel[i];
      if (RowIsValid(s)) {
        dst[i] = out->heap().AddString(src[s]);
        out->validity().SetValid(i);
      } else {
        out->validity().SetInvalid(i);
      }
    }
    return;
  }
  switch (width_) {
    case 1: {
      const int8_t* src = reinterpret_cast<const int8_t*>(data_.get());
      int8_t* dst = out->data<int8_t>();
      for (idx_t i = 0; i < count; i++) dst[i] = src[offset + sel[i]];
      break;
    }
    case 4: {
      const int32_t* src = reinterpret_cast<const int32_t*>(data_.get());
      int32_t* dst = out->data<int32_t>();
      for (idx_t i = 0; i < count; i++) dst[i] = src[offset + sel[i]];
      break;
    }
    default: {
      const int64_t* src = reinterpret_cast<const int64_t*>(data_.get());
      int64_t* dst = out->data<int64_t>();
      for (idx_t i = 0; i < count; i++) dst[i] = src[offset + sel[i]];
      break;
    }
  }
  for (idx_t i = 0; i < count; i++) {
    out->validity().Set(i, RowIsValid(offset + sel[i]));
  }
}

Value ColumnSegment::GetValue(idx_t row) const {
  if (!RowIsValid(row)) return Value::Null(type_);
  switch (encoding_) {
    case SegmentEncoding::kPlain:
      break;
    case SegmentEncoding::kDictionary:
      if (type_ == TypeId::kVarchar) {
        uint64_t code = packedbits::Get(packed_.data(), row, code_bits_);
        return Value::Varchar(dict_->entries[code].ToString());
      }
      return MakeIntValue(type_, EncodedIntAt(row));
    case SegmentEncoding::kFor:
      return MakeIntValue(type_, EncodedIntAt(row));
  }
  switch (type_) {
    case TypeId::kBoolean:
      return Value::Boolean(
          reinterpret_cast<const int8_t*>(data_.get())[row] != 0);
    case TypeId::kInteger:
      return Value::Integer(
          reinterpret_cast<const int32_t*>(data_.get())[row]);
    case TypeId::kDate:
      return Value::Date(reinterpret_cast<const int32_t*>(data_.get())[row]);
    case TypeId::kBigInt:
      return Value::BigInt(reinterpret_cast<const int64_t*>(data_.get())[row]);
    case TypeId::kTimestamp:
      return Value::Timestamp(
          reinterpret_cast<const int64_t*>(data_.get())[row]);
    case TypeId::kDouble:
      return Value::Double(reinterpret_cast<const double*>(data_.get())[row]);
    case TypeId::kVarchar:
      return Value::Varchar(
          reinterpret_cast<const StringRef*>(data_.get())[row].ToString());
    default:
      return Value();
  }
}

void ColumnSegment::WriteRow(idx_t row, const Vector& source,
                             idx_t source_row) {
  // Updates mutate in place; an encoded segment transparently decodes
  // back to plain first (it re-encodes at the next checkpoint).
  if (encoding_ != SegmentEncoding::kPlain) EnsurePlain();
  bool valid = source.validity().RowIsValid(source_row);
  bool was_valid = RowIsValid(row);
  SetValid(row, valid);
  if (!valid) {
    if (was_valid) null_count_++;
    return;
  }
  if (!was_valid && null_count_ > 0) null_count_--;
  if (type_ == TypeId::kVarchar) {
    // The old string bytes stay in the heap until the next checkpoint
    // rewrites the segment; in-place update only swaps the reference.
    reinterpret_cast<StringRef*>(data_.get())[row] =
        heap_.AddString(source.StringAt(source_row));
    MergeStatsValue(Value::Varchar(source.GetValue(source_row).GetString()));
    return;
  }
  std::memcpy(data_.get() + row * width_,
              source.raw_data() + source_row * width_, width_);
  MergeStatsValue(source.GetValue(source_row));
}

bool ColumnSegment::CheckZonemap(CompareOp op, const Value& constant) const {
  if (min_.is_null() || max_.is_null()) {
    // No non-NULL rows observed (or stats unavailable): cannot exclude.
    return null_count_ > 0 || min_.is_null();
  }
  if (constant.is_null()) return false;  // comparisons with NULL match nothing
  switch (op) {
    case CompareOp::kEqual:
      return min_.Compare(constant) <= 0 && max_.Compare(constant) >= 0;
    case CompareOp::kNotEqual:
      // Only excludable if every row equals the constant; be conservative.
      return true;
    case CompareOp::kLess:
      return min_.Compare(constant) < 0;
    case CompareOp::kLessEqual:
      return min_.Compare(constant) <= 0;
    case CompareOp::kGreater:
      return max_.Compare(constant) > 0;
    case CompareOp::kGreaterEqual:
      return max_.Compare(constant) >= 0;
  }
  return true;
}

idx_t ColumnSegment::FilterWindow(CompareOp op, const Value& constant,
                                  idx_t offset, uint32_t* sel,
                                  idx_t count) const {
  if (constant.type() != type_) {
    // The planner pushes same-typed constants only; keep everything and
    // let the residual filter decide (it stays exact by construction).
    return count;
  }
  if (constant.is_null()) return 0;  // comparisons with NULL match nothing
  if (encoding_ != SegmentEncoding::kPlain) {
    counters_->filter_windows.fetch_add(1, std::memory_order_relaxed);
  }
  idx_t m = 0;
  // Shared encoded-path loop: unpack + one branch-free range test per
  // row; the validity check hoists out entirely on all-valid segments
  // (the common case), and the emit is branchless so selectivity does
  // not stall the pipeline.
  auto FilterPackedCodes = [&](const CodePredicate& pred, idx_t off,
                               uint32_t* s, idx_t n) -> idx_t {
    const uint8_t* packed = packed_.data();
    const int bits = code_bits_;
    idx_t mm = 0;
    if (null_count_ == 0) {
      for (idx_t i = 0; i < n; i++) {
        uint64_t code = packedbits::Get(packed, off + s[i], bits);
        s[mm] = s[i];
        mm += pred.Pass(code) ? 1 : 0;
      }
    } else {
      for (idx_t i = 0; i < n; i++) {
        idx_t row = off + s[i];
        if (!RowIsValid(row)) continue;
        if (pred.Pass(packedbits::Get(packed, row, bits))) s[mm++] = s[i];
      }
    }
    return mm;
  };
  switch (encoding_) {
    case SegmentEncoding::kDictionary: {
      // Translate the constant into code space once; rows then compare
      // bit-packed codes without materializing a single value.
      uint64_t lower, upper, entry_count;
      if (type_ == TypeId::kVarchar) {
        std::string s = constant.GetString();
        StringRef ref(s.data(), static_cast<uint32_t>(s.size()));
        const auto& e = dict_->entries;
        lower = std::lower_bound(e.begin(), e.end(), ref) - e.begin();
        upper = std::upper_bound(e.begin(), e.end(), ref) - e.begin();
        entry_count = e.size();
      } else {
        int64_t v = constant.GetAsBigInt();
        lower = std::lower_bound(int_dict_.begin(), int_dict_.end(), v) -
                int_dict_.begin();
        upper = std::upper_bound(int_dict_.begin(), int_dict_.end(), v) -
                int_dict_.begin();
        entry_count = int_dict_.size();
      }
      CodePredicate pred;
      if (!TranslateToCodeSpace(op, lower, upper, entry_count, &pred)) {
        return 0;
      }
      return FilterPackedCodes(pred, offset, sel, count);
    }
    case SegmentEncoding::kFor: {
      // code == value - base is monotonic, so clamping the constant into
      // the dense [0, 2^bits) delta domain gives the same exact
      // lower/upper window a sorted dictionary would — rows then compare
      // raw packed deltas, no base add, no per-row op dispatch.
      __int128 rel =
          static_cast<__int128>(constant.GetAsBigInt()) - for_base_;
      uint64_t domain = packedbits::MaskOf(code_bits_) + 1;
      uint64_t lower, upper;
      if (rel < 0) {
        lower = upper = 0;
      } else if (rel >= static_cast<__int128>(domain)) {
        lower = upper = domain;
      } else {
        lower = static_cast<uint64_t>(rel);
        upper = lower + 1;
      }
      CodePredicate pred;
      if (!TranslateToCodeSpace(op, lower, upper, domain, &pred)) {
        return 0;
      }
      return FilterPackedCodes(pred, offset, sel, count);
    }
    case SegmentEncoding::kPlain:
      break;
  }
  switch (type_) {
    case TypeId::kVarchar: {
      std::string s = constant.GetString();
      StringRef ref(s.data(), static_cast<uint32_t>(s.size()));
      const StringRef* data = reinterpret_cast<const StringRef*>(data_.get());
      for (idx_t i = 0; i < count; i++) {
        idx_t row = offset + sel[i];
        if (RowIsValid(row) && CompareString(data[row], op, ref)) {
          sel[m++] = sel[i];
        }
      }
      return m;
    }
    case TypeId::kDouble: {
      double c = constant.GetAsDouble();
      const double* data = reinterpret_cast<const double*>(data_.get());
      for (idx_t i = 0; i < count; i++) {
        idx_t row = offset + sel[i];
        if (RowIsValid(row) && CompareDouble(data[row], op, c)) {
          sel[m++] = sel[i];
        }
      }
      return m;
    }
    case TypeId::kBoolean: {
      int64_t c = constant.GetBoolean() ? 1 : 0;
      const int8_t* data = reinterpret_cast<const int8_t*>(data_.get());
      for (idx_t i = 0; i < count; i++) {
        idx_t row = offset + sel[i];
        if (RowIsValid(row) && CompareInt64(data[row] != 0 ? 1 : 0, op, c)) {
          sel[m++] = sel[i];
        }
      }
      return m;
    }
    default: {
      // Plain ints get the same one-compare-per-row treatment as the
      // encoded paths: the op folds into a biased-unsigned range once.
      Int64RangePred pred = Int64RangePred::Make(op, constant.GetAsBigInt());
      if (pred.none) return 0;
      if (width_ == 4) {
        const int32_t* data = reinterpret_cast<const int32_t*>(data_.get());
        if (null_count_ == 0) {
          for (idx_t i = 0; i < count; i++) {
            sel[m] = sel[i];
            m += pred.Pass(data[offset + sel[i]]) ? 1 : 0;
          }
        } else {
          for (idx_t i = 0; i < count; i++) {
            idx_t row = offset + sel[i];
            if (RowIsValid(row) && pred.Pass(data[row])) sel[m++] = sel[i];
          }
        }
      } else {
        const int64_t* data = reinterpret_cast<const int64_t*>(data_.get());
        if (null_count_ == 0) {
          for (idx_t i = 0; i < count; i++) {
            sel[m] = sel[i];
            m += pred.Pass(data[offset + sel[i]]) ? 1 : 0;
          }
        } else {
          for (idx_t i = 0; i < count; i++) {
            idx_t row = offset + sel[i];
            if (RowIsValid(row) && pred.Pass(data[row])) sel[m++] = sel[i];
          }
        }
      }
      return m;
    }
  }
}

void ColumnSegment::FinalizeEncoding(idx_t row_count) {
  if (encoding_ != SegmentEncoding::kPlain || row_count == 0 || !data_) {
    return;
  }
  ForceEncoding force = GetForcedEncoding();
  if (force == ForceEncoding::kPlain) return;
  if (type_ == TypeId::kVarchar) {
    if (force == ForceEncoding::kFor) return;  // FOR is integer-only
    std::vector<StringRef> distinct;
    distinct.reserve(row_count);
    const StringRef* refs = reinterpret_cast<const StringRef*>(data_.get());
    for (idx_t row = 0; row < row_count; row++) {
      if (RowIsValid(row)) distinct.push_back(refs[row]);
    }
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end(),
                               [](const StringRef& a, const StringRef& b) {
                                 return a == b;
                               }),
                   distinct.end());
    if (force != ForceEncoding::kDict &&
        distinct.size() > kMaxAutoDictEntries) {
      return;  // dictionary overflow: stay plain
    }
    EncodeDictionaryVarchar(row_count, distinct);
    return;
  }
  if (!IsIntFamily(type_)) return;  // bool/double stay plain
  if (null_count_ >= row_count || min_.is_null()) {
    // All-NULL segment: a zero-bit frame of reference (or an empty
    // dictionary under the force override) stores no payload at all.
    if (force == ForceEncoding::kDict) {
      EncodeDictionaryInt(row_count, {});
    } else {
      EncodeFor(row_count, 0, 0);
    }
    return;
  }
  int64_t min_v = min_.GetAsBigInt();
  int64_t max_v = max_.GetAsBigInt();
  uint64_t range =
      static_cast<uint64_t>(max_v) - static_cast<uint64_t>(min_v);
  uint8_t for_bits = packedbits::BitsFor(range);
  if (force == ForceEncoding::kFor) {
    if (for_bits <= packedbits::kMaxBits) EncodeFor(row_count, min_v, for_bits);
    return;
  }
  std::vector<int64_t> distinct;
  distinct.reserve(std::min<idx_t>(row_count, kMaxAutoDictEntries + 1));
  {
    std::vector<int64_t> values;
    values.reserve(row_count);
    for (idx_t row = 0; row < row_count; row++) {
      if (RowIsValid(row)) values.push_back(PlainIntAt(row));
    }
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    distinct = std::move(values);
  }
  if (force == ForceEncoding::kDict) {
    EncodeDictionaryInt(row_count, distinct);
    return;
  }
  // Auto: pick the smaller of dictionary and FOR, and only encode at all
  // when it saves at least 25% over the plain array (MonetDBLite's
  // lesson: bytes moved is the scan bottleneck, but re-encoding noise
  // for incompressible data is pure cost).
  uint64_t plain_bytes = row_count * width_;
  uint8_t dict_bits = packedbits::BitsFor(
      distinct.empty() ? 0 : distinct.size() - 1);
  uint64_t dict_bytes = distinct.size() * 8 + (row_count * dict_bits + 7) / 8;
  uint64_t for_bytes = for_bits <= packedbits::kMaxBits
                           ? (row_count * static_cast<uint64_t>(for_bits) + 7) / 8
                           : ~uint64_t(0);
  uint64_t best = std::min(dict_bytes, for_bytes);
  if (best * 4 > plain_bytes * 3) return;  // < 25% saving: stay plain
  if (dict_bytes < for_bytes && distinct.size() <= kMaxAutoDictEntries) {
    EncodeDictionaryInt(row_count, distinct);
  } else if (for_bits <= packedbits::kMaxBits) {
    EncodeFor(row_count, min_v, for_bits);
  }
}

void ColumnSegment::EncodeDictionaryVarchar(
    idx_t rows, const std::vector<StringRef>& sorted_distinct) {
  auto dict = std::make_shared<VectorDictionary>();
  dict->entries.reserve(sorted_distinct.size());
  for (const StringRef& s : sorted_distinct) {
    dict->entries.push_back(dict->heap.AddString(s));
  }
  code_bits_ = packedbits::BitsFor(
      sorted_distinct.empty() ? 0 : sorted_distinct.size() - 1);
  packed_.assign(packedbits::BytesFor(rows, code_bits_), 0);
  logical_heap_bytes_ = 0;
  const StringRef* refs = reinterpret_cast<const StringRef*>(data_.get());
  for (idx_t row = 0; row < rows; row++) {
    if (!RowIsValid(row)) continue;
    uint64_t code = std::lower_bound(dict->entries.begin(),
                                     dict->entries.end(), refs[row]) -
                    dict->entries.begin();
    packedbits::Set(packed_.data(), row, code_bits_, code);
    logical_heap_bytes_ += refs[row].size;
  }
  dict_ = std::move(dict);
  encoded_rows_ = rows;
  encoding_ = SegmentEncoding::kDictionary;
  ReleasePlain();
  counters_->encodes.fetch_add(1, std::memory_order_relaxed);
}

void ColumnSegment::EncodeDictionaryInt(
    idx_t rows, const std::vector<int64_t>& sorted_distinct) {
  int_dict_ = sorted_distinct;
  code_bits_ = packedbits::BitsFor(
      int_dict_.empty() ? 0 : int_dict_.size() - 1);
  packed_.assign(packedbits::BytesFor(rows, code_bits_), 0);
  for (idx_t row = 0; row < rows; row++) {
    if (!RowIsValid(row)) continue;
    uint64_t code = std::lower_bound(int_dict_.begin(), int_dict_.end(),
                                     PlainIntAt(row)) -
                    int_dict_.begin();
    packedbits::Set(packed_.data(), row, code_bits_, code);
  }
  encoded_rows_ = rows;
  encoding_ = SegmentEncoding::kDictionary;
  ReleasePlain();
  counters_->encodes.fetch_add(1, std::memory_order_relaxed);
}

void ColumnSegment::EncodeFor(idx_t rows, int64_t base, uint8_t bits) {
  for_base_ = base;
  code_bits_ = bits;
  packed_.assign(packedbits::BytesFor(rows, bits), 0);
  for (idx_t row = 0; row < rows; row++) {
    if (!RowIsValid(row)) continue;
    uint64_t delta = static_cast<uint64_t>(PlainIntAt(row)) -
                     static_cast<uint64_t>(base);
    packedbits::Set(packed_.data(), row, bits, delta);
  }
  encoded_rows_ = rows;
  encoding_ = SegmentEncoding::kFor;
  ReleasePlain();
  counters_->encodes.fetch_add(1, std::memory_order_relaxed);
}

void ColumnSegment::EnsurePlain() {
  if (encoding_ == SegmentEncoding::kPlain) return;
  idx_t rows = encoded_rows_;
  data_ = std::make_unique<uint8_t[]>(width_ * kRowGroupSize);
  if (type_ == TypeId::kVarchar) {
    StringRef* refs = reinterpret_cast<StringRef*>(data_.get());
    for (idx_t row = 0; row < rows; row++) {
      if (!RowIsValid(row)) {
        refs[row] = StringRef();
        continue;
      }
      uint64_t code = packedbits::Get(packed_.data(), row, code_bits_);
      refs[row] = heap_.AddString(dict_->entries[code]);
    }
  } else if (width_ == 4) {
    int32_t* dst = reinterpret_cast<int32_t*>(data_.get());
    for (idx_t row = 0; row < rows; row++) {
      dst[row] = RowIsValid(row)
                     ? static_cast<int32_t>(EncodedIntAt(row))
                     : 0;
    }
  } else {
    int64_t* dst = reinterpret_cast<int64_t*>(data_.get());
    for (idx_t row = 0; row < rows; row++) {
      dst[row] = RowIsValid(row) ? EncodedIntAt(row) : 0;
    }
  }
  dict_.reset();
  int_dict_.clear();
  int_dict_.shrink_to_fit();
  packed_.clear();
  packed_.shrink_to_fit();
  encoding_ = SegmentEncoding::kPlain;
  encoded_rows_ = 0;
  code_bits_ = 0;
  for_base_ = 0;
  logical_heap_bytes_ = 0;
  counters_->decodes.fetch_add(1, std::memory_order_relaxed);
}

idx_t ColumnSegment::dict_entry_count() const {
  if (encoding_ != SegmentEncoding::kDictionary) return 0;
  return dict_ ? dict_->entries.size() : int_dict_.size();
}

idx_t ColumnSegment::EncodedBytes(idx_t rows) const {
  switch (encoding_) {
    case SegmentEncoding::kPlain:
      return rows * width_ + heap_.TotalUsed();
    case SegmentEncoding::kDictionary: {
      idx_t dict_bytes = dict_ ? dict_->entries.size() * sizeof(StringRef) +
                                     dict_->heap.TotalUsed()
                               : int_dict_.size() * 8;
      return packed_.size() + dict_bytes;
    }
    case SegmentEncoding::kFor:
      return packed_.size() + 8;
  }
  return 0;
}

idx_t ColumnSegment::LogicalBytes(idx_t rows) const {
  idx_t heap_bytes = 0;
  if (type_ == TypeId::kVarchar) {
    heap_bytes = encoding_ == SegmentEncoding::kPlain ? heap_.TotalUsed()
                                                      : logical_heap_bytes_;
  }
  return rows * width_ + heap_bytes;
}

void ColumnSegment::Serialize(BinaryWriter* writer, idx_t count) const {
  writer->WriteU64(count);
  for (idx_t w = 0; w < (count + 63) / 64; w++) {
    writer->WriteU64(validity_[w]);
  }
  writer->WriteU8(static_cast<uint8_t>(encoding_));
  switch (encoding_) {
    case SegmentEncoding::kDictionary: {
      if (type_ == TypeId::kVarchar) {
        writer->WriteU32(static_cast<uint32_t>(dict_->entries.size()));
        for (const StringRef& e : dict_->entries) {
          writer->WriteU32(e.size);
          writer->WriteBytes(e.data, e.size);
        }
      } else {
        writer->WriteU32(static_cast<uint32_t>(int_dict_.size()));
        for (int64_t v : int_dict_) writer->WriteI64(v);
      }
      writer->WriteU8(code_bits_);
      writer->WriteU64(packed_.size());
      writer->WriteBytes(packed_.data(), packed_.size());
      writer->WriteU64(logical_heap_bytes_);
      return;
    }
    case SegmentEncoding::kFor: {
      writer->WriteI64(for_base_);
      writer->WriteU8(code_bits_);
      writer->WriteU64(packed_.size());
      writer->WriteBytes(packed_.data(), packed_.size());
      bool has_stats = !min_.is_null();
      writer->WriteBool(has_stats);
      if (has_stats) {
        writer->WriteI64(min_.GetAsBigInt());
        writer->WriteI64(max_.GetAsBigInt());
      }
      return;
    }
    case SegmentEncoding::kPlain:
      break;
  }
  if (type_ == TypeId::kVarchar) {
    const StringRef* refs = reinterpret_cast<const StringRef*>(data_.get());
    for (idx_t i = 0; i < count; i++) {
      if (RowIsValid(i)) {
        writer->WriteU32(refs[i].size);
        writer->WriteBytes(refs[i].data, refs[i].size);
      } else {
        writer->WriteU32(0);
      }
    }
  } else {
    writer->WriteBytes(data_.get(), count * width_);
  }
}

Result<std::unique_ptr<ColumnSegment>> ColumnSegment::Deserialize(
    BinaryReader* reader, TypeId type, idx_t expected_count,
    EncodingCounters* counters) {
  auto segment = std::make_unique<ColumnSegment>(type, counters);
  uint64_t count;
  MALLARD_RETURN_NOT_OK(reader->ReadU64(&count));
  if (count != expected_count || count > kRowGroupSize) {
    return Status::Corruption("column segment row count mismatch");
  }
  for (idx_t w = 0; w < (count + 63) / 64; w++) {
    MALLARD_RETURN_NOT_OK(reader->ReadU64(&segment->validity_[w]));
  }
  uint8_t encoding_byte;
  MALLARD_RETURN_NOT_OK(reader->ReadU8(&encoding_byte));
  if (encoding_byte > static_cast<uint8_t>(SegmentEncoding::kFor)) {
    return Status::Corruption("column segment has unknown encoding");
  }
  SegmentEncoding encoding = static_cast<SegmentEncoding>(encoding_byte);
  if (encoding != SegmentEncoding::kPlain) {
    // Encoded round-trip: the segment stays encoded in memory; scans
    // read codes directly and updates decode on demand.
    idx_t valid_rows = 0;
    for (idx_t i = 0; i < count; i++) {
      if (segment->RowIsValid(i)) valid_rows++;
    }
    segment->null_count_ = count - valid_rows;
    if (encoding == SegmentEncoding::kDictionary) {
      uint32_t entry_count;
      MALLARD_RETURN_NOT_OK(reader->ReadU32(&entry_count));
      if (entry_count > kRowGroupSize) {
        return Status::Corruption("dictionary entry count out of range");
      }
      if (type == TypeId::kVarchar) {
        auto dict = std::make_shared<VectorDictionary>();
        dict->entries.reserve(entry_count);
        std::string scratch;
        for (uint32_t i = 0; i < entry_count; i++) {
          MALLARD_RETURN_NOT_OK(reader->ReadString(&scratch));
          dict->entries.push_back(
              dict->heap.AddString(scratch.data(),
                                   static_cast<uint32_t>(scratch.size())));
          if (i > 0 && dict->entries[i] < dict->entries[i - 1]) {
            return Status::Corruption("dictionary entries not sorted");
          }
        }
        segment->dict_ = std::move(dict);
      } else {
        segment->int_dict_.resize(entry_count);
        for (uint32_t i = 0; i < entry_count; i++) {
          MALLARD_RETURN_NOT_OK(reader->ReadI64(&segment->int_dict_[i]));
          if (i > 0 && segment->int_dict_[i] < segment->int_dict_[i - 1]) {
            return Status::Corruption("dictionary entries not sorted");
          }
        }
      }
      MALLARD_RETURN_NOT_OK(reader->ReadU8(&segment->code_bits_));
      uint64_t packed_size;
      MALLARD_RETURN_NOT_OK(reader->ReadU64(&packed_size));
      if (segment->code_bits_ > packedbits::kMaxBits ||
          packed_size != packedbits::BytesFor(count, segment->code_bits_)) {
        return Status::Corruption("dictionary code array size mismatch");
      }
      segment->packed_.resize(packed_size);
      MALLARD_RETURN_NOT_OK(
          reader->ReadBytes(segment->packed_.data(), packed_size));
      uint64_t logical_heap;
      MALLARD_RETURN_NOT_OK(reader->ReadU64(&logical_heap));
      segment->logical_heap_bytes_ = logical_heap;
      // Validate every stored code and derive zone maps from the sorted
      // dictionary (first/last entry are min/max).
      idx_t entries = segment->dict_ ? segment->dict_->entries.size()
                                     : segment->int_dict_.size();
      for (idx_t i = 0; i < count; i++) {
        if (!segment->RowIsValid(i)) continue;
        uint64_t code = packedbits::Get(segment->packed_.data(), i,
                                        segment->code_bits_);
        if (code >= entries) {
          return Status::Corruption("dictionary code out of range");
        }
      }
      if (valid_rows > 0 && entries > 0) {
        if (type == TypeId::kVarchar) {
          segment->min_ =
              Value::Varchar(segment->dict_->entries.front().ToString());
          segment->max_ =
              Value::Varchar(segment->dict_->entries.back().ToString());
        } else {
          segment->min_ = MakeIntValue(type, segment->int_dict_.front());
          segment->max_ = MakeIntValue(type, segment->int_dict_.back());
        }
      }
    } else {  // kFor
      MALLARD_RETURN_NOT_OK(reader->ReadI64(&segment->for_base_));
      MALLARD_RETURN_NOT_OK(reader->ReadU8(&segment->code_bits_));
      uint64_t packed_size;
      MALLARD_RETURN_NOT_OK(reader->ReadU64(&packed_size));
      if (segment->code_bits_ > packedbits::kMaxBits ||
          packed_size != packedbits::BytesFor(count, segment->code_bits_)) {
        return Status::Corruption("FOR delta array size mismatch");
      }
      segment->packed_.resize(packed_size);
      MALLARD_RETURN_NOT_OK(
          reader->ReadBytes(segment->packed_.data(), packed_size));
      bool has_stats;
      MALLARD_RETURN_NOT_OK(reader->ReadBool(&has_stats));
      if (has_stats) {
        int64_t min_v, max_v;
        MALLARD_RETURN_NOT_OK(reader->ReadI64(&min_v));
        MALLARD_RETURN_NOT_OK(reader->ReadI64(&max_v));
        segment->min_ = MakeIntValue(type, min_v);
        segment->max_ = MakeIntValue(type, max_v);
      }
    }
    segment->encoding_ = encoding;
    segment->encoded_rows_ = count;
    segment->ReleasePlain();  // drop the constructor's plain array
    return segment;
  }
  if (type == TypeId::kVarchar) {
    StringRef* refs = reinterpret_cast<StringRef*>(segment->data_.get());
    std::string scratch;
    for (idx_t i = 0; i < count; i++) {
      uint32_t len;
      MALLARD_RETURN_NOT_OK(reader->ReadU32(&len));
      if (segment->RowIsValid(i)) {
        scratch.resize(len);
        MALLARD_RETURN_NOT_OK(reader->ReadBytes(scratch.data(), len));
        refs[i] = segment->heap_.AddString(scratch.data(), len);
        segment->MergeStatsValue(Value::Varchar(scratch));
      } else {
        refs[i] = StringRef();
        segment->null_count_++;
      }
    }
  } else {
    MALLARD_RETURN_NOT_OK(
        reader->ReadBytes(segment->data_.get(), count * segment->width_));
    for (idx_t i = 0; i < count; i++) {
      if (segment->RowIsValid(i)) {
        segment->MergeStatsValue(segment->GetValue(i));
      } else {
        segment->null_count_++;
      }
    }
  }
  return segment;
}

idx_t ColumnSegment::MemoryUsage() const {
  if (encoding_ == SegmentEncoding::kPlain) {
    return width_ * kRowGroupSize + validity_.size() * 8 +
           heap_.TotalCapacity();
  }
  idx_t dict_bytes = int_dict_.capacity() * 8;
  if (dict_) {
    dict_bytes += dict_->entries.capacity() * sizeof(StringRef) +
                  dict_->heap.TotalCapacity();
  }
  return packed_.capacity() + dict_bytes + validity_.size() * 8;
}

}  // namespace mallard
