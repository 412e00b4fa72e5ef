#ifndef MALLARD_STORAGE_TABLE_COLUMN_SEGMENT_H_
#define MALLARD_STORAGE_TABLE_COLUMN_SEGMENT_H_

#include <atomic>
#include <memory>
#include <vector>

#include "mallard/common/arena.h"
#include "mallard/common/serializer.h"
#include "mallard/common/value.h"
#include "mallard/vector/vector.h"

namespace mallard {

/// Comparison operator shared between table filters, zone maps and the
/// expression layer.
enum class CompareOp : uint8_t {
  kEqual,
  kNotEqual,
  kLess,
  kLessEqual,
  kGreater,
  kGreaterEqual,
};

/// The SQL symbol of `op` ("=", "<>", "<", ...).
const char* CompareOpSymbol(CompareOp op);

/// Physical representation of one column segment's data.
enum class SegmentEncoding : uint8_t {
  kPlain = 0,       // typed array + string heap (the append-time form)
  kDictionary = 1,  // sorted distinct values + bit-packed codes
  kFor = 2,         // frame of reference: base + bit-packed deltas (ints)
};

const char* SegmentEncodingToString(SegmentEncoding encoding);

/// Encoding and scan-filter event counters of one Database, surfaced
/// by PRAGMA storage_stats. Every segment and scan of that Database's
/// tables ticks them.
struct EncodingCounters {
  std::atomic<uint64_t> encodes{0};         // segments encoded
  std::atomic<uint64_t> decodes{0};         // EnsurePlain fallbacks
  std::atomic<uint64_t> filter_windows{0};  // code-space filter calls
  std::atomic<uint64_t> zonemap_skips{0};   // row groups pruned by scans
};

/// Column data for one row group. Starts life as a plain fixed-capacity
/// typed array plus validity bitmap, string heap and zone-map statistics
/// (min/max/null count); once the row group fills (or at checkpoint) the
/// segment is re-encoded — dictionary for VARCHAR and low-cardinality
/// integers, frame-of-reference bit-packing for narrow-range integers —
/// and the plain array is released. Scans read the encoded form directly
/// (dictionary vectors, code-space filters); updates transparently decode
/// back to plain via EnsurePlain(). Columns are stored independently so
/// that updating one column never rewrites the others (paper section 2).
class ColumnSegment {
 public:
  /// `counters` receives this segment's encode/decode/filter events.
  ColumnSegment(TypeId type, EncodingCounters* counters);

  TypeId type() const { return type_; }

  /// Appends `count` rows from `source[source_offset..]` at
  /// `target_offset`; updates zone maps. Decodes first if encoded.
  void Append(const Vector& source, idx_t source_offset, idx_t target_offset,
              idx_t count);

  /// Copies rows [offset, offset+count) into `out` rows [0, count).
  /// Dictionary VARCHAR segments hand out codes + the shared dictionary
  /// instead of materializing strings.
  void Read(idx_t offset, idx_t count, Vector* out) const;

  /// Gathers rows {offset + sel[i]} into `out` rows [0, count) — the
  /// late-materialization read after a code-space filter.
  void ReadSelection(idx_t offset, const uint32_t* sel, idx_t count,
                     Vector* out) const;

  /// Boxed access for the undo machinery and tests.
  Value GetValue(idx_t row) const;

  /// In-place single-value overwrite (update path); widens zone maps.
  /// Decodes the segment back to plain first if needed.
  void WriteRow(idx_t row, const Vector& source, idx_t source_row);

  bool RowIsValid(idx_t row) const {
    return (validity_[row / 64] >> (row % 64)) & 1;
  }

  /// Zone-map check: can any row in this segment satisfy
  /// `value <op> constant`? False means the row group can be skipped.
  bool CheckZonemap(CompareOp op, const Value& constant) const;

  /// Row-exact filter over window rows: keeps sel[i] (window-relative,
  /// absolute row = offset + sel[i]) iff `value <op> constant` is true,
  /// compacting `sel` in place; returns the surviving count. On encoded
  /// segments the constant is translated into code space once and rows
  /// are compared without materializing values. NULL rows never pass.
  /// Requires `constant` to be non-NULL and of this column's type.
  idx_t FilterWindow(CompareOp op, const Value& constant, idx_t offset,
                     uint32_t* sel, idx_t count) const;

  const Value& stats_min() const { return min_; }
  const Value& stats_max() const { return max_; }
  idx_t null_count() const { return null_count_; }

  /// --- encoding ----------------------------------------------------------
  /// Picks and applies an encoding for the first `row_count` rows (called
  /// when a row group fills and at checkpoint compaction). Honors the
  /// MALLARD_FORCE_ENCODING={plain,dict,for} override; no-op if already
  /// encoded or nothing would be saved.
  void FinalizeEncoding(idx_t row_count);
  /// Decodes back to the plain representation (update/append fallback).
  void EnsurePlain();

  SegmentEncoding encoding() const { return encoding_; }
  /// Number of dictionary entries (0 unless dictionary-encoded).
  idx_t dict_entry_count() const;
  /// Bytes the current representation holds for `rows` rows.
  idx_t EncodedBytes(idx_t rows) const;
  /// Bytes the plain representation would hold for `rows` rows.
  idx_t LogicalBytes(idx_t rows) const;

  /// Serializes the first `count` rows (encoded segments round-trip
  /// their encoded form).
  void Serialize(BinaryWriter* writer, idx_t count) const;
  static Result<std::unique_ptr<ColumnSegment>> Deserialize(
      BinaryReader* reader, TypeId type, idx_t count,
      EncodingCounters* counters);

  /// Approximate heap footprint (governor accounting).
  idx_t MemoryUsage() const;

 private:
  void SetValid(idx_t row, bool valid) {
    if (valid) {
      validity_[row / 64] |= uint64_t(1) << (row % 64);
    } else {
      validity_[row / 64] &= ~(uint64_t(1) << (row % 64));
    }
  }
  void MergeStatsValue(const Value& v);

  /// Reads a plain (decoded) integer-family value as int64.
  int64_t PlainIntAt(idx_t row) const;
  /// Decoded integer-family value of an encoded segment as int64.
  int64_t EncodedIntAt(idx_t row) const;
  void EncodeDictionaryVarchar(idx_t rows,
                               const std::vector<StringRef>& sorted_distinct);
  void EncodeDictionaryInt(idx_t rows,
                           const std::vector<int64_t>& sorted_distinct);
  void EncodeFor(idx_t rows, int64_t base, uint8_t bits);
  void ReleasePlain();

  friend class UpdateSegment;

  TypeId type_;
  EncodingCounters* counters_;
  idx_t width_;
  std::unique_ptr<uint8_t[]> data_;
  std::vector<uint64_t> validity_;
  ArenaAllocator heap_;  // VARCHAR payloads (plain representation)

  /// --- encoded representation (replaces data_/heap_ while active) -------
  SegmentEncoding encoding_ = SegmentEncoding::kPlain;
  idx_t encoded_rows_ = 0;    // rows covered by the encoded form
  uint8_t code_bits_ = 0;     // width of packed codes/deltas
  int64_t for_base_ = 0;      // frame of reference
  std::vector<uint8_t> packed_;  // bit-packed codes/deltas (padded)
  std::shared_ptr<VectorDictionary> dict_;  // VARCHAR dictionary (shared)
  std::vector<int64_t> int_dict_;           // integer dictionary (sorted)
  idx_t logical_heap_bytes_ = 0;  // plain-equivalent string bytes

  Value min_;
  Value max_;
  idx_t null_count_ = 0;
};

}  // namespace mallard

#endif  // MALLARD_STORAGE_TABLE_COLUMN_SEGMENT_H_
