#ifndef MALLARD_EXECUTION_AGGREGATE_FUNCTION_H_
#define MALLARD_EXECUTION_AGGREGATE_FUNCTION_H_

#include <vector>

#include "mallard/common/arena.h"
#include "mallard/expression/bound_expression.h"

namespace mallard {

/// Accumulator for one aggregate over one group, boxed as a Value: the
/// tuple-at-a-time baseline engine's state (src/baseline/), kept as an
/// independent reference for the vectorized engine's AggStateLayout.
struct AggState {
  int64_t count = 0;
  int64_t isum = 0;
  double dsum = 0.0;
  Value extreme;  // MIN/MAX carrier
  bool seen = false;
};

/// Shared aggregate semantics: result types for the binder, and the
/// baseline row engine's boxed-value accumulator.
class AggregateFunction {
 public:
  /// Result type of `type` applied to an argument of `arg_type`.
  static TypeId ResolveType(AggType type, TypeId arg_type);

  /// Boxed-value update used by the baseline row engine.
  static void UpdateValue(AggType type, const Value& v, AggState* state);

  /// Produces the aggregate result.
  static Value Finalize(AggType type, TypeId result_type,
                        const AggState& state);

  static const char* Name(AggType type);
};

/// One aggregate's slot inside a compact fixed-width state row.
struct AggStateSlot {
  AggType type;
  TypeId arg_type;     // kInvalid for COUNT(*) and the untyped NULL
  TypeId result_type;
  uint32_t offset;     // byte offset inside the state row (8-aligned)
};

/// Fixed-width row layout for aggregate states: one state row per group,
/// one slot per aggregate, all slots 8 or 16 bytes. The hash aggregate
/// and the ungrouped aggregate both keep their states this way; updates
/// and the merge step of parallel aggregation are typed batch loops over
/// raw rows.
///
/// Slot contents (all-zero bytes are the initial state of every slot):
///   COUNT(*)/COUNT(x)           [int64 count]
///   SUM/AVG over INT/BIGINT     [int64 sum][int64 count]
///   SUM/AVG over DOUBLE         [double sum][int64 count]
///   MIN/MAX over INT/DATE/BOOL  [int32 value][int32 seen]
///   MIN/MAX over untyped NULL   [8 unused bytes] (never seen)
///   MIN/MAX over BIGINT/TS/DBL  [8B value][int64 seen]
///   MIN/MAX over VARCHAR        [const char* data][uint32 size][uint32 seen]
///
/// A VARCHAR extreme's bytes live in an ArenaAllocator owned by whoever
/// owns the state row; Update and Combine copy into the arena they are
/// given. Spilled state rows carry those bytes in a tail (AppendStrings /
/// LoadStrings), never the pointer's target.
class AggStateLayout {
 public:
  static AggStateLayout Plan(const std::vector<BoundAggregate>& aggregates);

  /// Bytes per state row (multiple of 8; 0 for an empty aggregate list).
  idx_t row_size() const { return row_size_; }
  const std::vector<AggStateSlot>& slots() const { return slots_; }

  /// Folds rows of `arg` into slot `slot_index` of the state rows of the
  /// rows' groups: input row i (or sel[i] when `sel` is given) updates
  /// the state row of group group_ids[i] inside `base`. `arg` is null
  /// for COUNT(*). One type dispatch per call, typed loops inside.
  /// Improved VARCHAR extremes are copied into `strings`.
  void Update(idx_t slot_index, const Vector* arg, idx_t count,
              const idx_t* group_ids, const uint32_t* sel, uint8_t* base,
              ArenaAllocator* strings) const;

  /// Batch combine: folds `count` consecutive source state rows
  /// (groups src_first .. src_first+count of `src_base`) into the
  /// destination state rows of groups dst_ids[0..count) — slot-major
  /// typed loops, the merge kernel of radix-partitioned aggregation.
  /// Winning VARCHAR extremes are copied into `dst_strings`.
  void Combine(const uint8_t* src_base, idx_t src_first, idx_t count,
               const idx_t* dst_ids, uint8_t* dst_base,
               ArenaAllocator* dst_strings) const;

  /// Produces the result of slot `slot_index` from one state row.
  Value Finalize(idx_t slot_index, const uint8_t* row) const;

  /// Spill-row tail: appends [u32 len | bytes] to `out` for every seen
  /// VARCHAR slot of `row`, in slot order.
  void AppendStrings(const uint8_t* row, std::vector<uint8_t>* out) const;

  /// Reads a tail written by AppendStrings for the state row `row` (whose
  /// pointers came back from a spill and are stale), copies the bytes
  /// into `strings` and re-points the seen VARCHAR slots at them.
  void LoadStrings(const uint8_t* tail, uint8_t* row,
                   ArenaAllocator* strings) const;

 private:
  idx_t row_size_ = 0;
  std::vector<AggStateSlot> slots_;
  std::vector<uint32_t> string_offsets_;  // offsets of VARCHAR MIN/MAX slots
};

}  // namespace mallard

#endif  // MALLARD_EXECUTION_AGGREGATE_FUNCTION_H_
