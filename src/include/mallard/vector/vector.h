#ifndef MALLARD_VECTOR_VECTOR_H_
#define MALLARD_VECTOR_VECTOR_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mallard/common/arena.h"
#include "mallard/common/constants.h"
#include "mallard/common/types.h"
#include "mallard/common/value.h"
#include "mallard/vector/validity_mask.h"

namespace mallard {

/// The distinct VARCHAR values of a dictionary-encoded column segment,
/// sorted ascending (StringRef order == Value::Compare order), with the
/// string bytes owned by the dictionary's own arena. One dictionary is
/// shared by the owning ColumnSegment and every vector a scan hands out,
/// so parallel workers gather codes against the same immutable entries
/// without copying a single string byte.
struct VectorDictionary {
  std::vector<StringRef> entries;  // sorted; point into `heap`
  ArenaAllocator heap;

  /// Per-entry hashes, memoized on first use: varchar group keys and
  /// join keys hash a dictionary entry once per segment lifetime instead
  /// of once per row per query. Thread-safe (parallel scans share one
  /// dictionary across workers).
  const std::vector<uint64_t>& EntryHashes() const;

 private:
  mutable std::vector<uint64_t> hashes_;
  mutable std::once_flag hash_once_;
};

/// Owning backing store for one vector: a fixed-size data array plus a
/// string heap for VARCHAR payloads. Shared between vectors via
/// shared_ptr so that chunks can be handed over to client code and
/// projections can alias columns without copying (paper section 5).
///
/// Only VARCHAR buffers start zeroed (a NULL row holds an empty
/// reference). Fixed-width buffers start uninitialized: every reader
/// masks NULL rows by validity, a reused buffer holds stale values
/// anyway, and the writers that persist or ship raw bytes (column
/// segments, chunk serialization) zero NULL slots. Skipping the memset
/// keeps the chunks each execution's operator state allocates cheap.
struct VectorBuffer {
  explicit VectorBuffer(TypeId type)
      : data(type == TypeId::kVarchar
                 ? new uint8_t[TypeSize(type) * kVectorSize]()
                 : new uint8_t[TypeSize(type) * kVectorSize]) {}
  std::unique_ptr<uint8_t[]> data;
  ArenaAllocator heap;  // VARCHAR payload storage
  /// Keeps a dictionary alive after Flatten(): the flattened StringRefs
  /// point into the dictionary's arena, not into `heap`.
  std::shared_ptr<const VectorDictionary> keepalive;
};

/// A typed column slice of up to kVectorSize values with a validity mask.
/// The unit of data flow in the Vector Volcano execution model.
class Vector {
 public:
  /// Creates a vector with its own backing buffer.
  explicit Vector(TypeId type);

  Vector(const Vector&) = delete;
  Vector& operator=(const Vector&) = delete;
  Vector(Vector&&) = default;
  Vector& operator=(Vector&&) = default;

  TypeId type() const { return type_; }
  ValidityMask& validity() { return validity_; }
  const ValidityMask& validity() const { return validity_; }

  /// Raw typed data access.
  template <typename T>
  T* data() {
    return reinterpret_cast<T*>(data_);
  }
  template <typename T>
  const T* data() const {
    return reinterpret_cast<const T*>(data_);
  }
  uint8_t* raw_data() { return data_; }
  const uint8_t* raw_data() const { return data_; }

  /// The string heap backing VARCHAR entries of this vector.
  ArenaAllocator& heap() { return buffer_->heap; }

  /// --- dictionary representation (VARCHAR only) -------------------------
  /// A dictionary vector stores uint32 codes in the data array plus a
  /// shared pointer to the distinct values; consumers either gather via
  /// StringAt/Flatten or operate on the codes directly (hash kernels).
  bool is_dictionary() const { return dict_ != nullptr; }
  const VectorDictionary& dictionary() const { return *dict_; }
  const std::shared_ptr<const VectorDictionary>& dictionary_ptr() const {
    return dict_;
  }
  /// Rows [0, dictionary_rows()) hold valid codes; beyond is garbage.
  idx_t dictionary_rows() const { return dict_rows_; }
  /// Marks this vector dictionary-compressed; the caller then writes
  /// `rows` uint32 codes into data<uint32_t>().
  void SetDictionary(std::shared_ptr<const VectorDictionary> dict,
                     idx_t rows) {
    dict_ = std::move(dict);
    dict_rows_ = rows;
  }
  /// Decodes the codes into plain StringRefs (zero-copy: the refs point
  /// into the dictionary arena, which the buffer then keeps alive).
  void Flatten();

  /// The string at `row` regardless of representation. Only meaningful
  /// for VARCHAR vectors on rows whose validity bit is set.
  StringRef StringAt(idx_t row) const {
    return dict_ ? dict_->entries[data<uint32_t>()[row]]
                 : data<StringRef>()[row];
  }

  /// Copies a string into this vector's heap and stores the reference.
  void SetString(idx_t row, const char* str, uint32_t len) {
    if (dict_) Flatten();
    data<StringRef>()[row] = buffer_->heap.AddString(str, len);
  }
  void SetString(idx_t row, const std::string& str) {
    SetString(row, str.data(), static_cast<uint32_t>(str.size()));
  }

  /// Boxed single-value access; slow path for boundaries and tests.
  void SetValue(idx_t row, const Value& value);
  Value GetValue(idx_t row) const;

  /// Makes this vector share `other`'s buffer (zero-copy alias).
  void Reference(const Vector& other);

  /// Copies `count` rows from `other` starting at the given offsets.
  /// String payloads are re-anchored into this vector's heap.
  void CopyFrom(const Vector& other, idx_t count, idx_t source_offset = 0,
                idx_t target_offset = 0);

  /// Copies selected rows `sel[0..count)` of `other` into rows 0..count.
  void CopySelection(const Vector& other, const uint32_t* sel, idx_t count,
                     idx_t target_offset = 0);

  /// Resets validity and (for VARCHAR) the heap for reuse.
  void Reset();

 private:
  TypeId type_;
  uint8_t* data_;  // points into buffer_->data
  ValidityMask validity_;
  std::shared_ptr<VectorBuffer> buffer_;
  /// Set while the data array holds dictionary codes instead of values.
  std::shared_ptr<const VectorDictionary> dict_;
  idx_t dict_rows_ = 0;
};

}  // namespace mallard

#endif  // MALLARD_VECTOR_VECTOR_H_
