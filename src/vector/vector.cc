#include "mallard/vector/vector.h"

#include <cassert>

#include "mallard/common/hash.h"

namespace mallard {

const std::vector<uint64_t>& VectorDictionary::EntryHashes() const {
  std::call_once(hash_once_, [this] {
    hashes_.resize(entries.size());
    for (size_t i = 0; i < entries.size(); i++) {
      hashes_[i] = HashBytes(entries[i].data, entries[i].size);
    }
  });
  return hashes_;
}

Vector::Vector(TypeId type)
    : type_(type),
      buffer_(std::make_shared<VectorBuffer>(type)) {
  data_ = buffer_->data.get();
}

void Vector::Flatten() {
  if (!dict_) return;
  std::shared_ptr<const VectorDictionary> dict = std::move(dict_);
  idx_t rows = dict_rows_;
  dict_rows_ = 0;
  if (buffer_.use_count() > 1) {
    // Another vector still reads codes through this buffer; decode into
    // a fresh one instead of rewriting shared bytes.
    auto fresh = std::make_shared<VectorBuffer>(type_);
    const uint32_t* codes = reinterpret_cast<const uint32_t*>(data_);
    StringRef* dst = reinterpret_cast<StringRef*>(fresh->data.get());
    for (idx_t i = 0; i < rows; i++) {
      dst[i] = validity_.RowIsValid(i) ? dict->entries[codes[i]] : StringRef();
    }
    buffer_ = std::move(fresh);
    data_ = buffer_->data.get();
  } else {
    // In-place: a 4-byte code expands into a 16-byte ref, so walk
    // back-to-front (slot i's ref never overwrites an unread code j>i).
    StringRef* dst = reinterpret_cast<StringRef*>(data_);
    const uint32_t* codes = reinterpret_cast<const uint32_t*>(data_);
    for (idx_t i = rows; i-- > 0;) {
      uint32_t code = codes[i];
      dst[i] = validity_.RowIsValid(i) ? dict->entries[code] : StringRef();
    }
  }
  // The refs point into the dictionary arena; pin it to the buffer.
  buffer_->keepalive = std::move(dict);
}

void Vector::SetValue(idx_t row, const Value& value) {
  if (dict_) Flatten();
  if (value.is_null()) {
    validity_.SetInvalid(row);
    return;
  }
  validity_.SetValid(row);
  switch (type_) {
    case TypeId::kBoolean:
      data<int8_t>()[row] = value.GetBoolean() ? 1 : 0;
      break;
    case TypeId::kInteger:
      data<int32_t>()[row] = value.GetInteger();
      break;
    case TypeId::kDate:
      data<int32_t>()[row] = value.GetDate();
      break;
    case TypeId::kBigInt:
      data<int64_t>()[row] = value.GetBigInt();
      break;
    case TypeId::kTimestamp:
      data<int64_t>()[row] = value.GetTimestamp();
      break;
    case TypeId::kDouble:
      data<double>()[row] = value.GetDouble();
      break;
    case TypeId::kVarchar:
      SetString(row, value.GetString());
      break;
    default:
      assert(false && "SetValue on invalid vector type");
  }
}

Value Vector::GetValue(idx_t row) const {
  if (!validity_.RowIsValid(row)) return Value::Null(type_);
  switch (type_) {
    case TypeId::kBoolean:
      return Value::Boolean(data<int8_t>()[row] != 0);
    case TypeId::kInteger:
      return Value::Integer(data<int32_t>()[row]);
    case TypeId::kDate:
      return Value::Date(data<int32_t>()[row]);
    case TypeId::kBigInt:
      return Value::BigInt(data<int64_t>()[row]);
    case TypeId::kTimestamp:
      return Value::Timestamp(data<int64_t>()[row]);
    case TypeId::kDouble:
      return Value::Double(data<double>()[row]);
    case TypeId::kVarchar:
      return Value::Varchar(StringAt(row).ToString());
    default:
      return Value();
  }
}

void Vector::Reference(const Vector& other) {
  type_ = other.type_;
  buffer_ = other.buffer_;
  data_ = other.data_;
  validity_ = other.validity_;
  dict_ = other.dict_;
  dict_rows_ = other.dict_rows_;
}

void Vector::CopyFrom(const Vector& other, idx_t count, idx_t source_offset,
                      idx_t target_offset) {
  assert(type_ == other.type_);
  idx_t width = TypeSize(type_);
  if (type_ == TypeId::kVarchar) {
    if (dict_) Flatten();
    StringRef* dst = data<StringRef>();
    for (idx_t i = 0; i < count; i++) {
      idx_t s = source_offset + i, t = target_offset + i;
      if (other.validity_.RowIsValid(s)) {
        dst[t] = buffer_->heap.AddString(other.StringAt(s));
        validity_.SetValid(t);
      } else {
        validity_.SetInvalid(t);
      }
    }
    return;
  }
  std::memcpy(data_ + target_offset * width,
              other.data_ + source_offset * width, count * width);
  if (other.validity_.AllValid()) {
    if (!validity_.AllValid()) {
      for (idx_t i = 0; i < count; i++) validity_.SetValid(target_offset + i);
    }
  } else {
    for (idx_t i = 0; i < count; i++) {
      validity_.Set(target_offset + i,
                    other.validity_.RowIsValid(source_offset + i));
    }
  }
}

void Vector::CopySelection(const Vector& other, const uint32_t* sel,
                           idx_t count, idx_t target_offset) {
  assert(type_ == other.type_);
  switch (type_) {
    case TypeId::kVarchar: {
      if (dict_) Flatten();
      StringRef* dst = data<StringRef>();
      for (idx_t i = 0; i < count; i++) {
        idx_t s = sel[i], t = target_offset + i;
        if (other.validity_.RowIsValid(s)) {
          dst[t] = buffer_->heap.AddString(other.StringAt(s));
          validity_.SetValid(t);
        } else {
          validity_.SetInvalid(t);
        }
      }
      return;
    }
    case TypeId::kBoolean: {
      const int8_t* src = other.data<int8_t>();
      int8_t* dst = data<int8_t>();
      for (idx_t i = 0; i < count; i++) dst[target_offset + i] = src[sel[i]];
      break;
    }
    case TypeId::kInteger:
    case TypeId::kDate: {
      const int32_t* src = other.data<int32_t>();
      int32_t* dst = data<int32_t>();
      for (idx_t i = 0; i < count; i++) dst[target_offset + i] = src[sel[i]];
      break;
    }
    default: {
      const int64_t* src = other.data<int64_t>();
      int64_t* dst = data<int64_t>();
      for (idx_t i = 0; i < count; i++) dst[target_offset + i] = src[sel[i]];
      break;
    }
  }
  if (other.validity_.AllValid()) {
    if (!validity_.AllValid()) {
      for (idx_t i = 0; i < count; i++) validity_.SetValid(target_offset + i);
    }
  } else {
    for (idx_t i = 0; i < count; i++) {
      validity_.Set(target_offset + i, other.validity_.RowIsValid(sel[i]));
    }
  }
}

void Vector::Reset() {
  if (buffer_.use_count() > 1) {
    // The buffer is still referenced downstream (e.g. a chunk handed to
    // the client zero-copy). Detach instead of overwriting it.
    buffer_ = std::make_shared<VectorBuffer>(type_);
    data_ = buffer_->data.get();
  } else if (type_ == TypeId::kVarchar) {
    buffer_->heap.Reset();
    buffer_->keepalive.reset();
  }
  dict_.reset();
  dict_rows_ = 0;
  validity_.SetAllValid();
}

}  // namespace mallard
