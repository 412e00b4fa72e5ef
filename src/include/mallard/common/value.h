#ifndef MALLARD_COMMON_VALUE_H_
#define MALLARD_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "mallard/common/result.h"
#include "mallard/common/types.h"

namespace mallard {

/// A single, type-tagged, nullable SQL value. Values are used at system
/// boundaries (constants, zone-map statistics, the value-based client API,
/// and the tuple-at-a-time baseline engine); the vectorized engine operates
/// on raw arrays instead.
class Value {
 public:
  /// Constructs a NULL value of invalid type.
  Value() : type_(TypeId::kInvalid), is_null_(true) {}
  /// Constructs a NULL value of the given type.
  explicit Value(TypeId type) : type_(type), is_null_(true) {}

  static Value Boolean(bool value);
  static Value Integer(int32_t value);
  static Value BigInt(int64_t value);
  static Value Double(double value);
  static Value Varchar(std::string value);
  static Value Date(int32_t days);
  static Value Timestamp(int64_t micros);
  static Value Null(TypeId type) { return Value(type); }
  /// Constructs a numeric value of the requested type from an int64.
  static Value Numeric(TypeId type, int64_t value);

  TypeId type() const { return type_; }
  bool is_null() const { return is_null_; }

  bool GetBoolean() const { return value_.boolean; }
  int32_t GetInteger() const { return value_.integer; }
  int64_t GetBigInt() const { return value_.bigint; }
  double GetDouble() const { return value_.float64; }
  const std::string& GetString() const { return string_value_; }
  int32_t GetDate() const { return value_.integer; }
  int64_t GetTimestamp() const { return value_.bigint; }

  /// Returns the value widened to int64 (numeric/date/bool types only).
  int64_t GetAsBigInt() const;
  /// Returns the value widened to double (numeric types only).
  double GetAsDouble() const;

  /// Casts to `target` type. NULLs cast to NULL of the target type.
  Result<Value> CastTo(TypeId target) const;

  /// SQL-style render of the value ("NULL", quoted-free strings).
  std::string ToString() const;

  /// Total ordering used by ORDER BY and zone maps: NULL sorts first,
  /// then by value. Values must have the same type.
  int Compare(const Value& other) const;

  /// SQL equality; NULL == NULL is false here (use Compare for ordering).
  bool operator==(const Value& other) const;
  bool operator<(const Value& other) const {
    return Compare(other) < 0;
  }

  /// Hash consistent with operator== (used by the baseline row engine).
  uint64_t Hash() const;

 private:
  TypeId type_;
  bool is_null_ = false;
  union Val {
    bool boolean;
    int32_t integer;
    int64_t bigint;
    double float64;
    Val() : bigint(0) {}
  } value_;
  std::string string_value_;
};

/// The values one execution binds to a statement's parameters: slot i
/// holds $i+1. Plans never store them; they travel with the execution
/// (ExecutionContext::parameters).
using ParameterValues = std::vector<Value>;

}  // namespace mallard

#endif  // MALLARD_COMMON_VALUE_H_
