// C ABI result accessors. An errored result (or a NULL handle) answers
// every accessor with a harmless default — 0 rows, 0 columns, NULL
// strings — so C callers can probe freely without pre-checking.

#include "c_api_internal.h"

#include "mallard/common/value.h"

namespace {

using mallard::idx_t;
using mallard::TypeId;
using mallard::Value;
using mallard::Vector;

bool HasRows(mallard_result* result) {
  return result != nullptr && result->result != nullptr;
}

// The vector holding (column, row), with the row's position in it in
// `*in_chunk`; null for out-of-range coordinates.
const Vector* Locate(mallard_result* result, uint64_t column, uint64_t row,
                     idx_t* in_chunk, idx_t* chunk_index = nullptr) {
  if (!HasRows(result) || column >= result->result->ColumnCount()) {
    return nullptr;
  }
  const mallard::DataChunk* chunk =
      result->result->ChunkFor(row, in_chunk, chunk_index);
  return chunk == nullptr ? nullptr : &chunk->column(column);
}

// Reads (column, row) as `Out`. A column whose type is already `native`
// is read straight from its vector, stored as `Storage`; any other type
// is boxed and cast. SQL NULLs, out-of-range coordinates and impossible
// casts yield Out().
template <typename Storage, typename Out>
Out ReadValue(mallard_result* result, uint64_t column, uint64_t row,
              TypeId native, Out (Value::*get)() const) {
  idx_t i = 0;
  const Vector* vector = Locate(result, column, row, &i);
  if (vector == nullptr || !vector->validity().RowIsValid(i)) return Out();
  if (vector->type() == native) {
    return static_cast<Out>(vector->data<Storage>()[i]);
  }
  auto cast = vector->GetValue(i).CastTo(native);
  if (!cast.ok() || cast->is_null()) return Out();
  return ((*cast).*get)();
}

// Renders the first `rows` rows of `vector` back to back as
// NUL-terminated strings: VARCHAR bytes as stored, other types formatted
// (dates as "YYYY-MM-DD"). NULL rows render nothing.
std::unique_ptr<mallard::c_api::RenderedSlice> RenderSlice(
    const Vector& vector, idx_t rows) {
  auto slice = std::make_unique<mallard::c_api::RenderedSlice>();
  slice->offsets.resize(rows);
  for (idx_t r = 0; r < rows; r++) {
    slice->offsets[r] = slice->bytes.size();
    if (!vector.validity().RowIsValid(r)) continue;
    if (vector.type() == TypeId::kVarchar) {
      mallard::StringRef s = vector.StringAt(r);
      slice->bytes.append(s.data, s.size);
    } else {
      slice->bytes += vector.GetValue(r).ToString();
    }
    slice->bytes.push_back('\0');
  }
  return slice;
}

}  // namespace

extern "C" {

void mallard_destroy_result(mallard_result** result) {
  if (result == nullptr || *result == nullptr) return;
  try {
    delete *result;
  } catch (...) {
  }
  *result = nullptr;
}

const char* mallard_result_error(mallard_result* result) {
  if (result == nullptr || !result->has_error) return nullptr;
  return result->error.c_str();
}

mallard_error_code mallard_result_error_code(mallard_result* result) {
  if (result == nullptr || !result->has_error) return MALLARD_ERROR_NONE;
  return result->error_code;
}

uint64_t mallard_row_count(mallard_result* result) {
  if (!HasRows(result)) return 0;
  return result->result->RowCount();
}

uint64_t mallard_column_count(mallard_result* result) {
  if (!HasRows(result)) return 0;
  return result->result->ColumnCount();
}

const char* mallard_column_name(mallard_result* result, uint64_t column) {
  if (!HasRows(result) || column >= result->result->names().size()) {
    return nullptr;
  }
  return result->result->names()[column].c_str();
}

mallard_type mallard_column_type(mallard_result* result, uint64_t column) {
  if (!HasRows(result) || column >= result->result->types().size()) {
    return MALLARD_TYPE_INVALID;
  }
  return mallard::c_api::ToCType(result->result->types()[column]);
}

bool mallard_value_is_null(mallard_result* result, uint64_t column,
                           uint64_t row) {
  try {
    // Out-of-range coordinates report NULL too, as the header promises.
    idx_t i = 0;
    const Vector* vector = Locate(result, column, row, &i);
    return vector == nullptr || !vector->validity().RowIsValid(i);
  } catch (...) {
    return true;
  }
}

bool mallard_value_boolean(mallard_result* result, uint64_t column,
                           uint64_t row) {
  try {
    return ReadValue<int8_t>(result, column, row, TypeId::kBoolean,
                             &Value::GetBoolean);
  } catch (...) {
    return false;
  }
}

int32_t mallard_value_int32(mallard_result* result, uint64_t column,
                            uint64_t row) {
  try {
    return ReadValue<int32_t>(result, column, row, TypeId::kInteger,
                              &Value::GetInteger);
  } catch (...) {
    return 0;
  }
}

int64_t mallard_value_int64(mallard_result* result, uint64_t column,
                            uint64_t row) {
  try {
    return ReadValue<int64_t>(result, column, row, TypeId::kBigInt,
                              &Value::GetBigInt);
  } catch (...) {
    return 0;
  }
}

double mallard_value_double(mallard_result* result, uint64_t column,
                            uint64_t row) {
  try {
    return ReadValue<double>(result, column, row, TypeId::kDouble,
                             &Value::GetDouble);
  } catch (...) {
    return 0.0;
  }
}

const char* mallard_value_varchar(mallard_result* result, uint64_t column,
                                  uint64_t row) {
  try {
    idx_t i = 0, chunk_index = 0;
    const Vector* vector = Locate(result, column, row, &i, &chunk_index);
    if (vector == nullptr || !vector->validity().RowIsValid(i)) return nullptr;
    const auto& chunks = result->result->Chunks();
    const idx_t columns = result->result->ColumnCount();
    auto& slices = result->varchar_slices;
    if (slices.empty()) slices.resize(chunks.size() * columns);
    auto& slice = slices[chunk_index * columns + column];
    if (!slice) slice = RenderSlice(*vector, chunks[chunk_index]->size());
    return slice->bytes.data() + slice->offsets[i];
  } catch (...) {
    return nullptr;
  }
}

}  // extern "C"
