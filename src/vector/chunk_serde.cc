#include "mallard/vector/chunk_serde.h"

#include <cstring>
#include <vector>

namespace mallard {

void SerializeChunk(const DataChunk& chunk, BinaryWriter* writer) {
  writer->WriteU32(static_cast<uint32_t>(chunk.ColumnCount()));
  writer->WriteU32(static_cast<uint32_t>(chunk.size()));
  for (idx_t c = 0; c < chunk.ColumnCount(); c++) {
    const Vector& col = chunk.column(c);
    writer->WriteU8(static_cast<uint8_t>(col.type()));
    // Validity as packed bits for the chunk's cardinality.
    idx_t words = (chunk.size() + 63) / 64;
    for (idx_t w = 0; w < words; w++) {
      uint64_t word = 0;
      for (idx_t b = 0; b < 64 && w * 64 + b < chunk.size(); b++) {
        if (col.validity().RowIsValid(w * 64 + b)) word |= uint64_t(1) << b;
      }
      writer->WriteU64(word);
    }
    if (col.type() == TypeId::kVarchar) {
      for (idx_t i = 0; i < chunk.size(); i++) {
        if (col.validity().RowIsValid(i)) {
          StringRef s = col.StringAt(i);
          writer->WriteU32(s.size);
          writer->WriteBytes(s.data, s.size);
        } else {
          writer->WriteU32(0);
        }
      }
    } else if (col.validity().AllValid()) {
      writer->WriteBytes(col.raw_data(), chunk.size() * TypeSize(col.type()));
    } else {
      // NULL slots hold unspecified bytes: write zeros in their place.
      idx_t width = TypeSize(col.type());
      std::vector<uint8_t> bytes(col.raw_data(),
                                 col.raw_data() + chunk.size() * width);
      for (idx_t i = 0; i < chunk.size(); i++) {
        if (!col.validity().RowIsValid(i)) {
          std::memset(bytes.data() + i * width, 0, width);
        }
      }
      writer->WriteBytes(bytes.data(), bytes.size());
    }
  }
}

Status DeserializeChunk(BinaryReader* reader, DataChunk* chunk) {
  uint32_t num_columns, count;
  MALLARD_RETURN_NOT_OK(reader->ReadU32(&num_columns));
  MALLARD_RETURN_NOT_OK(reader->ReadU32(&count));
  if (count > kVectorSize) {
    return Status::Corruption("serialized chunk cardinality out of range");
  }
  std::vector<TypeId> types;
  std::vector<std::vector<uint64_t>> validities;
  // First pass impossible without reading in order; read per column fully.
  chunk->Initialize({});
  std::vector<Vector> columns;
  for (uint32_t c = 0; c < num_columns; c++) {
    uint8_t type_raw;
    MALLARD_RETURN_NOT_OK(reader->ReadU8(&type_raw));
    TypeId type = static_cast<TypeId>(type_raw);
    if (TypeSize(type) == 0) {
      return Status::Corruption("serialized chunk has invalid column type");
    }
    types.push_back(type);
    Vector col(type);
    idx_t words = (count + 63) / 64;
    std::vector<uint64_t> validity(words);
    for (idx_t w = 0; w < words; w++) {
      MALLARD_RETURN_NOT_OK(reader->ReadU64(&validity[w]));
    }
    if (type == TypeId::kVarchar) {
      std::string scratch;
      for (idx_t i = 0; i < count; i++) {
        uint32_t len;
        MALLARD_RETURN_NOT_OK(reader->ReadU32(&len));
        bool valid = (validity[i / 64] >> (i % 64)) & 1;
        if (valid) {
          scratch.resize(len);
          MALLARD_RETURN_NOT_OK(reader->ReadBytes(scratch.data(), len));
          col.SetString(i, scratch);
        } else {
          if (len != 0) {
            return Status::Corruption("NULL string with nonzero length");
          }
          col.validity().SetInvalid(i);
        }
      }
    } else {
      MALLARD_RETURN_NOT_OK(
          reader->ReadBytes(col.raw_data(), count * TypeSize(type)));
      for (idx_t i = 0; i < count; i++) {
        col.validity().Set(i, (validity[i / 64] >> (i % 64)) & 1);
      }
    }
    columns.push_back(std::move(col));
  }
  chunk->Initialize(types);
  for (uint32_t c = 0; c < num_columns; c++) {
    chunk->column(c).Reference(columns[c]);
  }
  chunk->SetCardinality(count);
  return Status::OK();
}

}  // namespace mallard
