#include "mallard/etl/physical_csv_scan.h"

namespace mallard {

namespace {
/// The open file, opened by the first GetChunk, and the chunk it reads
/// whole rows into.
struct CsvScanState : OperatorState {
  std::unique_ptr<CsvReader> reader;
  DataChunk file_chunk;
};
}  // namespace

StatePtr PhysicalCsvScan::CreateState(const MorselWorker*,
                                      const OperatorState*) const {
  return std::make_unique<CsvScanState>();
}

Status PhysicalCsvScan::GetChunk(ExecutionContext* context,
                                 OperatorState* state, DataChunk* out) const {
  auto& s = static_cast<CsvScanState&>(*state);
  MALLARD_RETURN_NOT_OK(context->CheckInterrupt());
  if (!s.reader) {
    MALLARD_ASSIGN_OR_RETURN(auto reader, CsvReader::Open(path_, options_));
    if (reader->ColumnTypes() != file_types_) {
      return Status::InvalidArgument(
          "CSV schema of '" + path_ +
          "' changed between planning and execution");
    }
    s.reader = std::move(reader);
    s.file_chunk.Initialize(file_types_);
  }
  out->Reset();
  MALLARD_ASSIGN_OR_RETURN(idx_t rows, s.reader->ReadChunk(&s.file_chunk));
  if (rows == 0) return Status::OK();
  for (idx_t c = 0; c < column_ids_.size(); c++) {
    out->column(c).Reference(s.file_chunk.column(column_ids_[c]));
  }
  out->SetCardinality(rows);
  return Status::OK();
}

}  // namespace mallard
