#ifndef MALLARD_ETL_PHYSICAL_CSV_SCAN_H_
#define MALLARD_ETL_PHYSICAL_CSV_SCAN_H_

#include <memory>
#include <string>
#include <vector>

#include "mallard/etl/csv.h"
#include "mallard/execution/physical_operator.h"

namespace mallard {

/// Direct scan over a CSV file (the `read_csv('path')` table function):
/// the database reads external files without a separate load step
/// (paper section 2, integrated ETL).
class PhysicalCsvScan final : public PhysicalOperator {
 public:
  PhysicalCsvScan(std::string path, CsvOptions options,
                  std::vector<idx_t> column_ids,
                  std::vector<TypeId> file_types,
                  std::vector<TypeId> output_types)
      : PhysicalOperator(std::move(output_types)),
        path_(std::move(path)),
        options_(options),
        column_ids_(std::move(column_ids)),
        file_types_(std::move(file_types)) {}

  Status GetChunk(ExecutionContext* context, OperatorState* state,
                  DataChunk* out) const override;
  std::string name() const override { return "CSV_SCAN(" + path_ + ")"; }

 protected:
  StatePtr CreateState(const MorselWorker* worker,
                       const OperatorState* serial) const override;

 private:
  std::string path_;
  CsvOptions options_;
  std::vector<idx_t> column_ids_;
  std::vector<TypeId> file_types_;
};

}  // namespace mallard

#endif  // MALLARD_ETL_PHYSICAL_CSV_SCAN_H_
