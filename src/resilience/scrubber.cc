#include "mallard/resilience/scrubber.h"

#include <chrono>
#include <set>
#include <thread>

#include "mallard/catalog/catalog.h"
#include "mallard/governor/resource_governor.h"
#include "mallard/storage/block_manager.h"
#include "mallard/storage/table/data_table.h"
#include "mallard/storage/wal.h"

namespace mallard {

void IntegrityScrubber::Pace() const {
  if (!governor_) return;
  uint64_t micros = governor_->ScrubPauseMicros();
  if (micros > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
  }
}

ScrubReport IntegrityScrubber::Run() {
  ScrubReport report;
  auto record = [&](std::string object, Status status) {
    report.objects++;
    if (!status.ok()) {
      report.failures++;
      report.findings.push_back(
          ScrubFinding{std::move(object), false, status.ToString()});
    }
    Pace();
  };

  std::set<block_id_t> damaged;
  if (blocks_) {
    std::vector<block_id_t> live = blocks_->LiveBlocks();
    for (block_id_t id : live) {
      Status status = blocks_->VerifyBlock(id);
      if (!status.ok()) damaged.insert(id);
      record("block " + std::to_string(id), std::move(status));
    }
    report.findings.push_back(ScrubFinding{
        "blocks", true,
        std::to_string(live.size()) + " live blocks verified"});
  }

  if (wal_) {
    uint64_t frames = 0;
    Status wal_status = wal_->VerifyFrames(&frames);
    bool ok = wal_status.ok();
    record("wal", std::move(wal_status));
    if (ok) {
      report.findings.push_back(ScrubFinding{
          "wal", true, std::to_string(frames) + " frames verified"});
    }
  }

  if (catalog_) {
    catalog_->ForEachTable([&](DataTable* table) {
      idx_t groups = table->RowGroupCount();
      for (idx_t g = 0; g < groups; g++) {
        record("table '" + table->name() + "' row group " + std::to_string(g),
               table->ValidateGroup(g));
      }
      idx_t quarantined = table->QuarantinedGroupCount();
      std::string detail = std::to_string(groups) + " row groups verified, " +
                           std::to_string(quarantined) + " quarantined";
      // A loaded group's rows are intact in memory even when a block of
      // its chain is not: the next checkpoint rewrites the group instead
      // of carrying the damaged chain over.
      idx_t rewrite = 0;
      if (!damaged.empty()) {
        for (RowGroup* rg : table->RowGroups()) {
          if (rg->ForgetChainsUsing(damaged)) rewrite++;
        }
      }
      if (rewrite > 0) {
        detail += ", " + std::to_string(rewrite) +
                  " on damaged blocks to rewrite at the next checkpoint";
      }
      report.findings.push_back(ScrubFinding{"table '" + table->name() + "'",
                                             quarantined == 0,
                                             std::move(detail)});
    });
  }

  return report;
}

}  // namespace mallard
