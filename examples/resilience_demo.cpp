// Resilience demo (paper section 3): consumer hardware fails silently.
// This example (1) flips a single bit in the database file and shows the
// checksum layer refusing to serve corrupted data, and (2) runs the
// memory-test suite against a simulated faulty DIMM and shows the buffer
// manager quarantining bad regions.

#include <unistd.h>

#include <cstdio>
#include <string>

#include "mallard/main/connection.h"
#include "mallard/main/database.h"
#include "mallard/resilience/memtest.h"
#include "mallard/storage/block_manager.h"
#include "mallard/storage/buffer_manager.h"

int main() {
  using namespace mallard;
  std::string path =
      "/tmp/mallard_resilience_demo_" + std::to_string(::getpid());
  RemoveFile(path);
  RemoveFile(path + ".wal");

  std::printf("--- part 1: silent disk corruption ---\n");
  {
    auto db = Database::Open(path);
    Connection con(db->get());
    (void)con.Query("CREATE TABLE ledger (id INTEGER, balance DOUBLE)");
    (void)con.Query(
        "INSERT INTO ledger VALUES (1, 100.0), (2, 250.5), (3, 42.0)");
    // Database closes cleanly: data checkpointed into checksummed blocks.
  }
  std::printf("wrote 3 rows, closed the database cleanly\n");
  {
    bool created;
    ResilienceStats resilience;
    auto bm = BlockManager::Open(path, true, &created, &resilience);
    (void)(*bm)->CorruptBlockOnDisk((*bm)->header().meta_block, 777777);
    std::printf("flipped ONE bit in the database file (simulated silent "
                "disk corruption)\n");
  }
  {
    auto db = Database::Open(path);
    if (db.ok()) {
      std::printf("!! corruption was NOT detected\n");
    } else {
      std::printf("reopen refused: %s\n", db.status().ToString().c_str());
      std::printf("-> corrupted balances can never silently reach the "
                  "application\n");
    }
  }
  RemoveFile(path);
  RemoveFile(path + ".wal");

  std::printf("\n--- part 2: broken DRAM ---\n");
  {
    SimulatedDimm dimm(1 << 20);
    MemoryFault fault;
    fault.kind = MemoryFault::Kind::kStuckAtOne;
    fault.word_index = 31337;
    fault.bit = 5;
    dimm.AddFault(fault);
    MemtestResult r = WalkingBitsTest(dimm);
    std::printf("walking-bits test on a DIMM with one stuck cell: %s "
                "(flagged word %llu)\n",
                r.passed ? "PASSED (!!)" : "FAILED as expected",
                r.bad_words.empty()
                    ? 0ULL
                    : static_cast<unsigned long long>(r.bad_words[0]));
  }
  {
    ResilienceStats resilience;
    BufferManager bm(64 << 20, "", &resilience);
    bm.EnableAllocationTesting(true);
    bm.SetSimulatedBadRegionProbability(0.3, 2);
    for (int i = 0; i < 32; i++) {
      auto handle = bm.Allocate(512 << 10);
      (void)handle;
    }
    auto stats = bm.GetStats();
    std::printf("buffer manager served 32 allocations on flaky RAM: "
                "%llu bad regions quarantined (%.1f MB withheld from "
                "use)\n",
                static_cast<unsigned long long>(
                    stats.quarantined_allocations),
                stats.quarantined_bytes / 1e6);
    std::printf("-> queries keep running on the remaining healthy "
                "memory\n");
  }
  return 0;
}
