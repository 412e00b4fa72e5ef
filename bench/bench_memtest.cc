// E9 — Paper section 3: memory-test integration. Measures the throughput
// (memory-bus traffic) of the test algorithms — the cost that makes
// constant whole-RAM testing infeasible and motivates buffer-granular
// testing — plus detection rates against simulated DRAM faults and the
// buffer manager's allocation-time test + quarantine behaviour.

#include <chrono>
#include <cstdio>
#include <vector>

#include "mallard/common/random.h"
#include "mallard/resilience/memtest.h"
#include "mallard/resilience/retry_policy.h"
#include "mallard/storage/buffer_manager.h"

using namespace mallard;
using Clock = std::chrono::steady_clock;

int main() {
  std::printf("=== Memory testing (paper section 3) ===\n\n");
  // Throughput of each algorithm over a 64MB region.
  {
    std::vector<uint8_t> ram(64 << 20);
    DirectMemory mem(ram.data(), ram.size());
    struct Algo {
      const char* name;
      MemtestResult (*run)(MemoryDevice&);
    };
    auto run_walking = [](MemoryDevice& m) { return WalkingBitsTest(m); };
    auto run_moving = [](MemoryDevice& m) {
      return MovingInversionsTest(m, 0x5555555555555555ULL, 1);
    };
    auto run_address = [](MemoryDevice& m) { return AddressTest(m); };
    Algo algos[] = {{"walking bits (alloc-time screen)", run_walking},
                    {"moving inversions (periodic)", run_moving},
                    {"address-in-address", run_address}};
    std::printf("%-36s %-14s %-16s\n", "algorithm", "time (ms)",
                "traffic (GB/s)");
    for (const auto& algo : algos) {
      auto start = Clock::now();
      MemtestResult r = algo.run(mem);
      double ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                            start)
                      .count();
      std::printf("%-36s %-14.1f %-16.2f%s\n", algo.name, ms,
                  r.traffic_bytes / ms / 1e6,
                  r.passed ? "" : "  (healthy RAM flagged!)");
    }
  }

  // Detection rates against simulated faults.
  std::printf("\nDetection of simulated DRAM faults (1000 trials each, one "
              "fault per 1MB region):\n");
  std::printf("%-22s %-18s %-22s\n", "fault type", "walking bits",
              "moving inversions");
  RandomEngine rng(11);
  for (auto kind : {MemoryFault::Kind::kStuckAtZero,
                    MemoryFault::Kind::kStuckAtOne,
                    MemoryFault::Kind::kCoupling}) {
    int walking_hits = 0, moving_hits = 0;
    const int kTrials = 1000;
    for (int t = 0; t < kTrials; t++) {
      SimulatedDimm dimm(1 << 20);
      MemoryFault fault;
      fault.kind = kind;
      fault.word_index = rng.Next() % dimm.SizeWords();
      fault.bit = static_cast<uint8_t>(rng.Next() % 64);
      if (kind == MemoryFault::Kind::kCoupling) {
        fault.neighbor_index =
            fault.word_index > 0 ? fault.word_index - 1 : 1;
        fault.neighbor_bit = static_cast<uint8_t>(rng.Next() % 64);
      }
      dimm.AddFault(fault);
      if (!WalkingBitsTest(dimm).passed) walking_hits++;
      if (!MovingInversionsTest(dimm, 0xAAAAAAAAAAAAAAAAULL, 2).passed) {
        moving_hits++;
      }
    }
    const char* name = kind == MemoryFault::Kind::kStuckAtZero
                           ? "stuck-at-0"
                           : (kind == MemoryFault::Kind::kStuckAtOne
                                  ? "stuck-at-1"
                                  : "coupling (neighbor)");
    std::printf("%-22s %-18s %-22s\n", name,
                (std::to_string(walking_hits / 10) + "." +
                 std::to_string(walking_hits % 10) + "%")
                    .c_str(),
                (std::to_string(moving_hits / 10) + "." +
                 std::to_string(moving_hits % 10) + "%")
                    .c_str());
  }

  // Buffer-manager integration: allocation-time screen + quarantine.
  std::printf("\nBuffer manager allocation-time testing (paper's proposed "
              "integration):\n");
  {
    ResilienceStats resilience;
    BufferManager bm(256 << 20, "", &resilience);
    bm.EnableAllocationTesting(true);
    auto start = Clock::now();
    for (int i = 0; i < 64; i++) {
      auto h = bm.Allocate(1 << 20);
      if (!h.ok()) break;
    }
    double with_ms = std::chrono::duration<double, std::milli>(
                         Clock::now() - start)
                         .count();
    BufferManager bm2(256 << 20, "", &resilience);
    start = Clock::now();
    for (int i = 0; i < 64; i++) {
      auto h = bm2.Allocate(1 << 20);
      if (!h.ok()) break;
    }
    double without_ms = std::chrono::duration<double, std::milli>(
                            Clock::now() - start)
                            .count();
    std::printf("  64 x 1MB allocations: %.1f ms tested vs %.2f ms "
                "untested (%.1fx)\n", with_ms, without_ms,
                with_ms / without_ms);
  }
  {
    ResilienceStats resilience;
    BufferManager bm(256 << 20, "", &resilience);
    bm.EnableAllocationTesting(true);
    bm.SetSimulatedBadRegionProbability(0.25, 3);
    int ok_allocations = 0;
    for (int i = 0; i < 200; i++) {
      auto h = bm.Allocate(256 << 10);
      if (h.ok()) ok_allocations++;
    }
    auto stats = bm.GetStats();
    std::printf("  with 25%% simulated bad regions: %d/200 allocations "
                "served, %llu bad regions quarantined (%.1f MB)\n",
                ok_allocations,
                static_cast<unsigned long long>(
                    stats.quarantined_allocations),
                stats.quarantined_bytes / 1e6);
  }
  std::printf("\nShape check vs paper: whole-RAM moving inversions "
              "saturates the memory bus (infeasible to run constantly); "
              "the allocation-time screen costs a bounded factor on "
              "allocation only, catches stuck cells, and quarantines "
              "broken regions so they are never reused.\n");
  return 0;
}
