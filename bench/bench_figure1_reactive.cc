// E2 — Reproduces Figure 1 of the paper: reactive resource usage. A
// synthetic host application ramps its RAM usage up and back down while
// the DBMS materializes the same intermediate at every step: chunks
// appended to a SpillRowStore under a BufferManager whose spill policy is
// the reactive governor's (as a Database wires it). As machine memory
// pressure grows the governor's effective budget shrinks, eviction pushes
// the intermediate out of memory, and the spill writes compress
// none -> light -> heavy — the DBMS footprint steps down exactly as the
// figure sketches, and recovers when the application backs off.
//
// Usage: bench_figure1_reactive [--json out.json]
// Each step reports resident bytes (buffer-manager memory in use with the
// intermediate materialized), spilled bytes (evicted to the temp file at
// that moment), spill_saved_bytes (I/O bytes compression avoided during
// the step), the effective budget and the compression level (0 none,
// 1 light, 2 heavy).

#include <chrono>
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "mallard/execution/spill/spill_row_store.h"
#include "mallard/governor/resource_governor.h"
#include "mallard/resilience/retry_policy.h"
#include "mallard/storage/buffer_manager.h"

int main(int argc, char** argv) {
  using namespace mallard;
  using Clock = std::chrono::steady_clock;
  mallard_bench::BenchReporter reporter("bench_figure1_reactive", argc, argv);

  // A 64 MiB machine: at 5% application RAM the effective budget is the
  // 32 MiB cap and the ~16 MiB intermediate stays resident; from 65% the
  // budget falls below it, down to ~1.6 MiB at peak pressure (85%).
  const uint64_t kTotalMemory = 64ull << 20;
  GovernorConfig config;
  config.total_memory = kTotalMemory;
  config.dbms_memory_limit = kTotalMemory / 2;
  config.reactive = true;
  ResourceGovernor governor(config);
  SyntheticAppMonitor app;
  governor.SetMonitor(&app);
  ResilienceStats resilience;
  BufferManager buffers(config.dbms_memory_limit, "", &resilience);
  governor.SetBufferManager(&buffers);
  buffers.SetSpillPolicy([&governor] {
    return SpillPolicy{governor.ChooseCompressionLevel(),
                       governor.EffectiveMemoryBudget()};
  });

  const int kChunks = 256;
  DataChunk chunk;
  chunk.Initialize({TypeId::kBigInt, TypeId::kBigInt, TypeId::kVarchar});

  std::printf("=== Figure 1: reactive resource usage pattern ===\n");
  std::printf("app RAM ramps 5%% -> 85%% -> 5%% of a %.0f MiB machine; the "
              "DBMS materializes a fixed intermediate each step\n\n",
              kTotalMemory / double(1 << 20));
  std::printf("%-5s %-9s %-12s %-11s %-13s %-13s %-11s %-9s\n", "step",
              "app RAM%", "compression", "budget MB", "resident MB",
              "spilled MB", "saved MB", "ms");

  // Timeline: application RAM 5% -> 85% -> 5% in 16 steps (the ramp in
  // Figure 1), the DBMS reacting at every step.
  const int kSteps = 17;
  for (int step = 0; step < kSteps; step++) {
    double frac =
        step <= kSteps / 2
            ? 0.05 + (0.85 - 0.05) * step / (kSteps / 2)
            : 0.85 - (0.85 - 0.05) * (step - kSteps / 2) / (kSteps / 2);
    app.SetMemory(static_cast<uint64_t>(kTotalMemory * frac));
    BufferManagerStats before = buffers.GetStats();
    auto start = Clock::now();
    SpillRowStore intermediate(&buffers);
    uint64_t row_id = 0;
    for (int c = 0; c < kChunks; c++) {
      chunk.Reset();
      for (idx_t i = 0; i < kVectorSize; i++) {
        chunk.column(0).data<int64_t>()[i] =
            static_cast<int64_t>(row_id / 64);   // slowly changing key
        chunk.column(1).data<int64_t>()[i] =
            static_cast<int64_t>(row_id % 997);  // repeating measure
        chunk.column(2).SetString(i, "segment-" +
                                          std::to_string(row_id % 16));
        row_id++;
      }
      chunk.SetCardinality(kVectorSize);
      Status status = intermediate.AppendChunk(chunk);
      if (!status.ok()) {
        std::fprintf(stderr, "append failed: %s\n", status.ToString().c_str());
        return 1;
      }
    }
    intermediate.FinishAppend();
    double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    BufferManagerStats after = buffers.GetStats();
    GovernorSample sample = governor.Sample();
    uint64_t saved = after.spill_saved_bytes - before.spill_saved_bytes;
    std::printf("%-5d %-9.0f %-12s %-11.1f %-13.1f %-13.1f %-11.1f %-9.1f\n",
                step, frac * 100,
                CompressionLevelToString(sample.compression),
                sample.effective_budget / double(1 << 20),
                after.memory_used / double(1 << 20),
                after.spilled_bytes_now / double(1 << 20),
                saved / double(1 << 20), ms);
    char name[48];
    std::snprintf(name, sizeof(name), "step=%02d/app_pct=%.0f", step,
                  frac * 100);
    reporter.Add(name, 1, ms * 1e6, row_id / (ms / 1e3),
                 {{"app_pct", frac * 100},
                  {"resident_bytes", double(after.memory_used)},
                  {"spilled_bytes", double(after.spilled_bytes_now)},
                  {"spill_saved_bytes", double(saved)},
                  {"effective_budget", double(sample.effective_budget)},
                  {"compression",
                   double(static_cast<int>(sample.compression))}});
  }
  std::printf("\nShape check vs Figure 1: as app RAM rises the DBMS "
              "footprint steps DOWN (eviction to the shrinking budget, "
              "spill writes compressed light, then heavy) while its time "
              "steps UP; both revert when the app backs off.\n");
  return 0;
}
