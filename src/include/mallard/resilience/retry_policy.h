#ifndef MALLARD_RESILIENCE_RETRY_POLICY_H_
#define MALLARD_RESILIENCE_RETRY_POLICY_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>

#include "mallard/common/status.h"

namespace mallard {

/// Resilience counters of one Database, surfaced by PRAGMA
/// resilience_stats. The retry loops, checksum verifiers, quarantine
/// logic and the scrubber of that Database tick them, reaching them
/// through the object that owns the code (BufferManager, BlockManager,
/// WriteAheadLog, DataTable).
struct ResilienceStats {
  // Retry-path telemetry.
  std::atomic<uint64_t> io_attempts{0};       // every guarded I/O attempt
  std::atomic<uint64_t> io_retries{0};        // attempts beyond the first
  std::atomic<uint64_t> retry_successes{0};   // ops that succeeded on a retry
  std::atomic<uint64_t> retry_exhausted{0};   // ops that failed all attempts
  std::atomic<uint64_t> backoff_waits{0};     // sleeps taken between attempts
  std::atomic<uint64_t> backoff_micros{0};    // total backoff requested

  // Detection and degradation telemetry.
  std::atomic<uint64_t> block_checksum_failures{0};
  std::atomic<uint64_t> spill_checksum_failures{0};
  std::atomic<uint64_t> quarantined_row_groups{0};
  std::atomic<uint64_t> salvage_skipped_groups{0};
  std::atomic<uint64_t> salvage_skipped_rows{0};

  // Scrubber telemetry.
  std::atomic<uint64_t> scrub_runs{0};
  std::atomic<uint64_t> scrub_objects{0};
  std::atomic<uint64_t> scrub_failures{0};
};

/// Bounded-attempt exponential-backoff wrapper for storage I/O. The
/// failure model (failure_model.h) says transient faults — a loaded disk
/// queue, an in-flight DRAM flip on the read path — clear on their own;
/// the policy rides them out instead of failing the query, while a
/// persistent fault still fails cleanly after kMaxAttempts.
///
/// The sleep hook is injectable process-wide so tests observe the exact
/// backoff schedule without wall-clock sleeping.
class RetryPolicy {
 public:
  using SleepFn = std::function<void(uint64_t micros)>;

  static constexpr uint32_t kMaxAttempts = 3;
  static constexpr uint64_t kInitialBackoffMicros = 100;
  static constexpr uint64_t kMaxBackoffMicros = 10000;
  static constexpr uint32_t kBackoffMultiplier = 4;

  /// Process-wide sleep hook override; nullptr restores the real sleep.
  /// Tests install a capturing hook to assert the backoff schedule.
  static void SetGlobalSleepHook(SleepFn hook);

  /// Runs `op` (returning Status) up to kMaxAttempts times, sleeping an
  /// exponentially growing backoff between attempts and counting every
  /// attempt, retry and wait in `stats`. `retryable` decides which
  /// failures are worth another attempt; the default treats only
  /// kIOError as transient. kCorruption is retryable only where the
  /// caller can re-fetch from a clean source (e.g. re-reading a block
  /// from disk distinguishes an in-flight flip from media damage).
  template <typename F, typename P>
  static Status Execute(ResilienceStats* stats, F&& op, P&& retryable) {
    uint64_t backoff = kInitialBackoffMicros;
    Status last;
    uint32_t attempt = 1;
    for (;; ++attempt) {
      stats->io_attempts.fetch_add(1);
      last = op();
      if (last.ok()) {
        if (attempt > 1) stats->retry_successes.fetch_add(1);
        return last;
      }
      if (attempt >= kMaxAttempts || !retryable(last)) break;
      stats->io_retries.fetch_add(1);
      stats->backoff_waits.fetch_add(1);
      stats->backoff_micros.fetch_add(backoff);
      Sleep(backoff);
      backoff = std::min(backoff * kBackoffMultiplier, kMaxBackoffMicros);
    }
    if (attempt >= kMaxAttempts && retryable(last)) {
      stats->retry_exhausted.fetch_add(1);
    }
    return last;
  }

  template <typename F>
  static Status Execute(ResilienceStats* stats, F&& op) {
    return Execute(stats, std::forward<F>(op),
                   [](const Status& s) { return s.IsIOError(); });
  }

 private:
  static void Sleep(uint64_t micros);
};

}  // namespace mallard

#endif  // MALLARD_RESILIENCE_RETRY_POLICY_H_
