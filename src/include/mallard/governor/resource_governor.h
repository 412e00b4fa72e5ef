#ifndef MALLARD_GOVERNOR_RESOURCE_GOVERNOR_H_
#define MALLARD_GOVERNOR_RESOURCE_GOVERNOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "mallard/common/status.h"
#include "mallard/compression/codec.h"

namespace mallard {

class BufferManager;

/// Where the DBMS learns about the host application's resource usage.
/// In production this would sample the OS; benches plug in a synthetic
/// application with a programmable timeline (documented substitution).
class AppResourceMonitor {
 public:
  virtual ~AppResourceMonitor() = default;
  /// Bytes of RAM the co-resident application currently uses.
  virtual uint64_t AppMemoryBytes() = 0;
  /// Application CPU utilization in [0, 1].
  virtual double AppCpuUtilization() = 0;
};

/// Programmable monitor used by tests and benches.
class SyntheticAppMonitor final : public AppResourceMonitor {
 public:
  uint64_t AppMemoryBytes() override { return memory_.load(); }
  double AppCpuUtilization() override { return cpu_.load(); }
  void SetMemory(uint64_t bytes) { memory_.store(bytes); }
  void SetCpu(double utilization) { cpu_.store(utilization); }

 private:
  std::atomic<uint64_t> memory_{0};
  std::atomic<double> cpu_{0.0};
};

/// Join algorithm choice the governor can make at physical-planning time
/// (paper section 4: hash join trades RAM for CPU against out-of-core
/// merge join).
enum class JoinAlgorithm : uint8_t { kHash, kMerge };

struct GovernorConfig {
  /// Total memory envelope of the "machine" shared with the application.
  uint64_t total_memory = 4ull << 30;
  /// Hard cap on DBMS memory (paper: "manually set hard limits").
  uint64_t dbms_memory_limit = 1ull << 30;
  /// Maximum worker threads the DBMS may use.
  int max_threads = 4;
  /// Reactive mode: adapt compression/join/memory to app pressure.
  bool reactive = false;
};

/// One recorded reactive decision (drives the Figure 1 bench output).
struct GovernorSample {
  uint64_t app_memory;
  uint64_t dbms_memory;
  double app_cpu;
  CompressionLevel compression;
  uint64_t effective_budget;
  /// Worker threads a parallel operator launched now would be allowed
  /// (reactive mode shrinks this under host-application CPU pressure).
  int thread_budget;
};

/// Resource governor: implements both the manual caps and the reactive
/// resource-sharing scheme of paper section 4. All reads are cheap and
/// thread-safe; the engine consults it at operator decision points.
class ResourceGovernor {
 public:
  explicit ResourceGovernor(const GovernorConfig& config)
      : config_(config),
        max_threads_(config.max_threads),
        reactive_(config.reactive) {}

  /// Monitor, reactive flag and thread cap are atomic: PRAGMAs on one
  /// connection may flip them while another connection's parallel
  /// workers read them at morsel boundaries.
  void SetMonitor(AppResourceMonitor* monitor) { monitor_.store(monitor); }
  void SetBufferManager(BufferManager* buffers) { buffers_ = buffers; }
  /// Initial configuration (runtime state lives in the atomics below).
  const GovernorConfig& config() const { return config_; }
  void SetReactive(bool reactive) { reactive_.store(reactive); }
  bool reactive() const { return reactive_.load(); }
  void SetMemoryLimit(uint64_t bytes);
  /// Thread cap is atomic: parallel operators re-read it at morsel
  /// boundaries while another thread may be adjusting it.
  void SetThreads(int threads) { max_threads_.store(threads); }
  int max_threads() const { return max_threads_.load(); }

  /// Worker threads a parallel pipeline may use right now. Manual mode:
  /// the configured cap. Reactive mode: the cap scaled by the CPU share
  /// the host application leaves free (never below 1 — the query always
  /// makes progress). Morsel sources consult this between morsels, so a
  /// running query sheds workers when the application gets busy.
  int EffectiveThreadBudget() const;

  /// Memory the DBMS should currently use for query intermediates.
  /// Manual mode: the configured cap. Reactive mode: what is left of the
  /// machine after the application's current usage (with 12.5% headroom),
  /// clamped to the cap.
  uint64_t EffectiveMemoryBudget() const;

  /// Compression level for spill writes (the buffer manager's spill
  /// policy). Reactive: none below 50% machine-memory pressure, light
  /// below 75%, heavy above — the staircase of Figure 1.
  CompressionLevel ChooseCompressionLevel() const;

  /// Manual override used when reactive mode is off.
  void SetCompressionLevel(CompressionLevel level) {
    manual_compression_ = level;
  }

  /// Milliseconds the async WAL flusher sleeps between fsyncs. Base 5ms;
  /// reactive mode stretches it up to 4x as host-application CPU demand
  /// rises (a little durability lag traded for staying off a busy CPU).
  uint64_t WalFlushIntervalMs() const;

  /// Microseconds the integrity scrubber pauses between objects (blocks,
  /// row groups). Zero when the machine is otherwise idle — a scrub on a
  /// quiet embedded host should just finish; reactive mode stretches the
  /// pause up to 2ms per object as the host application's CPU demand
  /// rises, so background verification never competes with the
  /// foreground workload (paper section 4's cooperation stance).
  uint64_t ScrubPauseMicros() const;

  /// Hash vs merge join: hash while the estimated build side is within
  /// 8x the current budget (the grace hash join spills radix partitions,
  /// so builds larger than memory still complete), else out-of-core
  /// merge join.
  JoinAlgorithm ChooseJoinAlgorithm(uint64_t estimated_build_bytes) const;

  /// Records the current state; the Figure 1 bench polls this.
  GovernorSample Sample() const;

 private:
  uint64_t DbmsMemoryUsed() const;

  GovernorConfig config_;
  std::atomic<int> max_threads_;
  std::atomic<bool> reactive_;
  std::atomic<AppResourceMonitor*> monitor_{nullptr};
  BufferManager* buffers_ = nullptr;
  CompressionLevel manual_compression_ = CompressionLevel::kNone;
};

/// Counters exposed via PRAGMA scheduler_stats.
struct AdmissionStats {
  uint64_t admitted = 0;   ///< queries that got an execution slot
  uint64_t queued = 0;     ///< arrivals that had to wait first
  uint64_t shed = 0;       ///< rejected immediately: queue full
  uint64_t timeouts = 0;   ///< rejected after waiting out the timeout
  int active = 0;          ///< slots held right now
  int waiting = 0;         ///< queries queued right now
};

/// The governor's admission gate: every query acquires an execution slot
/// before running and releases it when done. When thread or memory
/// budgets are saturated, new queries queue — bounded, FIFO within
/// priority class (high jumps ahead of normal ahead of low) — or are
/// shed with kResourceExhausted when the queue is full or the wait times
/// out. One query is always admitted when none is active, so a single
/// connection can never be wedged by a tight budget.
class AdmissionController {
 public:
  /// `governor` supplies the memory budget and the auto thread-derived
  /// concurrency limit; `buffers` (set later, may be null in tests)
  /// supplies current memory usage for the saturation gate.
  explicit AdmissionController(const ResourceGovernor* governor)
      : governor_(governor) {}

  void SetBufferManager(const BufferManager* buffers) { buffers_ = buffers; }

  /// 0 = auto (4x the governor's thread cap).
  void SetMaxActive(int limit) { max_active_.store(limit); }
  int max_active() const { return max_active_.load(); }
  void SetQueueDepth(int depth) { queue_depth_.store(depth); }
  int queue_depth() const { return queue_depth_.load(); }
  void SetTimeoutMs(uint64_t ms) { timeout_ms_.store(ms); }
  uint64_t timeout_ms() const { return timeout_ms_.load(); }

  /// Blocks until an execution slot is free (or returns
  /// kResourceExhausted when the bounded queue is full / the wait timed
  /// out). `priority_class`: 0 = low, 1 = normal, 2 = high; admission is
  /// FIFO within a class, higher classes first.
  Status Admit(int priority_class);
  /// Returns the slot acquired by a successful Admit.
  void Release();

  AdmissionStats GetStats() const;

 private:
  /// Effective concurrency limit right now. Thread-safe.
  int EffectiveLimit() const;
  /// One more query may start. Caller holds mutex_.
  bool HasCapacity() const;
  /// `seq` is the next waiter to be served in `cls` and no higher class
  /// has waiters. Caller holds mutex_.
  bool IsNextInLine(int cls, uint64_t seq) const;

  static constexpr int kClasses = 3;

  const ResourceGovernor* governor_;
  const BufferManager* buffers_ = nullptr;
  std::atomic<int> max_active_{0};
  std::atomic<int> queue_depth_{64};
  std::atomic<uint64_t> timeout_ms_{10000};

  mutable std::mutex mutex_;
  std::condition_variable slot_free_;
  int active_ = 0;
  int waiting_ = 0;
  uint64_t next_seq_ = 0;
  std::deque<uint64_t> waiters_[kClasses];
  uint64_t admitted_ = 0;
  uint64_t queued_ = 0;
  uint64_t shed_ = 0;
  uint64_t timeouts_ = 0;
};

}  // namespace mallard

#endif  // MALLARD_GOVERNOR_RESOURCE_GOVERNOR_H_
