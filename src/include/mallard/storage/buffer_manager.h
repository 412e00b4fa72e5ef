#ifndef MALLARD_STORAGE_BUFFER_MANAGER_H_
#define MALLARD_STORAGE_BUFFER_MANAGER_H_

#include <algorithm>
#include <atomic>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mallard/common/constants.h"
#include "mallard/common/result.h"
#include "mallard/compression/codec.h"
#include "mallard/resilience/memtest.h"
#include "mallard/storage/file_handle.h"

namespace mallard {

struct ResilienceStats;

class BufferManager;

/// One buffer-manager-owned allocation. May be resident (data() valid) or
/// spilled to the temporary file; Pin() brings it back.
class ManagedBuffer {
 public:
  ManagedBuffer(BufferManager* manager, uint64_t size, bool spillable)
      : manager_(manager), size_(size), spillable_(spillable) {}
  ~ManagedBuffer();

  ManagedBuffer(const ManagedBuffer&) = delete;
  ManagedBuffer& operator=(const ManagedBuffer&) = delete;

  uint64_t size() const { return size_; }
  bool resident() const { return data_ != nullptr; }

 private:
  friend class BufferManager;
  friend class BufferHandle;

  /// The bytes an eviction writes: the filled prefix, else everything.
  uint64_t payload_size() const { return std::min(filled_, size_); }

  BufferManager* manager_;
  uint64_t size_;
  bool spillable_;
  std::unique_ptr<uint8_t[]> data_;
  int pin_count_ = 0;
  uint64_t spill_offset_ = ~uint64_t(0);
  /// Bytes of the current on-disk copy (== payload_size() when
  /// uncompressed).
  uint64_t spill_bytes_ = 0;
  /// CRC32C of the on-disk copy, stamped at spill time and verified on
  /// every reload: a bit flip in the temp file (DRAM on the write path,
  /// media at rest) surfaces as kCorruption instead of wrong rows.
  uint32_t spill_crc_ = 0;
  /// Codec the current on-disk copy was written with.
  CompressionLevel spill_level_ = CompressionLevel::kNone;
  uint64_t lru_tick_ = 0;
  /// How many leading bytes hold data (BufferHandle::MarkFilled); an
  /// eviction writes, and a reload restores, only those.
  uint64_t filled_ = ~uint64_t(0);
  // True while the resident contents differ from the spill-file copy
  // (fresh allocations are dirty; a reload makes the copies equal). A
  // clean eviction whose spill slot is still valid skips the write.
  bool dirty_ = true;
};

/// RAII pin on a ManagedBuffer. While a handle exists the buffer is
/// resident and its data pointer is stable.
class BufferHandle {
 public:
  BufferHandle() = default;
  BufferHandle(BufferManager* manager, std::shared_ptr<ManagedBuffer> buffer)
      : manager_(manager), buffer_(std::move(buffer)) {}
  ~BufferHandle() { Release(); }

  BufferHandle(const BufferHandle&) = delete;
  BufferHandle& operator=(const BufferHandle&) = delete;
  BufferHandle(BufferHandle&& other) noexcept { *this = std::move(other); }
  BufferHandle& operator=(BufferHandle&& other) noexcept;

  explicit operator bool() const { return buffer_ != nullptr; }
  uint8_t* data() { return buffer_->data_.get(); }
  const uint8_t* data() const { return buffer_->data_.get(); }
  uint64_t size() const { return buffer_->size(); }

  /// The underlying buffer; hold this to re-Pin later after Release.
  const std::shared_ptr<ManagedBuffer>& buffer() const { return buffer_; }

  /// Unpins early (also done by the destructor).
  void Release();

  /// Marks the buffer's contents as modified since the last spill, so a
  /// future eviction rewrites the spill-file copy instead of reusing it.
  /// Call after writing through data() on a re-pinned buffer.
  void MarkDirty();

  /// Records that only the first `bytes` of the buffer hold data, so
  /// that spilling it writes no blank tail. Call while pinned.
  void MarkFilled(uint64_t bytes) { buffer_->filled_ = bytes; }

 private:
  BufferManager* manager_ = nullptr;
  std::shared_ptr<ManagedBuffer> buffer_;
};

/// Statistics snapshot used by benches and the resource governor.
struct BufferManagerStats {
  uint64_t memory_used = 0;
  uint64_t memory_limit = 0;
  uint64_t peak_memory = 0;
  uint64_t spill_count = 0;        // spill-file writes
  uint64_t spilled_bytes = 0;      // cumulative bytes written to the spill file
  uint64_t unspill_count = 0;      // spill-file reads (reloads)
  uint64_t eviction_count = 0;     // evictions (>= spill_count: clean
                                   // re-evictions skip the write)
  uint64_t spilled_bytes_now = 0;  // bytes currently evicted to disk
  uint64_t spill_compressed_count = 0;  // spill writes that compressed
  uint64_t spill_saved_bytes = 0;  // I/O bytes avoided by compression
  uint64_t quarantined_allocations = 0;
  uint64_t quarantined_bytes = 0;
  uint64_t alloc_tests_run = 0;
};

/// What the governor wants from eviction right now.
struct SpillPolicy {
  /// Codec a spill write compresses with.
  CompressionLevel compression = CompressionLevel::kNone;
  /// Resident bytes eviction works down to; the memory limit still caps
  /// it. Under reactive pressure this is below the limit, so unpinned
  /// intermediates leave memory before the host needs it back.
  uint64_t budget = UINT64_MAX;
};

/// Buffer manager: enforces the database memory cap (paper section 4 —
/// the embedded DBMS must not starve the host application) by spilling
/// unpinned buffers to a temporary file, and integrates allocation-time
/// memory testing with quarantining of regions that fail (the mitigation
/// the paper proposes in section 3).
class BufferManager {
 public:
  /// `temp_path` is the spill file location ("" = anonymous file in /tmp).
  /// Spill I/O retries and spill checksum failures count into `stats`.
  BufferManager(uint64_t memory_limit, std::string temp_path,
                ResilienceStats* stats);
  ~BufferManager();

  /// Allocates a pinned buffer of `size` bytes. Spillable buffers can be
  /// evicted to disk while unpinned; non-spillable ones always stay
  /// resident (used for tiny control structures).
  Result<BufferHandle> Allocate(uint64_t size, bool spillable = true);

  /// Re-pins a buffer, reloading it from the spill file if necessary.
  Result<BufferHandle> Pin(const std::shared_ptr<ManagedBuffer>& buffer);

  void SetMemoryLimit(uint64_t limit);
  uint64_t memory_limit() const { return memory_limit_.load(); }
  uint64_t memory_used() const { return memory_used_.load(); }
  BufferManagerStats GetStats() const;
  void ResetPeak();

  /// Installs the governor's spill policy, read at every eviction: the
  /// budget eviction works down to and the codec for spill writes
  /// (typically the pressure staircase: none under 50% application
  /// memory pressure, RLE under 75%, LZ above). This is the only place
  /// intermediates are compressed. Spill slots stay full-size — the
  /// saving is I/O bytes, not file footprint — and LoadBuffer
  /// transparently decompresses. The policy must not call back into
  /// this buffer manager except through memory_used().
  void SetSpillPolicy(std::function<SpillPolicy()> policy) {
    std::lock_guard<std::mutex> lock(mutex_);
    spill_policy_ = std::move(policy);
  }

  /// Enables the fast walking-bits screen on every new allocation.
  void EnableAllocationTesting(bool enable) { test_on_alloc_ = enable; }
  bool allocation_testing() const { return test_on_alloc_; }
  /// Probability that the simulated hardware hands us a bad region on
  /// allocation (drives quarantine testing; 0 = healthy hardware).
  void SetSimulatedBadRegionProbability(double p, int faults_per_region = 3);

  /// Runs moving inversions over all currently unpinned resident buffers
  /// (the paper's "periodically test buffers" proposal). Pinned buffers
  /// are skipped; contents are saved and restored around the test.
  MemtestResult TestIdleBuffers(uint64_t pattern, int iterations);

 private:
  friend class ManagedBuffer;
  friend class BufferHandle;

  void Unpin(ManagedBuffer* buffer);
  void OnDestroy(ManagedBuffer* buffer);
  void MarkDirty(ManagedBuffer* buffer);
  /// Evicts unpinned buffers until `needed` more bytes fit under the
  /// smaller of the limit and the spill policy's budget. Must hold mutex_.
  Status EvictUntil(uint64_t needed);
  Status SpillBuffer(ManagedBuffer* buffer, CompressionLevel level);
  Status LoadBuffer(ManagedBuffer* buffer);
  Result<std::unique_ptr<uint8_t[]>> AllocateTested(uint64_t size);
  Status EnsureSpillFile();

  mutable std::mutex mutex_;
  std::atomic<uint64_t> memory_limit_;
  std::atomic<uint64_t> memory_used_{0};
  uint64_t peak_memory_ = 0;
  std::string temp_path_;
  ResilienceStats* resilience_;
  std::unique_ptr<FileHandle> spill_file_;
  uint64_t spill_file_size_ = 0;
  std::map<uint64_t, std::vector<uint64_t>> free_spill_slots_;
  std::list<ManagedBuffer*> evictable_;  // LRU order, front = oldest
  uint64_t lru_counter_ = 0;
  std::function<SpillPolicy()> spill_policy_;

  bool test_on_alloc_ = false;
  double bad_region_probability_ = 0.0;
  int faults_per_region_ = 3;
  uint64_t rng_state_ = 0x9E3779B97f4A7C15ULL;
  // Regions that failed the allocation-time memory test: owned here so
  // they are never reused (and never reported as leaked).
  std::vector<std::unique_ptr<uint8_t[]>> quarantined_regions_;

  BufferManagerStats stats_;
};

}  // namespace mallard

#endif  // MALLARD_STORAGE_BUFFER_MANAGER_H_
