#include "mallard/storage/buffer_manager.h"

#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "mallard/common/checksum.h"
#include "mallard/resilience/fault_injector.h"
#include "mallard/resilience/retry_policy.h"

namespace mallard {

ManagedBuffer::~ManagedBuffer() { manager_->OnDestroy(this); }

BufferHandle& BufferHandle::operator=(BufferHandle&& other) noexcept {
  if (this != &other) {
    Release();
    manager_ = other.manager_;
    buffer_ = std::move(other.buffer_);
    other.manager_ = nullptr;
  }
  return *this;
}

void BufferHandle::Release() {
  if (buffer_) {
    manager_->Unpin(buffer_.get());
    buffer_.reset();
  }
}

void BufferHandle::MarkDirty() {
  if (buffer_) manager_->MarkDirty(buffer_.get());
}

BufferManager::BufferManager(uint64_t memory_limit, std::string temp_path,
                             ResilienceStats* stats)
    : memory_limit_(memory_limit),
      temp_path_(std::move(temp_path)),
      resilience_(stats) {}

BufferManager::~BufferManager() {
  if (spill_file_) {
    std::string path = spill_file_->path();
    spill_file_.reset();
    RemoveFile(path);
  }
}

Result<BufferHandle> BufferManager::Allocate(uint64_t size, bool spillable) {
  std::lock_guard<std::mutex> lock(mutex_);
  MALLARD_RETURN_NOT_OK(EvictUntil(size));
  auto buffer = std::make_shared<ManagedBuffer>(this, size, spillable);
  MALLARD_ASSIGN_OR_RETURN(buffer->data_, AllocateTested(size));
  buffer->pin_count_ = 1;
  memory_used_.fetch_add(size);
  peak_memory_ = std::max(peak_memory_, memory_used_.load());
  return BufferHandle(this, std::move(buffer));
}

Result<BufferHandle> BufferManager::Pin(
    const std::shared_ptr<ManagedBuffer>& buffer) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!buffer->resident()) {
    MALLARD_RETURN_NOT_OK(EvictUntil(buffer->size_));
    MALLARD_RETURN_NOT_OK(LoadBuffer(buffer.get()));
  } else if (buffer->pin_count_ == 0) {
    evictable_.remove(buffer.get());
  }
  buffer->pin_count_++;
  return BufferHandle(this, buffer);
}

void BufferManager::Unpin(ManagedBuffer* buffer) {
  std::lock_guard<std::mutex> lock(mutex_);
  buffer->pin_count_--;
  if (buffer->pin_count_ == 0 && buffer->resident() && buffer->spillable_) {
    buffer->lru_tick_ = ++lru_counter_;
    evictable_.push_back(buffer);
  }
}

void BufferManager::OnDestroy(ManagedBuffer* buffer) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (buffer->resident()) {
    memory_used_.fetch_sub(buffer->size_);
    evictable_.remove(buffer);
  } else {
    stats_.spilled_bytes_now -= buffer->size_;
  }
  if (buffer->spill_offset_ != ~uint64_t(0)) {
    free_spill_slots_[buffer->size_].push_back(buffer->spill_offset_);
  }
}

void BufferManager::MarkDirty(ManagedBuffer* buffer) {
  std::lock_guard<std::mutex> lock(mutex_);
  buffer->dirty_ = true;
}

Status BufferManager::EvictUntil(uint64_t needed) {
  SpillPolicy policy = spill_policy_ ? spill_policy_() : SpillPolicy{};
  uint64_t limit = std::min(memory_limit_.load(), policy.budget);
  while (memory_used_.load() + needed > limit && !evictable_.empty()) {
    ManagedBuffer* victim = evictable_.front();
    evictable_.pop_front();
    Status status = SpillBuffer(victim, policy.compression);
    if (!status.ok()) {
      // The victim is still resident and unpinned: put it back so it
      // stays reachable for later eviction (and for OnDestroy).
      evictable_.push_front(victim);
      return status;
    }
  }
  // An allocation larger than the limit itself is allowed to proceed when
  // nothing can be evicted: the engine prefers degraded memory behaviour
  // over failing the query, but reports peak usage via stats.
  return Status::OK();
}

Status BufferManager::EnsureSpillFile() {
  if (spill_file_) return Status::OK();
  std::string path = temp_path_.empty()
                         ? "/tmp/mallard_spill_" + std::to_string(::getpid())
                         : temp_path_;
  MALLARD_ASSIGN_OR_RETURN(
      spill_file_,
      FileHandle::Open(path, FileHandle::kRead | FileHandle::kWrite |
                                 FileHandle::kCreate | FileHandle::kTruncate));
  return Status::OK();
}

Status BufferManager::SpillBuffer(ManagedBuffer* buffer,
                                  CompressionLevel level) {
  MALLARD_RETURN_NOT_OK(EnsureSpillFile());
  // A clean buffer whose spill slot is still valid needs no write: the
  // on-disk copy from the previous eviction is already correct.
  if (buffer->dirty_ || buffer->spill_offset_ == ~uint64_t(0)) {
    uint64_t offset;
    if (buffer->spill_offset_ != ~uint64_t(0)) {
      offset = buffer->spill_offset_;  // dirty: rewrite the retained slot
    } else {
      auto slot_it = free_spill_slots_.find(buffer->size_);
      if (slot_it != free_spill_slots_.end() && !slot_it->second.empty()) {
        offset = slot_it->second.back();
        slot_it->second.pop_back();
      } else {
        offset = spill_file_size_;
        spill_file_size_ += buffer->size_;
      }
    }
    // Compress the payload when the governor's pressure staircase says
    // so. The spill slot stays full-size (slots are reused by buffer
    // size); the saving is the bytes that never hit the disk.
    const uint64_t raw_len = buffer->payload_size();
    const uint8_t* payload = buffer->data_.get();
    uint64_t payload_len = raw_len;
    std::vector<uint8_t> compressed;
    if (const Codec* codec = CodecForLevel(level)) {
      codec->Compress(buffer->data_.get(), raw_len, &compressed);
      if (compressed.size() < raw_len) {
        payload = compressed.data();
        payload_len = compressed.size();
      } else {
        // Compression backfired on incompressible data; keep raw.
        level = CompressionLevel::kNone;
      }
    } else {
      level = CompressionLevel::kNone;
    }
    // Transient write faults (full disk queue, injected) are ridden out
    // by the bounded-backoff retry; a persistent fault still fails the
    // eviction cleanly after the attempts are exhausted.
    Status status = RetryPolicy::Execute(resilience_, [&]() -> Status {
      if (FaultInjector::Get().ShouldFire(FaultSite::kSpillWrite)) {
        return Status::IOError("spill write fault injected on '" +
                               spill_file_->path() + "'");
      }
      return spill_file_->Write(payload, payload_len, offset);
    });
    if (!status.ok()) {
      if (buffer->spill_offset_ == ~uint64_t(0)) {
        free_spill_slots_[buffer->size_].push_back(offset);
      }
      return status;
    }
    buffer->spill_offset_ = offset;
    buffer->spill_bytes_ = payload_len;
    buffer->spill_crc_ = Crc32c(payload, payload_len);
    buffer->spill_level_ = level;
    buffer->dirty_ = false;
    stats_.spill_count++;
    stats_.spilled_bytes += payload_len;
    if (level != CompressionLevel::kNone) {
      stats_.spill_compressed_count++;
      stats_.spill_saved_bytes += raw_len - payload_len;
    }
  }
  buffer->data_.reset();
  memory_used_.fetch_sub(buffer->size_);
  stats_.eviction_count++;
  stats_.spilled_bytes_now += buffer->size_;
  return Status::OK();
}

Status BufferManager::LoadBuffer(ManagedBuffer* buffer) {
  MALLARD_ASSIGN_OR_RETURN(buffer->data_, AllocateTested(buffer->size_));
  // Read + verify + decompress as one retryable unit. A checksum
  // mismatch is retried too: re-reading from disk distinguishes an
  // in-flight flip (second read is clean) from at-rest media damage
  // (every read disagrees with the stamped CRC → kCorruption).
  auto attempt = [&]() -> Status {
    if (FaultInjector::Get().ShouldFire(FaultSite::kSpillRead)) {
      return Status::IOError("spill read fault injected on '" +
                             spill_file_->path() + "'");
    }
    const bool compressed = buffer->spill_level_ != CompressionLevel::kNone;
    std::vector<uint8_t> scratch;
    uint8_t* disk = buffer->data_.get();
    if (compressed) {
      scratch.resize(buffer->spill_bytes_);
      disk = scratch.data();
    }
    MALLARD_RETURN_NOT_OK(
        spill_file_->Read(disk, buffer->spill_bytes_, buffer->spill_offset_));
    if (Crc32c(disk, buffer->spill_bytes_) != buffer->spill_crc_) {
      resilience_->spill_checksum_failures.fetch_add(1);
      return Status::Corruption(
          "spill segment checksum mismatch at offset " +
          std::to_string(buffer->spill_offset_) + " of '" +
          spill_file_->path() + "': temp-file corruption detected");
    }
    if (compressed) {
      const Codec* codec = CodecForLevel(buffer->spill_level_);
      std::vector<uint8_t> raw;
      MALLARD_RETURN_NOT_OK(
          codec->Decompress(scratch.data(), scratch.size(), &raw));
      if (raw.size() != buffer->payload_size()) {
        return Status::Corruption("spilled buffer decompressed to wrong size");
      }
      std::memcpy(buffer->data_.get(), raw.data(), raw.size());
    }
    return Status::OK();
  };
  Status status =
      RetryPolicy::Execute(resilience_, attempt, [](const Status& s) {
        return s.IsIOError() || s.IsCorruption();
      });
  if (!status.ok()) {
    // Stay non-resident: a later Pin may retry, and accounting must not
    // see a half-loaded buffer.
    buffer->data_.reset();
    return status;
  }
  // The slot is retained (spill_offset_ stays valid): if this buffer is
  // evicted again without being modified, the eviction skips the write.
  buffer->dirty_ = false;
  memory_used_.fetch_add(buffer->size_);
  peak_memory_ = std::max(peak_memory_, memory_used_.load());
  stats_.unspill_count++;
  stats_.spilled_bytes_now -= buffer->size_;
  return Status::OK();
}

Result<std::unique_ptr<uint8_t[]>> BufferManager::AllocateTested(
    uint64_t size) {
  constexpr int kMaxAttempts = 8;
  for (int attempt = 0; attempt < kMaxAttempts; attempt++) {
    auto data = std::make_unique<uint8_t[]>(size);
    if (!test_on_alloc_ || size < 64) return data;
    stats_.alloc_tests_run++;
    // Decide whether the simulated hardware serves a faulty region.
    bool simulate_bad = false;
    if (bad_region_probability_ > 0.0) {
      rng_state_ ^= rng_state_ << 13;
      rng_state_ ^= rng_state_ >> 7;
      rng_state_ ^= rng_state_ << 17;
      simulate_bad =
          (rng_state_ % 1000000) < bad_region_probability_ * 1000000;
    }
    MemtestResult result;
    if (simulate_bad) {
      // Route the test through a simulated DIMM with stuck-at faults so
      // detection is exercised end to end.
      SimulatedDimm dimm(size);
      for (int f = 0; f < faults_per_region_; f++) {
        rng_state_ ^= rng_state_ << 13;
        rng_state_ ^= rng_state_ >> 7;
        rng_state_ ^= rng_state_ << 17;
        MemoryFault fault;
        fault.kind = (rng_state_ & 1) ? MemoryFault::Kind::kStuckAtOne
                                      : MemoryFault::Kind::kStuckAtZero;
        fault.word_index = (rng_state_ >> 8) % (size / 8);
        fault.bit = static_cast<uint8_t>((rng_state_ >> 40) % 64);
        dimm.AddFault(fault);
      }
      result = WalkingBitsTest(dimm);
    } else {
      DirectMemory mem(data.get(), size);
      result = WalkingBitsTest(mem);
    }
    if (result.passed) {
      if (!simulate_bad) {
        // The walking test leaves the buffer filled with a pattern.
        std::memset(data.get(), 0, size);
      }
      return data;
    }
    // Quarantine: park this region in the quarantine list so it is never
    // handed out again — the "avoid broken memory areas" mitigation from
    // paper section 3. The list owns the regions (keeping LSAN clean) and
    // only releases them when the buffer manager itself is destroyed,
    // which is when a real deployment would have to give the pages back
    // anyway.
    stats_.quarantined_allocations++;
    stats_.quarantined_bytes += size;
    quarantined_regions_.push_back(std::move(data));
  }
  return Status::HardwareFailure(
      "memory allocation failed the allocation-time test repeatedly; "
      "hardware appears faulty");
}

void BufferManager::SetMemoryLimit(uint64_t limit) {
  std::lock_guard<std::mutex> lock(mutex_);
  memory_limit_.store(limit);
  // Proactively shrink below the new limit; a failed spill leaves the
  // rest resident for the next allocation to retry.
  (void)EvictUntil(0);
}

void BufferManager::SetSimulatedBadRegionProbability(double p,
                                                     int faults_per_region) {
  std::lock_guard<std::mutex> lock(mutex_);
  bad_region_probability_ = p;
  faults_per_region_ = faults_per_region;
}

MemtestResult BufferManager::TestIdleBuffers(uint64_t pattern,
                                             int iterations) {
  std::lock_guard<std::mutex> lock(mutex_);
  MemtestResult total;
  for (ManagedBuffer* buffer : evictable_) {
    // Preserve the buffer contents around the destructive test.
    std::vector<uint8_t> saved(buffer->data_.get(),
                               buffer->data_.get() + buffer->size_);
    DirectMemory mem(buffer->data_.get(), buffer->size_);
    MemtestResult r = MovingInversionsTest(mem, pattern, iterations);
    std::memcpy(buffer->data_.get(), saved.data(), saved.size());
    total.words_tested += r.words_tested;
    total.traffic_bytes += r.traffic_bytes;
    if (!r.passed) {
      total.passed = false;
      total.bad_words.insert(total.bad_words.end(), r.bad_words.begin(),
                             r.bad_words.end());
    }
  }
  return total;
}

BufferManagerStats BufferManager::GetStats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  BufferManagerStats s = stats_;
  s.memory_used = memory_used_.load();
  s.memory_limit = memory_limit_.load();
  s.peak_memory = peak_memory_;
  return s;
}

void BufferManager::ResetPeak() {
  std::lock_guard<std::mutex> lock(mutex_);
  peak_memory_ = memory_used_.load();
}

}  // namespace mallard
