#include "mallard/storage/block_manager.h"

#include <cstring>

#include "mallard/common/checksum.h"
#include "mallard/common/serializer.h"
#include "mallard/resilience/fault_injector.h"
#include "mallard/resilience/retry_policy.h"

namespace mallard {

namespace {
constexpr uint64_t kMagic = 0x4D414C4C41524431ULL;  // "MALLARD1"
constexpr uint32_t kFormatVersion = 1;

struct RawHeader {
  uint64_t magic;
  uint32_t format_version;
  uint32_t padding;
  uint64_t iteration;
  int64_t meta_block;
  uint64_t block_count;
};
}  // namespace

Result<std::unique_ptr<BlockManager>> BlockManager::Open(
    const std::string& path, bool enable_checksums, bool* created,
    ResilienceStats* stats) {
  bool exists = FileExists(path);
  MALLARD_ASSIGN_OR_RETURN(
      auto file, FileHandle::Open(path, FileHandle::kRead | FileHandle::kWrite |
                                            FileHandle::kCreate));
  auto manager = std::unique_ptr<BlockManager>(
      new BlockManager(std::move(file), enable_checksums, stats));
  if (!exists) {
    *created = true;
    manager->header_ = DatabaseHeader{};
    // Write both header slots so either can be read back.
    MALLARD_RETURN_NOT_OK(manager->WriteHeaderSlot(0, manager->header_));
    MALLARD_RETURN_NOT_OK(manager->WriteHeaderSlot(1, manager->header_));
    MALLARD_RETURN_NOT_OK(manager->file_->Sync());
    return manager;
  }
  *created = false;
  DatabaseHeader h0, h1;
  bool v0 = false, v1 = false;
  MALLARD_RETURN_NOT_OK(manager->ReadHeaderSlot(0, &h0, &v0));
  MALLARD_RETURN_NOT_OK(manager->ReadHeaderSlot(1, &h1, &v1));
  if (!v0 && !v1) {
    return Status::Corruption("both database headers are corrupt in '" +
                              path + "'");
  }
  if (v0 && v1) {
    manager->header_ = h0.iteration >= h1.iteration ? h0 : h1;
  } else {
    manager->header_ = v0 ? h0 : h1;
  }
  return manager;
}

Status BlockManager::ReadHeaderSlot(int slot, DatabaseHeader* header,
                                    bool* valid) {
  *valid = false;
  MALLARD_ASSIGN_OR_RETURN(uint64_t size, file_->Size());
  if (size < (static_cast<uint64_t>(slot) + 1) * kBlockSize) {
    return Status::OK();  // slot not present; not valid but not an error
  }
  std::vector<uint8_t> buffer(kBlockSize);
  MALLARD_RETURN_NOT_OK(
      file_->Read(buffer.data(), kBlockSize, slot * kBlockSize));
  uint32_t stored_crc;
  std::memcpy(&stored_crc, buffer.data(), sizeof(uint32_t));
  uint32_t actual_crc =
      Crc32c(buffer.data() + sizeof(uint32_t), kBlockPayloadSize);
  if (stored_crc != actual_crc) {
    return Status::OK();  // corrupt slot; caller decides
  }
  RawHeader raw;
  std::memcpy(&raw, buffer.data() + sizeof(uint32_t), sizeof(RawHeader));
  if (raw.magic != kMagic || raw.format_version != kFormatVersion) {
    return Status::OK();
  }
  header->iteration = raw.iteration;
  header->meta_block = raw.meta_block;
  header->block_count = raw.block_count;
  *valid = true;
  return Status::OK();
}

Status BlockManager::WriteHeaderSlot(int slot, const DatabaseHeader& header) {
  std::vector<uint8_t> buffer(kBlockSize, 0);
  RawHeader raw;
  raw.magic = kMagic;
  raw.format_version = kFormatVersion;
  raw.padding = 0;
  raw.iteration = header.iteration;
  raw.meta_block = header.meta_block;
  raw.block_count = header.block_count;
  std::memcpy(buffer.data() + sizeof(uint32_t), &raw, sizeof(RawHeader));
  uint32_t crc = Crc32c(buffer.data() + sizeof(uint32_t), kBlockPayloadSize);
  std::memcpy(buffer.data(), &crc, sizeof(uint32_t));
  return file_->Write(buffer.data(), kBlockSize, slot * kBlockSize);
}

Status BlockManager::ReadBlock(block_id_t id, uint8_t* buffer) {
  std::vector<uint8_t> raw(kBlockSize);
  // Read + verify is one retryable unit: a checksum mismatch is re-read
  // from disk, which separates an in-flight flip (DRAM on the read path
  // — the next read is clean) from media damage (every read disagrees
  // with the stamped CRC and the error sticks as kCorruption).
  auto attempt = [&]() -> Status {
    MALLARD_RETURN_NOT_OK(
        file_->Read(raw.data(), kBlockSize, BlockOffset(id)));
    auto& injector = FaultInjector::Get();
    if (injector.ShouldFire(FaultSite::kBlockRead)) {
      injector.FlipRandomBit(raw.data(), kBlockSize);
    }
    if (enable_checksums_) {
      uint32_t stored_crc;
      std::memcpy(&stored_crc, raw.data(), sizeof(uint32_t));
      uint32_t actual_crc =
          Crc32c(raw.data() + sizeof(uint32_t), kBlockPayloadSize);
      if (stored_crc != actual_crc) {
        resilience_->block_checksum_failures.fetch_add(1);
        return Status::Corruption(
            "checksum mismatch reading block " + std::to_string(id) +
            ": persistent storage corruption detected");
      }
    }
    return Status::OK();
  };
  MALLARD_RETURN_NOT_OK(
      RetryPolicy::Execute(resilience_, attempt, [](const Status& s) {
        return s.IsIOError() || s.IsCorruption();
      }));
  std::memcpy(buffer, raw.data() + sizeof(uint32_t), kBlockPayloadSize);
  return Status::OK();
}

Status BlockManager::WriteBlock(block_id_t id, const uint8_t* buffer) {
  std::vector<uint8_t> raw(kBlockSize);
  std::memcpy(raw.data() + sizeof(uint32_t), buffer, kBlockPayloadSize);
  auto& injector = FaultInjector::Get();
  uint32_t crc = Crc32c(raw.data() + sizeof(uint32_t), kBlockPayloadSize);
  std::memcpy(raw.data(), &crc, sizeof(uint32_t));
  if (injector.ShouldFire(FaultSite::kBlockWrite)) {
    // Bit flips after the checksum was computed model in-memory corruption
    // on the write path; they will be caught on the next read.
    injector.FlipRandomBit(raw.data() + sizeof(uint32_t), kBlockPayloadSize);
  }
  return file_->Write(raw.data(), kBlockSize, BlockOffset(id));
}

block_id_t BlockManager::AllocateBlock() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!free_blocks_.empty()) {
    block_id_t id = *free_blocks_.begin();
    free_blocks_.erase(free_blocks_.begin());
    return id;
  }
  return static_cast<block_id_t>(header_.block_count++);
}

void BlockManager::SetLiveBlocks(const std::set<block_id_t>& live) {
  std::lock_guard<std::mutex> lock(mutex_);
  free_blocks_.clear();
  for (uint64_t i = 0; i < header_.block_count; i++) {
    block_id_t id = static_cast<block_id_t>(i);
    if (!live.count(id)) {
      free_blocks_.insert(id);
    }
  }
}

Status BlockManager::WriteHeader(block_id_t meta_block) {
  auto& injector = FaultInjector::Get();
  // Fire before any in-memory mutation so a failed root swap leaves the
  // manager consistent with the on-disk (old) root and a retry works.
  if (injector.ShouldFire(FaultSite::kCheckpointRootSwap)) {
    return Status::IOError("injected checkpoint root swap failure");
  }
  // Make sure all data blocks referenced by the new root are durable
  // before the root becomes visible.
  MALLARD_RETURN_NOT_OK(file_->Sync());
  if (injector.ShouldKill(FaultSite::kCheckpointRootSwap)) {
    // Power loss between data durability and the header flip: reopen
    // reads the old root; the WAL has not been truncated yet.
    FaultInjector::KillProcess();
  }
  header_.iteration++;
  header_.meta_block = meta_block;
  int slot = static_cast<int>(header_.iteration % 2);
  MALLARD_RETURN_NOT_OK(WriteHeaderSlot(slot, header_));
  return file_->Sync();
}

Status BlockManager::VerifyBlock(block_id_t id) {
  std::vector<uint8_t> raw(kBlockSize);
  MALLARD_RETURN_NOT_OK(file_->Read(raw.data(), kBlockSize, BlockOffset(id)));
  uint32_t stored_crc;
  std::memcpy(&stored_crc, raw.data(), sizeof(uint32_t));
  uint32_t actual_crc =
      Crc32c(raw.data() + sizeof(uint32_t), kBlockPayloadSize);
  if (stored_crc != actual_crc) {
    return Status::Corruption("checksum mismatch in block " +
                              std::to_string(id));
  }
  return Status::OK();
}

std::vector<block_id_t> BlockManager::LiveBlocks() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<block_id_t> live;
  live.reserve(header_.block_count - free_blocks_.size());
  for (uint64_t i = 0; i < header_.block_count; i++) {
    block_id_t id = static_cast<block_id_t>(i);
    if (!free_blocks_.count(id)) live.push_back(id);
  }
  return live;
}

Status BlockManager::CorruptBlockOnDisk(block_id_t id, uint64_t bit_index) {
  uint64_t offset = BlockOffset(id) + sizeof(uint32_t) + bit_index / 8;
  uint8_t byte;
  MALLARD_RETURN_NOT_OK(file_->Read(&byte, 1, offset));
  byte ^= uint8_t(1) << (bit_index % 8);
  MALLARD_RETURN_NOT_OK(file_->Write(&byte, 1, offset));
  return file_->Sync();
}

}  // namespace mallard
