#ifndef MALLARD_STORAGE_BLOCK_MANAGER_H_
#define MALLARD_STORAGE_BLOCK_MANAGER_H_

#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "mallard/common/constants.h"
#include "mallard/common/result.h"
#include "mallard/storage/file_handle.h"

namespace mallard {

struct ResilienceStats;

/// Identifier of a 256KB block in the database file.
using block_id_t = int64_t;
constexpr block_id_t kInvalidBlock = -1;

/// Usable payload bytes per block (kBlockSize minus the leading CRC32C).
constexpr uint64_t kBlockPayloadSize = kBlockSize - sizeof(uint32_t);

/// Manages the single-file database format (paper section 6):
///
///   [header 0][header 1][data block 0][data block 1]...
///
/// The two header slots alternate; each carries an iteration counter and a
/// checksum, and the valid header with the highest iteration wins. A
/// checkpoint writes new data blocks first and then flips the header with
/// the new root pointer — the atomic commit step. Every block (header and
/// data) is prefixed with a CRC32C over its payload, verified on every
/// read, so silent corruption of persistent storage is detected rather
/// than propagated (paper section 3).
class BlockManager {
 public:
  struct DatabaseHeader {
    uint64_t iteration = 0;
    block_id_t meta_block = kInvalidBlock;  // catalog chain head
    uint64_t block_count = 0;               // data blocks in the file
  };

  /// Opens or creates the database file. `created` reports whether a new
  /// file was initialized. Read retries and block checksum failures
  /// count into `stats`.
  static Result<std::unique_ptr<BlockManager>> Open(const std::string& path,
                                                    bool enable_checksums,
                                                    bool* created,
                                                    ResilienceStats* stats);

  /// Reads a data block payload into `buffer` (kBlockPayloadSize bytes),
  /// verifying the checksum. Returns Corruption status on mismatch.
  Status ReadBlock(block_id_t id, uint8_t* buffer);

  /// Writes a data block payload (kBlockPayloadSize bytes), stamping the
  /// checksum.
  Status WriteBlock(block_id_t id, const uint8_t* buffer);

  /// Allocates a block id (reusing freed blocks first).
  block_id_t AllocateBlock();

  /// Marks every block except `live` as free for reuse. Used by the
  /// checkpointer after rewriting all live data.
  void SetLiveBlocks(const std::set<block_id_t>& live);

  /// Atomically installs a new root: fsync data, write alternate header
  /// slot with incremented iteration, fsync again.
  Status WriteHeader(block_id_t meta_block);

  const DatabaseHeader& header() const { return header_; }
  uint64_t TotalBlocks() const { return header_.block_count; }
  idx_t FreeBlockCount() const { return free_blocks_.size(); }
  bool checksums_enabled() const { return enable_checksums_; }

  /// Single-read checksum probe for the integrity scrubber: verifies the
  /// stored CRC of `id` without the read-path retry loop (the scrubber
  /// wants an honest snapshot of on-disk state, not a healed view).
  Status VerifyBlock(block_id_t id);

  /// Snapshot of the block ids currently reachable from the root (all
  /// allocated blocks minus the free list) — the scrubber's walk list.
  std::vector<block_id_t> LiveBlocks();

  /// Direct file corruption helper for resilience tests/demos: flips one
  /// bit inside the stored payload of `id`.
  Status CorruptBlockOnDisk(block_id_t id, uint64_t bit_index);

 private:
  BlockManager(std::unique_ptr<FileHandle> file, bool enable_checksums,
               ResilienceStats* stats)
      : file_(std::move(file)),
        enable_checksums_(enable_checksums),
        resilience_(stats) {}

  uint64_t BlockOffset(block_id_t id) const {
    return (static_cast<uint64_t>(id) + 2) * kBlockSize;
  }

  Status ReadHeaderSlot(int slot, DatabaseHeader* header, bool* valid);
  Status WriteHeaderSlot(int slot, const DatabaseHeader& header);

  std::unique_ptr<FileHandle> file_;
  bool enable_checksums_;
  ResilienceStats* resilience_;
  DatabaseHeader header_;
  std::set<block_id_t> free_blocks_;
  std::mutex mutex_;
};

}  // namespace mallard

#endif  // MALLARD_STORAGE_BLOCK_MANAGER_H_
