#ifndef MALLARD_STORAGE_META_BLOCK_H_
#define MALLARD_STORAGE_META_BLOCK_H_

#include <memory>
#include <set>
#include <vector>

#include "mallard/common/serializer.h"
#include "mallard/storage/block_manager.h"

namespace mallard {

/// Writes an arbitrarily long byte stream into a chain of blocks. Each
/// block payload is [next_block i64][data_len u64][bytes...]. Used by the
/// checkpointer to persist the catalog and table data.
class MetaBlockWriter {
 public:
  explicit MetaBlockWriter(BlockManager* blocks) : blocks_(blocks) {}

  BinaryWriter& writer() { return writer_; }

  /// Flushes the accumulated buffer into freshly allocated blocks.
  /// Returns the head block id and records all blocks used.
  Result<block_id_t> Flush();

  const std::set<block_id_t>& blocks_used() const { return blocks_used_; }

 private:
  BlockManager* blocks_;
  BinaryWriter writer_;
  std::set<block_id_t> blocks_used_;
};

/// Streaming variant of MetaBlockWriter used by the online checkpointer:
/// instead of buffering the whole checkpoint image in memory, completed
/// chain blocks are written out as soon as the staged buffer fills one,
/// so peak memory is one block plus whatever the caller stages between
/// FlushFull() calls. Produces the exact same chain format. Checkpoint
/// block writes are a kCheckpointWrite fault/kill site.
class MetaBlockStreamWriter {
 public:
  explicit MetaBlockStreamWriter(BlockManager* blocks) : blocks_(blocks) {}

  BinaryWriter& writer() { return writer_; }

  /// Writes every complete chain block currently staged. Call after each
  /// bounded unit of serialization (e.g. one row group).
  Status FlushFull();

  /// Writes the final partial block and terminates the chain. Returns
  /// the head block id. No further writes are allowed afterwards.
  Result<block_id_t> Finish();

  const std::set<block_id_t>& blocks_used() const { return blocks_used_; }

 private:
  Status WriteChainBlock(uint64_t len, block_id_t id, block_id_t next);
  block_id_t Allocate();

  BlockManager* blocks_;
  BinaryWriter writer_;
  std::set<block_id_t> blocks_used_;
  block_id_t head_ = kInvalidBlock;
  block_id_t current_ = kInvalidBlock;  // reserved id of the next block
  bool finished_ = false;
};

/// Directory entry of one checkpointed row-group payload: the chain that
/// holds it plus what reload verifies it against. A row group no commit
/// has touched since keeps its entries, so the next checkpoint points at
/// the same chain again instead of rewriting it.
struct GroupChain {
  uint64_t rows = 0;
  uint64_t payload_len = 0;
  uint32_t payload_crc = 0;
  block_id_t head = kInvalidBlock;
  std::vector<block_id_t> blocks;
};

/// Reads a block chain written by MetaBlockWriter back into memory.
class MetaBlockReader {
 public:
  explicit MetaBlockReader(BlockManager* blocks) : blocks_(blocks) {}

  /// Loads the chain starting at `head`; exposes a BinaryReader over it.
  Status Load(block_id_t head);

  BinaryReader& reader() { return *reader_; }
  /// Raw chain contents — lets callers checksum a payload end-to-end
  /// (the per-block CRCs cover blocks, not the reassembled stream).
  const std::vector<uint8_t>& data() const { return data_; }
  const std::set<block_id_t>& blocks_visited() const {
    return blocks_visited_;
  }

 private:
  BlockManager* blocks_;
  std::vector<uint8_t> data_;
  std::unique_ptr<BinaryReader> reader_;
  std::set<block_id_t> blocks_visited_;
};

}  // namespace mallard

#endif  // MALLARD_STORAGE_META_BLOCK_H_
