#ifndef MALLARD_STORAGE_CHECKPOINT_H_
#define MALLARD_STORAGE_CHECKPOINT_H_

#include "mallard/catalog/catalog.h"
#include "mallard/storage/block_manager.h"
#include "mallard/transaction/transaction.h"

namespace mallard {

class TransactionManager;
class ResourceGovernor;

/// Counters behind `PRAGMA checkpoint_stats`, cumulative over the
/// successful checkpoints since Open.
struct CheckpointStats {
  uint64_t checkpoints = 0;
  uint64_t groups_written = 0;  // row-group payloads serialized afresh
  uint64_t groups_reused = 0;   // clean payloads carried over by reference
  uint64_t blocks_written = 0;  // group chains plus the directory chain
};

/// Writes a checkpoint: catalog + all table data, then atomically flips
/// the database header to the new root (paper section 6: "checkpoints
/// first write new blocks ... and as a last step update the root pointer
/// and the free list in the header atomically").
///
/// The checkpoint is *incremental*: a row group no commit has touched
/// since its chains were written (RowGroup::persisted) is carried over
/// by copying its directory entries — its blocks are shared by the old
/// and the new root and are never rewritten. Only dirty groups are
/// scanned and serialized into fresh blocks, and they take over their
/// new chains only once the root swap has succeeded.
///
/// The checkpoint is *online*: it scans table data through `snapshot`
/// (MVCC visibility), so concurrent readers and in-flight writers are
/// unaffected. The only thing that must stand still is the committed
/// state itself — the caller must hold a TransactionManager::CommitBlock
/// (verified via `txns->CommitsBlocked()`; an Internal error is returned
/// otherwise, making the exclusive-access contract a checked
/// precondition instead of an implicit assumption).
///
/// Staging memory is bounded by `governor->EffectiveMemoryBudget()`:
/// a dirty group is serialized in pieces whose size shrinks under
/// memory pressure, and completed meta blocks stream to disk eagerly.
/// On success the work done is added to `stats` when given.
Status WriteCheckpoint(Catalog* catalog, BlockManager* blocks,
                       TransactionManager* txns, const Transaction& snapshot,
                       const ResourceGovernor* governor,
                       CheckpointStats* stats = nullptr);

/// Loads a checkpoint written by WriteCheckpoint into the catalog. Every
/// loaded row group starts clean, holding its directory entry.
Status LoadCheckpoint(Catalog* catalog, BlockManager* blocks);

}  // namespace mallard

#endif  // MALLARD_STORAGE_CHECKPOINT_H_
