#include "mallard/storage/checkpoint.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <shared_mutex>
#include <utility>

#include "mallard/common/checksum.h"
#include "mallard/governor/resource_governor.h"
#include "mallard/storage/meta_block.h"
#include "mallard/storage/table/column_segment.h"
#include "mallard/storage/table/data_table.h"
#include "mallard/transaction/transaction_manager.h"

namespace mallard {

namespace {

/// Directory entry of one group payload:
///   [rows u64][payload_len u64][payload_crc u32][head i64]
///   [n_blocks u32][block ids i64...]
void WriteEntry(const GroupChain& chain, BinaryWriter* w) {
  w->WriteU64(chain.rows);
  w->WriteU64(chain.payload_len);
  w->WriteU32(chain.payload_crc);
  w->WriteU64(static_cast<uint64_t>(chain.head));
  w->WriteU32(static_cast<uint32_t>(chain.blocks.size()));
  for (block_id_t id : chain.blocks) w->WriteU64(static_cast<uint64_t>(id));
}

Status ReadEntry(BinaryReader* r, GroupChain* chain) {
  uint64_t head = 0;
  uint32_t n_blocks = 0;
  MALLARD_RETURN_NOT_OK(r->ReadU64(&chain->rows));
  MALLARD_RETURN_NOT_OK(r->ReadU64(&chain->payload_len));
  MALLARD_RETURN_NOT_OK(r->ReadU32(&chain->payload_crc));
  MALLARD_RETURN_NOT_OK(r->ReadU64(&head));
  MALLARD_RETURN_NOT_OK(r->ReadU32(&n_blocks));
  chain->head = static_cast<block_id_t>(head);
  for (uint32_t b = 0; b < n_blocks; b++) {
    uint64_t id = 0;
    MALLARD_RETURN_NOT_OK(r->ReadU64(&id));
    chain->blocks.push_back(static_cast<block_id_t>(id));
  }
  return Status::OK();
}

/// What one checkpoint has put into its image so far.
struct CheckpointWork {
  std::set<block_id_t> group_blocks;  // every group chain, reused or new
  /// Dirty groups and their fresh chains; they take them over only after
  /// the root swap, so a failed checkpoint leaves every group as it was.
  std::vector<std::pair<RowGroup*, std::vector<GroupChain>>> rewritten;
  CheckpointStats stats;
};

/// Writes one table's row groups — as visible to `snapshot` — plus their
/// directory entries into the catalog chain. Each payload
/// ([count u64][ncols u32][per-column segment], the RowGroup::Deserialize
/// layout) lives in its own chain so corruption of a data block
/// quarantines exactly one group on reload instead of sinking the whole
/// catalog load. The directory's payload CRC spans the reassembled
/// payload end to end — it catches damage the per-block CRCs cannot,
/// such as a stale-but-valid block landing in the chain.
///
/// A clean group's entries are copied as they are. A dirty group is
/// scanned and serialized afresh, compacting away its deleted and
/// aborted rows; a group without visible rows gets no entry at all.
Status CheckpointTable(const DataTable& table, const Transaction& snapshot,
                       const ResourceGovernor* governor, BlockManager* blocks,
                       MetaBlockStreamWriter* dir, CheckpointWork* work) {
  // Refuse to rewrite a table that still carries quarantined groups: the
  // new image could no longer represent their rows, so completing the
  // checkpoint would convert detected corruption into silent data loss.
  MALLARD_RETURN_NOT_OK(table.FirstQuarantineError());

  BinaryWriter& w = dir->writer();
  std::vector<TypeId> types = table.ColumnTypes();

  // Serialized-payload granularity: the default row group size, shrunk
  // under memory pressure so the staging segments (the only per-table
  // buffering besides one payload) respect the governor's budget — a
  // dirty group may then take several payloads. ~16 bytes/value is a
  // deliberately pessimistic estimate; staging gets at most a quarter of
  // the budget.
  idx_t group_rows = kRowGroupSize;
  if (governor) {
    uint64_t bytes_per_row =
        std::max<uint64_t>(1, types.size() * 16);
    uint64_t budget_rows =
        governor->EffectiveMemoryBudget() / 4 / bytes_per_row;
    group_rows = static_cast<idx_t>(std::min<uint64_t>(
        kRowGroupSize, std::max<uint64_t>(kVectorSize, budget_rows)));
  }

  // The directory states the payload count up front: a clean group
  // brings its own entries, a dirty one one payload per `group_rows` of
  // its visible rows.
  std::vector<RowGroup*> groups = table.RowGroups();
  std::vector<std::optional<std::vector<GroupChain>>> clean(groups.size());
  std::vector<uint64_t> payloads(groups.size(), 0);
  uint64_t num_payloads = 0;
  for (idx_t g = 0; g < groups.size(); g++) {
    std::shared_lock<std::shared_mutex> guard(groups[g]->lock());
    clean[g] = groups[g]->persisted();
    if (clean[g]) {
      payloads[g] = clean[g]->size();
    } else {
      idx_t visible = groups[g]->VisibleCount(snapshot);
      payloads[g] = (visible + group_rows - 1) / group_rows;
    }
    num_payloads += payloads[g];
  }
  w.WriteU64(num_payloads);

  std::vector<idx_t> column_ids(types.size());
  std::iota(column_ids.begin(), column_ids.end(), idx_t(0));
  DataChunk chunk;
  chunk.Initialize(types);

  std::vector<std::unique_ptr<ColumnSegment>> staged;
  idx_t staged_count = 0;
  std::vector<GroupChain> written;  // payloads of the group being rewritten
  auto start_payload = [&]() {
    staged.clear();
    for (TypeId type : types) {
      staged.push_back(
          std::make_unique<ColumnSegment>(type, table.encoding_counters()));
    }
    staged_count = 0;
  };
  auto emit_payload = [&]() -> Status {
    // Serialize the payload into its own chain.
    MetaBlockWriter group(blocks);
    BinaryWriter& gw = group.writer();
    gw.WriteU64(staged_count);
    gw.WriteU32(static_cast<uint32_t>(types.size()));
    for (idx_t c = 0; c < staged.size(); c++) {
      // Pick a per-segment encoding for the compacted group — this is
      // where checkpointed data earns its dictionary/FOR form on disk.
      staged[c]->FinalizeEncoding(staged_count);
      staged[c]->Serialize(&gw, staged_count);
    }
    GroupChain chain;
    chain.rows = staged_count;
    chain.payload_len = gw.data().size();
    chain.payload_crc = Crc32c(gw.data().data(), chain.payload_len);
    MALLARD_ASSIGN_OR_RETURN(chain.head, group.Flush());
    chain.blocks.assign(group.blocks_used().begin(), group.blocks_used().end());
    WriteEntry(chain, &w);
    work->group_blocks.insert(chain.blocks.begin(), chain.blocks.end());
    work->stats.blocks_written += chain.blocks.size();
    written.push_back(std::move(chain));
    start_payload();
    // Stream completed directory blocks out now, keeping memory bounded.
    return dir->FlushFull();
  };

  for (idx_t g = 0; g < groups.size(); g++) {
    if (clean[g]) {
      for (const GroupChain& chain : *clean[g]) {
        WriteEntry(chain, &w);
        work->group_blocks.insert(chain.blocks.begin(), chain.blocks.end());
      }
      work->stats.groups_reused += payloads[g];
      MALLARD_RETURN_NOT_OK(dir->FlushFull());
      continue;
    }
    TableScanState state;
    table.InitializeScan(&state, column_ids);
    state.row_group_index = g;
    state.max_row_group = g + 1;
    written.clear();
    start_payload();
    while (table.Scan(snapshot, &state, &chunk)) {
      idx_t offset = 0;
      while (offset < chunk.size()) {
        idx_t n = std::min<idx_t>(group_rows - staged_count,
                                  chunk.size() - offset);
        for (idx_t c = 0; c < staged.size(); c++) {
          staged[c]->Append(chunk.column(c), offset, staged_count, n);
        }
        staged_count += n;
        offset += n;
        if (staged_count == group_rows) MALLARD_RETURN_NOT_OK(emit_payload());
      }
    }
    MALLARD_RETURN_NOT_OK(std::move(state.error));
    if (staged_count > 0) MALLARD_RETURN_NOT_OK(emit_payload());
    if (written.size() != payloads[g]) {
      // The visible set moved under us — only possible if the caller's
      // CommitBlock contract was violated. Abort; the old root is intact.
      return Status::Internal(
          "checkpoint scan drifted from visible count in '" + table.name() +
          "'");
    }
    work->stats.groups_written += written.size();
    work->rewritten.emplace_back(groups[g], std::move(written));
  }
  return Status::OK();
}

}  // namespace

Status WriteCheckpoint(Catalog* catalog, BlockManager* blocks,
                       TransactionManager* txns, const Transaction& snapshot,
                       const ResourceGovernor* governor,
                       CheckpointStats* stats) {
  if (txns == nullptr || !txns->CommitsBlocked()) {
    return Status::Internal(
        "WriteCheckpoint requires the commit gate: hold a "
        "TransactionManager::CommitBlock for the duration");
  }
  MetaBlockStreamWriter meta(blocks);
  BinaryWriter& w = meta.writer();
  CheckpointWork work;
  std::vector<std::string> table_names = catalog->TableNames();
  w.WriteU32(static_cast<uint32_t>(table_names.size()));
  for (const auto& name : table_names) {
    MALLARD_ASSIGN_OR_RETURN(DataTable * table, catalog->GetTable(name));
    w.WriteString(name);
    w.WriteU32(static_cast<uint32_t>(table->columns().size()));
    for (const auto& col : table->columns()) {
      w.WriteString(col.name);
      w.WriteU8(static_cast<uint8_t>(col.type));
    }
    MALLARD_RETURN_NOT_OK(CheckpointTable(*table, snapshot, governor, blocks,
                                          &meta, &work));
  }
  std::vector<std::string> view_names = catalog->ViewNames();
  w.WriteU32(static_cast<uint32_t>(view_names.size()));
  for (const auto& name : view_names) {
    MALLARD_ASSIGN_OR_RETURN(const ViewCatalogEntry* view,
                             catalog->GetView(name));
    w.WriteString(view->name);
    w.WriteString(view->sql);
    w.WriteU32(static_cast<uint32_t>(view->column_aliases.size()));
    for (const auto& a : view->column_aliases) w.WriteString(a);
  }
  MALLARD_ASSIGN_OR_RETURN(block_id_t head, meta.Finish());
  // Root swap: fsync the new block tree, then flip the header. Only
  // after this returns may the caller truncate the WAL.
  MALLARD_RETURN_NOT_OK(blocks->WriteHeader(head));
  // Live set: the directory chain plus every row-group chain, reused or
  // new. The old chains of rewritten groups become free only now.
  std::set<block_id_t> live = meta.blocks_used();
  live.insert(work.group_blocks.begin(), work.group_blocks.end());
  blocks->SetLiveBlocks(live);
  for (auto& [group, chains] : work.rewritten) {
    group->SetPersisted(std::move(chains));
  }
  if (stats) {
    stats->checkpoints++;
    stats->groups_written += work.stats.groups_written;
    stats->groups_reused += work.stats.groups_reused;
    stats->blocks_written += work.stats.blocks_written + meta.blocks_used().size();
  }
  return Status::OK();
}

Status LoadCheckpoint(Catalog* catalog, BlockManager* blocks) {
  block_id_t head = blocks->header().meta_block;
  if (head == kInvalidBlock) return Status::OK();  // fresh database
  MetaBlockReader meta(blocks);
  MALLARD_RETURN_NOT_OK(meta.Load(head));
  BinaryReader& r = meta.reader();
  std::set<block_id_t> live_blocks = meta.blocks_visited();
  uint32_t n_tables;
  MALLARD_RETURN_NOT_OK(r.ReadU32(&n_tables));
  for (uint32_t t = 0; t < n_tables; t++) {
    std::string name;
    MALLARD_RETURN_NOT_OK(r.ReadString(&name));
    uint32_t n_cols;
    MALLARD_RETURN_NOT_OK(r.ReadU32(&n_cols));
    std::vector<ColumnDefinition> cols;
    for (uint32_t c = 0; c < n_cols; c++) {
      ColumnDefinition col;
      MALLARD_RETURN_NOT_OK(r.ReadString(&col.name));
      uint8_t type;
      MALLARD_RETURN_NOT_OK(r.ReadU8(&type));
      col.type = static_cast<TypeId>(type);
      cols.push_back(std::move(col));
    }
    MALLARD_RETURN_NOT_OK(catalog->CreateTable(name, std::move(cols)));
    MALLARD_ASSIGN_OR_RETURN(DataTable * table, catalog->GetTable(name));
    // Per-group directory entries; each group's payload sits in its own
    // block chain. A group that fails verification — block checksum,
    // payload length/CRC, or a deserializer invariant — is quarantined
    // in place rather than failing the open: the rest of the table stays
    // queryable and the damage is reported per object by
    // PRAGMA integrity_check. Plain I/O errors still fail the open (the
    // file may be fine; refusing is safer than quarantining good data).
    uint64_t num_groups;
    MALLARD_RETURN_NOT_OK(r.ReadU64(&num_groups));
    for (uint64_t g = 0; g < num_groups; g++) {
      GroupChain chain;
      MALLARD_RETURN_NOT_OK(ReadEntry(&r, &chain));
      live_blocks.insert(chain.blocks.begin(), chain.blocks.end());
      idx_t rows = static_cast<idx_t>(chain.rows);
      auto quarantine = [&](const Status& cause) {
        table->LoadQuarantinedGroup(rows, cause.ToString());
      };
      MetaBlockReader group(blocks);
      Status load = group.Load(chain.head);
      if (load.IsCorruption()) {
        quarantine(load);
        continue;
      }
      MALLARD_RETURN_NOT_OK(std::move(load));
      if (group.data().size() != chain.payload_len ||
          Crc32c(group.data().data(), group.data().size()) !=
              chain.payload_crc) {
        quarantine(Status::Corruption(
            "row group payload failed end-to-end verification (" +
            std::to_string(group.data().size()) + " bytes read, " +
            std::to_string(chain.payload_len) + " expected)"));
        continue;
      }
      Status applied =
          table->LoadCheckpointGroup(&group.reader(), std::move(chain));
      if (applied.IsCorruption()) {
        quarantine(applied);
        continue;
      }
      MALLARD_RETURN_NOT_OK(std::move(applied));
    }
  }
  uint32_t n_views;
  MALLARD_RETURN_NOT_OK(r.ReadU32(&n_views));
  for (uint32_t v = 0; v < n_views; v++) {
    std::string name, sql;
    MALLARD_RETURN_NOT_OK(r.ReadString(&name));
    MALLARD_RETURN_NOT_OK(r.ReadString(&sql));
    uint32_t n_aliases;
    MALLARD_RETURN_NOT_OK(r.ReadU32(&n_aliases));
    std::vector<std::string> aliases(n_aliases);
    for (uint32_t a = 0; a < n_aliases; a++) {
      MALLARD_RETURN_NOT_OK(r.ReadString(&aliases[a]));
    }
    MALLARD_RETURN_NOT_OK(
        catalog->CreateView(name, sql, std::move(aliases), true));
  }
  // Everything outside the directory chain and the row-group chains is
  // reusable. Quarantined groups keep their blocks live so the scrubber
  // can still point at the damaged object.
  blocks->SetLiveBlocks(live_blocks);
  return Status::OK();
}

}  // namespace mallard
