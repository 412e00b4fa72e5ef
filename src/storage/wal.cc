#include "mallard/storage/wal.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "mallard/common/checksum.h"
#include "mallard/governor/resource_governor.h"
#include "mallard/resilience/fault_injector.h"
#include "mallard/resilience/retry_policy.h"
#include "mallard/transaction/transaction_manager.h"
#include "mallard/vector/chunk_serde.h"

namespace {
// Async mode: wake the flusher early once this many unflushed bytes
// accumulate, bounding memory and crash-loss window under heavy load.
constexpr size_t kAsyncForceFlushBytes = 256 * 1024;
// Log file header: [magic u64][checkpoint generation u64], written at
// creation and on every truncation. The generation ties the log to the
// database root that last truncated it — see WriteAheadLog::Replay.
constexpr uint64_t kWalMagic = 0x4D414C4C41524457ULL;  // "MALLARDW"
constexpr uint64_t kWalHeaderSize = 16;
}  // namespace

namespace mallard {

namespace wal_record {

std::vector<uint8_t> CreateTable(const std::string& name,
                                 const std::vector<ColumnDefinition>& cols) {
  BinaryWriter w;
  w.WriteU8(static_cast<uint8_t>(WalRecordType::kCreateTable));
  w.WriteString(name);
  w.WriteU32(static_cast<uint32_t>(cols.size()));
  for (const auto& col : cols) {
    w.WriteString(col.name);
    w.WriteU8(static_cast<uint8_t>(col.type));
  }
  return w.data();
}

std::vector<uint8_t> DropTable(const std::string& name) {
  BinaryWriter w;
  w.WriteU8(static_cast<uint8_t>(WalRecordType::kDropTable));
  w.WriteString(name);
  return w.data();
}

std::vector<uint8_t> CreateView(const std::string& name,
                                const std::string& sql,
                                const std::vector<std::string>& aliases) {
  BinaryWriter w;
  w.WriteU8(static_cast<uint8_t>(WalRecordType::kCreateView));
  w.WriteString(name);
  w.WriteString(sql);
  w.WriteU32(static_cast<uint32_t>(aliases.size()));
  for (const auto& a : aliases) w.WriteString(a);
  return w.data();
}

std::vector<uint8_t> DropView(const std::string& name) {
  BinaryWriter w;
  w.WriteU8(static_cast<uint8_t>(WalRecordType::kDropView));
  w.WriteString(name);
  return w.data();
}

std::vector<uint8_t> Append(const std::string& table,
                            const DataChunk& chunk) {
  BinaryWriter w;
  w.WriteU8(static_cast<uint8_t>(WalRecordType::kAppend));
  w.WriteString(table);
  SerializeChunk(chunk, &w);
  return w.data();
}

std::vector<uint8_t> Delete(const std::string& table, const int64_t* row_ids,
                            idx_t count) {
  BinaryWriter w;
  w.WriteU8(static_cast<uint8_t>(WalRecordType::kDelete));
  w.WriteString(table);
  w.WriteU64(count);
  for (idx_t i = 0; i < count; i++) w.WriteI64(row_ids[i]);
  return w.data();
}

std::vector<uint8_t> Update(const std::string& table,
                            const std::vector<idx_t>& columns,
                            const int64_t* row_ids, idx_t count,
                            const DataChunk& values) {
  BinaryWriter w;
  w.WriteU8(static_cast<uint8_t>(WalRecordType::kUpdate));
  w.WriteString(table);
  w.WriteU32(static_cast<uint32_t>(columns.size()));
  for (idx_t c : columns) w.WriteU64(c);
  w.WriteU64(count);
  for (idx_t i = 0; i < count; i++) w.WriteI64(row_ids[i]);
  SerializeChunk(values, &w);
  return w.data();
}

std::vector<uint8_t> Commit() {
  BinaryWriter w;
  w.WriteU8(static_cast<uint8_t>(WalRecordType::kCommit));
  return w.data();
}

}  // namespace wal_record

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    const std::string& path, ResilienceStats* stats) {
  MALLARD_ASSIGN_OR_RETURN(
      auto file, FileHandle::Open(path, FileHandle::kRead |
                                            FileHandle::kWrite |
                                            FileHandle::kCreate));
  auto wal = std::unique_ptr<WriteAheadLog>(
      new WriteAheadLog(path, std::move(file), stats));
  MALLARD_ASSIGN_OR_RETURN(wal->file_size_, wal->file_->Size());
  return wal;
}

WriteAheadLog::~WriteAheadLog() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  flusher_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
}

std::vector<uint8_t> WriteAheadLog::FrameRecords(
    const std::vector<std::vector<uint8_t>>& records) {
  // Assemble all frames of the transaction into one buffer so a crash
  // mid-commit leaves at most one torn group at the tail.
  BinaryWriter batch;
  auto& injector = FaultInjector::Get();
  for (const auto& record : records) {
    std::vector<uint8_t> payload = record;
    if (injector.ShouldFire(FaultSite::kWalWrite)) {
      injector.FlipRandomBit(payload.data(), payload.size());
      // Note: bit flipped after CRC would go undetected; flipping before
      // CRC models memory corruption of the WAL buffer, which the CRC
      // *can* catch only if it happens after CRC computation. We flip the
      // payload and compute the CRC over the *original* record to model
      // corruption between checksumming and the write syscall.
      uint32_t crc = Crc32c(record.data(), record.size());
      batch.WriteU32(static_cast<uint32_t>(payload.size()));
      batch.WriteU32(crc);
      batch.WriteBytes(payload.data(), payload.size());
      continue;
    }
    uint32_t crc = Crc32c(payload.data(), payload.size());
    batch.WriteU32(static_cast<uint32_t>(payload.size()));
    batch.WriteU32(crc);
    batch.WriteBytes(payload.data(), payload.size());
  }
  return batch.data();
}

Status WriteAheadLog::AppendAndSync(const std::vector<uint8_t>& batch) {
  auto& injector = FaultInjector::Get();
  uint64_t restore = file_size_;
  Status status = Status::OK();
  if (injector.ShouldKill(FaultSite::kWalAppend)) {
    // Power loss mid-append: only a prefix of the batch reaches the
    // kernel. Replay must discard this torn group.
    (void)file_->Write(batch.data(), batch.size() / 2, restore);
    FaultInjector::KillProcess();
  }
  // Transient append failures (injected or a momentarily overloaded
  // disk) are retried with bounded backoff. The write targets the fixed
  // durable end, so a retry simply overwrites whatever partial bytes the
  // failed attempt may have landed — idempotent by construction. fsync
  // is deliberately NOT retried below: after a failed fsync the kernel
  // may have dropped the dirty pages, so "retry until it reports OK"
  // can acknowledge a commit that never reached the platter.
  status = RetryPolicy::Execute(resilience_, [&]() -> Status {
    if (injector.ShouldFire(FaultSite::kWalAppend)) {
      return Status::IOError("injected WAL append failure");
    }
    // Write at the tracked durable end rather than Append(): after an
    // earlier failed flush the kernel file size may briefly disagree
    // with the durable prefix, and this is immune to that.
    return file_->Write(batch.data(), batch.size(), restore);
  });
  if (status.ok()) {
    uint32_t delay = fsync_delay_us_.load();
    if (delay) {
      std::this_thread::sleep_for(std::chrono::microseconds(delay));
    }
    if (injector.ShouldKill(FaultSite::kWalFsync)) {
      // Power loss after write() but before fsync(): the batch may or
      // may not survive; either way the log ends on a frame boundary or
      // a torn tail that replay discards.
      FaultInjector::KillProcess();
    }
    if (injector.ShouldFire(FaultSite::kWalFsync)) {
      status = Status::IOError("injected WAL fsync failure");
    } else {
      status = file_->Sync();
    }
  }
  if (!status.ok()) {
    // Roll the file back to the last durable frame boundary so a retried
    // commit appends onto a clean prefix instead of after garbage.
    (void)file_->Truncate(restore);
    (void)file_->Sync();
    return status;
  }
  file_size_ = restore + batch.size();
  return Status::OK();
}

Status WriteAheadLog::WriteCommit(
    const std::vector<std::vector<uint8_t>>& records) {
  if (truncate_failed_.load()) {
    // A failed post-checkpoint truncation left the log's generation
    // behind the durable root; anything appended now would be skipped by
    // replay. Refusing the commit is the only answer that cannot lose
    // acknowledged data — a successful Checkpoint() retry clears this.
    return Status::IOError(
        "WAL is stale after a failed truncation; retry Checkpoint() to "
        "restore durability");
  }
  std::vector<uint8_t> batch = FrameRecords(records);
  if (commit_mode_.load() == WalCommitMode::kAsync) {
    return CommitAsync(std::move(batch));
  }
  return CommitSync(std::move(batch));
}

void WriteAheadLog::AcquireFlushToken(std::unique_lock<std::mutex>* lock) {
  cv_.wait(*lock, [this] { return !flush_in_progress_; });
  flush_in_progress_ = true;
}

void WriteAheadLog::ReleaseFlushToken() {
  flush_in_progress_ = false;
  cv_.notify_all();
}

Status WriteAheadLog::CommitSync(std::vector<uint8_t> batch) {
  if (!group_commit_.load()) {
    // Benchmark baseline: every committer appends + fsyncs alone.
    std::unique_lock<std::mutex> lock(mutex_);
    AcquireFlushToken(&lock);
    std::vector<uint8_t> combined;
    combined.swap(pending_);  // acked async batches must precede us
    combined.insert(combined.end(), batch.begin(), batch.end());
    lock.unlock();
    Status s = AppendAndSync(combined);
    lock.lock();
    if (s.ok()) {
      stats_.commits++;
      stats_.flushes++;
      stats_.fsyncs++;
      stats_.bytes_written += combined.size();
      stats_.max_group = std::max<uint64_t>(stats_.max_group, 1);
    }
    ReleaseFlushToken();
    return s;
  }

  CommitRequest req;
  req.batch = std::move(batch);
  std::unique_lock<std::mutex> lock(mutex_);
  queue_.push_back(&req);
  gather_cv_.notify_one();  // a gathering leader counts arrivals
  for (;;) {
    if (req.done) return req.status;  // a leader flushed us
    if (!flush_in_progress_) break;   // no leader: become one
    cv_.wait(lock);
  }
  flush_in_progress_ = true;
  // Commit delay (PostgreSQL's commit_delay/commit_siblings): the writers
  // of the last group, and those that queued behind it, are about to
  // commit again. Without waiting for them a leader that returns first
  // flushes alone, and groups alternate between 1 and N-1. The wait
  // ends as soon as they have all queued, and after at most one flush
  // time (capped by the governor's flush interval); a lone committer
  // expects only itself and never waits.
  if (queue_.size() < expected_group_) {
    uint64_t cap_us =
        (governor_ ? governor_->WalFlushIntervalMs() : 5) * uint64_t(1000);
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::microseconds(
                        std::min<uint64_t>(last_flush_us_, cap_us));
    gather_cv_.wait_until(lock, deadline, [this] {
      return queue_.size() >= expected_group_;
    });
  }
  std::vector<CommitRequest*> group(queue_.begin(), queue_.end());
  queue_.clear();
  std::vector<uint8_t> combined;
  combined.swap(pending_);  // acked async batches must precede the group
  for (CommitRequest* r : group) {
    combined.insert(combined.end(), r->batch.begin(), r->batch.end());
  }
  lock.unlock();
  auto flush_start = std::chrono::steady_clock::now();
  Status s = AppendAndSync(combined);
  uint64_t flush_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - flush_start)
          .count());
  lock.lock();
  last_flush_us_ = flush_us;
  expected_group_ = group.size() + queue_.size();
  if (s.ok()) {
    stats_.commits += group.size();
    stats_.flushes++;
    stats_.fsyncs++;
    stats_.bytes_written += combined.size();
    if (group.size() > 1) stats_.group_commits += group.size();
    stats_.max_group = std::max<uint64_t>(stats_.max_group, group.size());
  }
  for (CommitRequest* r : group) {
    r->done = true;
    r->status = s;
  }
  ReleaseFlushToken();
  return s;
}

Status WriteAheadLog::CommitAsync(std::vector<uint8_t> batch) {
  std::lock_guard<std::mutex> lock(mutex_);
  pending_.insert(pending_.end(), batch.begin(), batch.end());
  stats_.commits++;
  stats_.async_acks++;
  StartFlusherLocked();
  if (pending_.size() >= kAsyncForceFlushBytes) flusher_cv_.notify_one();
  return Status::OK();
}

void WriteAheadLog::StartFlusherLocked() {
  if (flusher_.joinable() || shutdown_) return;
  flusher_ = std::thread([this] { FlusherLoop(); });
}

void WriteAheadLog::FlusherLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    uint64_t interval = governor_ ? governor_->WalFlushIntervalMs() : 5;
    flusher_cv_.wait_for(lock, std::chrono::milliseconds(interval), [this] {
      return shutdown_ || pending_.size() >= kAsyncForceFlushBytes;
    });
    if (pending_.empty()) {
      if (shutdown_) return;
      continue;
    }
    AcquireFlushToken(&lock);
    std::vector<uint8_t> combined;
    combined.swap(pending_);
    if (combined.empty()) {  // a sync leader drained us while we waited
      ReleaseFlushToken();
      if (shutdown_) return;
      continue;
    }
    lock.unlock();
    Status s = AppendAndSync(combined);
    lock.lock();
    if (s.ok()) {
      stats_.flushes++;
      stats_.fsyncs++;
      stats_.bytes_written += combined.size();
    } else {
      // Acked-but-lost data: counted so tests and operators can see it.
      stats_.flush_errors++;
    }
    ReleaseFlushToken();
    if (shutdown_ && pending_.empty()) return;
  }
}

Status WriteAheadLog::FlushPending() {
  std::unique_lock<std::mutex> lock(mutex_);
  AcquireFlushToken(&lock);
  std::vector<uint8_t> combined;
  combined.swap(pending_);
  if (combined.empty()) {
    ReleaseFlushToken();
    return Status::OK();
  }
  lock.unlock();
  Status s = AppendAndSync(combined);
  lock.lock();
  if (s.ok()) {
    stats_.flushes++;
    stats_.fsyncs++;
    stats_.bytes_written += combined.size();
  } else {
    stats_.flush_errors++;
  }
  ReleaseFlushToken();
  return s;
}

Status WriteAheadLog::SetCommitMode(WalCommitMode mode) {
  if (mode == commit_mode_.load()) return Status::OK();
  if (mode == WalCommitMode::kSync) {
    // The stronger guarantee must hold from this call's return onward:
    // everything already acknowledged gets flushed before we switch.
    commit_mode_.store(mode);
    return FlushPending();
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    StartFlusherLocked();
  }
  commit_mode_.store(mode);
  return Status::OK();
}

WalStats WriteAheadLog::GetStats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  WalStats s = stats_;
  s.pending_bytes = pending_.size();
  return s;
}

Status WriteAheadLog::VerifyFrames(uint64_t* frames) {
  if (frames) *frames = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  AcquireFlushToken(&lock);
  lock.unlock();
  // Token held: the durable prefix [0, file_size_) is stable and no
  // writer is mid-append. Everything is re-read from disk — the point
  // of a scrub is to catch rot the happy path has not touched yet.
  uint64_t size = file_size_;
  auto verify = [&]() -> Status {
    if (size < kWalHeaderSize) {
      return Status::Corruption("WAL '" + path_ + "' is shorter than its header");
    }
    uint8_t header[kWalHeaderSize];
    MALLARD_RETURN_NOT_OK(file_->Read(header, kWalHeaderSize, 0));
    uint64_t magic;
    std::memcpy(&magic, header, sizeof(uint64_t));
    if (magic != kWalMagic) {
      return Status::Corruption("WAL '" + path_ + "' header magic mismatch");
    }
    std::vector<uint8_t> data(size - kWalHeaderSize);
    MALLARD_RETURN_NOT_OK(
        file_->Read(data.data(), data.size(), kWalHeaderSize));
    BinaryReader reader(data.data(), data.size());
    uint64_t frame = 0;
    while (!reader.AtEnd()) {
      uint32_t len, crc;
      if (!reader.ReadU32(&len).ok() || !reader.ReadU32(&crc).ok() ||
          len == 0 || len > reader.remaining()) {
        return Status::Corruption("WAL frame " + std::to_string(frame) +
                                  " has a torn or invalid header");
      }
      std::vector<uint8_t> payload(len);
      MALLARD_RETURN_NOT_OK(reader.ReadBytes(payload.data(), len));
      if (Crc32c(payload.data(), payload.size()) != crc) {
        return Status::Corruption("WAL frame " + std::to_string(frame) +
                                  " checksum mismatch");
      }
      frame++;
    }
    if (frames) *frames = frame;
    return Status::OK();
  };
  Status status = verify();
  lock.lock();
  ReleaseFlushToken();
  return status;
}

Result<idx_t> WriteAheadLog::Replay(Catalog* catalog,
                                    TransactionManager* txn_manager,
                                    uint64_t expected_generation) {
  MALLARD_ASSIGN_OR_RETURN(uint64_t size, file_->Size());
  bool stale = false;
  if (size >= kWalHeaderSize) {
    uint8_t header[kWalHeaderSize];
    MALLARD_RETURN_NOT_OK(file_->Read(header, kWalHeaderSize, 0));
    uint64_t magic, generation;
    std::memcpy(&magic, header, sizeof(uint64_t));
    std::memcpy(&generation, header + sizeof(uint64_t), sizeof(uint64_t));
    // A generation behind the root means the process died between the
    // checkpoint's root swap and the WAL truncation: every transaction in
    // this log is already part of the durable image, and replaying it
    // would duplicate rows. (The commit gate is held across both steps,
    // so nothing newer can be in a stale log either.)
    stale = magic != kWalMagic || generation != expected_generation;
  }
  if (size < kWalHeaderSize || stale) {
    // Fresh, torn-at-creation or stale log: initialize it for the current
    // root. The header must be durable before the first commit appends,
    // or a crash could make that commit look stale.
    MALLARD_RETURN_NOT_OK(file_->Truncate(0));
    MALLARD_RETURN_NOT_OK(WriteWalHeader(expected_generation));
    file_size_ = kWalHeaderSize;
    return idx_t(0);
  }
  std::vector<uint8_t> data(size - kWalHeaderSize);
  MALLARD_RETURN_NOT_OK(
      file_->Read(data.data(), data.size(), kWalHeaderSize));
  BinaryReader reader(data.data(), data.size());

  idx_t applied_txns = 0;
  uint64_t valid_end = kWalHeaderSize;
  // Records of the current (uncommitted) group.
  std::vector<std::pair<WalRecordType, std::vector<uint8_t>>> group;
  bool truncated = false;
  while (!reader.AtEnd()) {
    uint32_t len, crc;
    if (!reader.ReadU32(&len).ok() || !reader.ReadU32(&crc).ok()) {
      truncated = true;
      break;
    }
    if (len == 0 || len > reader.remaining()) {
      truncated = true;
      break;
    }
    std::vector<uint8_t> payload(len);
    if (!reader.ReadBytes(payload.data(), len).ok()) {
      truncated = true;
      break;
    }
    if (Crc32c(payload.data(), payload.size()) != crc) {
      // A CRC mismatch is either a torn tail (the crash tore the last
      // group mid-write — expected, recoverable) or bit rot in the
      // middle of the log (unexpected, unrecoverable without losing
      // acknowledged commits). The framing here is intact, so walk the
      // remaining frames: any later frame with a valid CRC proves
      // committed data follows the damage — truncating would silently
      // drop it, so that case is a hard corruption error instead.
      bool later_valid_frame = false;
      while (!reader.AtEnd()) {
        uint32_t len2, crc2;
        if (!reader.ReadU32(&len2).ok() || !reader.ReadU32(&crc2).ok()) break;
        if (len2 == 0 || len2 > reader.remaining()) break;
        std::vector<uint8_t> payload2(len2);
        if (!reader.ReadBytes(payload2.data(), len2).ok()) break;
        if (Crc32c(payload2.data(), payload2.size()) == crc2) {
          later_valid_frame = true;
          break;
        }
      }
      if (later_valid_frame) {
        return Status::Corruption(
            "WAL frame checksum mismatch before the log tail in '" + path_ +
            "': the log is damaged mid-stream (valid frames follow the bad "
            "one), not torn by a crash; refusing to drop committed data");
      }
      truncated = true;
      break;
    }
    WalRecordType type = static_cast<WalRecordType>(payload[0]);
    if (type == WalRecordType::kCommit) {
      // Apply the whole group transactionally.
      auto txn = txn_manager->Begin();
      Status apply_status = Status::OK();
      for (auto& [rtype, rpayload] : group) {
        BinaryReader record_reader(rpayload.data() + 1, rpayload.size() - 1);
        apply_status =
            ApplyRecord(&record_reader, rtype, catalog, txn.get());
        if (!apply_status.ok()) break;
      }
      if (apply_status.ok()) {
        MALLARD_RETURN_NOT_OK(txn_manager->CommitWithoutWal(txn.get()));
        applied_txns++;
        valid_end = kWalHeaderSize + reader.position();
      } else {
        txn_manager->Rollback(txn.get());
        return apply_status;
      }
      group.clear();
    } else {
      group.emplace_back(type, std::move(payload));
    }
  }
  if (truncated || !group.empty()) {
    // Drop the torn tail so subsequent appends continue from a clean
    // prefix of committed groups.
    MALLARD_RETURN_NOT_OK(file_->Truncate(valid_end));
    MALLARD_RETURN_NOT_OK(file_->Sync());
    file_size_ = valid_end;
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.torn_tail_recoveries++;
  }
  return applied_txns;
}

Status WriteAheadLog::ApplyRecord(BinaryReader* reader, WalRecordType type,
                                  Catalog* catalog, Transaction* txn) {
  switch (type) {
    case WalRecordType::kCreateTable: {
      std::string name;
      MALLARD_RETURN_NOT_OK(reader->ReadString(&name));
      uint32_t ncols;
      MALLARD_RETURN_NOT_OK(reader->ReadU32(&ncols));
      std::vector<ColumnDefinition> cols;
      for (uint32_t i = 0; i < ncols; i++) {
        ColumnDefinition col;
        MALLARD_RETURN_NOT_OK(reader->ReadString(&col.name));
        uint8_t t;
        MALLARD_RETURN_NOT_OK(reader->ReadU8(&t));
        col.type = static_cast<TypeId>(t);
        cols.push_back(std::move(col));
      }
      return catalog->CreateTable(name, std::move(cols));
    }
    case WalRecordType::kDropTable: {
      std::string name;
      MALLARD_RETURN_NOT_OK(reader->ReadString(&name));
      return catalog->DropTable(name);
    }
    case WalRecordType::kCreateView: {
      std::string name, sql;
      MALLARD_RETURN_NOT_OK(reader->ReadString(&name));
      MALLARD_RETURN_NOT_OK(reader->ReadString(&sql));
      uint32_t naliases;
      MALLARD_RETURN_NOT_OK(reader->ReadU32(&naliases));
      std::vector<std::string> aliases(naliases);
      for (uint32_t i = 0; i < naliases; i++) {
        MALLARD_RETURN_NOT_OK(reader->ReadString(&aliases[i]));
      }
      return catalog->CreateView(name, sql, std::move(aliases),
                                 /*or_replace=*/true);
    }
    case WalRecordType::kDropView: {
      std::string name;
      MALLARD_RETURN_NOT_OK(reader->ReadString(&name));
      return catalog->DropView(name);
    }
    case WalRecordType::kAppend: {
      std::string table_name;
      MALLARD_RETURN_NOT_OK(reader->ReadString(&table_name));
      DataChunk chunk;
      MALLARD_RETURN_NOT_OK(DeserializeChunk(reader, &chunk));
      MALLARD_ASSIGN_OR_RETURN(DataTable * table,
                               catalog->GetTable(table_name));
      return table->Append(txn, chunk);
    }
    case WalRecordType::kDelete: {
      std::string table_name;
      MALLARD_RETURN_NOT_OK(reader->ReadString(&table_name));
      uint64_t count;
      MALLARD_RETURN_NOT_OK(reader->ReadU64(&count));
      MALLARD_ASSIGN_OR_RETURN(DataTable * table,
                               catalog->GetTable(table_name));
      Vector ids(TypeId::kBigInt);
      idx_t done = 0;
      while (done < count) {
        idx_t batch = std::min<idx_t>(kVectorSize, count - done);
        for (idx_t i = 0; i < batch; i++) {
          MALLARD_RETURN_NOT_OK(reader->ReadI64(&ids.data<int64_t>()[i]));
        }
        MALLARD_ASSIGN_OR_RETURN(idx_t n, table->Delete(txn, ids, batch));
        (void)n;
        done += batch;
      }
      return Status::OK();
    }
    case WalRecordType::kUpdate: {
      std::string table_name;
      MALLARD_RETURN_NOT_OK(reader->ReadString(&table_name));
      uint32_t ncols;
      MALLARD_RETURN_NOT_OK(reader->ReadU32(&ncols));
      std::vector<idx_t> columns(ncols);
      for (uint32_t i = 0; i < ncols; i++) {
        MALLARD_RETURN_NOT_OK(reader->ReadU64(&columns[i]));
      }
      uint64_t count;
      MALLARD_RETURN_NOT_OK(reader->ReadU64(&count));
      std::vector<int64_t> row_ids(count);
      for (uint64_t i = 0; i < count; i++) {
        MALLARD_RETURN_NOT_OK(reader->ReadI64(&row_ids[i]));
      }
      DataChunk values;
      MALLARD_RETURN_NOT_OK(DeserializeChunk(reader, &values));
      MALLARD_ASSIGN_OR_RETURN(DataTable * table,
                               catalog->GetTable(table_name));
      Vector ids(TypeId::kBigInt);
      std::memcpy(ids.data<int64_t>(), row_ids.data(), count * 8);
      return table->Update(txn, ids, count, columns, values);
    }
    case WalRecordType::kCommit:
      return Status::Internal("commit record inside group");
  }
  return Status::Corruption("unknown WAL record type");
}

Status WriteAheadLog::WriteWalHeader(uint64_t generation) {
  uint8_t header[kWalHeaderSize];
  std::memcpy(header, &kWalMagic, sizeof(uint64_t));
  std::memcpy(header + sizeof(uint64_t), &generation, sizeof(uint64_t));
  MALLARD_RETURN_NOT_OK(file_->Write(header, kWalHeaderSize, 0));
  return file_->Sync();
}

Status WriteAheadLog::Truncate(uint64_t generation) {
  auto& injector = FaultInjector::Get();
  std::unique_lock<std::mutex> lock(mutex_);
  AcquireFlushToken(&lock);
  if (injector.ShouldKill(FaultSite::kWalTruncate)) {
    // Power loss after the checkpoint's root swap became durable but
    // before the log was truncated: on reopen the log's old generation
    // no longer matches the root, so replay discards it instead of
    // re-applying transactions that are already in the image.
    FaultInjector::KillProcess();
  }
  // Discard acked-but-unflushed async batches too: every acknowledged
  // commit is stamped in memory and thus part of the checkpoint image
  // this truncation runs against.
  pending_.clear();
  lock.unlock();
  Status s;
  if (injector.ShouldFire(FaultSite::kWalTruncate)) {
    s = Status::IOError("injected WAL truncation failure");
  } else {
    s = file_->Truncate(0);
    if (s.ok()) s = WriteWalHeader(generation);
  }
  if (s.ok()) file_size_ = kWalHeaderSize;
  // On failure the log no longer matches the durable root; commits are
  // refused (WriteCommit) until a Checkpoint() retry truncates cleanly,
  // because replay would skip a stale-generation log entirely.
  truncate_failed_.store(!s.ok());
  lock.lock();
  ReleaseFlushToken();
  return s;
}

Result<uint64_t> WriteAheadLog::SizeBytes() const {
  // Log payload bytes: the 16-byte [magic][generation] header is not
  // replayable content.
  MALLARD_ASSIGN_OR_RETURN(uint64_t size, file_->Size());
  return size <= kWalHeaderSize ? uint64_t(0) : size - kWalHeaderSize;
}

}  // namespace mallard
