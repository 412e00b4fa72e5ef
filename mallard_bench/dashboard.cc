// dashboard: reads beside durable writes on one persistent database, on
// two threads with one connection each, for the whole phase.
//   writer: an open loop of 50 txn/s, each BEGIN + 20 prepared INSERTs +
//           COMMIT (sync WAL group commit), and a CHECKPOINT once a
//           second; latency counts from each transaction's due time;
//   reader: a closed loop, as a dashboard that refreshes one panel after
//           another: 70 % point lookups on `sensors` as literal SQL
//           (through the shared plan cache), 25 % a prepared recent-window
//           select on `readings`, 5 % a windowed GROUP BY refresh.
// A checkpoint holds up the writes due while it runs. One write in fifty
// is the first due after a checkpoint starts and waits for all of it, so
// the p99 write latency is about the median checkpoint stall.
// Chosen because the parser, planner, plan cache, transactions, WAL and
// checkpoints carry this load, while hash joins and spilling barely run.
// At the end the database is closed without a final checkpoint, reopened
// (replaying the WAL) and its row count checked against every
// acknowledged write.

#include <atomic>
#include <cstring>
#include <filesystem>
#include <thread>

#include "harness.h"
#include "mallard/common/random.h"
#include "mallard/main/appender.h"
#include "mallard/main/prepared_statement.h"

namespace mallard_bench {
namespace {

using namespace mallard;

constexpr double kWriteRate = 50;  // transactions per second
constexpr int kRowsPerTxn = 20;
constexpr double kCheckpointSeconds = 1;
constexpr int64_t kWindowRows = 20'000;
constexpr int64_t kRefreshRows = 50'000;
const char* kTags[] = {"ok", "warn", "calibrating", "maintenance", "offline",
                       "degraded", "ok-manual", "high", "low", "spike",
                       "drift", "reset", "boot", "idle", "active", "noise"};

enum ReadKind { kLookup = 0, kWindow, kRefresh, kReadKinds };
const char* kReadKindNames[kReadKinds] = {"lookup", "window", "refresh"};

std::string SensorName(int64_t id) { return "sensor-" + std::to_string(id) + "-n"; }
std::string SensorLocation(int64_t id) {
  return "site-" + std::to_string(id % 97) + "/rack-" + std::to_string(id % 13);
}

class Dashboard final : public Workload {
 public:
  explicit Dashboard(const RunConfig& config)
      : config_(config),
        path_(config.dir + "/dash.db"),
        base_rows_(config.smoke ? 20'000 : 200'000),
        sensors_(config.smoke ? 1'000 : 10'000),
        reading_sensors_(config.smoke ? 100 : 1'000),
        schedule_(config.seed ^ 0xa54ff53a5f1d36f1ULL) {}

  void Setup() override {
    Close();
    for (const char* suffix : {"", ".wal", ".tmp"}) {
      std::filesystem::remove(path_ + suffix);
    }
    Clock::time_point start = Clock::now();
    Open();
    Connection con(db_.get());
    Exec(&con, "CREATE TABLE sensors (id INTEGER, name VARCHAR, location VARCHAR)");
    Exec(&con,
         "CREATE TABLE readings (ts BIGINT, sensor INTEGER, value DOUBLE, "
         "tag VARCHAR)");
    double append_ms = Generate();
    setup_layer["setup.generate_s"] = MsSince(start) / 1000.0;
    setup_layer["setup.append_mrows_per_s"] =
        static_cast<double>(base_rows_ + sensors_) / append_ms / 1000.0;
    Clock::time_point checkpoint = Clock::now();
    Check(db_->Checkpoint(), "checkpoint");
    setup_layer["setup.checkpoint_s"] = MsSince(checkpoint) / 1000.0;
    next_ts_ = base_rows_;
    acked_rows_ = 0;
  }

  void Prepare() override {
    Connect();
    for (int i = 0; i < 40; i++) {
      Read(static_cast<ReadKind>(i % kReadKinds), nullptr, 0, nullptr);
    }
    for (int i = 0; i < 3; i++) WriteTxn(nullptr, 0);
  }

  Phase Run(double seconds, Tracer* tracer, HostProbe* probe) override {
    Phase phase;
    Connection stats(db_.get());
    std::vector<std::string> phase_pragmas = PhasePragmas(true);
    Counters phase_before = ReadAll(&stats, phase_pragmas);
    Counters op_before = ReadAll(&stats, kOpPragmas);

    const Clock::time_point start = Clock::now();
    const Clock::time_point end = start + Seconds(seconds);
    WriterStats writer;
    std::thread writer_thread(
        [&] { RunWriter(start, end, tracer, probe, &writer); });

    std::map<std::string, KindSamples> kinds;  // service times of the reads
    std::vector<double> all_reads;
    uint64_t op = 0;
    while (Clock::now() < end) {
      probe->MaybeRun();
      ReadKind kind = NextKind();
      KindSamples& samples = kinds[kReadKindNames[kind]];
      ReadOutcome outcome = Read(kind, tracer, ++op, &samples);
      phase.attempted++;
      if (!outcome.ok) {
        phase.failed++;
        continue;
      }
      samples.op_ms.push_back(outcome.span_ms);
      samples.ref_ms.push_back(probe->ToReference(outcome.span_ms));
      all_reads.push_back(outcome.span_ms);
    }
    const double elapsed_s = MsSince(start) / 1000.0;
    writer_thread.join();
    phase.attempted += writer.attempted;
    phase.failed += writer.failed;

    phase.ops_per_s = static_cast<double>(all_reads.size()) / elapsed_s;
    phase.tail_ms = Quantile(writer.ref_latency_ms, 0.99);
    std::map<std::string, KindSamples> with_writes = kinds;
    with_writes["write"].ref_ms = writer.ref_latency_ms;
    phase.geomean_ms = GeomeanOfLowerQuartiles(with_writes);
    if (tracer == nullptr) return phase;

    auto& l = phase.layer;
    ProbeLayers({{"lookup", kinds["lookup"]}}, "", &l);
    l["loadgen.read_p50_ms"] = Median(all_reads);
    l["loadgen.read_p99_ms"] = Quantile(all_reads, 0.99);
    l["loadgen.write_p50_ms"] = Median(writer.latency_ms);
    l["loadgen.write_p99_ms"] = Quantile(writer.latency_ms, 0.99);
    l["loadgen.lateness_max_ms"] = writer.lateness_max_ms;
    l["transaction.commit_ms_p50"] = Median(writer.commit_ms);
    l["transaction.commit_ms_p99"] = Quantile(writer.commit_ms, 0.99);
    l["storage.checkpoint_ms_p50"] = Median(writer.checkpoint_ms);
    l["storage.checkpoint_ms_max"] = Quantile(writer.checkpoint_ms, 1.0);
    l["storage.checkpoint_count"] = static_cast<double>(writer.checkpoint_ms.size());
    Counters phase_delta = Delta(ReadAll(&stats, phase_pragmas), phase_before);
    double user_bytes = writer.user_bytes;
    double wal_bytes = phase_delta["wal_stats.bytes_written"];
    l["storage.wal_bytes_per_user_byte"] = user_bytes > 0 ? wal_bytes / user_bytes : 0;
    l["storage.write_amp"] =
        user_bytes > 0 ? (wal_bytes + writer.checkpoint_bytes) / user_bytes : 0;
    Counters now = ReadAll(&stats, kOpPragmas);
    CounterLayers(Delta(now, op_before), static_cast<double>(phase.attempted),
                  phase_delta, now, &l);
    return phase;
  }

  void Finish(Phase* phase) override {
    int64_t expected = base_rows_ + acked_rows_;
    Close();
    double stored = 0;
    for (const char* suffix : {"", ".wal"}) {
      std::error_code error;
      auto size = std::filesystem::file_size(path_ + suffix, error);
      if (!error) stored += static_cast<double>(size);
    }
    Clock::time_point start = Clock::now();
    Open();
    phase->layer["storage.reopen_ms"] = MsSince(start);
    phase->layer["storage.space_amp"] = stored / logical_bytes_;
    Connection con(db_.get());
    int64_t rows = Exec(&con, "SELECT count(*) FROM readings")->GetValue(0, 0).GetAsBigInt();
    if (rows != expected) {
      WrongResult("reopened readings has " + std::to_string(rows) +
                  " rows, acknowledged " + std::to_string(expected));
    }
    Close();
  }

 private:
  struct ReadOutcome {
    bool ok = false;
    double span_ms = 0;  // the request itself, without the probes
  };

  struct WriterStats {
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<double> latency_ms;  // due time to COMMIT return
    std::vector<double> ref_latency_ms;  // the same, HostProbe::ToReference
    std::vector<double> commit_ms;
    std::vector<double> checkpoint_ms;
    double checkpoint_bytes = 0;  // database file size after each checkpoint
    double user_bytes = 0;
    double lateness_max_ms = 0;
  };

  static Clock::duration Seconds(double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  }

  // Sleeps, then spins the last stretch: a plain sleep wakes up late by
  // the timer slack, which would land in every latency taken from the
  // due time.
  static void WaitUntil(Clock::time_point due) {
    std::this_thread::sleep_until(due - std::chrono::microseconds(300));
    while (Clock::now() < due) {
    }
  }

  void Open() {
    DBConfig db_config = PinnedConfig();
    db_config.checkpoint_on_close = false;
    db_ = Check(Database::Open(path_, db_config), "open " + path_);
  }

  void Connect() {
    read_con_ = std::make_unique<Connection>(db_.get());
    write_con_ = std::make_unique<Connection>(db_.get());
    window_ = Check(read_con_->Prepare("SELECT ts, value FROM readings "
                                       "WHERE ts >= $1 AND sensor = $2"),
                    "prepare window");
    insert_ = Check(write_con_->Prepare("INSERT INTO readings VALUES ($1, $2, $3, $4)"),
                    "prepare insert");
  }

  void Close() {
    window_.reset();
    insert_.reset();
    read_con_.reset();
    write_con_.reset();
    db_.reset();
  }

  static double RowBytes(int64_t ts) {
    return 8 + 4 + 8 + static_cast<double>(std::strlen(kTags[ts % 16]));
  }

  double Generate() {
    RandomEngine rng(config_.seed ^ 0x510e527fade682d1ULL);
    logical_bytes_ = 0;
    double append_ms = 0;
    auto append = [&](Appender* appender, const DataChunk& chunk) {
      Clock::time_point start = Clock::now();
      Check(appender->AppendChunk(chunk), "append");
      append_ms += MsSince(start);
    };
    {
      auto appender = Check(Appender::Create(db_.get(), "sensors"), "appender");
      DataChunk chunk;
      chunk.Initialize({TypeId::kInteger, TypeId::kVarchar, TypeId::kVarchar});
      for (int64_t base = 0; base < sensors_; base += kVectorSize) {
        chunk.Reset();
        int64_t n = std::min<int64_t>(kVectorSize, sensors_ - base);
        for (int64_t j = 0; j < n; j++) {
          int64_t id = base + j;
          chunk.column(0).data<int32_t>()[j] = static_cast<int32_t>(id);
          chunk.column(1).SetString(j, SensorName(id));
          chunk.column(2).SetString(j, SensorLocation(id));
          logical_bytes_ += 4 + static_cast<double>(SensorName(id).size() +
                                                    SensorLocation(id).size());
        }
        chunk.SetCardinality(n);
        append(appender.get(), chunk);
      }
      Check(appender->Close(), "append close");
    }
    {
      auto appender = Check(Appender::Create(db_.get(), "readings"), "appender");
      DataChunk chunk;
      chunk.Initialize(
          {TypeId::kBigInt, TypeId::kInteger, TypeId::kDouble, TypeId::kVarchar});
      for (int64_t base = 0; base < base_rows_; base += kVectorSize) {
        chunk.Reset();
        int64_t n = std::min<int64_t>(kVectorSize, base_rows_ - base);
        for (int64_t j = 0; j < n; j++) {
          int64_t ts = base + j;
          chunk.column(0).data<int64_t>()[j] = ts;
          chunk.column(1).data<int32_t>()[j] =
              static_cast<int32_t>(rng.NextInt(0, reading_sensors_ - 1));
          chunk.column(2).data<double>()[j] =
              static_cast<double>(rng.NextInt(0, 100'000)) * 0.5;
          chunk.column(3).SetString(j, kTags[ts % 16]);
          logical_bytes_ += RowBytes(ts);
        }
        chunk.SetCardinality(n);
        append(appender.get(), chunk);
      }
      Check(appender->Close(), "append close");
    }
    return append_ms;
  }

  ReadKind NextKind() {
    int64_t pick = schedule_.NextInt(0, 99);
    return pick < 70 ? kLookup : (pick < 95 ? kWindow : kRefresh);
  }

  // One reader request. The traced run adds the parse/prepare probes after
  // each point lookup and records them in `samples`.
  ReadOutcome Read(ReadKind kind, Tracer* tracer, uint64_t op,
                   KindSamples* samples) {
    ReadOutcome outcome;
    int64_t newest = next_ts_.load();
    switch (kind) {
      case kLookup: {
        int64_t id = schedule_.NextInt(0, sensors_ - 1);
        std::string sql =
            "SELECT name, location FROM sensors WHERE id = " + std::to_string(id);
        ScopedSpan span(tracer, "main.query.lookup", -1, op);
        auto result = read_con_->Query(sql);
        outcome.span_ms = span.Stop();
        if (!result.ok()) return Failed("lookup", result.status());
        if ((*result)->RowCount() != 1 ||
            (*result)->GetValue(0, 0).GetString() != SensorName(id)) {
          WrongResult("point lookup of sensor " + std::to_string(id) +
                      " did not return its generated name");
        }
        if (tracer) {
          RunProbes(tracer, read_con_.get(), sql, {}, span.id(), op, samples);
        }
        break;
      }
      case kWindow: {
        int64_t from = newest - kWindowRows;
        ScopedSpan span(tracer, "main.execute.window", -1, op);
        Status bind = window_->Bind(1, from);
        if (bind.ok()) {
          bind = window_->Bind(2, static_cast<int32_t>(
                                      schedule_.NextInt(0, reading_sensors_ - 1)));
        }
        if (!bind.ok()) return Failed("window bind", bind);
        auto result = window_->Execute();
        outcome.span_ms = span.Stop();
        if (!result.ok()) return Failed("window", result.status());
        for (idx_t r = 0; r < (*result)->RowCount(); r++) {
          if ((*result)->GetValue(0, r).GetBigInt() < from) {
            WrongResult("recent-window select returned a row before its window");
          }
        }
        break;
      }
      case kRefresh: {
        ScopedSpan span(tracer, "main.query.refresh", -1, op);
        auto result = read_con_->Query(
            "SELECT sensor, count(*), avg(value), max(value) FROM readings "
            "WHERE ts >= " + std::to_string(newest - kRefreshRows) +
            " GROUP BY sensor");
        outcome.span_ms = span.Stop();
        if (!result.ok()) return Failed("refresh", result.status());
        if ((*result)->RowCount() == 0 ||
            (*result)->RowCount() > static_cast<idx_t>(reading_sensors_)) {
          WrongResult("GROUP BY refresh returned " +
                      std::to_string((*result)->RowCount()) + " groups");
        }
        break;
      }
      default:
        break;
    }
    outcome.ok = true;
    return outcome;
  }

  static ReadOutcome Failed(const char* what, const Status& status) {
    std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
    return ReadOutcome();
  }

  // One write transaction. Returns false on an engine error (rolled back).
  bool WriteTxn(Tracer* tracer, uint64_t op, double* user_bytes = nullptr,
                double* commit_ms = nullptr) {
    ScopedSpan span(tracer, "main.write_txn", -1, op);
    Status status = write_con_->BeginTransaction();
    int64_t first = next_ts_.load();
    double bytes = 0;
    for (int r = 0; r < kRowsPerTxn && status.ok(); r++) {
      int64_t ts = first + r;
      status = insert_->Bind(1, ts);
      if (status.ok()) status = insert_->Bind(2, static_cast<int32_t>(ts % reading_sensors_));
      if (status.ok()) status = insert_->Bind(3, static_cast<double>(ts % 1000) * 0.5);
      if (status.ok()) status = insert_->Bind(4, kTags[ts % 16]);
      if (status.ok()) {
        auto result = insert_->Execute();
        if (!result.ok()) status = result.status();
      }
      bytes += RowBytes(ts);
    }
    if (status.ok()) {
      ScopedSpan commit(tracer, "transaction.commit", span.id(), op);
      status = write_con_->Commit();
      if (commit_ms) *commit_ms = commit.Stop();
    }
    if (!status.ok()) {
      std::fprintf(stderr, "write failed: %s\n", status.ToString().c_str());
      if (write_con_->InTransaction()) (void)write_con_->Rollback();
      return false;
    }
    next_ts_.store(first + kRowsPerTxn);
    acked_rows_ += kRowsPerTxn;
    logical_bytes_ += bytes;
    if (user_bytes) *user_bytes += bytes;
    return true;
  }

  // The open-loop writer. Each checkpoint runs in place of the write due
  // then, half a period after the last one, and delays the writes due
  // while it runs.
  void RunWriter(Clock::time_point start, Clock::time_point end,
                 Tracer* tracer, const HostProbe* probe, WriterStats* stats) {
    int checkpoints_done = 0;
    uint64_t op = 1ull << 40;  // writer ops, apart from the reader's
    for (int64_t i = 0;; i++) {
      Clock::time_point due = start + Seconds(i / kWriteRate);
      if (due >= end) break;
      WaitUntil(due);
      stats->lateness_max_ms = std::max(stats->lateness_max_ms, MsSince(due));
      Clock::time_point next_checkpoint =
          start + Seconds((checkpoints_done + 0.5) * kCheckpointSeconds);
      if (Clock::now() >= next_checkpoint) {
        checkpoints_done++;
        ScopedSpan span(tracer, "storage.checkpoint", -1, ++op);
        auto result = write_con_->Query("CHECKPOINT");
        stats->checkpoint_ms.push_back(span.Stop());
        Check(result.status(), "CHECKPOINT");
        std::error_code error;
        auto size = std::filesystem::file_size(path_, error);
        if (!error) stats->checkpoint_bytes += static_cast<double>(size);
      }
      double commit_ms = 0;
      stats->attempted++;
      if (!WriteTxn(tracer, ++op, &stats->user_bytes, &commit_ms)) {
        stats->failed++;
        continue;
      }
      stats->commit_ms.push_back(commit_ms);
      double latency_ms = MsSince(due);
      stats->latency_ms.push_back(latency_ms);
      stats->ref_latency_ms.push_back(probe->ToReference(latency_ms));
    }
  }

  RunConfig config_;
  std::string path_;
  int64_t base_rows_;
  int64_t sensors_;
  int64_t reading_sensors_;
  RandomEngine schedule_;  // reader thread only
  std::atomic<int64_t> next_ts_{0};  // written by the writer, read by the reader
  int64_t acked_rows_ = 0;           // writer thread only while running
  double logical_bytes_ = 0;         // writer thread only while running

  std::unique_ptr<Database> db_;
  std::unique_ptr<Connection> read_con_;
  std::unique_ptr<Connection> write_con_;
  std::unique_ptr<PreparedStatement> window_;
  std::unique_ptr<PreparedStatement> insert_;
};

}  // namespace

std::unique_ptr<Workload> MakeDashboard(const RunConfig& config) {
  return std::make_unique<Dashboard>(config);
}

}  // namespace mallard_bench
