// host_export: handing results to the host, the paper's transfer claim.
// Table `wide` (BIGINT id, BIGINT ts, DOUBLE val, VARCHAR cat with 64
// distinct values, INTEGER qty) is loaded once and then read in a closed
// loop of rounds, each of three parts:
//   (a) SELECT * streamed through SendQuery/Fetch, the host touching every
//       value;
//   (b) a prepared 10 % ts-range query streamed through ExecuteStream;
//   (c) a ~2 % qty filter through the C ABI (mallard_query), read one
//       value at a time through mallard_value_*.
// Chosen because storage scan/decode and the hand-over to the host do the
// work, while hash tables, the parser and the WAL do none. The C ABI opens
// its own copy of the database file: a C host cannot share a Database
// with C++ code.

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "harness.h"
#include "mallard/c_api/mallard.h"
#include "mallard/common/random.h"
#include "mallard/main/appender.h"
#include "mallard/main/prepared_statement.h"

namespace mallard_bench {
namespace {

using namespace mallard;

constexpr int kCategories = 64;
constexpr int kMaxQty = 50;
constexpr int64_t kTsBase = 1'600'000'000'000;
constexpr int64_t kTsStep = 1000;  // ts of row i lies in [i, i+1) * kTsStep
const char kRangeSql[] = "SELECT id, ts, val FROM wide WHERE ts >= $1 AND ts < $2";

// Order-independent checksum of the values a part hands to the host.
struct Sums {
  uint64_t rows = 0;
  uint64_t id = 0;
  uint64_t ts = 0;
  double val = 0;  // exact: every val is a multiple of 0.25 below 1e5
  uint64_t cat = 0;
  uint64_t qty = 0;

  bool operator==(const Sums& o) const {
    return rows == o.rows && id == o.id && ts == o.ts && val == o.val &&
           cat == o.cat && qty == o.qty;
  }
};

uint64_t CatHash(const char* data, uint32_t size) {
  return size == 0 ? 0
                   : size + 31u * static_cast<uint8_t>(data[0]) +
                         7u * static_cast<uint8_t>(data[size - 1]);
}

// Owns the C ABI handles of part (c).
class CDatabase {
 public:
  explicit CDatabase(const std::string& path) {
    if (mallard_open(path.c_str(), &db_) != MALLARD_SUCCESS ||
        mallard_connect(db_, &con_) != MALLARD_SUCCESS) {
      const char* error = mallard_open_error();
      Fatal("C ABI open: " + std::string(error ? error : "?"));
    }
    mallard_result* pinned = Query("PRAGMA threads=2");
    mallard_destroy_result(&pinned);
  }
  ~CDatabase() {
    mallard_disconnect(&con_);
    mallard_close(&db_);
  }
  CDatabase(const CDatabase&) = delete;
  CDatabase& operator=(const CDatabase&) = delete;

  /// The result; the caller destroys it. Errors are fatal.
  mallard_result* Query(const std::string& sql) {
    mallard_result* result = nullptr;
    if (mallard_query(con_, sql.c_str(), &result) != MALLARD_SUCCESS) {
      const char* error = mallard_result_error(result);
      Fatal("C ABI query: " + std::string(error ? error : "?"));
    }
    return result;
  }

 private:
  mallard_database* db_ = nullptr;
  mallard_connection* con_ = nullptr;
};

class HostExport final : public Workload {
 public:
  explicit HostExport(const RunConfig& config)
      : config_(config),
        rows_(config.smoke ? 50'000 : 1'000'000),
        schedule_(config.seed ^ 0x6a09e667f3bcc909ULL) {}

  void Setup() override {
    capi_.reset();
    range_.reset();
    stats_.reset();
    con_.reset();
    db_.reset();
    std::string path = config_.dir + "/export.db";
    std::string capi_path = config_.dir + "/export_capi.db";
    for (const std::string& p : {path, capi_path}) {
      for (const char* suffix : {"", ".wal", ".tmp"}) {
        std::filesystem::remove(p + suffix);
      }
    }

    Clock::time_point start = Clock::now();
    db_ = Check(Database::Open(path, PinnedConfig()), "open " + path);
    con_ = std::make_unique<Connection>(db_.get());
    Exec(con_.get(),
         "CREATE TABLE wide (id BIGINT, ts BIGINT, val DOUBLE, cat VARCHAR, "
         "qty INTEGER)");
    double append_ms = Generate();
    setup_layer["setup.generate_s"] = MsSince(start) / 1000.0;
    setup_layer["setup.append_mrows_per_s"] =
        static_cast<double>(rows_) / append_ms / 1000.0;
    Clock::time_point checkpoint = Clock::now();
    Check(db_->Checkpoint(), "checkpoint");
    setup_layer["setup.checkpoint_s"] = MsSince(checkpoint) / 1000.0;
    std::filesystem::copy_file(path, capi_path);
    capi_ = std::make_unique<CDatabase>(capi_path);
    stats_ = std::make_unique<Connection>(db_.get());
  }

  void Prepare() override {
    range_ = Check(con_->Prepare(kRangeSql), "prepare");
    Totals warm_up;
    RunRound(nullptr, 0, &warm_up);
  }

  Phase Run(double seconds, Tracer* tracer, HostProbe* probe) override {
    Phase phase;
    Totals totals;
    totals.probe = probe;
    op_counters_ = std::make_unique<OpCounters>(stats_.get());
    std::vector<std::string> phase_pragmas = PhasePragmas(true);
    Counters phase_before = ReadAll(stats_.get(), phase_pragmas);
    uint64_t op = 0;
    Clock::time_point start = Clock::now();
    while (MsSince(start) < seconds * 1000.0) {
      probe->MaybeRun();
      RunRound(tracer, op, &totals);
      op += 3;
    }
    phase.attempted = static_cast<int64_t>(op);
    phase.geomean_ms = GeomeanOfLowerQuartiles(totals.parts);
    phase.tail_ms = Quantile(totals.part_ref_ms, 0.9);
    phase.ops_per_s = static_cast<double>(op) / (MsSince(start) / 1000.0);
    if (tracer == nullptr) return phase;

    auto& l = phase.layer;
    ProbeLayers(totals.parts, "", &l);
    l["main.fetch_ms"] = Median(totals.fetch_ms);
    l["main.first_chunk_ms"] = Median(totals.first_chunk_ms);
    l["main.chunk_mvals_per_s"] =
        totals.chunk_values /
        (Sum(totals.parts["a"].op_ms) + Sum(totals.parts["b"].op_ms)) / 1000.0;
    l["main.capi_mvals_per_s"] =
        totals.capi_values / Sum(totals.parts["c"].op_ms) / 1000.0;
    l["main.capi_value_ns"] = Median(totals.capi_block_ns);
    // Per-op counters cover parts (a) and (b): part (c) runs in the C
    // ABI's own Database.
    CounterLayers(op_counters_->total(),
                  static_cast<double>(totals.round_ms.size() * 2),
                  Delta(ReadAll(stats_.get(), phase_pragmas), phase_before),
                  ReadAll(stats_.get(), kOpPragmas), &l);
    return phase;
  }

 private:
  // What the rounds of one phase measured.
  struct Totals {
    HostProbe* probe = nullptr;  // none in the warm-up
    std::map<std::string, KindSamples> parts;  // "a", "b", "c"
    std::vector<double> part_ref_ms;           // every part, converted
    std::vector<double> round_ms;
    double chunk_values = 0;
    double capi_values = 0;
    // Traced half only.
    std::vector<double> fetch_ms;
    std::vector<double> first_chunk_ms;
    std::vector<double> capi_block_ns;
  };

  // Fills `wide` through the Appender and records the expected checksums.
  // Returns the milliseconds spent inside Appender calls.
  double Generate() {
    RandomEngine rng(config_.seed ^ 0xbb67ae8584caa73bULL);
    std::vector<std::string> categories;
    for (int c = 0; c < kCategories; c++) {
      char name[32];
      std::snprintf(name, sizeof(name), "cat-%02d-%c%c", c,
                    static_cast<char>('a' + rng.NextInt(0, 25)),
                    static_cast<char>('a' + rng.NextInt(0, 25)));
      categories.push_back(name);
      cat_hash_[c] = CatHash(name, static_cast<uint32_t>(std::strlen(name)));
    }
    ts_offset_.assign(rows_, 0);
    val_quarters_.assign(rows_, 0);
    cat_.assign(rows_, 0);
    qty_.assign(rows_, 0);
    all_ = Sums();
    for (Sums& s : by_qty_) s = Sums();

    auto appender = Check(Appender::Create(db_.get(), "wide"), "appender");
    DataChunk chunk;
    chunk.Initialize({TypeId::kBigInt, TypeId::kBigInt, TypeId::kDouble,
                      TypeId::kVarchar, TypeId::kInteger});
    double append_ms = 0;
    for (size_t base = 0; base < rows_; base += kVectorSize) {
      chunk.Reset();
      size_t n = std::min<size_t>(kVectorSize, rows_ - base);
      for (size_t j = 0; j < n; j++) {
        size_t i = base + j;
        ts_offset_[i] = static_cast<uint16_t>(rng.NextInt(0, kTsStep - 1));
        val_quarters_[i] = static_cast<uint32_t>(rng.NextInt(0, 399'999));
        cat_[i] = static_cast<uint8_t>(rng.NextInt(0, kCategories - 1));
        qty_[i] = static_cast<uint8_t>(rng.NextInt(1, kMaxQty));
        chunk.column(0).data<int64_t>()[j] = static_cast<int64_t>(i);
        chunk.column(1).data<int64_t>()[j] = Ts(i);
        chunk.column(2).data<double>()[j] = Val(i);
        chunk.column(3).SetString(j, categories[cat_[i]]);
        chunk.column(4).data<int32_t>()[j] = qty_[i];
        AddRow(i, &all_);
        AddRow(i, &by_qty_[qty_[i]]);
      }
      chunk.SetCardinality(n);
      Clock::time_point start = Clock::now();
      Check(appender->AppendChunk(chunk), "append");
      append_ms += MsSince(start);
    }
    Clock::time_point start = Clock::now();
    Check(appender->Close(), "append close");
    return append_ms + MsSince(start);
  }

  int64_t Ts(size_t i) const {
    return kTsBase + static_cast<int64_t>(i) * kTsStep + ts_offset_[i];
  }
  double Val(size_t i) const { return val_quarters_[i] * 0.25; }

  void AddRow(size_t i, Sums* s) const {
    s->rows++;
    s->id += i;
    s->ts += static_cast<uint64_t>(Ts(i));
    s->val += Val(i);
    s->cat += cat_hash_[cat_[i]];
    s->qty += qty_[i];
  }

  // Streams `stream` to the host, touching every value. Columns are
  // (id, ts, val[, cat, qty]).
  Sums Drain(StreamingQueryResult* stream, Tracer* tracer, int parent,
             uint64_t op, Clock::time_point start, Totals* totals) {
    Sums sums;
    double fetch_total = 0;
    bool first = true;
    while (true) {
      ScopedSpan fetch(tracer, "main.fetch", parent, op);
      auto chunk = Check(stream->Fetch(), "fetch");
      fetch_total += fetch.Stop();
      if (first && tracer) totals->first_chunk_ms.push_back(MsSince(start));
      first = false;
      if (!chunk) break;
      idx_t n = chunk->size();
      const int64_t* id = chunk->column(0).data<int64_t>();
      const int64_t* ts = chunk->column(1).data<int64_t>();
      const double* val = chunk->column(2).data<double>();
      for (idx_t i = 0; i < n; i++) {
        sums.id += static_cast<uint64_t>(id[i]);
        sums.ts += static_cast<uint64_t>(ts[i]);
        sums.val += val[i];
      }
      if (chunk->ColumnCount() == 5) {
        const Vector& cat = chunk->column(3);
        const int32_t* qty = chunk->column(4).data<int32_t>();
        for (idx_t i = 0; i < n; i++) {
          StringRef s = cat.StringAt(i);
          sums.cat += CatHash(s.data, s.size);
          sums.qty += static_cast<uint64_t>(qty[i]);
        }
      }
      sums.rows += n;
      totals->chunk_values += static_cast<double>(n * chunk->ColumnCount());
    }
    if (tracer) totals->fetch_ms.push_back(fetch_total);
    return sums;
  }

  // Records one part's time and, traced, runs the layer probes after it.
  void Record(Tracer* tracer, const char* part, const std::string& sql,
              const std::vector<std::string>& columns, int span, uint64_t op,
              double ms, Totals* totals) {
    double ref_ms = totals->probe ? totals->probe->ToReference(ms) : ms;
    KindSamples& samples = totals->parts[part];
    samples.op_ms.push_back(ms);
    samples.ref_ms.push_back(ref_ms);
    totals->part_ref_ms.push_back(ref_ms);
    if (tracer) {
      RunProbes(tracer, con_.get(), sql, {{"wide", columns}}, span, op,
                &samples);
    }
  }

  // Engine errors are fatal here: one connection reading an idle table
  // has nothing that may legitimately fail.
  void RunRound(Tracer* tracer, uint64_t op, Totals* totals) {
    double ms[3];
    // (a) full export through the chunk API.
    {
      const std::string sql = "SELECT * FROM wide";
      if (tracer) op_counters_->Before();
      Clock::time_point start = Clock::now();
      ScopedSpan span(tracer, "main.send_query", -1, op + 1);
      auto stream = Check(con_->SendQuery(sql), "SendQuery");
      Sums got = Drain(stream.get(), tracer, span.id(), op + 1, start, totals);
      ms[0] = span.Stop();
      if (tracer) op_counters_->After();
      if (!(got == all_)) WrongResult("SELECT * checksum differs from the generator's");
      Record(tracer, "a", sql, {"id", "ts", "val", "cat", "qty"}, span.id(),
             op + 1, ms[0], totals);
    }
    // (b) prepared 10 % ts window, streamed.
    {
      size_t window = rows_ / 10;
      size_t first = static_cast<size_t>(schedule_.Next() % (rows_ - window));
      Sums want;
      for (size_t i = first; i < first + window; i++) AddRow(i, &want);
      want.cat = want.qty = 0;
      if (tracer) op_counters_->Before();
      Clock::time_point start = Clock::now();
      ScopedSpan span(tracer, "main.execute_stream", -1, op + 2);
      int64_t lo = kTsBase + static_cast<int64_t>(first) * kTsStep;
      Check(range_->Bind(1, lo), "bind");
      Check(range_->Bind(2, lo + static_cast<int64_t>(window) * kTsStep), "bind");
      auto stream = Check(range_->ExecuteStream(), "ExecuteStream");
      Sums got = Drain(stream.get(), tracer, span.id(), op + 2, start, totals);
      stream.reset();
      ms[1] = span.Stop();
      if (tracer) op_counters_->After();
      if (!(got == want)) WrongResult("ts-range checksum differs from the generator's");
      Record(tracer, "b", kRangeSql, {"id", "ts", "val"}, span.id(), op + 2,
             ms[1], totals);
    }
    // (c) C ABI, one value at a time.
    {
      int qty = static_cast<int>(schedule_.NextInt(1, kMaxQty));
      const std::string sql =
          "SELECT id, ts, val, cat, qty FROM wide WHERE qty = " +
          std::to_string(qty);
      ScopedSpan span(tracer, "c_api.query", -1, op + 3);
      mallard_result* result = capi_->Query(sql);
      Sums got;
      got.rows = mallard_row_count(result);
      // The traced run times blocks of ~1024 value calls.
      std::unique_ptr<ScopedSpan> block;
      int block_calls = 0;
      for (uint64_t r = 0; r < got.rows; r++) {
        if (tracer && !block) {
          block = std::make_unique<ScopedSpan>(tracer, "c_api.value_block",
                                               span.id(), op + 3);
        }
        got.id += static_cast<uint64_t>(mallard_value_int64(result, 0, r));
        got.ts += static_cast<uint64_t>(mallard_value_int64(result, 1, r));
        got.val += mallard_value_double(result, 2, r);
        const char* cat = mallard_value_varchar(result, 3, r);
        got.cat += cat ? CatHash(cat, static_cast<uint32_t>(std::strlen(cat))) : 0;
        got.qty += static_cast<uint64_t>(mallard_value_int32(result, 4, r));
        block_calls += 5;
        if (block && (block_calls >= 1024 || r + 1 == got.rows)) {
          totals->capi_block_ns.push_back(block->Stop() * 1e6 / block_calls);
          block.reset();
          block_calls = 0;
        }
      }
      mallard_destroy_result(&result);
      ms[2] = span.Stop();
      totals->capi_values += static_cast<double>(got.rows * 5);
      if (!(got == by_qty_[qty])) {
        WrongResult("C ABI qty=" + std::to_string(qty) +
                    " checksum differs from the generator's");
      }
      Record(tracer, "c", sql, {"id", "ts", "val", "cat", "qty"}, span.id(),
             op + 3, ms[2], totals);
    }
    totals->round_ms.push_back(ms[0] + ms[1] + ms[2]);
  }

  RunConfig config_;
  size_t rows_;
  RandomEngine schedule_;
  // Per-row generator state, enough to recompute any window's checksum.
  std::vector<uint16_t> ts_offset_;
  std::vector<uint32_t> val_quarters_;
  std::vector<uint8_t> cat_;
  std::vector<uint8_t> qty_;
  uint64_t cat_hash_[kCategories] = {};
  Sums all_;
  Sums by_qty_[kMaxQty + 1];

  std::unique_ptr<Database> db_;
  std::unique_ptr<Connection> con_;
  std::unique_ptr<Connection> stats_;
  std::unique_ptr<PreparedStatement> range_;
  std::unique_ptr<CDatabase> capi_;
  std::unique_ptr<OpCounters> op_counters_;
};

}  // namespace

std::unique_ptr<Workload> MakeHostExport(const RunConfig& config) {
  return std::make_unique<HostExport>(config);
}

}  // namespace mallard_bench
