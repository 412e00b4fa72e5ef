// out_of_core: the larger-than-cache workload. A persistent database with
// b (k, g with |b|/2 groups, s VARCHAR with |b|/10 distinct values, v) and
// p (3 * |b| rows, each matching one b row) is loaded and checkpointed,
// then queried under a memory_limit of 4 MiB per 250k rows of b. One
// connection runs a closed loop of rounds; each round streams a grace
// join, a GROUP BY with SUM/COUNT/AVG, an ORDER BY and a GROUP BY with
// MIN/MAX over VARCHAR. Chosen because the buffer manager, spill I/O,
// checksums and compression do the work here; the VARCHAR MIN/MAX
// aggregate is the shape that cannot spill yet.

#include <filesystem>

#include "harness.h"
#include "mallard/common/random.h"
#include "mallard/main/appender.h"

namespace mallard_bench {
namespace {

using namespace mallard;

enum Kind { kJoin = 0, kAgg, kSort, kAggVarchar, kKinds };

const char* kKindNames[kKinds] = {"ooc_join", "ooc_agg", "ooc_sort",
                                  "ooc_agg_varchar"};

const char* kKindSql[kKinds] = {
    "SELECT count(*), sum(b.v) FROM p JOIN b ON p.k = b.k",
    "SELECT g, sum(v), count(*), avg(v) FROM b GROUP BY g",
    "SELECT v FROM b ORDER BY v",
    "SELECT g, min(s), max(s) FROM b GROUP BY g",
};

// Columns each query reads, for the traced run's storage probe.
const std::vector<TableColumns> kKindColumns[kKinds] = {
        {{"p", {"k"}}, {"b", {"k", "v"}}},
        {{"b", {"g", "v"}}},
        {{"b", {"v"}}},
        {{"b", {"g", "s"}}},
};

double NumberAt(const Vector& vector, idx_t row) {
  switch (vector.type()) {
    case TypeId::kInteger:
      return vector.data<int32_t>()[row];
    case TypeId::kBigInt:
      return static_cast<double>(vector.data<int64_t>()[row]);
    case TypeId::kDouble:
      return vector.data<double>()[row];
    default:
      Fatal("unexpected result column type");
  }
}

// Values of b.s: "s" and seven digits, so text order is index order.
std::string StringName(int64_t index) {
  char buffer[16];
  std::snprintf(buffer, sizeof(buffer), "s%07lld", static_cast<long long>(index));
  return buffer;
}

// The index a StringName value was made from, or -1.
int64_t StringIndex(StringRef s) {
  if (s.size != 8 || s.data[0] != 's') return -1;
  int64_t index = 0;
  for (uint32_t i = 1; i < s.size; i++) {
    if (s.data[i] < '0' || s.data[i] > '9') return -1;
    index = index * 10 + (s.data[i] - '0');
  }
  return index;
}

class OutOfCore final : public Workload {
 public:
  explicit OutOfCore(const RunConfig& config)
      : config_(config),
        b_rows_(config.smoke ? 20'000 : 250'000),
        groups_(b_rows_ / 2),
        strings_(b_rows_ / 10),
        memory_limit_(config.smoke ? (1ull << 20) : (4ull << 20)) {}

  void Setup() override {
    stats_.reset();
    con_.reset();
    db_.reset();
    std::string path = config_.dir + "/ooc.db";
    for (const char* suffix : {"", ".wal", ".tmp"}) {
      std::filesystem::remove(path + suffix);
    }
    DBConfig db_config = PinnedConfig();
    db_config.checkpoint_on_close = false;
    Clock::time_point start = Clock::now();
    db_ = Check(Database::Open(path, db_config), "open " + path);
    con_ = std::make_unique<Connection>(db_.get());
    Exec(con_.get(), "CREATE TABLE b (k BIGINT, g BIGINT, s VARCHAR, v BIGINT)");
    Exec(con_.get(), "CREATE TABLE p (k BIGINT, v BIGINT)");
    double append_ms = Generate();
    setup_layer["setup.generate_s"] = MsSince(start) / 1000.0;
    setup_layer["setup.append_mrows_per_s"] =
        static_cast<double>(b_rows_ * 4) / append_ms / 1000.0;
    Clock::time_point checkpoint = Clock::now();
    Check(db_->Checkpoint(), "checkpoint");
    setup_layer["setup.checkpoint_s"] = MsSince(checkpoint) / 1000.0;
    Exec(con_.get(), "PRAGMA memory_limit=" + std::to_string(memory_limit_));
    stats_ = std::make_unique<Connection>(db_.get());
  }

  void Prepare() override {
    for (int kind = 0; kind < kKinds; kind++) RunQuery(kind);  // warm-up
  }

  Phase Run(double seconds, Tracer* tracer, HostProbe* probe) override {
    Phase phase;
    std::map<std::string, KindSamples> kinds;
    std::vector<double> round_ms, spilled[kKinds];
    OpCounters op_counters(stats_.get());
    std::vector<std::string> phase_pragmas = PhasePragmas(true);
    Counters phase_before = ReadAll(stats_.get(), phase_pragmas);
    uint64_t op = 0;
    Clock::time_point start = Clock::now();
    while (MsSince(start) < seconds * 1000.0) {
      double round = 0;
      for (int kind = 0; kind < kKinds; kind++) {
        probe->MaybeRun();
        op++;
        if (tracer) op_counters.Before();
        ScopedSpan span(tracer, "main.query", -1, op);
        bool ok = RunQuery(kind);
        double ms = span.Stop();
        phase.attempted++;
        if (!ok) {
          phase.failed++;
          continue;
        }
        double ref_ms = probe->ToReference(ms);
        round += ref_ms;
        KindSamples& samples = kinds[kKindNames[kind]];
        samples.op_ms.push_back(ms);
        samples.ref_ms.push_back(ref_ms);
        if (tracer == nullptr) continue;
        spilled[kind].push_back(op_counters.After()["buffer_stats.spilled_bytes"]);
        RunProbes(tracer, con_.get(), kKindSql[kind], kKindColumns[kind],
                  span.id(), op, &samples);
      }
      round_ms.push_back(round);
    }
    double elapsed_s = MsSince(start) / 1000.0;
    phase.geomean_ms = GeomeanOfLowerQuartiles(kinds);
    phase.tail_ms = Quantile(round_ms, 0.9);
    phase.ops_per_s =
        static_cast<double>(phase.attempted - phase.failed) / elapsed_s;
    if (tracer == nullptr) return phase;

    ProbeLayers(kinds, "execution.", &phase.layer);
    for (int kind = 0; kind < kKinds; kind++) {
      phase.layer["storage." + std::string(kKindNames[kind]) +
                  "_spilled_bytes"] = Median(spilled[kind]);
    }
    CounterLayers(op_counters.total(), static_cast<double>(phase.attempted),
                  Delta(ReadAll(stats_.get(), phase_pragmas), phase_before),
                  ReadAll(stats_.get(), kOpPragmas), &phase.layer);
    return phase;
  }

 private:
  // Loads b and p through the Appender and records what every query must
  // return. Returns the milliseconds spent inside Appender calls.
  double Generate() {
    RandomEngine rng(config_.seed ^ 0x3c6ef372fe94f82bULL);
    std::vector<int64_t> b_v(b_rows_);
    group_min_.assign(groups_, strings_);
    group_max_.assign(groups_, -1);
    sum_v_ = 0;
    join_sum_ = 0;
    double append_ms = 0;
    auto append = [&](Appender* appender, const DataChunk& chunk) {
      Clock::time_point start = Clock::now();
      Check(appender->AppendChunk(chunk), "append");
      append_ms += MsSince(start);
    };
    {
      auto appender = Check(Appender::Create(db_.get(), "b"), "appender");
      DataChunk chunk;
      chunk.Initialize(
          {TypeId::kBigInt, TypeId::kBigInt, TypeId::kVarchar, TypeId::kBigInt});
      for (int64_t base = 0; base < b_rows_; base += kVectorSize) {
        chunk.Reset();
        int64_t n = std::min<int64_t>(kVectorSize, b_rows_ - base);
        for (int64_t j = 0; j < n; j++) {
          int64_t i = base + j;
          int64_t g = rng.NextInt(0, groups_ - 1);
          int64_t s = rng.NextInt(0, strings_ - 1);
          b_v[i] = rng.NextInt(0, 999'999'999);
          sum_v_ += b_v[i];
          group_min_[g] = std::min(group_min_[g], s);
          group_max_[g] = std::max(group_max_[g], s);
          chunk.column(0).data<int64_t>()[j] = i;
          chunk.column(1).data<int64_t>()[j] = g;
          chunk.column(2).SetString(j, StringName(s));
          chunk.column(3).data<int64_t>()[j] = b_v[i];
        }
        chunk.SetCardinality(n);
        append(appender.get(), chunk);
      }
      Check(appender->Close(), "append close");
    }
    {
      auto appender = Check(Appender::Create(db_.get(), "p"), "appender");
      DataChunk chunk;
      chunk.Initialize({TypeId::kBigInt, TypeId::kBigInt});
      int64_t p_rows = b_rows_ * 3;
      for (int64_t base = 0; base < p_rows; base += kVectorSize) {
        chunk.Reset();
        int64_t n = std::min<int64_t>(kVectorSize, p_rows - base);
        for (int64_t j = 0; j < n; j++) {
          int64_t k = rng.NextInt(0, b_rows_ - 1);
          join_sum_ += b_v[k];
          chunk.column(0).data<int64_t>()[j] = k;
          chunk.column(1).data<int64_t>()[j] = rng.NextInt(0, 999);
        }
        chunk.SetCardinality(n);
        append(appender.get(), chunk);
      }
      Check(appender->Close(), "append close");
    }
    distinct_groups_ = 0;
    for (int64_t g = 0; g < groups_; g++) distinct_groups_ += group_max_[g] >= 0;
    return append_ms;
  }

  // Streams one query to the host and checks it. False on an engine
  // error (a failed op); a wrong result exits.
  bool RunQuery(int kind) {
    auto stream = con_->SendQuery(kKindSql[kind]);
    if (!stream.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", kKindNames[kind],
                   stream.status().ToString().c_str());
      return false;
    }
    int64_t rows = 0;
    double sum_a = 0, sum_b = 0;
    double last = -1;
    while (true) {
      auto fetched = (*stream)->Fetch();
      if (!fetched.ok()) {
        std::fprintf(stderr, "%s failed: %s\n", kKindNames[kind],
                     fetched.status().ToString().c_str());
        return false;
      }
      std::unique_ptr<DataChunk> chunk = std::move(*fetched);
      if (!chunk) break;
      for (idx_t i = 0; i < chunk->size(); i++) {
        switch (kind) {
          case kJoin:
            sum_a += NumberAt(chunk->column(0), i);
            sum_b += NumberAt(chunk->column(1), i);
            break;
          case kAgg:
            sum_a += NumberAt(chunk->column(1), i);
            sum_b += NumberAt(chunk->column(2), i);
            break;
          case kSort: {
            double v = NumberAt(chunk->column(0), i);
            if (v < last) WrongResult("ORDER BY v returned rows out of order");
            last = v;
            sum_a += v;
            break;
          }
          case kAggVarchar: {
            int64_t g = chunk->column(0).data<int64_t>()[i];
            if (g < 0 || g >= groups_ ||
                StringIndex(chunk->column(1).StringAt(i)) != group_min_[g] ||
                StringIndex(chunk->column(2).StringAt(i)) != group_max_[g]) {
              WrongResult("MIN/MAX(s) of group " + std::to_string(g) +
                          " differs from the generator's");
            }
            break;
          }
        }
      }
      rows += static_cast<int64_t>(chunk->size());
    }
    bool ok = true;
    switch (kind) {
      case kJoin:
        ok = rows == 1 && sum_a == static_cast<double>(b_rows_ * 3) &&
             sum_b == static_cast<double>(join_sum_);
        break;
      case kAgg:
        ok = rows == distinct_groups_ && sum_a == static_cast<double>(sum_v_) &&
             sum_b == static_cast<double>(b_rows_);
        break;
      case kSort:
        ok = rows == b_rows_ && sum_a == static_cast<double>(sum_v_);
        break;
      case kAggVarchar:
        ok = rows == distinct_groups_;
        break;
    }
    if (!ok) {
      WrongResult(std::string(kKindNames[kind]) +
                  " result differs from the generator's");
    }
    return true;
  }

  RunConfig config_;
  int64_t b_rows_;
  int64_t groups_;
  int64_t strings_;
  uint64_t memory_limit_;
  // Expected results, from the generator.
  int64_t sum_v_ = 0;
  int64_t join_sum_ = 0;
  int64_t distinct_groups_ = 0;
  std::vector<int64_t> group_min_;
  std::vector<int64_t> group_max_;

  std::unique_ptr<Database> db_;
  std::unique_ptr<Connection> con_;
  std::unique_ptr<Connection> stats_;
};

}  // namespace

std::unique_ptr<Workload> MakeOutOfCore(const RunConfig& config) {
  return std::make_unique<OutOfCore>(config);
}

}  // namespace mallard_bench
