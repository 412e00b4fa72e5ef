#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <thread>

#include "mallard/main/prepared_statement.h"
#include "mallard/parser/parser.h"

namespace mallard_bench {

using namespace mallard;

void Fatal(const std::string& message) {
  std::fprintf(stderr, "mallard_bench: %s\n", message.c_str());
  std::fflush(stdout);
  std::exit(1);
}

void WrongResult(const std::string& message) {
  std::fprintf(stderr, "mallard_bench: WRONG RESULT: %s\n", message.c_str());
  std::fflush(stdout);
  std::exit(3);
}

void Check(const Status& status, const std::string& what) {
  if (!status.ok()) Fatal(what + ": " + status.ToString());
}

std::unique_ptr<MaterializedQueryResult> Exec(Connection* con,
                                              const std::string& sql) {
  return Check(con->Query(sql), sql);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Geomean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(std::max(v, 1e-9));
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double Sum(const std::vector<double>& values) {
  double total = 0;
  for (double v : values) total += v;
  return total;
}

Counters Delta(const Counters& after, const Counters& before) {
  Counters delta;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    delta[name] = value - (it == before.end() ? 0 : it->second);
  }
  return delta;
}

Counters ReadAll(Connection* con, const std::vector<std::string>& pragmas) {
  Counters all;
  for (const std::string& pragma : pragmas) {
    auto result = Exec(con, "PRAGMA " + pragma);
    if (result->RowCount() == 0) continue;
    for (idx_t c = 0; c < result->ColumnCount(); c++) {
      all[pragma + "." + result->names()[c]] =
          static_cast<double>(result->GetValue(c, 0).GetAsBigInt());
    }
  }
  return all;
}

const std::vector<std::string> kOpPragmas = {"buffer_stats", "storage_stats",
                                             "scheduler_stats"};

std::vector<std::string> PhasePragmas(bool persistent) {
  std::vector<std::string> pragmas = {"plan_cache_stats", "admission_stats",
                                      "resilience_stats"};
  if (persistent) pragmas.push_back("wal_stats");
  return pragmas;
}

Counters OpCounters::After() {
  Counters delta = Delta(ReadAll(stats_, kOpPragmas), before_);
  for (const auto& [name, value] : delta) total_[name] += value;
  return delta;
}

void CounterLayers(const Counters& op_delta, double ops,
                   const Counters& phase_delta, const Counters& now,
                   std::map<std::string, double>* layer) {
  auto get = [](const Counters& counters, const std::string& name) {
    auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto per_op = [&](const std::string& name) {
    return ratio(get(op_delta, name), ops);
  };
  auto& l = *layer;
  l["storage.decodes_per_op"] = per_op("storage_stats.decode_count");
  l["storage.filter_windows_per_op"] =
      per_op("storage_stats.code_filter_windows");
  l["storage.encoded_ratio"] = ratio(get(now, "storage_stats.encoded_bytes"),
                                     get(now, "storage_stats.logical_bytes"));
  l["storage.spilled_bytes_per_op"] = per_op("buffer_stats.spilled_bytes");
  l["storage.spill_count_per_op"] = per_op("buffer_stats.spill_count");
  l["storage.unspill_count_per_op"] = per_op("buffer_stats.unspill_count");
  l["storage.eviction_count_per_op"] = per_op("buffer_stats.eviction_count");
  l["storage.spill_saved_bytes_per_op"] =
      per_op("buffer_stats.spill_saved_bytes");
  l["storage.buffer_peak_bytes"] = get(now, "buffer_stats.peak_memory");
  double tasks = get(op_delta, "scheduler_stats.tasks_executed");
  double runs = get(op_delta, "scheduler_stats.runs");
  l["parallel.tasks_per_op"] = ratio(tasks, ops);
  l["parallel.runs_per_op"] = ratio(runs, ops);
  l["parallel.tasks_per_run"] = ratio(tasks, runs);
  double hits = get(phase_delta, "plan_cache_stats.hits");
  l["main.plan_cache_hit_ratio"] =
      ratio(hits, hits + get(phase_delta, "plan_cache_stats.misses"));
  l["main.plan_cache_busy_skips"] = get(phase_delta, "plan_cache_stats.busy_skips");
  l["governor.admission_queued"] = get(phase_delta, "admission_stats.queued");
  l["governor.admission_shed"] = get(phase_delta, "admission_stats.shed");
  l["governor.admission_timeouts"] =
      get(phase_delta, "admission_stats.timeouts");
  l["resilience.io_attempts"] = get(phase_delta, "resilience_stats.io_attempts");
  l["resilience.io_retries"] = get(phase_delta, "resilience_stats.io_retries");
  l["resilience.checksum_failures"] =
      get(phase_delta, "resilience_stats.block_checksum_failures") +
      get(phase_delta, "resilience_stats.spill_checksum_failures");
  double commits = get(phase_delta, "wal_stats.commits");
  double fsyncs = get(phase_delta, "wal_stats.fsyncs");
  l["storage.wal_commits"] = commits;
  l["storage.wal_fsyncs"] = fsyncs;
  l["storage.commits_per_fsync"] = ratio(commits, fsyncs);
}

uint64_t ScanColumns(Database* db, const TableColumns& reads) {
  const std::string& table_name = reads.table;
  DataTable* table = Check(db->catalog().GetTable(table_name), table_name);
  std::vector<idx_t> ids;
  std::vector<TypeId> types;
  for (const std::string& column : reads.columns) {
    idx_t index = table->ColumnIndex(column);
    if (index == kInvalidIndex) Fatal("no column " + table_name + "." + column);
    ids.push_back(index);
    types.push_back(table->columns()[index].type);
  }
  auto txn = db->transactions().Begin();
  TableScanState state;
  table->InitializeScan(&state, ids);
  DataChunk chunk;
  chunk.Initialize(types);
  uint64_t values = 0;
  while (table->Scan(*txn, &state, &chunk)) {
    values += chunk.size() * chunk.ColumnCount();
  }
  Check(state.error, "scan " + table_name);
  db->transactions().Rollback(txn.get());
  return values;
}

double GeomeanOfLowerQuartiles(const std::map<std::string, KindSamples>& kinds) {
  std::vector<double> quartiles;
  for (const auto& [kind, samples] : kinds) {
    quartiles.push_back(Quantile(samples.ref_ms, 0.25));
  }
  return Geomean(quartiles);
}

void RunProbes(Tracer* tracer, Connection* con, const std::string& sql,
               const std::vector<TableColumns>& reads, int parent, uint64_t op,
               KindSamples* samples) {
  {
    ScopedSpan probe(tracer, "parser.parse", parent, op);
    Check(Parser::Parse(sql), "parse");
    samples->parse_us.push_back(probe.Stop() * 1000.0);
  }
  {
    ScopedSpan probe(tracer, "main.prepare", parent, op);
    Check(con->Prepare(sql), "prepare");
    samples->prepare_us.push_back(probe.Stop() * 1000.0);
  }
  if (reads.empty()) return;
  ScopedSpan probe(tracer, "storage.scan", parent, op);
  for (const TableColumns& table : reads) {
    samples->scan_values +=
        static_cast<double>(ScanColumns(&con->database(), table));
  }
  samples->scan_ms.push_back(probe.Stop());
}

void ProbeLayers(const std::map<std::string, KindSamples>& kinds,
                 const std::string& self_prefix,
                 std::map<std::string, double>* layer) {
  std::vector<double> op_ms, parse_us, prepare_us;
  double scan_ms = 0, scan_values = 0, self_total = 0;
  for (const auto& [kind, s] : kinds) {
    op_ms.insert(op_ms.end(), s.op_ms.begin(), s.op_ms.end());
    parse_us.insert(parse_us.end(), s.parse_us.begin(), s.parse_us.end());
    prepare_us.insert(prepare_us.end(), s.prepare_us.begin(), s.prepare_us.end());
    scan_ms += Sum(s.scan_ms);
    scan_values += s.scan_values;
    if (self_prefix.empty()) continue;
    double self =
        Median(s.op_ms) - Median(s.prepare_us) / 1000.0 - Median(s.scan_ms);
    (*layer)[self_prefix + kind + "_ms"] = self;
    self_total += self;
  }
  auto& l = *layer;
  l["main.query_ms"] = Median(op_ms);
  l["parser.parse_us"] = Median(parse_us);
  l["main.prepare_us"] = Median(prepare_us);
  l["planner.bind_plan_us"] = Median(prepare_us) - Median(parse_us);
  if (scan_ms > 0) l["storage.scan_mvals_per_s"] = scan_values / scan_ms / 1000.0;
  if (!self_prefix.empty()) l["execution.self_ms"] = self_total;
}

Tracer::Tracer() : origin_(Clock::now()) {}

int Tracer::Begin(const std::string& name, int parent, uint64_t op) {
  Span span{name, Clock::now(), Clock::time_point{}, parent, op,
            std::hash<std::thread::id>{}(std::this_thread::get_id()) % 1000};
  std::lock_guard<std::mutex> guard(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int id) {
  Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> guard(mutex_);
  spans_[static_cast<size_t>(id)].end = now;
}

void Tracer::PrintSummary(std::FILE* out) const {
  std::lock_guard<std::mutex> guard(mutex_);
  std::vector<double> child_ms(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ms[static_cast<size_t>(span.parent)] +=
          MsBetween(span.start, span.end);
    }
  }
  struct Row {
    int64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, Row> rows;
  for (size_t i = 0; i < spans_.size(); i++) {
    double ms = MsBetween(spans_[i].start, spans_[i].end);
    Row& row = rows[spans_[i].name];
    row.count++;
    row.total_ms += ms;
    row.self_ms += ms - child_ms[i];
  }
  std::fprintf(out, "%-28s %10s %14s %14s\n", "span", "count", "total_ms",
               "self_ms");
  for (const auto& [name, row] : rows) {
    std::fprintf(out, "%-28s %10lld %14.3f %14.3f\n", name.c_str(),
                 static_cast<long long>(row.count), row.total_ms, row.self_ms);
  }
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> guard(mutex_);
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); i++) {
    const Span& s = spans_[i];
    std::string layer = s.name.substr(0, s.name.find('.'));
    std::fprintf(
        f,
        "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
        "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, "
        "\"args\": {\"id\": %zu, \"parent\": %d, \"op\": %llu}}%s\n",
        s.name.c_str(), layer.c_str(), static_cast<unsigned long long>(s.thread),
        MsBetween(origin_, s.start) * 1000.0, MsBetween(s.start, s.end) * 1000.0,
        i, s.parent, static_cast<unsigned long long>(s.op),
        i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

HostProbe::HostProbe() : memory_(kBytes / sizeof(uint64_t), 1) {}

void HostProbe::MaybeRun() {
  constexpr int kUpdates = 1 << 17;
  Clock::time_point start = Clock::now();
  if (start < next_) return;
  const size_t mask = memory_.size() - 1;
  for (int i = 0; i < kUpdates; i++) {
    state_ ^= state_ << 13;  // xorshift64
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    memory_[state_ & mask] += state_;
  }
  Clock::time_point end = Clock::now();
  if (recent_.size() == kRecent) recent_.erase(recent_.begin());
  recent_.push_back(kUpdates / MsBetween(start, end) / 1000.0);
  double scale = Median(recent_) / kReferenceRate;
  scale_.store(scale, std::memory_order_relaxed);
  scales_.push_back(scale);
  next_ = end + std::chrono::milliseconds(100);
}

double HostProbe::TakeMeanScale() {
  if (scales_.empty()) Fatal("the host probe never ran");
  double mean = Sum(scales_) / static_cast<double>(scales_.size());
  scales_.clear();
  return mean;
}

DBConfig PinnedConfig() {
  DBConfig config;
  config.threads = 2;
  config.memory_limit = 1ull << 30;
  config.enable_checksums = true;
  return config;
}

}  // namespace mallard_bench
