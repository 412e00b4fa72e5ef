// Shared pieces of mallard_bench: failure handling, statistics, counter
// reads, the span tracer of the traced run, and the Workload interface
// every workload implements.

#ifndef MALLARD_BENCH_HARNESS_H_
#define MALLARD_BENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "mallard/common/result.h"
#include "mallard/main/connection.h"
#include "mallard/main/database.h"
#include "mallard/storage/table/data_table.h"

namespace mallard_bench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}
inline double MsSince(Clock::time_point start) {
  return MsBetween(start, Clock::now());
}

/// Engine or environment failure: the run is void. Exits 1.
[[noreturn]] void Fatal(const std::string& message);
/// An oracle saw a wrong result. Exits 3; never counted as a failed op.
[[noreturn]] void WrongResult(const std::string& message);

void Check(const mallard::Status& status, const std::string& what);
template <typename T>
T Check(mallard::Result<T> result, const std::string& what) {
  if (!result.ok()) Check(result.status(), what);
  return std::move(result).value();
}

/// Runs `sql` and returns its materialized result; any error is fatal.
std::unique_ptr<mallard::MaterializedQueryResult> Exec(
    mallard::Connection* con, const std::string& sql);

/// Linear-interpolated quantile, q in [0, 1]. 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Geomean(const std::vector<double>& values);
double Sum(const std::vector<double>& values);

/// Counter values by name.
using Counters = std::map<std::string, double>;
/// after - before, per counter present in `after`.
Counters Delta(const Counters& after, const Counters& before);

/// Reads the one-row `PRAGMA <name>` counter blocks; the counters are
/// named "<pragma>.<column>".
Counters ReadAll(mallard::Connection* con,
                 const std::vector<std::string>& pragmas);

/// Counters that change per statement, read around each op of a traced
/// phase so that the probes after an op are not counted.
extern const std::vector<std::string> kOpPragmas;
/// Counters read at phase boundaries only.
std::vector<std::string> PhasePragmas(bool persistent);

/// Sums per-op counter deltas. Before()/After() bracket one operation.
class OpCounters {
 public:
  explicit OpCounters(mallard::Connection* stats) : stats_(stats) {}
  void Before() { before_ = ReadAll(stats_, kOpPragmas); }
  /// This op's delta; also added to total().
  Counters After();
  const Counters& total() const { return total_; }

 private:
  mallard::Connection* stats_;
  Counters before_;
  Counters total_;
};

/// Fills the layer metrics every workload reports from counters:
/// `op_delta` summed over `ops` operations (kOpPragmas), `phase_delta`
/// over the phase (PhasePragmas), `now` the kOpPragmas values at the end.
void CounterLayers(const Counters& op_delta, double ops,
                   const Counters& phase_delta, const Counters& now,
                   std::map<std::string, double>* layer);

/// Columns of one table that an operation reads.
struct TableColumns {
  std::string table;
  std::vector<std::string> columns;
};

/// Scans `columns` through DataTable::Scan with no consumer. Returns the
/// values produced.
uint64_t ScanColumns(mallard::Database* db, const TableColumns& columns);

/// Spans of the traced run, kept in memory and written at exit as Chrome
/// trace-event JSON. Untraced code gets a null Tracer*. Thread-safe.
class Tracer {
 public:
  Tracer();

  /// Opens a span and returns its id. `parent` is the span that caused
  /// it; `op` groups the spans of one operation.
  int Begin(const std::string& name, int parent = -1, uint64_t op = 0);
  void End(int id);

  /// Per span name: count, total and self time, where self time is the
  /// span minus the spans that name it as parent.
  void PrintSummary(std::FILE* out) const;
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent;
    uint64_t op;
    uint64_t thread;
  };
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// RAII span; a null tracer makes it a timer only.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int parent = -1,
             uint64_t op = 0)
      : tracer_(tracer),
        id_(tracer ? tracer->Begin(name, parent, op) : -1),
        start_(Clock::now()) {}
  ~ScopedSpan() { Stop(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }
  /// Ends the span (once) and returns its length in ms.
  double Stop() {
    if (!stopped_) {
      ms_ = MsSince(start_);
      if (tracer_) tracer_->End(id_);
      stopped_ = true;
    }
    return ms_;
  }

 private:
  Tracer* tracer_;
  int id_;
  Clock::time_point start_;
  bool stopped_ = false;
  double ms_ = 0;
};

/// Samples of one kind of operation: its span, as measured and converted
/// by HostProbe::ToReference, and in the traced half the layer probes that
/// follow it.
struct KindSamples {
  std::vector<double> op_ms;
  std::vector<double> ref_ms;
  std::vector<double> parse_us;
  std::vector<double> prepare_us;
  std::vector<double> scan_ms;
  double scan_values = 0;
};

/// Geomean over op kinds of the lower quartile of each kind's ref_ms.
/// Interference from the host only ever lengthens ops, so the lower
/// quartile is set by the least disturbed ones.
double GeomeanOfLowerQuartiles(const std::map<std::string, KindSamples>& kinds);

/// The layer probes of the traced run, made right after an op as spans
/// that name the op's span as parent: Parser::Parse and
/// Connection::Prepare on the op's `sql`, then a DataTable::Scan of the
/// columns it reads.
void RunProbes(Tracer* tracer, mallard::Connection* con,
               const std::string& sql, const std::vector<TableColumns>& reads,
               int parent, uint64_t op, KindSamples* samples);

/// Layer metrics from the probes: main.query_ms (median op span),
/// main.prepare_us, parser.parse_us, planner.bind_plan_us and
/// storage.scan_mvals_per_s. With a non-empty `self_prefix` also, per
/// kind, `<self_prefix><kind>_ms` = op − prepare − scan (medians), and
/// their sum as execution.self_ms.
void ProbeLayers(const std::map<std::string, KindSamples>& kinds,
                 const std::string& self_prefix,
                 std::map<std::string, double>* layer);

/// A fixed memory-bound task, timed between a workload's operations:
/// random 8-byte updates over 32 MiB, past the per-core caches. The other
/// tenants of a shared host change how fast it reaches memory: the task's
/// speed switches between levels a third apart every few seconds, and the
/// engine slows with it. The end-to-end metrics convert each operation's
/// time to a host on which the task runs at kReferenceRate, using the
/// task's recent speed, so that a slow stretch of the host does not read
/// as a slow engine.
class HostProbe {
 public:
  /// Resident for the whole run; peak RSS leaves it out.
  static constexpr size_t kBytes = size_t{32} << 20;
  /// Million updates per second: a round figure inside the 50-90 range
  /// the task runs at on a 2-vCPU 2.0 GHz Xeon (Sapphire Rapids) VM.
  static constexpr double kReferenceRate = 60;

  HostProbe();
  /// Runs the task when 100 ms have passed since it last ran. Called from
  /// one thread.
  void MaybeRun();
  /// `ms` measured just now, converted to the reference host: scaled by
  /// the recent speed over kReferenceRate. The recent speed is the median
  /// of the last five runs, half a second, so that one run slowed by the
  /// workload's own other thread does not set it. Thread-safe.
  double ToReference(double ms) const {
    return ms * scale_.load(std::memory_order_relaxed);
  }
  /// Mean of those scale factors over the runs since the last call; a
  /// rate measured over the same time divided by it is converted. Then
  /// starts over.
  double TakeMeanScale();

 private:
  static constexpr size_t kRecent = 5;

  std::vector<uint64_t> memory_;
  uint64_t state_ = 0x9e3779b97f4a7c15ULL;
  Clock::time_point next_;
  std::vector<double> recent_;  // the last kRecent speeds, oldest first
  std::atomic<double> scale_{1.0};
  std::vector<double> scales_;
};

/// What the command line fixes for one workload process.
struct RunConfig {
  uint64_t seed = 1;
  bool smoke = false;
  std::string dir;  // scratch directory for database files
};

/// The engine configuration every workload opens with.
mallard::DBConfig PinnedConfig();

/// Result of one measured phase.
struct Phase {
  int64_t attempted = 0;
  int64_t failed = 0;
  // Latencies are in reference-host ms (HostProbe::ToReference); the rate
  // is as measured, and main() converts it with the probe's mean scale.
  double geomean_ms = 0;  // geomean over op kinds of a per-kind latency
  double tail_ms = 0;     // the workload's tail latency
  double ops_per_s = 0;   // the workload's throughput
  /// Per-layer metrics; filled only when the phase ran traced.
  std::map<std::string, double> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the workload's data from scratch, replacing any earlier
  /// state. Timed, and run several times for setup_s.
  virtual void Setup() = 0;
  /// Untimed, once after the last Setup: computes oracle references and
  /// runs the warm-up pass.
  virtual void Prepare() = 0;
  /// Measures for `seconds`, calling probe->MaybeRun() between operations;
  /// `tracer` is non-null in the traced half.
  virtual Phase Run(double seconds, Tracer* tracer, HostProbe* probe) = 0;
  /// After the last phase: end-of-run checks (and their layer metrics).
  virtual void Finish(Phase* phase) { (void)phase; }
  /// setup.* layer metrics of the last Setup.
  std::map<std::string, double> setup_layer;
};

std::unique_ptr<Workload> MakeOlapTpch(const RunConfig& config);
std::unique_ptr<Workload> MakeHostExport(const RunConfig& config);
std::unique_ptr<Workload> MakeDashboard(const RunConfig& config);
std::unique_ptr<Workload> MakeOutOfCore(const RunConfig& config);

}  // namespace mallard_bench

#endif  // MALLARD_BENCH_HARNESS_H_
