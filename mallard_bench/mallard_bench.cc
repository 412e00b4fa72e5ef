// mallard_bench: the repository's end-to-end benchmark. One process runs
// one workload through the public API (Database, Connection,
// PreparedStatement, StreamingQueryResult, Appender, DataTable::Scan and
// the C ABI), checks every result against an oracle, and prints its
// metrics. The last line of standard output is one JSON object:
//   {"correct": true, "attempted": N, "failed": N, "metrics": {...}}
// holding the end-to-end metrics, or with --trace 1 the per-layer ones.
//
//   mallard_bench --workload olap_tpch --seed 1 --seconds 15 --trace 0
//                 --dir <scratch dir> [--trace-file t.json] [--out r.json]
//                 [--smoke]
//
// Exit codes: 0 ok, 1 engine or usage error, 3 wrong result.
// mallard_bench/run.py builds this binary and is the usual entry point.

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

using namespace mallard_bench;

namespace {

struct Metric {
  const char* name;
  const char* unit;
};

// Times and rates are converted to the reference host (HostProbe).
const Metric kEndToEnd[] = {
    {"setup_s", "s"},         {"peak_rss_mb", "MB"},
    {"geomean_ref_ms", "ms"}, {"tail_ref_ms", "ms"},
    {"ops_ref_per_s", "1/s"},
};

// Every traced run prints all of these; a metric that does not apply to
// the workload reads 0.
const Metric kPerLayer[] = {
    {"main.query_ms", "ms"},
    {"main.prepare_us", "us"},
    {"parser.parse_us", "us"},
    {"planner.bind_plan_us", "us"},
    {"main.plan_cache_hit_ratio", "ratio"},
    {"main.plan_cache_busy_skips", "count"},
    {"main.fetch_ms", "ms"},
    {"main.first_chunk_ms", "ms"},
    {"main.chunk_mvals_per_s", "Mvalues/s"},
    {"main.capi_mvals_per_s", "Mvalues/s"},
    {"main.capi_value_ns", "ns"},
    {"storage.scan_mvals_per_s", "Mvalues/s"},
    {"storage.decodes_per_op", "count"},
    {"storage.filter_windows_per_op", "count"},
    {"storage.encoded_ratio", "ratio"},
    {"execution.self_ms", "ms"},
    {"execution.q1_ms", "ms"},
    {"execution.q3_ms", "ms"},
    {"execution.q5_ms", "ms"},
    {"execution.q6_ms", "ms"},
    {"execution.q10_ms", "ms"},
    {"execution.q12_ms", "ms"},
    {"execution.q14_ms", "ms"},
    {"execution.q19_ms", "ms"},
    {"execution.ooc_join_ms", "ms"},
    {"execution.ooc_agg_ms", "ms"},
    {"execution.ooc_sort_ms", "ms"},
    {"execution.ooc_agg_varchar_ms", "ms"},
    {"storage.spilled_bytes_per_op", "bytes"},
    {"storage.ooc_join_spilled_bytes", "bytes"},
    {"storage.ooc_agg_spilled_bytes", "bytes"},
    {"storage.ooc_sort_spilled_bytes", "bytes"},
    {"storage.ooc_agg_varchar_spilled_bytes", "bytes"},
    {"storage.spill_count_per_op", "count"},
    {"storage.unspill_count_per_op", "count"},
    {"storage.eviction_count_per_op", "count"},
    {"storage.spill_saved_bytes_per_op", "bytes"},
    {"storage.buffer_peak_bytes", "bytes"},
    {"storage.wal_commits", "count"},
    {"storage.wal_fsyncs", "count"},
    {"storage.commits_per_fsync", "ratio"},
    {"storage.wal_bytes_per_user_byte", "ratio"},
    {"storage.checkpoint_ms_p50", "ms"},
    {"storage.checkpoint_ms_max", "ms"},
    {"storage.checkpoint_count", "count"},
    {"storage.write_amp", "ratio"},
    {"storage.space_amp", "ratio"},
    {"storage.reopen_ms", "ms"},
    {"transaction.commit_ms_p50", "ms"},
    {"transaction.commit_ms_p99", "ms"},
    {"parallel.tasks_per_op", "count"},
    {"parallel.runs_per_op", "count"},
    {"parallel.tasks_per_run", "count"},
    {"governor.admission_queued", "count"},
    {"governor.admission_shed", "count"},
    {"governor.admission_timeouts", "count"},
    {"resilience.io_attempts", "count"},
    {"resilience.io_retries", "count"},
    {"resilience.checksum_failures", "count"},
    {"loadgen.read_p50_ms", "ms"},
    {"loadgen.read_p99_ms", "ms"},
    {"loadgen.write_p50_ms", "ms"},
    {"loadgen.write_p99_ms", "ms"},
    {"loadgen.lateness_max_ms", "ms"},
    {"setup.generate_s", "s"},
    {"setup.append_mrows_per_s", "Mrows/s"},
    {"setup.checkpoint_s", "s"},
    {"setup.rss_mb", "MB"},
    {"trace.overhead_pct", "%"},
};

const char* kForbiddenEnv[] = {"MALLARD_THREADS", "MALLARD_MEMORY_LIMIT",
                               "MALLARD_FORCE_ENCODING", "MALLARD_MEMTEST"};

// A "VmRSS:" or "VmHWM:" line of /proc/self/status, in MB.
double StatusMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::strtod(line.c_str() + field.size(), nullptr) / 1024.0;
    }
  }
  Fatal("no " + field + " in /proc/self/status");
}

// Hands freed heap back to the system and restarts the high-water mark
// (VmHWM) at the current RSS, so that peak_rss_mb covers the measured
// phase and not the set-ups before it. Returns that RSS in MB.
double RestartPeakRss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.close();
  if (!clear_refs) Fatal("cannot reset VmHWM through /proc/self/clear_refs");
  return StatusMb("VmRSS:");
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 25;
  bool trace = false;
  bool smoke = false;
  std::string dir;
  std::string trace_file;
  std::string out_file;
};

Options ParseOptions(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Fatal("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value() != "0";
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--dir") {
      options.dir = value();
    } else if (arg == "--trace-file") {
      options.trace_file = value();
    } else if (arg == "--out") {
      options.out_file = value();
    } else {
      Fatal("unknown argument " + arg);
    }
  }
  if (options.dir.empty()) Fatal("--dir is required");
  if (!(options.seconds > 0)) Fatal("--seconds must be > 0");
  return options;
}

std::string Number(double value) {
  if (!std::isfinite(value)) value = 0;
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  Options options = ParseOptions(argc, argv);
  for (const char* name : kForbiddenEnv) {
    if (std::getenv(name) != nullptr) {
      Fatal(std::string(name) +
            " is set; the benchmark pins the engine configuration itself");
    }
  }
  RunConfig config;
  config.seed = options.seed;
  config.smoke = options.smoke;
  config.dir = options.dir;
  std::unique_ptr<Workload> workload;
  if (options.workload == "olap_tpch") {
    workload = MakeOlapTpch(config);
  } else if (options.workload == "host_export") {
    workload = MakeHostExport(config);
  } else if (options.workload == "dashboard") {
    workload = MakeDashboard(config);
  } else if (options.workload == "out_of_core") {
    workload = MakeOutOfCore(config);
  } else {
    Fatal("unknown workload '" + options.workload + "'");
  }

  // Set-up is repeated and its median reported, so one slow repetition
  // does not decide setup_s.
  const int kSetups = 3;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; i++) {
    Clock::time_point start = Clock::now();
    workload->Setup();
    setup_s.push_back(MsSince(start) / 1000.0);
  }
  workload->Prepare();
  // Resident before the high-water mark restarts, so both RSS readings
  // hold its pages and subtracting them is exact.
  HostProbe probe;
  const double probe_mb = HostProbe::kBytes / 1048576.0;
  const double phase_start_rss_mb = RestartPeakRss() - probe_mb;

  std::unique_ptr<Tracer> tracer;
  Phase phase;
  double host_scale = 1;
  if (!options.trace) {
    phase = workload->Run(options.seconds, nullptr, &probe);
    host_scale = probe.TakeMeanScale();
  } else {
    // Half untraced, half traced: the difference is the tracing overhead.
    Phase untraced = workload->Run(options.seconds / 2, nullptr, &probe);
    (void)probe.TakeMeanScale();
    tracer = std::make_unique<Tracer>();
    phase = workload->Run(options.seconds / 2, tracer.get(), &probe);
    host_scale = probe.TakeMeanScale();
    phase.attempted += untraced.attempted;
    phase.failed += untraced.failed;
    phase.layer["trace.overhead_pct"] =
        (phase.geomean_ms / untraced.geomean_ms - 1.0) * 100.0;
  }
  const double probe_rate = host_scale * HostProbe::kReferenceRate;
  const double peak_rss_mb = StatusMb("VmHWM:") - probe_mb;
  workload->Finish(&phase);

  std::vector<std::pair<const Metric*, double>> metrics;
  if (!options.trace) {
    std::map<std::string, double> values = {
        {"setup_s", Median(setup_s)},
        {"peak_rss_mb", peak_rss_mb},
        {"geomean_ref_ms", phase.geomean_ms},
        {"tail_ref_ms", phase.tail_ms},
        {"ops_ref_per_s", phase.ops_per_s / host_scale}};
    for (const Metric& m : kEndToEnd) metrics.push_back({&m, values.at(m.name)});
  } else {
    std::map<std::string, double> values = phase.layer;
    for (const auto& [name, value] : workload->setup_layer) values[name] = value;
    values["setup.rss_mb"] = phase_start_rss_mb;
    for (const Metric& m : kPerLayer) {
      auto it = values.find(m.name);
      metrics.push_back({&m, it == values.end() ? 0.0 : it->second});
      if (it != values.end()) values.erase(it);
    }
    if (!values.empty()) Fatal("layer metric not declared: " + values.begin()->first);
    std::printf("--- spans of the traced half ---\n");
    tracer->PrintSummary(stdout);
    if (!options.trace_file.empty() &&
        !tracer->WriteChromeTrace(options.trace_file)) {
      Fatal("cannot write " + options.trace_file);
    }
  }

  std::printf(
      "--- %s seed=%llu seconds=%s nproc=%u setups=%d "
      "phase_start_rss_mb=%.1f probe_mups=%.1f%s ---\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      Number(options.seconds).c_str(), std::thread::hardware_concurrency(),
      kSetups, phase_start_rss_mb, probe_rate, options.smoke ? " smoke" : "");
  std::string json_metrics;
  for (const auto& [metric, value] : metrics) {
    std::printf("%-40s %18.6f %s\n", metric->name, value, metric->unit);
    if (!json_metrics.empty()) json_metrics += ", ";
    json_metrics += std::string("\"") + metric->name + "\": {\"value\": " +
                    Number(value) + ", \"unit\": \"" + metric->unit + "\"}";
  }
  std::string result = "{\"correct\": true, \"attempted\": " +
                       std::to_string(phase.attempted) +
                       ", \"failed\": " + std::to_string(phase.failed) +
                       ", \"metrics\": {" + json_metrics + "}}";
  if (!options.out_file.empty()) {
    std::FILE* out = std::fopen(options.out_file.c_str(), "w");
    if (out == nullptr) Fatal("cannot write " + options.out_file);
    std::string setups;
    for (double s : setup_s) setups += (setups.empty() ? "" : ", ") + Number(s);
    std::fprintf(out,
                 "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
                 "\"trace\": %d, \"smoke\": %d, \"nproc\": %u, "
                 "\"setup_runs_s\": [%s], \"phase_start_rss_mb\": %s, "
                 "\"probe_mups\": %s, \"result\": %s}\n",
                 options.workload.c_str(),
                 static_cast<unsigned long long>(options.seed),
                 Number(options.seconds).c_str(), options.trace ? 1 : 0,
                 options.smoke ? 1 : 0, std::thread::hardware_concurrency(),
                 setups.c_str(), Number(phase_start_rss_mb).c_str(),
                 Number(probe_rate).c_str(), result.c_str());
    std::fclose(out);
  }
  std::printf("%s\n", result.c_str());
  return 0;
}
