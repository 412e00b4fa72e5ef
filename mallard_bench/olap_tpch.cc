// olap_tpch: TPC-H through the in-tree generator, in memory, one
// connection in a closed loop. Each pass runs the eight supported queries
// in a seeded order, each with one of four seeded substitution sets drawn
// from the TPC-H spec ranges. Chosen because scan, filter, hash join and
// aggregation (run in parallel on the scheduler) do nearly all the work,
// while transfer, the WAL and spilling do none.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "harness.h"
#include "mallard/common/random.h"
#include "mallard/tpch/tpch.h"

namespace mallard_bench {
namespace {

using namespace mallard;

constexpr int kVariants = 4;

// Columns each query reads: the storage probe of the traced run scans
// exactly these.
const std::map<int, std::vector<TableColumns>> kQueryColumns = {
    {1,
     {{"lineitem",
       {"l_quantity", "l_extendedprice", "l_discount", "l_tax",
        "l_returnflag", "l_linestatus", "l_shipdate"}}}},
    {3,
     {{"customer", {"c_custkey", "c_mktsegment"}},
      {"orders", {"o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"}},
      {"lineitem",
       {"l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"}}}},
    {5,
     {{"customer", {"c_custkey", "c_nationkey"}},
      {"orders", {"o_orderkey", "o_custkey", "o_orderdate"}},
      {"lineitem",
       {"l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"}},
      {"supplier", {"s_suppkey", "s_nationkey"}},
      {"nation", {"n_nationkey", "n_name", "n_regionkey"}},
      {"region", {"r_regionkey", "r_name"}}}},
    {6,
     {{"lineitem",
       {"l_shipdate", "l_discount", "l_quantity", "l_extendedprice"}}}},
    {10,
     {{"customer",
       {"c_custkey", "c_name", "c_acctbal", "c_address", "c_phone",
        "c_comment", "c_nationkey"}},
      {"orders", {"o_orderkey", "o_custkey", "o_orderdate"}},
      {"lineitem",
       {"l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"}},
      {"nation", {"n_nationkey", "n_name"}}}},
    {12,
     {{"orders", {"o_orderkey", "o_orderpriority"}},
      {"lineitem",
       {"l_orderkey", "l_shipmode", "l_commitdate", "l_receiptdate",
        "l_shipdate"}}}},
    {14,
     {{"lineitem",
       {"l_partkey", "l_shipdate", "l_extendedprice", "l_discount"}},
      {"part", {"p_partkey", "p_type"}}}},
    {19,
     {{"lineitem",
       {"l_partkey", "l_quantity", "l_extendedprice", "l_discount",
        "l_shipmode", "l_shipinstruct"}},
      {"part", {"p_partkey", "p_brand", "p_size", "p_container"}}}},
};

// One substitution set of one query, plus the parameters the raw-scan
// oracle recomputes Q1 and Q6 from.
struct Variant {
  std::string sql;
  int q1_delta_days = 0;
  int q6_year = 0;
  int q6_discount_pct = 0;  // BETWEEN (pct-1)/100 AND (pct+1)/100
  int q6_quantity = 0;
};

void Replace(std::string* sql, const std::string& from, const std::string& to) {
  size_t pos = sql->find(from);
  if (pos == std::string::npos) {
    Fatal("TPC-H query text no longer contains '" + from + "'");
  }
  while (pos != std::string::npos) {
    sql->replace(pos, from.size(), to);
    pos = sql->find(from, pos + to.size());
  }
}

std::string Date(int year, int month, int day) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "DATE '%04d-%02d-%02d'", year, month,
                day);
  return buffer;
}

std::string Percent(int pct) {
  char buffer[16];
  std::snprintf(buffer, sizeof(buffer), "0.%02d", pct);
  return buffer;
}

Variant MakeVariant(int q, RandomEngine* rng) {
  static const char* kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                                    "MACHINERY", "HOUSEHOLD"};
  static const char* kRegions[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                                   "MIDDLE EAST"};
  static const char* kModes[] = {"REG AIR", "AIR", "RAIL", "SHIP",
                                 "TRUCK", "MAIL", "FOB"};
  auto brand = [rng] {
    return "'Brand#" + std::to_string(rng->NextInt(1, 5)) +
           std::to_string(rng->NextInt(1, 5)) + "'";
  };
  auto quantity_range = [](int lo) {
    return "l_quantity >= " + std::to_string(lo) +
           " AND l_quantity <= " + std::to_string(lo + 10);
  };
  Variant v;
  v.sql = tpch::Query(q);
  switch (q) {
    case 1:
      v.q1_delta_days = static_cast<int>(rng->NextInt(60, 120));
      Replace(&v.sql, "INTERVAL '90' DAY",
              "INTERVAL '" + std::to_string(v.q1_delta_days) + "' DAY");
      break;
    case 3:
      Replace(&v.sql, "'BUILDING'",
              std::string("'") + kSegments[rng->NextInt(0, 4)] + "'");
      Replace(&v.sql, "DATE '1995-03-15'",
              Date(1995, 3, static_cast<int>(rng->NextInt(1, 31))));
      break;
    case 5:
      Replace(&v.sql, "'ASIA'",
              std::string("'") + kRegions[rng->NextInt(0, 4)] + "'");
      Replace(&v.sql, "DATE '1994-01-01'",
              Date(static_cast<int>(rng->NextInt(1993, 1997)), 1, 1));
      break;
    case 6:
      v.q6_year = static_cast<int>(rng->NextInt(1993, 1997));
      v.q6_discount_pct = static_cast<int>(rng->NextInt(2, 9));
      v.q6_quantity = static_cast<int>(rng->NextInt(24, 25));
      Replace(&v.sql, "DATE '1994-01-01'", Date(v.q6_year, 1, 1));
      Replace(&v.sql, "BETWEEN 0.05 AND 0.07",
              "BETWEEN " + Percent(v.q6_discount_pct - 1) + " AND " +
                  Percent(v.q6_discount_pct + 1));
      Replace(&v.sql, "l_quantity < 24",
              "l_quantity < " + std::to_string(v.q6_quantity));
      break;
    case 10: {
      int month = static_cast<int>(rng->NextInt(0, 23));  // 1993-02..1995-01
      Replace(&v.sql, "DATE '1993-10-01'",
              Date(1993 + (month + 1) / 12, (month + 1) % 12 + 1, 1));
      break;
    }
    case 12: {
      int first = static_cast<int>(rng->NextInt(0, 6));
      int second = static_cast<int>(rng->NextInt(0, 5));
      if (second >= first) second++;
      Replace(&v.sql, "('MAIL', 'SHIP')",
              std::string("('") + kModes[first] + "', '" + kModes[second] +
                  "')");
      Replace(&v.sql, "DATE '1994-01-01'",
              Date(static_cast<int>(rng->NextInt(1993, 1997)), 1, 1));
      break;
    }
    case 14: {
      int month = static_cast<int>(rng->NextInt(0, 59));  // 1993-01..1997-12
      Replace(&v.sql, "DATE '1995-09-01'",
              Date(1993 + month / 12, month % 12 + 1, 1));
      break;
    }
    case 19:
      Replace(&v.sql, "'Brand#12'", brand());
      Replace(&v.sql, "'Brand#23'", brand());
      Replace(&v.sql, "'Brand#34'", brand());
      Replace(&v.sql, quantity_range(1),
              quantity_range(static_cast<int>(rng->NextInt(1, 10))));
      Replace(&v.sql, quantity_range(10),
              quantity_range(static_cast<int>(rng->NextInt(10, 20))));
      Replace(&v.sql, quantity_range(20),
              quantity_range(static_cast<int>(rng->NextInt(20, 30))));
      break;
    default:
      Fatal("unexpected TPC-H query " + std::to_string(q));
  }
  return v;
}

using Rows = std::vector<std::vector<Value>>;

Rows Materialize(const MaterializedQueryResult& result) {
  Rows rows(result.RowCount());
  for (idx_t r = 0; r < result.RowCount(); r++) {
    for (idx_t c = 0; c < result.ColumnCount(); c++) {
      rows[r].push_back(result.GetValue(c, r));
    }
  }
  return rows;
}

bool NearlyEqual(double a, double b) {
  return std::fabs(a - b) <=
         1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

// Parallel and serial plans sum doubles in different orders, so DOUBLE
// cells compare with a relative tolerance; every other cell exactly.
bool SameRows(const Rows& got, const Rows& want, std::string* why) {
  if (got.size() != want.size()) {
    *why = std::to_string(got.size()) + " rows, want " +
           std::to_string(want.size());
    return false;
  }
  for (size_t r = 0; r < got.size(); r++) {
    if (got[r].size() != want[r].size()) {
      *why = "column count differs";
      return false;
    }
    for (size_t c = 0; c < got[r].size(); c++) {
      const Value& a = got[r][c];
      const Value& b = want[r][c];
      bool same = a.is_null() == b.is_null();
      if (same && !a.is_null()) {
        same = a.type() == TypeId::kDouble && b.type() == TypeId::kDouble
                   ? NearlyEqual(a.GetDouble(), b.GetDouble())
                   : a.Compare(b) == 0;
      }
      if (!same) {
        *why = "row " + std::to_string(r) + " column " + std::to_string(c) +
               ": " + a.ToString() + ", want " + b.ToString();
        return false;
      }
    }
  }
  return true;
}

class OlapTpch final : public Workload {
 public:
  explicit OlapTpch(const RunConfig& config)
      : config_(config),
        scale_factor_(config.smoke ? 0.005 : 0.05),
        schedule_(config.seed ^ 0x51ed270b7a1f3c55ULL) {}

  void Setup() override {
    stats_.reset();
    con_.reset();
    db_.reset();
    db_ = Check(Database::Open(":memory:", PinnedConfig()), "open");
    Clock::time_point start = Clock::now();
    Check(tpch::Generate(db_.get(), scale_factor_), "tpch::Generate");
    double generate_s = MsSince(start) / 1000.0;
    double rows = 0;
    for (const std::string& name : db_->catalog().TableNames()) {
      rows += static_cast<double>(
          Check(db_->catalog().GetTable(name), name)->ApproxRowCount());
    }
    setup_layer["setup.generate_s"] = generate_s;
    setup_layer["setup.append_mrows_per_s"] = rows / generate_s / 1e6;
    setup_layer["setup.checkpoint_s"] = 0;  // in memory: nothing to persist
    con_ = std::make_unique<Connection>(db_.get());
    stats_ = std::make_unique<Connection>(db_.get());
  }

  void Prepare() override {
    RandomEngine params(config_.seed ^ 0x2545f4914f6cdd1dULL);
    for (int q : tpch::SupportedQueries()) {
      for (int v = 0; v < kVariants; v++) {
        variants_[q].push_back(MakeVariant(q, &params));
      }
    }
    // References: serial, uncached plans on their own connection.
    Connection ref(db_.get());
    Exec(&ref, "PRAGMA threads=1");
    Exec(&ref, "PRAGMA plan_cache=off");
    for (auto& [q, variants] : variants_) {
      for (const Variant& v : variants) {
        references_[q].push_back(Materialize(*Exec(&ref, v.sql)));
      }
    }
    CheckAgainstRawScan();
    // Warm-up: one pass of every query, untimed.
    for (const auto& [q, variants] : variants_) {
      if (!Verify(q, 0, con_->Query(variants[0].sql))) Fatal("warm-up failed");
    }
  }

  Phase Run(double seconds, Tracer* tracer, HostProbe* probe) override {
    Phase phase;
    std::map<std::string, KindSamples> kinds;
    std::vector<double> pass_ms;
    OpCounters op_counters(stats_.get());
    std::vector<std::string> phase_pragmas = PhasePragmas(false);
    Counters phase_before = ReadAll(stats_.get(), phase_pragmas);
    std::vector<int> order = tpch::SupportedQueries();
    uint64_t op = 0;
    Clock::time_point start = Clock::now();
    while (MsSince(start) < seconds * 1000.0) {
      for (size_t i = order.size(); i > 1; i--) {
        std::swap(order[i - 1], order[schedule_.Next() % i]);
      }
      double pass = 0;
      for (int q : order) {
        probe->MaybeRun();
        int v = static_cast<int>(schedule_.NextInt(0, kVariants - 1));
        const std::string& sql = variants_[q][static_cast<size_t>(v)].sql;
        op++;
        if (tracer) op_counters.Before();
        ScopedSpan span(tracer, "main.query", -1, op);
        auto result = con_->Query(sql);
        double ms = span.Stop();
        if (tracer) op_counters.After();
        phase.attempted++;
        if (!Verify(q, v, result)) {
          phase.failed++;
          continue;
        }
        double ref_ms = probe->ToReference(ms);
        pass += ref_ms;
        KindSamples& samples = kinds["q" + std::to_string(q)];
        samples.op_ms.push_back(ms);
        samples.ref_ms.push_back(ref_ms);
        if (tracer) {
          RunProbes(tracer, con_.get(), sql, kQueryColumns.at(q), span.id(),
                    op, &samples);
        }
      }
      pass_ms.push_back(pass);
    }
    double elapsed_s = MsSince(start) / 1000.0;
    phase.geomean_ms = GeomeanOfLowerQuartiles(kinds);
    phase.tail_ms = Quantile(pass_ms, 0.9);
    phase.ops_per_s =
        static_cast<double>(phase.attempted - phase.failed) / elapsed_s;
    if (tracer == nullptr) return phase;

    ProbeLayers(kinds, "execution.", &phase.layer);
    CounterLayers(op_counters.total(), static_cast<double>(phase.attempted),
                  Delta(ReadAll(stats_.get(), phase_pragmas), phase_before),
                  ReadAll(stats_.get(), kOpPragmas), &phase.layer);
    return phase;
  }

 private:
  // Checks one query variant's result against the reference. False when
  // the engine returned an error (a failed op, not a wrong result).
  bool Verify(int q, int v,
              const Result<std::unique_ptr<MaterializedQueryResult>>& result) {
    if (!result.ok()) {
      std::fprintf(stderr, "Q%d failed: %s\n", q,
                   result.status().ToString().c_str());
      return false;
    }
    std::string why;
    if (!SameRows(Materialize(**result),
                  references_[q][static_cast<size_t>(v)], &why)) {
      WrongResult("TPC-H Q" + std::to_string(q) + " variant " +
                  std::to_string(v) + ": " + why);
    }
    return true;
  }

  // Recomputes Q1's group counts and Q6's revenue from a raw scan of
  // lineitem and checks the references against them.
  void CheckAgainstRawScan() {
    DataTable* lineitem = Check(db_->catalog().GetTable("lineitem"), "lineitem");
    std::vector<std::string> names = {"l_shipdate", "l_returnflag",
                                      "l_linestatus", "l_discount",
                                      "l_quantity", "l_extendedprice"};
    std::vector<idx_t> ids;
    std::vector<TypeId> types;
    for (const std::string& name : names) {
      ids.push_back(lineitem->ColumnIndex(name));
      types.push_back(lineitem->columns()[ids.back()].type);
    }
    const std::vector<Variant>& q1 = variants_[1];
    const std::vector<Variant>& q6 = variants_[6];
    std::vector<std::map<std::string, int64_t>> q1_counts(q1.size());
    std::vector<int32_t> q1_cutoff;
    for (const Variant& p : q1) {
      q1_cutoff.push_back(date::FromYMD(1998, 12, 1) - p.q1_delta_days);
    }
    struct Q6Bounds {
      int32_t from, to;
      double discount_lo, discount_hi;
      double quantity;
    };
    std::vector<Q6Bounds> q6_bounds;
    for (const Variant& p : q6) {
      q6_bounds.push_back(
          {date::FromYMD(p.q6_year, 1, 1), date::FromYMD(p.q6_year + 1, 1, 1),
           std::strtod(Percent(p.q6_discount_pct - 1).c_str(), nullptr),
           std::strtod(Percent(p.q6_discount_pct + 1).c_str(), nullptr),
           static_cast<double>(p.q6_quantity)});
    }
    std::vector<double> q6_revenue(q6.size(), 0.0);
    auto txn = db_->transactions().Begin();
    TableScanState state;
    lineitem->InitializeScan(&state, ids);
    DataChunk chunk;
    chunk.Initialize(types);
    while (lineitem->Scan(*txn, &state, &chunk)) {
      const int32_t* shipdate = chunk.column(0).data<int32_t>();
      const double* discount = chunk.column(3).data<double>();
      const double* quantity = chunk.column(4).data<double>();
      const double* price = chunk.column(5).data<double>();
      for (idx_t i = 0; i < chunk.size(); i++) {
        std::string group = chunk.column(1).StringAt(i).ToString() + "|" +
                            chunk.column(2).StringAt(i).ToString();
        for (size_t v = 0; v < q1.size(); v++) {
          if (shipdate[i] <= q1_cutoff[v]) q1_counts[v][group]++;
        }
        for (size_t v = 0; v < q6.size(); v++) {
          const Q6Bounds& b = q6_bounds[v];
          if (shipdate[i] >= b.from && shipdate[i] < b.to &&
              discount[i] >= b.discount_lo && discount[i] <= b.discount_hi &&
              quantity[i] < b.quantity) {
            q6_revenue[v] += price[i] * discount[i];
          }
        }
      }
    }
    Check(state.error, "scan lineitem");
    db_->transactions().Rollback(txn.get());
    for (size_t v = 0; v < q1.size(); v++) {
      const Rows& ref = references_[1][v];
      if (ref.size() != q1_counts[v].size()) {
        WrongResult("Q1 reference has " + std::to_string(ref.size()) +
                    " groups, raw scan " + std::to_string(q1_counts[v].size()));
      }
      for (const auto& row : ref) {
        std::string key = row[0].GetString() + "|" + row[1].GetString();
        if (row[9].GetAsBigInt() != q1_counts[v][key]) {
          WrongResult("Q1 count_order of group " + key + " differs from a raw scan");
        }
      }
    }
    for (size_t v = 0; v < q6.size(); v++) {
      double ref = references_[6][v][0][0].GetAsDouble();
      if (!NearlyEqual(ref, q6_revenue[v])) {
        WrongResult("Q6 revenue differs from a raw scan");
      }
    }
  }

  RunConfig config_;
  double scale_factor_;
  RandomEngine schedule_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Connection> con_;
  std::unique_ptr<Connection> stats_;
  std::map<int, std::vector<Variant>> variants_;
  std::map<int, std::vector<Rows>> references_;
};

}  // namespace

std::unique_ptr<Workload> MakeOlapTpch(const RunConfig& config) {
  return std::make_unique<OlapTpch>(config);
}

}  // namespace mallard_bench
