#ifndef MALLARD_PLANNER_PLANNER_H_
#define MALLARD_PLANNER_PLANNER_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "mallard/catalog/catalog.h"
#include "mallard/execution/physical_join.h"
#include "mallard/execution/physical_operator.h"
#include "mallard/parser/ast.h"

namespace mallard {

class ResourceGovernor;

/// A bound, optimized, executable plan plus its result schema.
struct PreparedPlan {
  std::unique_ptr<PhysicalOperator> plan;
  std::vector<std::string> names;
  std::vector<TypeId> types;
};

/// How the inner joins of a FROM clause are ordered (PRAGMA join_order).
enum class JoinOrder : uint8_t {
  /// By estimated cost: DPccp over the join graph, the smaller input as
  /// the hash build side.
  kCost,
  /// As written: left-deep in FROM order, the right input as build side.
  kSyntactic,
};

/// Settings a plan depends on besides the statement and the catalog.
struct PlannerOptions {
  JoinOrder join_order = JoinOrder::kCost;
  /// Estimate single-relation FROMs too, so that EXPLAIN shows `est=`
  /// on every scan; plain queries over one relation read no statistics.
  bool estimate_all = false;
};

/// Binder + optimizer + physical planner. Translates parsed statements
/// into physical operator trees, performing name resolution, type
/// coercion, constant folding, projection pruning into scans, zone-map
/// filter extraction, equi-join detection from WHERE and ON conjuncts,
/// cost-based join ordering from storage statistics, and governor-driven
/// hash-vs-merge join selection (paper section 4).
class Planner {
 public:
  Planner(Catalog* catalog, ResourceGovernor* governor,
          PlannerOptions options = {})
      : catalog_(catalog), governor_(governor), options_(options) {}

  /// Enables prepared-statement parameters: placeholders bind against the
  /// shared slot, recording their inferred types in it. Without this, a
  /// statement containing ? or $N fails to bind.
  void SetParameterData(std::shared_ptr<BoundParameterData> parameters) {
    parameters_ = std::move(parameters);
  }

  Result<PreparedPlan> PlanSelect(const SelectStatement& stmt);
  Result<PreparedPlan> PlanInsert(const InsertStatement& stmt);
  Result<PreparedPlan> PlanUpdate(const UpdateStatement& stmt);
  Result<PreparedPlan> PlanDelete(const DeleteStatement& stmt);
  Result<PreparedPlan> PlanCopyFrom(const CopyStatement& stmt);

  /// Plans any plannable statement (SELECT / INSERT / UPDATE / DELETE /
  /// COPY FROM) — the shared entry point of the prepare-then-execute
  /// pipeline. Returns NotImplemented for other statement types.
  Result<PreparedPlan> PlanStatement(const SQLStatement& stmt);

  /// Internal binder/planner state (public for the implementation files).
  struct Impl;

 private:
  Catalog* catalog_;
  ResourceGovernor* governor_;
  PlannerOptions options_;
  std::shared_ptr<BoundParameterData> parameters_;
};

}  // namespace mallard

#endif  // MALLARD_PLANNER_PLANNER_H_
