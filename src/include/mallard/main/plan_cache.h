/**
 * @file plan_cache.h
 * @brief Cross-connection shared plan cache with literal normalization.
 *
 * Connection::Query normalizes a statement's literals into parameter
 * slots (`SELECT * FROM t WHERE id=7` and `id=9` become one plan for
 * `... WHERE id=?` plus a bound value), so every connection of a
 * Database shares one bounded, properly locked plan cache — ORMs and
 * serving fleets get prepared-statement performance across sessions
 * without code changes.
 *
 * Concurrency model: the cache map/LRU are guarded by one mutex. An
 * entry is immutable once filed and handed out as a shared pointer:
 * physical plans keep no execution state and the literals travel with
 * each execution, so any number of connections run one entry at the
 * same time, outside the lock. Eviction, Clear() and replacement only
 * unfile an entry; executions still holding it finish normally and the
 * last of them frees it. A hit whose catalog version is stale re-plans
 * into a new entry that replaces the old one.
 */
#ifndef MALLARD_MAIN_PLAN_CACHE_H_
#define MALLARD_MAIN_PLAN_CACHE_H_

#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "mallard/common/value.h"
#include "mallard/expression/bound_expression.h"
#include "mallard/parser/ast.h"
#include "mallard/parser/parser.h"
#include "mallard/planner/planner.h"

namespace mallard {

/// The result of literal normalization over one SQL string.
struct NormalizedQuery {
  /// False when the statement should bypass the shared cache: explicit
  /// `?`/`$N` parameters, multiple statements, a non-DML/SELECT leading
  /// keyword, read_csv (file contents are not cacheable), or any text
  /// the lexer refuses.
  bool cacheable = false;
  /// The statement's tokens with every extracted literal swapped for a
  /// positional kParameter token (a folded unary minus dropped), so a
  /// miss parses them directly instead of lexing again.
  std::vector<Token> tokens;
  /// Cache key: the source bytes of every token, a `?` per extracted
  /// literal, one space where the source had layout, then a type tag
  /// per literal, so `id=7` and `id=7.5` (integer vs double coercion)
  /// map to distinct plans.
  std::string key;
  /// Extracted literal values, in lexical order, typed exactly as the
  /// parser would have typed them in place (int32-fitting integers are
  /// Integer, larger BigInt, floats Double, strings Varchar; a unary
  /// minus folds into the value).
  std::vector<Value> literals;
};

/// Lifts the literals out of `sql`'s tokens (Parser::Tokenize) without
/// parsing. A literal stays in place where the grammar demands a real
/// token: right after LIMIT, OFFSET, DATE, TIMESTAMP and INTERVAL, and
/// inside CAST type parameters.
NormalizedQuery NormalizeQueryText(const std::string& sql);

/// Counters exposed via PRAGMA plan_cache_stats.
struct PlanCacheStats {
  uint64_t hits = 0;           ///< normalized-key hits
  uint64_t misses = 0;         ///< key absent; a fresh plan was cached
  uint64_t evictions = 0;      ///< LRU evictions and failed executions
  uint64_t invalidations = 0;  ///< catalog-version re-plans on hit
  uint64_t uncacheable = 0;    ///< statements that bypassed the cache
  uint64_t entries = 0;        ///< resident entries right now
};

/// The per-Database shared plan cache. Thread-safe; entries are shared
/// and immutable (see file comment).
class SharedPlanCache {
 public:
  struct Entry {
    std::string key;
    /// Kept for catalog-version re-planning, like PreparedStatement;
    /// shared with the entry that replaces this one.
    std::shared_ptr<const SQLStatement> statement;
    /// Parameter slot types, pre-typed from the literals.
    std::shared_ptr<const BoundParameterData> parameters;
    PreparedPlan plan;
    uint64_t catalog_version = 0;
  };
  using EntryPtr = std::shared_ptr<const Entry>;

  explicit SharedPlanCache(idx_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}
  ~SharedPlanCache() = default;

  SharedPlanCache(const SharedPlanCache&) = delete;
  SharedPlanCache& operator=(const SharedPlanCache&) = delete;

  /// Looks up `key` and marks a hit as most recently used. Returns null
  /// on a miss.
  EntryPtr Acquire(const std::string& key);

  /// Files a freshly planned entry under its key, evicting from the LRU
  /// end beyond capacity, and returns it. If another connection filed
  /// the same key in the meantime, the resident entry stays and the new
  /// one is returned unfiled (it dies after its execution).
  EntryPtr Insert(std::unique_ptr<Entry> entry);

  /// Files `fresh` (a re-plan of `stale`) in place of `stale` if
  /// `stale` is still the entry filed under its key.
  void Replace(const EntryPtr& stale, const EntryPtr& fresh);

  /// Unfiles `entry` if it is still the entry filed under its key
  /// (failed executions are not worth keeping).
  void Drop(const EntryPtr& entry);

  /// Empties the cache (PRAGMA plan_cache=off, tests). Running
  /// executions keep their entries until they finish.
  void Clear();

  idx_t size() const;
  PlanCacheStats GetStats() const;
  void RecordUncacheable();
  void RecordInvalidation();

  static constexpr idx_t kDefaultCapacity = 64;

 private:
  struct Slot {
    EntryPtr entry;
    std::list<const Entry*>::iterator lru_pos;
  };

  /// Caller holds mutex_. Unfiles the slot at `it`, moving its entry to
  /// `*dead` so the plan is freed outside the lock.
  void Unfile(std::unordered_map<std::string, Slot>::iterator it,
              std::vector<EntryPtr>* dead);

  idx_t capacity_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Slot> entries_;
  /// Front = most recently used; O(1) touch via the slot's iterator.
  std::list<const Entry*> lru_;
  PlanCacheStats stats_;
};

}  // namespace mallard

#endif  // MALLARD_MAIN_PLAN_CACHE_H_
