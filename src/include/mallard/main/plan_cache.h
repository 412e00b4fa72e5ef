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
 * Concurrency model: the cache map/LRU are guarded by one mutex; a hit
 * marks the entry in-use and executes it outside the lock (plans hold
 * mutable operator state, so one entry runs at most one execution at a
 * time — a second connection hitting a busy entry plans fresh,
 * uncached, and the stats record the contention). Catalog-version
 * invalidation re-plans in place on the next hit, exactly like
 * PreparedStatement::EnsureCurrentPlan.
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
  uint64_t evictions = 0;      ///< LRU evictions at capacity
  uint64_t invalidations = 0;  ///< catalog-version re-plans on hit
  uint64_t busy_skips = 0;     ///< hit a busy entry; executed uncached
  uint64_t uncacheable = 0;    ///< statements that bypassed the cache
  uint64_t entries = 0;        ///< resident entries right now
};

/// The per-Database shared plan cache. Thread-safe; entries are checked
/// out exclusively for execution (see file comment).
class SharedPlanCache {
 public:
  struct Entry {
    std::string key;
    /// Kept for catalog-version re-planning, like PreparedStatement.
    std::unique_ptr<SQLStatement> statement;
    std::shared_ptr<BoundParameterData> parameters;
    PreparedPlan plan;
    uint64_t catalog_version = 0;
    bool in_use = false;
    /// Clear()/eviction raced with a running execution: the entry left
    /// the map and dies on Release instead.
    bool orphaned = false;
    std::list<Entry*>::iterator lru_pos;
  };

  explicit SharedPlanCache(idx_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}
  ~SharedPlanCache() = default;

  SharedPlanCache(const SharedPlanCache&) = delete;
  SharedPlanCache& operator=(const SharedPlanCache&) = delete;

  /// Looks up `key`. On a hit the entry is marked in-use and returned —
  /// the caller owns it until Release. Returns null on a miss, or when
  /// the entry is busy in another connection (`*busy` = true; the
  /// caller should execute uncached rather than wait).
  Entry* Acquire(const std::string& key, bool* busy);

  /// Returns an entry taken via Acquire or Insert. `keep` = false drops
  /// it (failed executions are not worth keeping — PR 3 semantics);
  /// true re-files it as most recently used.
  void Release(Entry* entry, bool keep);

  /// Files a freshly planned entry under entry->key and returns it
  /// checked out (in-use). Evicts idle LRU entries beyond capacity. If
  /// another connection cached the same key in the meantime, the new
  /// entry replaces it only when the resident one is idle; a busy
  /// resident entry is left alone and the new entry is returned
  /// unfiled (it dies on Release).
  Entry* Insert(std::unique_ptr<Entry> entry);

  /// Empties the cache (PRAGMA plan_cache=off, tests). Busy entries are
  /// orphaned and die on Release.
  void Clear();

  idx_t size() const;
  PlanCacheStats GetStats() const;
  void RecordUncacheable();
  void RecordInvalidation();

  static constexpr idx_t kDefaultCapacity = 64;

 private:
  /// Caller holds mutex_. Detaches `entry` from map + LRU.
  std::unique_ptr<Entry> Detach(Entry* entry);

  idx_t capacity_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::unique_ptr<Entry>> entries_;
  /// Front = most recently used. Real LRU: O(1) touch via the entry's
  /// stored iterator (the PR 3 per-connection cache scanned the whole
  /// map per eviction).
  std::list<Entry*> lru_;
  /// Entries removed from the map while executing; freed on Release.
  std::vector<std::unique_ptr<Entry>> orphans_;
  PlanCacheStats stats_;
};

}  // namespace mallard

#endif  // MALLARD_MAIN_PLAN_CACHE_H_
