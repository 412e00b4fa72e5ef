#ifndef MALLARD_CATALOG_CATALOG_H_
#define MALLARD_CATALOG_CATALOG_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mallard/catalog/column_definition.h"
#include "mallard/common/result.h"
#include "mallard/storage/table/data_table.h"

namespace mallard {

/// A named table: schema plus physical storage.
struct TableCatalogEntry {
  std::string name;
  std::unique_ptr<DataTable> table;
};

/// A named view: stored SQL text, expanded at bind time.
struct ViewCatalogEntry {
  std::string name;
  std::string sql;
  std::vector<std::string> column_aliases;
};

/// The database catalog: tables and views by (case-insensitive) name.
/// DDL is autocommitted and serialized by the catalog lock (documented
/// simplification relative to versioned catalogs).
class Catalog {
 public:
  /// Every table created here counts into `resilience` and `encoding`,
  /// the counters of the Database that owns this catalog.
  Catalog(ResilienceStats* resilience, EncodingCounters* encoding)
      : resilience_(resilience), encoding_(encoding) {}

  Status CreateTable(const std::string& name,
                     std::vector<ColumnDefinition> columns,
                     bool if_not_exists = false);
  Status DropTable(const std::string& name, bool if_exists = false);
  Result<DataTable*> GetTable(const std::string& name) const;
  bool TableExists(const std::string& name) const;

  Status CreateView(const std::string& name, const std::string& sql,
                    std::vector<std::string> column_aliases,
                    bool or_replace = false);
  Status DropView(const std::string& name, bool if_exists = false);
  Result<const ViewCatalogEntry*> GetView(const std::string& name) const;
  bool ViewExists(const std::string& name) const;

  std::vector<std::string> TableNames() const;
  std::vector<std::string> ViewNames() const;

  /// Monotonic counter bumped by every successful DDL change. Prepared
  /// statements record it at plan time and re-plan when it moves, so a
  /// cached plan never dereferences a dropped table.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  /// Runs `fn` over every table (checkpoint, GC).
  template <typename Fn>
  void ForEachTable(Fn fn) const {
    std::lock_guard<std::mutex> guard(mutex_);
    for (const auto& [name, entry] : tables_) {
      fn(entry->table.get());
    }
  }

 private:
  static std::string Key(const std::string& name);

  void BumpVersion() { version_.fetch_add(1, std::memory_order_release); }

  ResilienceStats* resilience_;
  EncodingCounters* encoding_;
  std::atomic<uint64_t> version_{0};
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<TableCatalogEntry>> tables_;
  std::map<std::string, std::unique_ptr<ViewCatalogEntry>> views_;
};

}  // namespace mallard

#endif  // MALLARD_CATALOG_CATALOG_H_
