#include "mallard/catalog/catalog.h"

#include "mallard/common/string_util.h"

namespace mallard {

std::string Catalog::Key(const std::string& name) {
  return StringUtil::Lower(name);
}

Status Catalog::CreateTable(const std::string& name,
                            std::vector<ColumnDefinition> columns,
                            bool if_not_exists) {
  if (columns.empty()) {
    return Status::Catalog("table '" + name + "' must have columns");
  }
  std::lock_guard<std::mutex> guard(mutex_);
  std::string key = Key(name);
  if (tables_.count(key) || views_.count(key)) {
    if (if_not_exists) return Status::OK();
    return Status::Catalog("table or view '" + name + "' already exists");
  }
  auto entry = std::make_unique<TableCatalogEntry>();
  entry->name = name;
  entry->table = std::make_unique<DataTable>(name, std::move(columns),
                                             resilience_, encoding_);
  tables_[key] = std::move(entry);
  BumpVersion();
  return Status::OK();
}

Status Catalog::DropTable(const std::string& name, bool if_exists) {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = tables_.find(Key(name));
  if (it == tables_.end()) {
    if (if_exists) return Status::OK();
    return Status::Catalog("table '" + name + "' does not exist");
  }
  tables_.erase(it);
  BumpVersion();
  return Status::OK();
}

Result<DataTable*> Catalog::GetTable(const std::string& name) const {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = tables_.find(Key(name));
  if (it == tables_.end()) {
    return Status::Catalog("table '" + name + "' does not exist");
  }
  return it->second->table.get();
}

bool Catalog::TableExists(const std::string& name) const {
  std::lock_guard<std::mutex> guard(mutex_);
  return tables_.count(Key(name)) > 0;
}

Status Catalog::CreateView(const std::string& name, const std::string& sql,
                           std::vector<std::string> column_aliases,
                           bool or_replace) {
  std::lock_guard<std::mutex> guard(mutex_);
  std::string key = Key(name);
  if (tables_.count(key)) {
    return Status::Catalog("'" + name + "' already exists as a table");
  }
  if (views_.count(key) && !or_replace) {
    return Status::Catalog("view '" + name + "' already exists");
  }
  auto entry = std::make_unique<ViewCatalogEntry>();
  entry->name = name;
  entry->sql = sql;
  entry->column_aliases = std::move(column_aliases);
  views_[key] = std::move(entry);
  BumpVersion();
  return Status::OK();
}

Status Catalog::DropView(const std::string& name, bool if_exists) {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = views_.find(Key(name));
  if (it == views_.end()) {
    if (if_exists) return Status::OK();
    return Status::Catalog("view '" + name + "' does not exist");
  }
  views_.erase(it);
  BumpVersion();
  return Status::OK();
}

Result<const ViewCatalogEntry*> Catalog::GetView(
    const std::string& name) const {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = views_.find(Key(name));
  if (it == views_.end()) {
    return Status::Catalog("view '" + name + "' does not exist");
  }
  return static_cast<const ViewCatalogEntry*>(it->second.get());
}

bool Catalog::ViewExists(const std::string& name) const {
  std::lock_guard<std::mutex> guard(mutex_);
  return views_.count(Key(name)) > 0;
}

std::vector<std::string> Catalog::TableNames() const {
  std::lock_guard<std::mutex> guard(mutex_);
  std::vector<std::string> names;
  for (const auto& [key, entry] : tables_) names.push_back(entry->name);
  return names;
}

std::vector<std::string> Catalog::ViewNames() const {
  std::lock_guard<std::mutex> guard(mutex_);
  std::vector<std::string> names;
  for (const auto& [key, entry] : views_) names.push_back(entry->name);
  return names;
}

}  // namespace mallard
