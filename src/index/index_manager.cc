#include "index/index_manager.h"

#include <algorithm>
#include <utility>

namespace dfdb {

Status IndexManager::CreateIndex(const std::string& name,
                                 const std::string& relation,
                                 std::vector<std::string> columns) {
  IndexMeta meta;
  meta.name = name;
  meta.relation = relation;
  meta.columns = std::move(columns);
  DFDB_RETURN_IF_ERROR(storage_->catalog().CreateIndex(meta));
  // Full build at the current committed version; later snapshots at other
  // timestamps derive theirs from it in Resolve().
  Snapshot snap = storage_->CaptureSnapshot();
  auto view = snap.View(relation);
  if (view.ok()) (void)Resolve(meta, view->commit_ts, view->pages);
  return Status::OK();
}

Status IndexManager::DropIndex(const std::string& name) {
  DFDB_RETURN_IF_ERROR(storage_->catalog().DropIndex(name));
  std::lock_guard<std::mutex> lock(mu_);
  built_.erase(name);
  return Status::OK();
}

std::shared_ptr<const GridFileIndex> IndexManager::Resolve(
    const IndexMeta& meta, uint64_t commit_ts,
    const std::vector<PageId>& pages) {
  std::shared_ptr<const GridFileIndex> base;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = built_.find(meta.name);
    if (it != built_.end()) {
      for (const auto& idx : it->second.versions) {
        if (idx->built_ts() == commit_ts &&
            idx->pages_indexed() == pages.size()) {
          return idx;
        }
      }
      for (const auto& idx : it->second.versions) {
        if (base == nullptr || idx->built_ts() > base->built_ts()) base = idx;
      }
    }
  }
  // Derive from the newest cached version, or build on a cold cache,
  // outside the lock; two racing resolvers produce identical immutable
  // indexes, either may win the cache slot. A base over no pages has no
  // scales worth keeping, so the index is built afresh.
  auto rel = storage_->catalog().GetRelation(meta.relation);
  if (!rel.ok()) return nullptr;
  auto build = [&]() -> StatusOr<std::shared_ptr<const GridFileIndex>> {
    if (base != nullptr && base->pages_indexed() > 0) {
      return base->Derive(storage_->page_store(), pages, commit_ts);
    }
    std::vector<int> key_columns;
    for (const std::string& col : meta.columns) {
      DFDB_ASSIGN_OR_RETURN(int idx, rel->schema.ColumnIndex(col));
      key_columns.push_back(idx);
    }
    return GridFileIndex::Build(rel->schema, key_columns,
                                storage_->page_store(), pages, commit_ts);
  };
  auto built = build();
  if (!built.ok()) return nullptr;

  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = built_[meta.name];
  entry.relation = rel->id;
  entry.versions.push_back(*built);
  if (entry.versions.size() > kVersionsCached) {
    entry.versions.erase(entry.versions.begin());
  }
  return *built;
}

void IndexManager::OnRelationDropped(RelationId id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = built_.begin(); it != built_.end();) {
    if (it->second.relation == id) {
      it = built_.erase(it);
    } else {
      ++it;
    }
  }
}

IndexManager* GetIndexManager(StorageEngine* storage) {
  RelationIndexCache* cache = storage->GetOrCreateIndexCache(
      [storage]() { return std::make_unique<IndexManager>(storage); });
  // The slot is install-once and only this function installs, so the
  // concrete type is always IndexManager.
  return static_cast<IndexManager*>(cache);
}

}  // namespace dfdb
