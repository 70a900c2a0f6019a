/// \file index_manager.h
/// \brief Lifecycle of built grid-file indexes: CREATE INDEX, per-version
/// derivation, and the probe-side resolution the pruning layer calls.
///
/// The catalog owns index *definitions* (IndexMeta); this manager owns the
/// built structures. A built GridFileIndex is bound to one MVCC version
/// (the page list of one commit timestamp), so Resolve() produces one on
/// demand whenever a snapshot reads a version not cached yet — an old
/// snapshot probing through a freshly written relation gets an index over
/// exactly its own page list, never the newer one. A missing version is
/// derived from the newest cached version of the same index (its scales
/// kept, departed pages dropped, arrived pages posted), so a commit costs
/// index work in proportion to the pages it changed; a full build happens
/// only at CREATE INDEX and on a cold cache. A small per-index version
/// cache keeps the common case (every reader at the newest commit) free.
///
/// The manager installs itself into the StorageEngine's RelationIndexCache
/// slot, which anchors its lifetime to the database and lets DropRelation
/// invalidate built state without dfdb_storage linking this library.

#ifndef DFDB_INDEX_INDEX_MANAGER_H_
#define DFDB_INDEX_INDEX_MANAGER_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "index/grid_file.h"
#include "storage/storage_engine.h"

namespace dfdb {

class IndexManager : public RelationIndexCache {
 public:
  explicit IndexManager(StorageEngine* storage) : storage_(storage) {}

  /// Registers a grid-file index over 1–2 numeric columns (validated by
  /// Catalog::CreateIndex) and eagerly builds it in full at the current
  /// committed version.
  Status CreateIndex(const std::string& name, const std::string& relation,
                     std::vector<std::string> columns);

  /// Drops the definition and every built version.
  Status DropIndex(const std::string& name);

  /// The built index for \p meta matching the version at \p commit_ts with
  /// page list \p pages, deriving (or, on a cold cache, building) it if
  /// needed. Null when the index cannot
  /// be built (relation dropped, schema changed under the definition) —
  /// callers fall back to zone-map/full scanning.
  std::shared_ptr<const GridFileIndex> Resolve(const IndexMeta& meta,
                                               uint64_t commit_ts,
                                               const std::vector<PageId>& pages);

  void OnRelationDropped(RelationId id) override;

 private:
  /// Built versions of one index in resolution order, oldest first;
  /// capped at kVersionsCached.
  struct Entry {
    RelationId relation = kInvalidRelationId;
    std::vector<std::shared_ptr<const GridFileIndex>> versions;
  };
  static constexpr size_t kVersionsCached = 4;

  StorageEngine* storage_;
  std::mutex mu_;
  std::map<std::string, Entry, std::less<>> built_;
};

/// The database's IndexManager, installed into the StorageEngine's index
/// cache slot on first use.
IndexManager* GetIndexManager(StorageEngine* storage);

}  // namespace dfdb

#endif  // DFDB_INDEX_INDEX_MANAGER_H_
