/// \file heap_file.h
/// \brief Heap files: base-relation tuple storage over the PageStore.

#ifndef DFDB_STORAGE_HEAP_FILE_H_
#define DFDB_STORAGE_HEAP_FILE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/macros.h"
#include "index/zone_map.h"
#include "storage/page.h"
#include "storage/page_store.h"
#include "storage/snapshot.h"
#include "storage/tuple.h"

namespace dfdb {

/// \brief One committed version of a heap file: the page-id list and tuple
/// count visible to snapshots captured at or after \c commit_ts (until a
/// newer version supersedes it).
struct HeapFileVersion {
  uint64_t commit_ts = 0;
  std::vector<PageId> pages;
  uint64_t tuple_count = 0;
};

/// \brief What one DeleteWhere did, page by page.
struct DeleteStats {
  /// Pages loaded and tested against the predicate (pages the page filter
  /// passed through are not read).
  uint64_t pages_read = 0;
  /// Payload bytes of the pages read.
  uint64_t bytes_read = 0;
  /// Pages of the head that held a victim and were replaced.
  uint64_t pages_rewritten = 0;
};

/// \brief Append-oriented tuple storage for one relation, with MVCC page
/// versions.
///
/// Tuples accumulate in an open page; when it fills it is sealed into the
/// PageStore and recorded. Delete is page-local: only pages holding a
/// victim are rewritten, so a delete's cost follows the pages it touches
/// (the paper's page-granularity argument applied to the `delete`
/// query-tree operator).
///
/// Versioning: mutations (Append*, DeleteWhere) act on a mutable working
/// head. Commit(ts) freezes the head as a new immutable version; ViewAt(ts)
/// resolves a snapshot timestamp to the newest version at or before it.
/// Sealed pages are immutable, so a version is just a page-id list —
/// DeleteWhere's rewrite of the affected pages is the copy-on-write step:
/// pages without a victim keep their ids and are shared by both versions,
/// and pages of the previous version that leave the head are *retired*
/// (queued for version GC) rather than freed, because older snapshots may
/// still read them. GcUpTo(min_live_ts) frees retired pages no live
/// snapshot can see. Uncommitted pages that never made it into a version
/// are freed eagerly, which preserves the historical storage footprint for
/// files that never commit (e.g. standalone use in tests).
class HeapFile {
 public:
  HeapFile(RelationId relation, Schema schema, int page_bytes,
           PageStore* store, MvccCounters* mvcc = nullptr);
  DFDB_DISALLOW_COPY(HeapFile);

  RelationId relation() const { return relation_; }
  const Schema& schema() const { return schema_; }
  int page_bytes() const { return page_bytes_; }

  /// Appends one row of Values.
  Status Append(const std::vector<Value>& values);

  /// Appends a pre-encoded tuple (must match the schema width).
  Status AppendEncoded(Slice tuple);

  /// Appends every tuple of \p page (the query-tree `append` operator).
  Status AppendPage(const Page& page);

  /// Seals the open page (if non-empty) so scans see all data.
  Status Flush();

  /// Ids of all sealed pages of the working head, in order.
  std::vector<PageId> PageIds() const;

  uint64_t tuple_count() const;
  uint64_t page_count() const;

  /// May a page with this zone map hold a tuple the delete predicate
  /// matches? False lets DeleteWhere pass the page through unread.
  using PageFilter = std::function<bool(const ZoneMapEntry&)>;

  /// Removes tuples matching \p pred (exact byte equality against an
  /// encoded tuple is handled by the caller providing the predicate) and
  /// returns the number removed. Pages without a victim keep their ids;
  /// each run of consecutive pages holding victims is replaced by its
  /// survivors packed into fresh pages, so a delete never yields more pages
  /// than it replaced and tuple order is preserved. Replaced pages that
  /// belong to the committed version are retired for GC, the rest are
  /// freed immediately. With \p may_match, pages whose zone map it rejects
  /// are kept without being read; it must be conservative for \p pred.
  /// \p stats (optional) receives the page work done.
  StatusOr<uint64_t> DeleteWhere(
      const std::function<bool(const TupleView&)>& pred,
      const PageFilter& may_match = nullptr, DeleteStats* stats = nullptr);

  // --- MVCC: committed versions, snapshot views, version GC ---

  /// True when the working head holds mutations not yet committed
  /// (including tuples buffered in the open page).
  bool dirty() const;

  /// Seals the open page and installs the working head as the committed
  /// version at \p commit_ts (must be monotone per file; the StorageEngine
  /// assigns timestamps from one clock). Pages of the previous version
  /// that left the head are retired at \p commit_ts. No-op when clean.
  Status Commit(uint64_t commit_ts);

  /// The newest committed version with commit_ts <= \p ts. Every file has
  /// an empty base version at ts 0, so this always resolves.
  HeapFileVersion ViewAt(uint64_t ts) const;

  /// Discards uncommitted head mutations: pages not in the committed
  /// version are freed and the head is restored to the newest version.
  Status RollbackToCommitted();

  /// Frees retired pages invisible to every snapshot at or after
  /// \p min_live_ts and prunes superseded version records. Returns the
  /// number of pages freed.
  uint64_t GcUpTo(uint64_t min_live_ts);

  /// Committed version records currently held (>= 1: the base version).
  uint64_t version_count() const;

  /// Timestamp of the newest committed version (0 = only the base).
  uint64_t last_commit_ts() const;

  /// Every page id referenced by the head, any committed version, or the
  /// retired-page list (used when dropping the relation).
  std::vector<PageId> AllPageIds() const;

  /// Zone maps of this file's sealed pages. Entries are keyed by PageId and
  /// sealed pages are immutable, so a map is valid for every MVCC version
  /// and snapshot that can still see its page; entries die when the page is
  /// freed (eager free, rollback, or version GC).
  const ZoneMapStore& zone_maps() const { return zone_maps_; }

 private:
  Status SealCurrentLocked();

  /// Seals \p page into the store, builds its zone map, and returns its id.
  /// The single choke point for both seal sites (open-page seal and
  /// DeleteWhere's CoW rewrite) so no sealed page can miss its map.
  PageId SealIntoStoreLocked(Page&& page);

  const RelationId relation_;
  const Schema schema_;
  const int page_bytes_;
  PageStore* store_;
  MvccCounters* mvcc_;  // Nullable (standalone files count nothing).

  mutable std::mutex mu_;
  std::vector<PageId> pages_;
  std::unique_ptr<Page> current_;
  uint64_t tuple_count_ = 0;

  /// Committed versions ordered by commit_ts; front is the oldest a live
  /// snapshot may still need, back is the newest.
  std::vector<HeapFileVersion> versions_;
  /// Pages of versions_.back() (set view, for commit diffs and rollback).
  std::set<PageId> committed_live_;
  /// Retired pages: (retire_ts, page). A page retired at commit T is
  /// visible to snapshots with ts < T and freeable once min_live_ts >= T.
  std::vector<std::pair<uint64_t, PageId>> garbage_;
  bool dirty_ = false;
  ZoneMapStore zone_maps_;
};

}  // namespace dfdb

#endif  // DFDB_STORAGE_HEAP_FILE_H_
