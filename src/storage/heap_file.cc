#include "storage/heap_file.h"

#include <algorithm>

#include "common/logging.h"
#include "common/macros.h"

namespace dfdb {

HeapFile::HeapFile(RelationId relation, Schema schema, int page_bytes,
                   PageStore* store, MvccCounters* mvcc)
    : relation_(relation),
      schema_(std::move(schema)),
      page_bytes_(page_bytes),
      store_(store),
      mvcc_(mvcc) {
  DFDB_CHECK(store != nullptr);
  DFDB_CHECK(page_bytes_ >= schema_.tuple_width())
      << "page size " << page_bytes_ << " below tuple width "
      << schema_.tuple_width();
  // The base version: every snapshot resolves, even one captured before
  // the first commit.
  versions_.push_back(HeapFileVersion{0, {}, 0});
}

Status HeapFile::Append(const std::vector<Value>& values) {
  auto encoded = EncodeTuple(schema_, values);
  if (!encoded.ok()) return encoded.status();
  return AppendEncoded(Slice(*encoded));
}

Status HeapFile::AppendEncoded(Slice tuple) {
  std::lock_guard<std::mutex> lock(mu_);
  if (current_ == nullptr) {
    auto page = Page::Create(relation_, schema_.tuple_width(), page_bytes_);
    if (!page.ok()) return page.status();
    current_ = std::make_unique<Page>(*std::move(page));
  }
  DFDB_RETURN_IF_ERROR(current_->Append(tuple));
  ++tuple_count_;
  dirty_ = true;
  if (current_->full()) {
    DFDB_RETURN_IF_ERROR(SealCurrentLocked());
  }
  return Status::OK();
}

Status HeapFile::AppendPage(const Page& page) {
  if (page.tuple_width() != schema_.tuple_width()) {
    return Status::InvalidArgument("page tuple width does not match relation");
  }
  for (int i = 0; i < page.num_tuples(); ++i) {
    DFDB_RETURN_IF_ERROR(AppendEncoded(page.tuple(i)));
  }
  return Status::OK();
}

Status HeapFile::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (current_ != nullptr && !current_->empty()) {
    return SealCurrentLocked();
  }
  return Status::OK();
}

Status HeapFile::SealCurrentLocked() {
  pages_.push_back(SealIntoStoreLocked(std::move(*current_)));
  current_.reset();
  return Status::OK();
}

PageId HeapFile::SealIntoStoreLocked(Page&& page) {
  ZoneMapEntry entry = BuildZoneMap(schema_, page);
  PagePtr sealed = SealPage(std::move(page));
#ifdef DFDB_SANITIZE
  DFDB_CHECK(ZoneMapBrackets(entry, schema_, *sealed))
      << "zone map of freshly sealed page does not bracket its tuples "
         "(relation " << relation_ << ")";
#endif
  const PageId id = store_->Put(std::move(sealed));
  zone_maps_.Put(id, std::move(entry));
  return id;
}

std::vector<PageId> HeapFile::PageIds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pages_;
}

uint64_t HeapFile::tuple_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tuple_count_;
}

uint64_t HeapFile::page_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pages_.size() + ((current_ && !current_->empty()) ? 1 : 0);
}

StatusOr<uint64_t> HeapFile::DeleteWhere(
    const std::function<bool(const TupleView&)>& pred,
    const PageFilter& may_match, DeleteStats* stats) {
  std::lock_guard<std::mutex> lock(mu_);
  if (current_ != nullptr && !current_->empty()) {
    DFDB_RETURN_IF_ERROR(SealCurrentLocked());
  }
  DeleteStats local;
  uint64_t removed = 0;
  std::vector<PageId> new_pages;
  new_pages.reserve(pages_.size());
  // Survivors of the current run of affected pages, packed in order.
  std::unique_ptr<Page> out;
  auto flush_out = [&]() {
    if (out != nullptr && !out->empty()) {
      new_pages.push_back(SealIntoStoreLocked(std::move(*out)));
      if (mvcc_ != nullptr) {
        mvcc_->pages_copied.fetch_add(1, std::memory_order_relaxed);
      }
    }
    out.reset();
  };
  // A kept page ends the current run: its partly filled survivor page is
  // sealed first so tuple order is preserved.
  auto keep = [&](PageId id) {
    flush_out();
    new_pages.push_back(id);
  };
  std::vector<char> victim;
  for (PageId id : pages_) {
    if (may_match != nullptr) {
      auto entry = zone_maps_.Get(id);
      if (entry != nullptr && !may_match(*entry)) {
        keep(id);
        continue;
      }
    }
    auto page = store_->Get(id);
    if (!page.ok()) return page.status();
    const Page& in = **page;
    ++local.pages_read;
    local.bytes_read += static_cast<uint64_t>(in.payload_bytes());
    victim.assign(static_cast<size_t>(in.num_tuples()), 0);
    uint64_t victims = 0;
    for (int i = 0; i < in.num_tuples(); ++i) {
      if (pred(TupleView(&schema_, in.tuple(i)))) {
        victim[static_cast<size_t>(i)] = 1;
        ++victims;
      }
    }
    if (victims == 0) {
      keep(id);
      continue;
    }
    removed += victims;
    ++local.pages_rewritten;
    for (int i = 0; i < in.num_tuples(); ++i) {
      if (victim[static_cast<size_t>(i)]) continue;
      if (out == nullptr) {
        auto np = Page::Create(relation_, schema_.tuple_width(), page_bytes_);
        if (!np.ok()) return np.status();
        out = std::make_unique<Page>(*std::move(np));
      }
      DFDB_RETURN_IF_ERROR(out->Append(in.tuple(i)));
      if (out->full()) flush_out();
    }
    // Copy-on-write: a replaced page that belongs to the committed version
    // must stay readable for older snapshots — the commit diff retires it.
    // A page only the uncommitted head referenced is freed right away.
    if (committed_live_.count(id) == 0) {
      DFDB_RETURN_IF_ERROR(store_->Free(id));
      zone_maps_.Erase(id);
    }
  }
  flush_out();
  pages_ = std::move(new_pages);
  tuple_count_ -= removed;
  dirty_ = true;
  if (stats != nullptr) *stats = local;
  return removed;
}

bool HeapFile::dirty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dirty_;
}

Status HeapFile::Commit(uint64_t commit_ts) {
  std::lock_guard<std::mutex> lock(mu_);
  if (current_ != nullptr && !current_->empty()) {
    DFDB_RETURN_IF_ERROR(SealCurrentLocked());
  }
  if (!dirty_) return Status::OK();
  DFDB_CHECK(versions_.empty() || commit_ts > versions_.back().commit_ts)
      << "commit timestamps must be monotone per relation";
  // Committed pages that left the head (DeleteWhere compaction) retire at
  // this commit: snapshots below commit_ts may still read them.
  std::set<PageId> head(pages_.begin(), pages_.end());
  for (PageId id : committed_live_) {
    if (head.count(id) == 0) garbage_.emplace_back(commit_ts, id);
  }
  committed_live_ = std::move(head);
  versions_.push_back(HeapFileVersion{commit_ts, pages_, tuple_count_});
  dirty_ = false;
  if (mvcc_ != nullptr) mvcc_->commits.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

HeapFileVersion HeapFile::ViewAt(uint64_t ts) const {
  std::lock_guard<std::mutex> lock(mu_);
  // versions_ is ordered by commit_ts and starts at the ts-0 base version,
  // so the newest version at or before ts always exists.
  const HeapFileVersion* best = &versions_.front();
  for (const HeapFileVersion& v : versions_) {
    if (v.commit_ts > ts) break;
    best = &v;
  }
  return *best;
}

Status HeapFile::RollbackToCommitted() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!dirty_ && (current_ == nullptr || current_->empty())) {
    return Status::OK();
  }
  current_.reset();
  for (PageId id : pages_) {
    // Uncommitted pages die with the rollback; committed pages that the
    // aborted mutation dropped from the head were never freed, so
    // restoring the committed page list below resurrects them intact.
    if (committed_live_.count(id) == 0) {
      (void)store_->Free(id);
      zone_maps_.Erase(id);
    }
  }
  const HeapFileVersion& latest = versions_.back();
  pages_ = latest.pages;
  tuple_count_ = latest.tuple_count;
  dirty_ = false;
  return Status::OK();
}

uint64_t HeapFile::GcUpTo(uint64_t min_live_ts) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t freed = 0;
  std::vector<std::pair<uint64_t, PageId>> keep;
  keep.reserve(garbage_.size());
  for (const auto& [retire_ts, id] : garbage_) {
    // Retired at T => visible only to snapshots with ts < T. A snapshot at
    // exactly min_live_ts already reads the successor version, so
    // retire_ts <= min_live_ts is free-able.
    if (retire_ts <= min_live_ts) {
      if (store_->Free(id).ok()) ++freed;
      zone_maps_.Erase(id);
    } else {
      keep.emplace_back(retire_ts, id);
    }
  }
  garbage_ = std::move(keep);
  // Prune version records no snapshot can resolve to any more: keep the
  // newest version at or before min_live_ts plus everything after it.
  size_t keep_from = 0;
  for (size_t i = 0; i < versions_.size(); ++i) {
    if (versions_[i].commit_ts > min_live_ts) break;
    keep_from = i;
  }
  if (keep_from > 0) {
    versions_.erase(versions_.begin(),
                    versions_.begin() + static_cast<long>(keep_from));
  }
  if (freed > 0 && mvcc_ != nullptr) {
    mvcc_->gc_reclaimed.fetch_add(freed, std::memory_order_relaxed);
  }
  return freed;
}

uint64_t HeapFile::version_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return versions_.size();
}

uint64_t HeapFile::last_commit_ts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return versions_.back().commit_ts;
}

std::vector<PageId> HeapFile::AllPageIds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::set<PageId> all(pages_.begin(), pages_.end());
  for (const HeapFileVersion& v : versions_) {
    all.insert(v.pages.begin(), v.pages.end());
  }
  for (const auto& [retire_ts, id] : garbage_) all.insert(id);
  return std::vector<PageId>(all.begin(), all.end());
}

}  // namespace dfdb
