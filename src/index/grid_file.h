/// \file grid_file.h
/// \brief Grid-file secondary index: grid cells over 1–2 numeric key
/// attributes mapping to qualifying page ids.
///
/// Follows "Using Grid Files for a Relational Database Management System"
/// (PAPERS.md): each key dimension carries a linear scale (here equi-depth
/// split points over the observed values, so skewed/zipfian keys still give
/// balanced cells), and each grid cell holds the sorted list of pages
/// containing at least one tuple that falls in the cell. A probe converts a
/// restrict's compiled bounds into a cell rectangle and unions the posting
/// lists — the candidate pages a scan must still read (zone maps then prune
/// further on top).
///
/// An index instance is immutable once built and bound to one MVCC
/// version: it summarizes exactly the page list it was built from, at
/// `built_ts`. Build() scans every page of a version and fits the scales;
/// Derive() maintains an existing index incrementally, as grid files are
/// meant to be: it keeps the scales, drops the pages that left and posts
/// only the pages that arrived. The IndexManager derives each version a
/// snapshot asks for from a cached one, so pruning through an old Snapshot
/// stays byte-identical to a full scan of that snapshot while a commit
/// costs index work in proportion to the pages it changed.

#ifndef DFDB_INDEX_GRID_FILE_H_
#define DFDB_INDEX_GRID_FILE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "catalog/schema.h"
#include "common/statusor.h"
#include "ra/expr_compile.h"
#include "storage/page.h"
#include "storage/page_store.h"

namespace dfdb {

class GridFileIndex {
 public:
  /// One key dimension: the schema column it indexes and its linear scale.
  /// `boundaries` is sorted ascending; a value v falls in cell
  /// upper_bound(boundaries, v), giving boundaries.size() + 1 cells. All
  /// key values (int32/int64/double columns) are mapped to double with the
  /// same monotone conversion at build and probe time, so cell lookup is
  /// order-preserving and pruning stays conservative.
  struct Dim {
    int column = 0;
    int32_t offset = 0;
    ColumnType type = ColumnType::kInt32;
    std::vector<double> boundaries;
    int cells() const { return static_cast<int>(boundaries.size()) + 1; }
  };

  /// Builds a grid file over \p key_columns (1–2 numeric columns of
  /// \p schema) from the sealed \p pages. A tuple whose key is NaN is
  /// posted to every cell of that dimension (NaN compares equal to
  /// everything in the kernels, so it can match any probe).
  static StatusOr<std::shared_ptr<const GridFileIndex>> Build(
      const Schema& schema, const std::vector<int>& key_columns,
      const PageStore& store, const std::vector<PageId>& pages,
      uint64_t built_ts);

  /// The index of another version of the same relation, derived from
  /// this one: the scales are kept, pages of this version missing from
  /// \p pages are dropped from every posting list, and pages of \p pages
  /// this version lacks are read and posted. Works in both directions
  /// (a newer or an older version).
  StatusOr<std::shared_ptr<const GridFileIndex>> Derive(
      const PageStore& store, const std::vector<PageId>& pages,
      uint64_t built_ts) const;

  /// Commit timestamp of the heap-file version this index summarizes.
  uint64_t built_ts() const { return built_ts_; }
  const std::vector<Dim>& dims() const { return dims_; }
  int num_cells() const { return num_cells_; }
  uint64_t pages_indexed() const { return pages_.size(); }

  /// Candidate pages for \p bounds: the union of posting lists of the cell
  /// rectangle the bounds select, sorted ascending. nullopt when no bound
  /// constrains any key dimension (the probe cannot help — caller falls
  /// back to zone-map/full scanning). An empty vector means provably no
  /// page can match.
  std::optional<std::vector<PageId>> Probe(
      const std::vector<ColCompare>& bounds) const;

 private:
  GridFileIndex() = default;
  GridFileIndex(const GridFileIndex&) = default;

  int CellOf(int dim, double v) const;

  /// Appends \p id to the posting list of every cell one of \p page's
  /// tuples falls in (a NaN key spans its whole dimension). The one
  /// posting routine of Build and Derive.
  void Post(PageId id, const Page& page);

  /// Restores ascending order in every posting list after Post calls.
  void SortPostings();

  std::vector<Dim> dims_;
  /// Posting lists per linearized cell (row-major over dims), each sorted.
  std::vector<std::vector<PageId>> postings_;
  int num_cells_ = 1;
  uint64_t built_ts_ = 0;
  /// The version's pages, sorted ascending (the base of Derive's diff).
  std::vector<PageId> pages_;
};

}  // namespace dfdb

#endif  // DFDB_INDEX_GRID_FILE_H_
