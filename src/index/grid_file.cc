#include "index/grid_file.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <set>

#include "common/status.h"

namespace dfdb {
namespace {

/// Split-point budget per dimension: enough resolution that selective
/// probes touch few cells, small enough that the scale stays cache-resident
/// (1-D: 128 cells; 2-D: 64 x 64 = 4096 cells).
int CellsPerDim(size_t num_dims) { return num_dims == 1 ? 128 : 64; }

double LoadKey(ColumnType type, const char* p) {
  switch (type) {
    case ColumnType::kInt32: {
      int32_t x;
      std::memcpy(&x, p, 4);
      return static_cast<double>(x);
    }
    case ColumnType::kInt64: {
      int64_t x;
      std::memcpy(&x, p, 8);
      return static_cast<double>(x);
    }
    case ColumnType::kDouble: {
      double x;
      std::memcpy(&x, p, 8);
      return x;
    }
    case ColumnType::kChar:
      break;
  }
  return 0;
}

}  // namespace

StatusOr<std::shared_ptr<const GridFileIndex>> GridFileIndex::Build(
    const Schema& schema, const std::vector<int>& key_columns,
    const PageStore& store, const std::vector<PageId>& pages,
    uint64_t built_ts) {
  if (key_columns.empty() || key_columns.size() > 2) {
    return Status::InvalidArgument("grid file needs 1 or 2 key columns");
  }
  auto index = std::shared_ptr<GridFileIndex>(new GridFileIndex());
  index->built_ts_ = built_ts;
  for (int col : key_columns) {
    if (col < 0 || col >= schema.num_columns()) {
      return Status::InvalidArgument("grid key column out of range");
    }
    if (schema.column(col).type == ColumnType::kChar) {
      return Status::InvalidArgument("grid key column must be numeric");
    }
    Dim d;
    d.column = col;
    d.offset = schema.offset(col);
    d.type = schema.column(col).type;
    index->dims_.push_back(std::move(d));
  }

  // Pass 1: equi-depth scales from a strided sample of the key values
  // (equi-width splits collapse under zipfian skew — nearly all tuples
  // would land in one cell).
  std::vector<PagePtr> loaded;
  loaded.reserve(pages.size());
  uint64_t total_tuples = 0;
  for (PageId id : pages) {
    auto page = store.Get(id);
    if (!page.ok()) return page.status();
    total_tuples += static_cast<uint64_t>((*page)->num_tuples());
    loaded.push_back(*std::move(page));
  }
  constexpr uint64_t kMaxSample = 1 << 16;
  const uint64_t stride = std::max<uint64_t>(1, total_tuples / kMaxSample);
  for (Dim& d : index->dims_) {
    std::vector<double> sample;
    sample.reserve(static_cast<size_t>(
        std::min<uint64_t>(total_tuples, kMaxSample + 1)));
    uint64_t pos = 0;
    for (const PagePtr& page : loaded) {
      for (int i = 0; i < page->num_tuples(); ++i, ++pos) {
        if (pos % stride != 0) continue;
        const double v = LoadKey(d.type, page->tuple(i).data() + d.offset);
        if (!std::isnan(v)) sample.push_back(v);
      }
    }
    std::sort(sample.begin(), sample.end());
    const int want = CellsPerDim(index->dims_.size());
    for (int s = 1; s < want && !sample.empty(); ++s) {
      const size_t at = sample.size() * static_cast<size_t>(s) /
                        static_cast<size_t>(want);
      const double b = sample[std::min(at, sample.size() - 1)];
      if (d.boundaries.empty() || b > d.boundaries.back()) {
        d.boundaries.push_back(b);
      }
    }
  }
  int num_cells = 1;
  for (const Dim& d : index->dims_) num_cells *= d.cells();
  index->num_cells_ = num_cells;
  index->postings_.resize(static_cast<size_t>(num_cells));

  // Pass 2: post each page to every cell one of its tuples falls in.
  for (size_t pi = 0; pi < loaded.size(); ++pi) {
    index->Post(pages[pi], *loaded[pi]);
  }
  index->SortPostings();
  index->pages_ = pages;
  std::sort(index->pages_.begin(), index->pages_.end());
  return std::shared_ptr<const GridFileIndex>(std::move(index));
}

StatusOr<std::shared_ptr<const GridFileIndex>> GridFileIndex::Derive(
    const PageStore& store, const std::vector<PageId>& pages,
    uint64_t built_ts) const {
  std::vector<PageId> want = pages;
  std::sort(want.begin(), want.end());
  std::vector<PageId> gone, arrived;
  std::set_difference(pages_.begin(), pages_.end(), want.begin(), want.end(),
                      std::back_inserter(gone));
  std::set_difference(want.begin(), want.end(), pages_.begin(), pages_.end(),
                      std::back_inserter(arrived));
  auto index = std::shared_ptr<GridFileIndex>(new GridFileIndex(*this));
  index->built_ts_ = built_ts;
  index->pages_ = std::move(want);
  if (!gone.empty()) {
    for (auto& list : index->postings_) {
      list.erase(std::remove_if(list.begin(), list.end(),
                                [&gone](PageId id) {
                                  return std::binary_search(
                                      gone.begin(), gone.end(), id);
                                }),
                 list.end());
    }
  }
  for (PageId id : arrived) {
    auto page = store.Get(id);
    if (!page.ok()) return page.status();
    index->Post(id, **page);
  }
  index->SortPostings();
  return std::shared_ptr<const GridFileIndex>(std::move(index));
}

void GridFileIndex::Post(PageId id, const Page& page) {
  std::vector<char> touched(static_cast<size_t>(num_cells_));
  for (int i = 0; i < page.num_tuples(); ++i) {
    const char* t = page.tuple(i).data();
    // Cell ranges per dim (a NaN key spans the whole dimension).
    int lo[2] = {0, 0}, hi[2] = {0, 0};
    for (size_t di = 0; di < dims_.size(); ++di) {
      const Dim& d = dims_[di];
      const double v = LoadKey(d.type, t + d.offset);
      if (std::isnan(v)) {
        lo[di] = 0;
        hi[di] = d.cells() - 1;
      } else {
        lo[di] = hi[di] = CellOf(static_cast<int>(di), v);
      }
    }
    if (dims_.size() == 1) {
      for (int c = lo[0]; c <= hi[0]; ++c) touched[static_cast<size_t>(c)] = 1;
    } else {
      const int inner = dims_[1].cells();
      for (int c0 = lo[0]; c0 <= hi[0]; ++c0) {
        for (int c1 = lo[1]; c1 <= hi[1]; ++c1) {
          touched[static_cast<size_t>(c0 * inner + c1)] = 1;
        }
      }
    }
  }
  for (int c = 0; c < num_cells_; ++c) {
    if (touched[static_cast<size_t>(c)]) {
      postings_[static_cast<size_t>(c)].push_back(id);
    }
  }
}

void GridFileIndex::SortPostings() {
  // Pages are posted in view order, which ascends by id except after CoW
  // rewrites and for pages a backwards Derive re-posts.
  for (auto& list : postings_) {
    if (!std::is_sorted(list.begin(), list.end())) {
      std::sort(list.begin(), list.end());
    }
  }
}

int GridFileIndex::CellOf(int dim, double v) const {
  const std::vector<double>& b = dims_[static_cast<size_t>(dim)].boundaries;
  return static_cast<int>(std::upper_bound(b.begin(), b.end(), v) - b.begin());
}

std::optional<std::vector<PageId>> GridFileIndex::Probe(
    const std::vector<ColCompare>& bounds) const {
  int lo[2] = {0, 0}, hi[2] = {0, 0};
  for (size_t di = 0; di < dims_.size(); ++di) hi[di] = dims_[di].cells() - 1;
  bool constrained = false;
  for (const ColCompare& c : bounds) {
    for (size_t di = 0; di < dims_.size(); ++di) {
      const Dim& d = dims_[di];
      if (c.offset != d.offset) continue;
      double v = 0;
      switch (c.kind) {
        case ColCompare::Kind::kI32I:
        case ColCompare::Kind::kI64I:
          // Same int -> double conversion the build pass applied to the
          // data; both sides rounded by one monotone function keeps the
          // cell-range test conservative.
          v = static_cast<double>(c.const_i);
          break;
        case ColCompare::Kind::kI32F:
        case ColCompare::Kind::kI64F:
        case ColCompare::Kind::kF64F:
          v = c.const_f;
          break;
        case ColCompare::Kind::kStr:
          continue;  // Not a numeric key bound.
      }
      if (std::isnan(v)) continue;  // NaN constants never reach Probe.
      const int cell = CellOf(static_cast<int>(di), v);
      switch (c.op) {
        case CompareOp::kEq:
          lo[di] = std::max(lo[di], cell);
          hi[di] = std::min(hi[di], cell);
          constrained = true;
          break;
        case CompareOp::kLt:
        case CompareOp::kLe:
          hi[di] = std::min(hi[di], cell);
          constrained = true;
          break;
        case CompareOp::kGt:
        case CompareOp::kGe:
          lo[di] = std::max(lo[di], cell);
          constrained = true;
          break;
        case CompareOp::kNe:
          break;  // A cell can always hold values != c.
      }
    }
  }
  if (!constrained) return std::nullopt;

  std::vector<PageId> out;
  if (lo[0] > hi[0] || (dims_.size() == 2 && lo[1] > hi[1])) return out;
  std::set<PageId> uniq;
  if (dims_.size() == 1) {
    for (int c = lo[0]; c <= hi[0]; ++c) {
      const auto& list = postings_[static_cast<size_t>(c)];
      uniq.insert(list.begin(), list.end());
    }
  } else {
    const int inner = dims_[1].cells();
    for (int c0 = lo[0]; c0 <= hi[0]; ++c0) {
      for (int c1 = lo[1]; c1 <= hi[1]; ++c1) {
        const auto& list = postings_[static_cast<size_t>(c0 * inner + c1)];
        uniq.insert(list.begin(), list.end());
      }
    }
  }
  out.assign(uniq.begin(), uniq.end());
  return out;
}

}  // namespace dfdb
