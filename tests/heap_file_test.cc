/// \file heap_file_test.cc
/// \brief Tests for heap files and the storage-engine facade.

#include "storage/heap_file.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "index/access_path.h"
#include "ra/expr.h"
#include "ra/expr_compile.h"
#include "storage/storage_engine.h"
#include "tests/test_util.h"

namespace dfdb {
namespace {

Schema SmallSchema() {
  return Schema::CreateOrDie({Column::Int32("k"), Column::Int32("v")});
}

TEST(HeapFileTest, AppendSealsFullPages) {
  PageStore store;
  HeapFile file(1, SmallSchema(), /*page_bytes=*/32, &store);  // 4 tuples/page.
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(file.Append({Value::Int32(i), Value::Int32(i * i)}));
  }
  EXPECT_EQ(file.tuple_count(), 10u);
  EXPECT_EQ(file.PageIds().size(), 2u);  // 8 tuples sealed, 2 buffered.
  EXPECT_EQ(file.page_count(), 3u);      // Counting the open page.
  ASSERT_OK(file.Flush());
  EXPECT_EQ(file.PageIds().size(), 3u);
  // Flush of empty current page is a no-op.
  ASSERT_OK(file.Flush());
  EXPECT_EQ(file.PageIds().size(), 3u);
}

TEST(HeapFileTest, RowsSurviveRoundTrip) {
  PageStore store;
  Schema schema = SmallSchema();
  HeapFile file(1, schema, 64, &store);
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK(file.Append({Value::Int32(i), Value::Int32(100 - i)}));
  }
  ASSERT_OK(file.Flush());
  int idx = 0;
  for (PageId id : file.PageIds()) {
    ASSERT_OK_AND_ASSIGN(PagePtr page, store.Get(id));
    for (int t = 0; t < page->num_tuples(); ++t, ++idx) {
      TupleView view(&schema, page->tuple(t));
      ASSERT_OK_AND_ASSIGN(Value k, view.GetValue(0));
      EXPECT_EQ(k.as_int32(), idx);
    }
  }
  EXPECT_EQ(idx, 20);
}

TEST(HeapFileTest, DeleteWhereRewritesCompactly) {
  PageStore store;
  Schema schema = SmallSchema();
  HeapFile file(1, schema, 64, &store);
  for (int i = 0; i < 50; ++i) {
    ASSERT_OK(file.Append({Value::Int32(i), Value::Int32(0)}));
  }
  const size_t pages_before = store.size();
  ASSERT_OK_AND_ASSIGN(uint64_t removed,
                       file.DeleteWhere([&schema](const TupleView& t) {
                         auto v = t.GetValue(0);
                         return v.ok() && v->as_int32() % 2 == 0;
                       }));
  EXPECT_EQ(removed, 25u);
  EXPECT_EQ(file.tuple_count(), 25u);
  // Old pages were freed from the store.
  EXPECT_LE(store.size(), pages_before);
  // Every remaining key is odd.
  for (PageId id : file.PageIds()) {
    ASSERT_OK_AND_ASSIGN(PagePtr page, store.Get(id));
    for (int t = 0; t < page->num_tuples(); ++t) {
      TupleView view(&schema, page->tuple(t));
      ASSERT_OK_AND_ASSIGN(Value k, view.GetValue(0));
      EXPECT_EQ(k.as_int32() % 2, 1);
    }
  }
}

TEST(HeapFileTest, DeleteEverythingAndNothing) {
  PageStore store;
  HeapFile file(1, SmallSchema(), 64, &store);
  for (int i = 0; i < 9; ++i) {
    ASSERT_OK(file.Append({Value::Int32(i), Value::Int32(0)}));
  }
  ASSERT_OK_AND_ASSIGN(uint64_t none,
                       file.DeleteWhere([](const TupleView&) { return false; }));
  EXPECT_EQ(none, 0u);
  EXPECT_EQ(file.tuple_count(), 9u);
  ASSERT_OK_AND_ASSIGN(uint64_t all,
                       file.DeleteWhere([](const TupleView&) { return true; }));
  EXPECT_EQ(all, 9u);
  EXPECT_EQ(file.tuple_count(), 0u);
  EXPECT_EQ(file.PageIds().size(), 0u);
}

/// Every tuple of \p file's head, in order, as raw bytes.
std::string HeadBytes(const HeapFile& file, const PageStore& store) {
  std::string bytes;
  for (PageId id : file.PageIds()) {
    auto page = store.Get(id);
    if (!page.ok()) return "<missing page>";
    for (int i = 0; i < (*page)->num_tuples(); ++i) {
      bytes.append((*page)->tuple(i).data(), (*page)->tuple(i).size());
    }
  }
  return bytes;
}

bool KeyIn(const TupleView& t, int32_t lo, int32_t hi) {
  auto v = t.GetValue(0);
  return v.ok() && v->as_int32() >= lo && v->as_int32() < hi;
}

TEST(HeapFileTest, DeleteKeepsPagesWithoutVictims) {
  PageStore store;
  HeapFile file(1, SmallSchema(), 64, &store);  // 8 tuples/page.
  for (int i = 0; i < 48; ++i) {
    ASSERT_OK(file.Append({Value::Int32(i), Value::Int32(0)}));
  }
  ASSERT_OK(file.Flush());
  const std::vector<PageId> before = file.PageIds();
  ASSERT_EQ(before.size(), 6u);

  // Victims on pages 1 and 2 only (keys 10 and 17): one run of two pages.
  DeleteStats stats;
  ASSERT_OK_AND_ASSIGN(
      uint64_t removed,
      file.DeleteWhere(
          [](const TupleView& t) {
            return KeyIn(t, 10, 11) || KeyIn(t, 17, 18);
          },
          nullptr, &stats));
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(stats.pages_read, 6u);
  EXPECT_EQ(stats.pages_rewritten, 2u);
  const std::vector<PageId> after = file.PageIds();
  // 14 survivors of the run pack into two pages; the rest keep their ids.
  ASSERT_EQ(after.size(), 6u);
  EXPECT_EQ(after[0], before[0]);
  EXPECT_NE(after[1], before[1]);
  EXPECT_NE(after[2], before[2]);
  EXPECT_EQ(after[3], before[3]);
  EXPECT_EQ(after[4], before[4]);
  EXPECT_EQ(after[5], before[5]);
  // Order is preserved across the rewritten run.
  int expect = 0;
  for (PageId id : after) {
    ASSERT_OK_AND_ASSIGN(PagePtr page, store.Get(id));
    for (int t = 0; t < page->num_tuples(); ++t, ++expect) {
      if (expect == 10 || expect == 17) ++expect;
      TupleView view(&file.schema(), page->tuple(t));
      ASSERT_OK_AND_ASSIGN(Value k, view.GetValue(0));
      EXPECT_EQ(k.as_int32(), expect);
    }
  }
  EXPECT_EQ(expect, 48);
}

TEST(HeapFileTest, PagesCopiedCountsOnlyRewrittenPages) {
  PageStore store;
  MvccCounters mvcc;
  HeapFile file(1, SmallSchema(), 64, &store, &mvcc);  // 8 tuples/page.
  for (int i = 0; i < 80; ++i) {
    ASSERT_OK(file.Append({Value::Int32(i), Value::Int32(0)}));
  }
  ASSERT_OK(file.Commit(1));
  // Two separate runs: page 2 (keys 16..23) and pages 7..8 (keys 60..67).
  DeleteStats stats;
  ASSERT_OK_AND_ASSIGN(
      uint64_t removed,
      file.DeleteWhere(
          [](const TupleView& t) {
            return KeyIn(t, 20, 21) || KeyIn(t, 60, 66);
          },
          nullptr, &stats));
  EXPECT_EQ(removed, 7u);
  EXPECT_EQ(stats.pages_rewritten, 3u);
  // Page 2 keeps 7 survivors (one page); pages 7..8 keep 10 (two pages).
  EXPECT_EQ(mvcc.pages_copied.load(), 3u);
  EXPECT_EQ(file.PageIds().size(), 10u);
  ASSERT_OK(file.Commit(2));
  // The three replaced committed pages retire; GC frees them.
  EXPECT_EQ(file.GcUpTo(2), 3u);
}

/// Schema with every numeric key type the zone maps summarize.
Schema MixedSchema() {
  return Schema::CreateOrDie({Column::Int32("a"), Column::Int64("b"),
                              Column::Double("c")});
}

/// Fills \p file with clustered (zone-map-prunable) rows; about one page
/// in five carries NaNs in `c`.
Status FillMixed(HeapFile* file, uint64_t seed, int rows) {
  Random rng(seed);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int i = 0; i < rows; ++i) {
    const int32_t a = i / 4 + static_cast<int32_t>(rng.Uniform(6));
    const int64_t b = static_cast<int64_t>(i) * 3 -
                      static_cast<int64_t>(rng.Uniform(40));
    const bool nan_page = (i / 10) % 5 == 3;
    const double c = nan_page && rng.Bernoulli(0.3)
                         ? nan
                         : static_cast<double>(i) / 10.0 + rng.NextDouble();
    DFDB_RETURN_IF_ERROR(file->Append(
        {Value::Int32(a), Value::Int64(b), Value::Double(c)}));
  }
  return file->Flush();
}

ExprPtr RandomCompare(Random* rng, int rows) {
  static const char* kCols[] = {"a", "b", "c"};
  const std::string col = kCols[rng->Uniform(3)];
  const uint64_t key = rng->Uniform(static_cast<uint64_t>(rows));
  ExprPtr lit;
  switch (rng->Uniform(4)) {
    case 0:  // Integer constant (kI32I / kI64I, or kF64F against `c`).
      lit = Lit(static_cast<int32_t>(key));
      break;
    case 1:  // Double constant against any column (kI32F / kI64F / kF64F).
      lit = Lit(rng->NextDouble() * rows / 2);
      break;
    case 2:
      lit = Lit(std::numeric_limits<double>::quiet_NaN());
      break;
    default:
      lit = Lit(static_cast<int64_t>(key));
      break;
  }
  switch (rng->Uniform(6)) {
    case 0: return Lt(Col(col), std::move(lit));
    case 1: return Le(Col(col), std::move(lit));
    case 2: return Gt(Col(col), std::move(lit));
    case 3: return Ge(Col(col), std::move(lit));
    case 4: return Ne(Col(col), std::move(lit));
    default: return Eq(Col(col), std::move(lit));
  }
}

// The zone-map page filter may only skip pages without victims: a filtered
// DeleteWhere must leave exactly the survivors (bytes and order) of an
// unfiltered one, across every compare kind, NaN pages and NaN constants.
TEST(HeapFileTest, FilteredDeleteMatchesUnfiltered) {
  constexpr int kRows = 600;
  const Schema schema = MixedSchema();
  Random rng(2024);
  uint64_t pages_skipped = 0;
  for (int round = 0; round < 12; ++round) {
    PageStore plain_store, filtered_store;
    HeapFile plain(1, schema, 200, &plain_store);  // 10 tuples/page.
    HeapFile filtered(1, schema, 200, &filtered_store);
    ASSERT_OK(FillMixed(&plain, 100 + round, kRows));
    ASSERT_OK(FillMixed(&filtered, 100 + round, kRows));
    for (int step = 0; step < 6; ++step) {
      ExprPtr pred = RandomCompare(&rng, kRows);
      if (rng.Bernoulli(0.5)) {
        pred = And(std::move(pred), RandomCompare(&rng, kRows));
      }
      ASSERT_OK(pred->Bind(schema, nullptr));
      auto compiled = CompiledPredicate::Compile(*pred, schema);
      ASSERT_OK(compiled.status());
      auto matcher = [&](const TupleView& t) {
        return compiled->Matches(t.raw().data(), nullptr);
      };
      HeapFile::PageFilter filter = DeletePageFilter(&*compiled, schema);
      const uint64_t pages = filtered.PageIds().size();
      ASSERT_OK_AND_ASSIGN(uint64_t want, plain.DeleteWhere(matcher));
      DeleteStats stats;
      ASSERT_OK_AND_ASSIGN(uint64_t got,
                           filtered.DeleteWhere(matcher, filter, &stats));
      EXPECT_EQ(got, want) << pred->ToString();
      EXPECT_EQ(HeadBytes(filtered, filtered_store),
                HeadBytes(plain, plain_store))
          << pred->ToString();
      EXPECT_EQ(filtered.PageIds().size(), plain.PageIds().size());
      pages_skipped += pages - stats.pages_read;
    }
  }
  EXPECT_GT(pages_skipped, 0u) << "the filter never skipped a page: vacuous";
}

TEST(HeapFileTest, AppendPageChecksWidth) {
  PageStore store;
  HeapFile file(1, SmallSchema(), 64, &store);
  ASSERT_OK_AND_ASSIGN(Page good, Page::Create(2, 8, 64));
  ASSERT_OK(good.Append(Slice("12345678")));
  ASSERT_OK(file.AppendPage(good));
  EXPECT_EQ(file.tuple_count(), 1u);
  ASSERT_OK_AND_ASSIGN(Page bad, Page::Create(2, 5, 64));
  EXPECT_TRUE(file.AppendPage(bad).IsInvalidArgument());
}

TEST(StorageEngineTest, CreateDropLifecycle) {
  StorageEngine storage(128);
  ASSERT_OK_AND_ASSIGN(RelationId id,
                       storage.CreateRelation("t", SmallSchema()));
  ASSERT_OK_AND_ASSIGN(HeapFile * file, storage.GetHeapFile(id));
  ASSERT_OK(file->Append({Value::Int32(1), Value::Int32(2)}));
  ASSERT_OK(storage.SyncStats(id));
  ASSERT_OK_AND_ASSIGN(RelationMeta meta, storage.catalog().GetRelation("t"));
  EXPECT_EQ(meta.tuple_count, 1u);
  EXPECT_GT(storage.page_store().size(), 0u);
  ASSERT_OK(storage.DropRelation("t"));
  EXPECT_EQ(storage.page_store().size(), 0u);
  EXPECT_TRUE(storage.GetHeapFile(id).status().IsNotFound());
  EXPECT_TRUE(storage.DropRelation("t").IsNotFound());
}

TEST(StorageEngineTest, PageSizeMustHoldTuple) {
  StorageEngine storage(4);
  EXPECT_TRUE(storage.CreateRelation("t", SmallSchema())
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(storage.CreateRelation("t", SmallSchema(), {.page_bytes = 8}).ok());
}

TEST(StorageEngineTest, SyncAllStats) {
  StorageEngine storage(64);
  ASSERT_OK_AND_ASSIGN(RelationId a, storage.CreateRelation("a", SmallSchema()));
  ASSERT_OK_AND_ASSIGN(RelationId b, storage.CreateRelation("b", SmallSchema()));
  ASSERT_OK_AND_ASSIGN(HeapFile * fa, storage.GetHeapFile(a));
  ASSERT_OK_AND_ASSIGN(HeapFile * fb, storage.GetHeapFile(b));
  for (int i = 0; i < 5; ++i) {
    ASSERT_OK(fa->Append({Value::Int32(i), Value::Int32(0)}));
  }
  ASSERT_OK(fb->Append({Value::Int32(9), Value::Int32(9)}));
  ASSERT_OK(storage.SyncAllStats());
  EXPECT_EQ(storage.catalog().TotalBytes(), (5 + 1) * 8);
}

}  // namespace
}  // namespace dfdb
