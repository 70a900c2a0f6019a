/// \file operators_test.cc
/// \brief Tests for the page-at-a-time operator kernels, including the
/// nested-loops vs sorted-merge equivalence property.

#include "operators/kernels.h"

#include <algorithm>
#include <set>
#include <gtest/gtest.h>

#include "common/random.h"

#include "operators/aggregator.h"
#include "operators/dedup.h"
#include "operators/set_ops.h"
#include "operators/sort_merge_join.h"
#include "tests/test_util.h"
#include "workload/generator.h"

namespace dfdb {
namespace {

/// Materializes a generated relation's pages.
std::vector<PagePtr> PagesOf(StorageEngine* storage, const std::string& name) {
  auto file = storage->GetHeapFile(name);
  EXPECT_TRUE(file.ok());
  EXPECT_OK((*file)->Flush());
  std::vector<PagePtr> pages;
  for (PageId id : (*file)->PageIds()) {
    auto p = storage->page_store().Get(id);
    EXPECT_TRUE(p.ok());
    pages.push_back(*p);
  }
  return pages;
}

class OperatorsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage_ = std::make_unique<StorageEngine>(800);
    schema_ = BenchmarkSchema();
    ASSERT_OK_AND_ASSIGN(auto a, GenerateRelation(storage_.get(), "a", 300, 1));
    ASSERT_OK_AND_ASSIGN(auto b, GenerateRelation(storage_.get(), "b", 120, 2));
    (void)a;
    (void)b;
    a_pages_ = PagesOf(storage_.get(), "a");
    b_pages_ = PagesOf(storage_.get(), "b");
  }

  std::unique_ptr<StorageEngine> storage_;
  Schema schema_;
  std::vector<PagePtr> a_pages_;
  std::vector<PagePtr> b_pages_;
};

TEST_F(OperatorsTest, RestrictMatchesManualCount) {
  ExprPtr pred = Lt(Col("k1000"), Lit(500));
  ASSERT_OK(pred->Bind(schema_, nullptr));
  VectorSink sink;
  uint64_t expected = 0;
  for (const PagePtr& page : a_pages_) {
    ASSERT_OK(RestrictPage(schema_, *pred, *page, &sink));
    ASSERT_OK_AND_ASSIGN(uint64_t n, CountMatches(schema_, *pred, *page));
    expected += n;
  }
  EXPECT_EQ(sink.tuples().size(), expected);
  // Every emitted tuple satisfies the predicate.
  for (const std::string& t : sink.tuples()) {
    TupleView view(&schema_, Slice(t));
    ASSERT_OK_AND_ASSIGN(Value k, view.GetValue(7));
    EXPECT_LT(k.as_int32(), 500);
  }
}

TEST_F(OperatorsTest, ProjectKeepsColumnOrderAndWidth) {
  std::vector<int> indices = {7, 0};  // k1000, id.
  VectorSink sink;
  ASSERT_OK(ProjectPage(schema_, indices, *a_pages_[0], &sink));
  EXPECT_EQ(sink.tuples().size(),
            static_cast<size_t>(a_pages_[0]->num_tuples()));
  ASSERT_OK_AND_ASSIGN(Schema out, schema_.Project(indices));
  EXPECT_EQ(sink.tuples()[0].size(), static_cast<size_t>(out.tuple_width()));
  // Spot check: first projected field equals source k1000.
  TupleView src(&schema_, a_pages_[0]->tuple(0));
  TupleView dst(&out, Slice(sink.tuples()[0]));
  ASSERT_OK_AND_ASSIGN(Value sk, src.GetValue(7));
  ASSERT_OK_AND_ASSIGN(Value dk, dst.GetValue(0));
  EXPECT_EQ(sk.as_int32(), dk.as_int32());
}

TEST_F(OperatorsTest, JoinPagesEmitsOnlyMatches) {
  ExprPtr pred = Eq(Col("k100"), RightCol("k100"));
  ASSERT_OK(pred->Bind(schema_, &schema_));
  VectorSink sink;
  ASSERT_OK(JoinPages(schema_, schema_, *pred, *a_pages_[0], *b_pages_[0],
                      &sink));
  Schema joined = schema_.Concat(schema_);
  ASSERT_OK_AND_ASSIGN(int left_k100, joined.ColumnIndex("k100"));
  ASSERT_OK_AND_ASSIGN(int right_k100, joined.ColumnIndex("k100_r"));
  for (const std::string& t : sink.tuples()) {
    TupleView view(&joined, Slice(t));
    ASSERT_OK_AND_ASSIGN(Value l, view.GetValue(left_k100));
    ASSERT_OK_AND_ASSIGN(Value r, view.GetValue(right_k100));
    EXPECT_EQ(l.as_int32(), r.as_int32());
  }
  // Count matches the brute-force expectation.
  size_t expected = 0;
  for (int i = 0; i < a_pages_[0]->num_tuples(); ++i) {
    TupleView l(&schema_, a_pages_[0]->tuple(i));
    for (int j = 0; j < b_pages_[0]->num_tuples(); ++j) {
      TupleView r(&schema_, b_pages_[0]->tuple(j));
      auto c = l.CompareColumn(6, r, 6);
      if (c.ok() && *c == 0) ++expected;
    }
  }
  EXPECT_EQ(sink.tuples().size(), expected);
}

/// Property: sorted-merge and nested-loops produce identical bags for
/// equi-joins, across join columns of different types and duplications.
class JoinEquivalenceTest : public OperatorsTest,
                            public ::testing::WithParamInterface<int> {};

TEST_P(JoinEquivalenceTest, SortMergeMatchesNestedLoops) {
  const int col = GetParam();
  // Nested loops over all page pairs.
  ExprPtr pred = Eq(Col(schema_.column(col).name),
                    RightCol(schema_.column(col).name));
  ASSERT_OK(pred->Bind(schema_, &schema_));
  VectorSink nested;
  for (const PagePtr& ap : a_pages_) {
    for (const PagePtr& bp : b_pages_) {
      ASSERT_OK(JoinPages(schema_, schema_, *pred, *ap, *bp, &nested));
    }
  }
  VectorSink merged;
  ASSERT_OK(SortMergeJoin(schema_, a_pages_, col, schema_, b_pages_, col,
                          &merged));
  std::vector<std::string> n = nested.tuples(), m = merged.tuples();
  std::sort(n.begin(), n.end());
  std::sort(m.begin(), m.end());
  EXPECT_EQ(n.size(), m.size());
  EXPECT_EQ(n, m);
}

INSTANTIATE_TEST_SUITE_P(JoinColumns, JoinEquivalenceTest,
                         ::testing::Values(2, 4, 6, 7),  // k2,k10,k100,k1000.
                         [](const auto& info) {
                           return "col" + std::to_string(info.param);
                         });

TEST_F(OperatorsTest, SortMergeRejectsTypeMismatch) {
  VectorSink sink;
  // Column 8 is DOUBLE, column 0 is INT32.
  EXPECT_TRUE(SortMergeJoin(schema_, a_pages_, 0, schema_, b_pages_, 8, &sink)
                  .IsInvalidArgument());
  EXPECT_TRUE(SortMergeJoin(schema_, a_pages_, -1, schema_, b_pages_, 0, &sink)
                  .IsOutOfRange());
}

TEST_F(OperatorsTest, DuplicateEliminatorBasics) {
  DuplicateEliminator d;
  EXPECT_TRUE(d.Insert(Slice("aa")));
  EXPECT_FALSE(d.Insert(Slice("aa")));
  EXPECT_TRUE(d.Insert(Slice("ab")));
  EXPECT_TRUE(d.Contains(Slice("aa")));
  EXPECT_FALSE(d.Contains(Slice("zz")));
  EXPECT_EQ(d.size(), 2u);
  d.Clear();
  EXPECT_EQ(d.size(), 0u);
}

TEST_F(OperatorsTest, DedupPartitionIsStable) {
  for (int parts : {1, 2, 16}) {
    const int p1 = DedupPartition(Slice("hello"), parts);
    const int p2 = DedupPartition(Slice("hello"), parts);
    EXPECT_EQ(p1, p2);
    EXPECT_GE(p1, 0);
    EXPECT_LT(p1, parts);
  }
}

TEST_F(OperatorsTest, UnionBagVsSet) {
  VectorSink bag;
  UnionOp bag_op(/*bag_semantics=*/true);
  ASSERT_OK(bag_op.Consume(*a_pages_[0], &bag));
  ASSERT_OK(bag_op.Consume(*a_pages_[0], &bag));
  EXPECT_EQ(bag.tuples().size(),
            2 * static_cast<size_t>(a_pages_[0]->num_tuples()));

  VectorSink set;
  UnionOp set_op(/*bag_semantics=*/false);
  ASSERT_OK(set_op.Consume(*a_pages_[0], &set));
  ASSERT_OK(set_op.Consume(*a_pages_[0], &set));
  EXPECT_EQ(set.tuples().size(),
            static_cast<size_t>(a_pages_[0]->num_tuples()));
}

TEST_F(OperatorsTest, DifferenceRemovesRightTuples) {
  DifferenceOp op;
  op.ConsumeRight(*a_pages_[0]);
  VectorSink sink;
  ASSERT_OK(op.ConsumeLeft(*a_pages_[0], &sink));
  EXPECT_TRUE(sink.tuples().empty());  // A \ A = empty.
  VectorSink sink2;
  ASSERT_OK(op.ConsumeLeft(*a_pages_[1], &sink2));
  EXPECT_EQ(sink2.tuples().size(),
            static_cast<size_t>(a_pages_[1]->num_tuples()));
}

TEST_F(OperatorsTest, AggregatorComputesAllFunctions) {
  std::vector<AggregateSpec> specs;
  specs.push_back({AggregateSpec::Func::kCount, "", "cnt"});
  specs.push_back({AggregateSpec::Func::kSum, "k1000", "sum"});
  specs.push_back({AggregateSpec::Func::kMin, "k1000", "mn"});
  specs.push_back({AggregateSpec::Func::kMax, "k1000", "mx"});
  specs.push_back({AggregateSpec::Func::kAvg, "k1000", "avg"});
  Schema out = Schema::CreateOrDie(
      {Column::Int64("cnt"), Column::Int64("sum"), Column::Int32("mn"),
       Column::Int32("mx"), Column::Double("avg")});
  ASSERT_OK_AND_ASSIGN(Aggregator agg,
                       Aggregator::Create(schema_, out, {}, specs));
  int64_t expect_cnt = 0, expect_sum = 0;
  int32_t expect_min = INT32_MAX, expect_max = INT32_MIN;
  for (const PagePtr& page : a_pages_) {
    ASSERT_OK(agg.Consume(*page));
    for (int i = 0; i < page->num_tuples(); ++i) {
      TupleView view(&schema_, page->tuple(i));
      ASSERT_OK_AND_ASSIGN(Value v, view.GetValue(7));
      ++expect_cnt;
      expect_sum += v.as_int32();
      expect_min = std::min(expect_min, v.as_int32());
      expect_max = std::max(expect_max, v.as_int32());
    }
  }
  EXPECT_EQ(agg.num_groups(), 1u);
  VectorSink sink;
  ASSERT_OK(agg.Finish(&sink));
  ASSERT_EQ(sink.tuples().size(), 1u);
  TupleView row(&out, Slice(sink.tuples()[0]));
  ASSERT_OK_AND_ASSIGN(Value cnt, row.GetValue(0));
  ASSERT_OK_AND_ASSIGN(Value sum, row.GetValue(1));
  ASSERT_OK_AND_ASSIGN(Value mn, row.GetValue(2));
  ASSERT_OK_AND_ASSIGN(Value mx, row.GetValue(3));
  ASSERT_OK_AND_ASSIGN(Value avg, row.GetValue(4));
  EXPECT_EQ(cnt.as_int64(), expect_cnt);
  EXPECT_EQ(sum.as_int64(), expect_sum);
  EXPECT_EQ(mn.as_int32(), expect_min);
  EXPECT_EQ(mx.as_int32(), expect_max);
  EXPECT_NEAR(avg.as_double(),
              static_cast<double>(expect_sum) / static_cast<double>(expect_cnt),
              1e-9);
  // Finish resets the aggregator.
  EXPECT_EQ(agg.num_groups(), 0u);
}

TEST_F(OperatorsTest, AggregatorGroupsDeterministically) {
  std::vector<AggregateSpec> specs;
  specs.push_back({AggregateSpec::Func::kCount, "", "cnt"});
  Schema out =
      Schema::CreateOrDie({Column::Int32("k10"), Column::Int64("cnt")});
  ASSERT_OK_AND_ASSIGN(Aggregator agg,
                       Aggregator::Create(schema_, out, {"k10"}, specs));
  for (const PagePtr& page : a_pages_) ASSERT_OK(agg.Consume(*page));
  EXPECT_EQ(agg.num_groups(), 10u);
  VectorSink sink;
  ASSERT_OK(agg.Finish(&sink));
  // Counts sum to the relation size.
  int64_t total = 0;
  for (const std::string& t : sink.tuples()) {
    TupleView row(&out, Slice(t));
    ASSERT_OK_AND_ASSIGN(Value cnt, row.GetValue(1));
    total += cnt.as_int64();
  }
  EXPECT_EQ(total, 300);
}

TEST(AggregatorDoubleSumTest, PageOrderDoesNotChangeBits) {
  // SUM/AVG over DOUBLE must not depend on which order pages arrive in
  // (workers, IPs and fragments deliver them in different orders). The
  // values cancel heavily, so naive left-to-right summation differs between
  // orders — and even overflows through 1e308 + 1e308 in some of them.
  const Schema in = Schema::CreateOrDie(
      {Column::Int32("g"), Column::Double("v")});
  const std::vector<std::vector<double>> groups = {
      {1e16, 1.0, -1e16, 1.0, 3.0, -3.0, 0.1, 0.2, 0.3, 1e-300, 4.9e-324},
      {1e308, 1e308, -1e308, -1e308, 5.0},
      {0.1, 0.7, -0.3, 1e-17, 2.5e15, -2.5e15, 1e-3, 7.25}};
  // Spread every group's values across pages, two tuples per page.
  std::vector<std::vector<std::pair<int32_t, double>>> page_rows;
  for (size_t g = 0; g < groups.size(); ++g) {
    for (size_t i = 0; i < groups[g].size(); ++i) {
      if (page_rows.empty() || page_rows.back().size() == 2) {
        page_rows.emplace_back();
      }
      page_rows.back().emplace_back(static_cast<int32_t>(g), groups[g][i]);
    }
  }
  std::vector<PagePtr> pages;
  for (const auto& rows : page_rows) {
    ASSERT_OK_AND_ASSIGN(Page page, Page::Create(0, in.tuple_width(), 64));
    for (const auto& [g, v] : rows) {
      ASSERT_OK_AND_ASSIGN(std::string t,
                           EncodeTuple(in, {Value::Int32(g), Value::Double(v)}));
      ASSERT_OK(page.Append(Slice(t)));
    }
    pages.push_back(SealPage(std::move(page)));
  }

  std::vector<AggregateSpec> specs;
  specs.push_back({AggregateSpec::Func::kSum, "v", "sum"});
  specs.push_back({AggregateSpec::Func::kAvg, "v", "avg"});
  const Schema out = Schema::CreateOrDie(
      {Column::Int32("g"), Column::Double("sum"), Column::Double("avg")});
  std::vector<size_t> order(pages.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  Random rng(17);
  std::vector<std::string> first;
  std::set<std::vector<double>> naive_sums;
  for (int perm = 0; perm < 12; ++perm) {
    ASSERT_OK_AND_ASSIGN(Aggregator agg,
                         Aggregator::Create(in, out, {"g"}, specs));
    std::vector<double> naive(groups.size(), 0.0);
    for (size_t idx : order) {
      ASSERT_OK(agg.Consume(*pages[idx]));
      for (const auto& [g, v] : page_rows[idx]) naive[g] += v;
    }
    naive_sums.insert(naive);
    VectorSink sink;
    ASSERT_OK(agg.Finish(&sink));
    if (perm == 0) {
      first = sink.tuples();
    } else {
      EXPECT_EQ(sink.tuples(), first) << "permutation " << perm;
    }
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.Uniform(i)]);
    }
  }
  EXPECT_GT(naive_sums.size(), 1u) << "input is not order-sensitive";

  // The rounded exact sums: group 1 cancels to exactly 5, where naive
  // summation in submission order overflows to infinity.
  ASSERT_EQ(first.size(), groups.size());
  TupleView row(&out, Slice(first[1]));
  ASSERT_OK_AND_ASSIGN(Value sum, row.GetValue(1));
  ASSERT_OK_AND_ASSIGN(Value avg, row.GetValue(2));
  EXPECT_EQ(sum.as_double(), 5.0);
  EXPECT_EQ(avg.as_double(), 1.0);
}

TEST_F(OperatorsTest, PagedSinkSealsAndFlushes) {
  int flushed_pages = 0;
  uint64_t flushed_tuples = 0;
  PagedSink sink(1, 10, 35, [&](PagePtr page) {
    ++flushed_pages;
    flushed_tuples += static_cast<uint64_t>(page->num_tuples());
    return Status::OK();
  });
  for (int i = 0; i < 7; ++i) {
    ASSERT_OK(sink.Emit(Slice("0123456789")));
  }
  EXPECT_EQ(flushed_pages, 2);  // 3 + 3 sealed, 1 buffered.
  ASSERT_OK(sink.Finish());
  EXPECT_EQ(flushed_pages, 3);
  EXPECT_EQ(flushed_tuples, 7u);
  EXPECT_EQ(sink.tuples_emitted(), 7u);
  EXPECT_EQ(sink.pages_flushed(), 3u);
}

TEST_F(OperatorsTest, CopyPagePreservesEverything) {
  VectorSink sink;
  ASSERT_OK(CopyPage(*b_pages_[0], &sink));
  ASSERT_EQ(sink.tuples().size(),
            static_cast<size_t>(b_pages_[0]->num_tuples()));
  EXPECT_EQ(Slice(sink.tuples()[0]), b_pages_[0]->tuple(0));
}

}  // namespace
}  // namespace dfdb
