/// \file test_util.h
/// \brief Shared helpers for dfdb tests.

#ifndef DFDB_TESTS_TEST_UTIL_H_
#define DFDB_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/query_result.h"
#include "ra/analyzer.h"
#include "ra/optimizer.h"
#include "storage/storage_engine.h"
#include "workload/generator.h"

namespace dfdb {
namespace testing {

#define ASSERT_OK(expr)                                  \
  do {                                                   \
    const ::dfdb::Status _s = (expr);                    \
    ASSERT_TRUE(_s.ok()) << _s.ToString();               \
  } while (false)

#define EXPECT_OK(expr)                                  \
  do {                                                   \
    const ::dfdb::Status _s = (expr);                    \
    EXPECT_TRUE(_s.ok()) << _s.ToString();               \
  } while (false)

#define ASSERT_OK_AND_ASSIGN(lhs, expr)                  \
  ASSERT_OK_AND_ASSIGN_IMPL(                             \
      DFDB_CONCAT(_aoaa_, __LINE__), lhs, expr)

#define ASSERT_OK_AND_ASSIGN_IMPL(tmp, lhs, expr)        \
  auto tmp = (expr);                                     \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();      \
  lhs = std::move(tmp).value()

/// A resolved copy of \p plan with its marks rewritten per \p policy:
/// what a test submits to run one side of a policy differential.
inline PlanNodePtr WithPolicy(const Catalog& catalog, const PlanNode& plan,
                              const PlanPolicy& policy) {
  PlanNodePtr copy = plan.Clone();
  Analyzer analyzer(&catalog);
  const Status resolved = analyzer.Resolve(copy.get()).status();
  EXPECT_TRUE(resolved.ok()) << resolved.ToString();
  ApplyPlanPolicy(copy.get(), policy);
  return copy;
}

/// Collects a result's tuples as a sorted multiset of raw encodings, so two
/// results can be compared independent of row order.
inline std::vector<std::string> ResultMultiset(const QueryResult& result) {
  std::vector<std::string> rows;
  for (const PagePtr& page : result.pages()) {
    for (int i = 0; i < page->num_tuples(); ++i) {
      rows.push_back(page->tuple(i).ToString());
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Asserts two results hold the same bag of tuples.
inline void ExpectSameResult(const QueryResult& expected,
                             const QueryResult& actual) {
  EXPECT_EQ(expected.num_tuples(), actual.num_tuples());
  EXPECT_EQ(ResultMultiset(expected), ResultMultiset(actual));
}

}  // namespace testing
}  // namespace dfdb

#endif  // DFDB_TESTS_TEST_UTIL_H_
