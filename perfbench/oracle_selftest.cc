/// \file oracle_selftest.cc
/// \brief Self-test of the benchmark's result oracle.
///
/// 1. A real query result with one flipped byte, one dropped tuple or one
///    duplicated tuple must be counted as failed; the same tuples in
///    another order must pass. Both the in-process (QueryResult) and the
///    wire (RemoteResult) fingerprint paths are checked.
/// 2. The ReferenceExecutor's sort-merge joins, which compute the paper
///    mix's expected results, must agree with its nested loops.
/// 3. Every workload, run briefly on a second seed, must finish with no
///    failed operation.
///
/// Exits 0 when every check passes.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "engine/reference.h"
#include "operators/page_sink.h"
#include "oracle.h"
#include "workload/paper_benchmark.h"
#include "workloads.h"

namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

/// Repacks \p tuples into pages, as an engine would return them.
dfdb::QueryResult AsQueryResult(const dfdb::Schema& schema,
                                const std::vector<std::string>& tuples) {
  dfdb::QueryResult result(schema);
  dfdb::PagedSink sink(0, schema.tuple_width(), 1024, [&](dfdb::PagePtr p) {
    result.AddPage(std::move(p));
    return dfdb::Status::OK();
  });
  for (const std::string& t : tuples) {
    if (!sink.Emit(dfdb::Slice(t)).ok()) std::abort();
  }
  if (!sink.Finish().ok()) std::abort();
  return result;
}

dfdb::net::RemoteResult AsRemoteResult(const dfdb::Schema& schema,
                                       const std::vector<std::string>& tuples) {
  dfdb::net::RemoteResult result;
  result.schema = schema;
  for (const std::string& t : tuples) result.tuples += t;
  result.num_tuples = tuples.size();
  return result;
}

void OracleCatchesCorruption() {
  dfdb::StorageEngine storage(16384);
  if (!dfdb::BuildPaperDatabase(&storage, 0.2, 7).ok()) std::abort();
  const std::vector<dfdb::Query> queries = dfdb::MakePaperBenchmarkQueries();
  // Q3: a join, so the tuples carry both inputs' bytes.
  auto ref = dfdb::ReferenceExecutor(&storage).Execute(*queries[2].root);
  if (!ref.ok() || ref->num_tuples() < 3) std::abort();
  const dfdb::Schema& schema = ref->schema();
  std::vector<std::string> tuples;
  for (const dfdb::PagePtr& page : ref->pages()) {
    for (int i = 0; i < page->num_tuples(); ++i) {
      tuples.push_back(page->tuple(i).ToString());
    }
  }
  const perfbench::Fingerprint expected = perfbench::FingerprintOf(*ref);

  struct Variant {
    const char* name;
    std::vector<std::string> tuples;
    bool should_match;
  };
  std::vector<Variant> variants;
  variants.push_back({"identical", tuples, true});
  std::vector<std::string> v = tuples;
  std::reverse(v.begin(), v.end());
  variants.push_back({"reordered", v, true});
  v = tuples;
  v[v.size() / 2][v[v.size() / 2].size() / 3] ^= 0x01;
  variants.push_back({"one flipped byte", v, false});
  v = tuples;
  v.erase(v.begin() + static_cast<long>(v.size() / 2));
  variants.push_back({"one dropped tuple", v, false});
  v = tuples;
  v.push_back(v[v.size() / 2]);
  variants.push_back({"one duplicated tuple", v, false});
  v = tuples;
  v.pop_back();
  variants.push_back({"truncated", v, false});

  for (const Variant& variant : variants) {
    for (int path = 0; path < 2; ++path) {
      const perfbench::Fingerprint got =
          path == 0 ? perfbench::FingerprintOf(
                          AsQueryResult(schema, variant.tuples))
                    : perfbench::FingerprintOf(
                          AsRemoteResult(schema, variant.tuples));
      perfbench::Tally tally;
      tally.Record(got == expected);
      const bool counted_right = tally.attempted == 1 &&
                                 tally.failed == (variant.should_match ? 0 : 1);
      Check(counted_right,
            std::string(path == 0 ? "in-process " : "wire ") + variant.name +
                (variant.should_match ? " passes" : " is counted failed"));
    }
  }
  // A wire payload whose length disagrees with its tuple count.
  dfdb::net::RemoteResult torn = AsRemoteResult(schema, tuples);
  torn.tuples.pop_back();
  Check(!(perfbench::FingerprintOf(torn) == expected),
        "wire payload shorter than its tuple count is counted failed");
}

void ReferenceFlavoursAgree() {
  dfdb::StorageEngine storage(16384);
  if (!dfdb::BuildPaperDatabase(&storage, 1.0, 3).ok()) std::abort();
  dfdb::ReferenceExecutor ref(&storage);
  for (const dfdb::Query& q : dfdb::MakePaperBenchmarkQueries()) {
    auto nested = ref.Execute(*q.root, /*use_sort_merge=*/false);
    auto merge = ref.Execute(*q.root, /*use_sort_merge=*/true);
    Check(nested.ok() && merge.ok() &&
              perfbench::FingerprintOf(*nested) ==
                  perfbench::FingerprintOf(*merge),
          q.name + ": sort-merge reference matches nested loops");
  }
}

void SecondSeedPasses() {
  for (const std::string& name : perfbench::WorkloadNames()) {
    perfbench::RunConfig config;
    config.workload = name;
    config.seed = 2;
    config.seconds = 1;
    config.databases = 2;
    auto outcome = perfbench::RunWorkload(config);
    const bool ok = outcome.ok() && outcome->correct && outcome->failed == 0 &&
                    outcome->attempted > 0;
    Check(ok, name + " on seed 2 has error_rate 0" +
                  (outcome.ok() ? "" : ": " + outcome.status().ToString()));
    if (outcome.ok()) {
      for (const std::string& note : outcome->notes) {
        std::printf("      %s\n", note.c_str());
      }
    }
  }
}

}  // namespace

int main() {
  OracleCatchesCorruption();
  ReferenceFlavoursAgree();
  SecondSeedPasses();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "OK" : "FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}
