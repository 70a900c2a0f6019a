/// \file run.h
/// \brief One-shot query execution entry points.
///
/// RunQuery/RunBatch stand up a private Scheduler per call — workers run to
/// completion and tear down, so wall-clock measurements are self-contained
/// and batches replay deterministically with one worker (the scheduler is
/// started only after every query has been submitted and stamped).
/// Long-lived multi-user services should hold a resident Scheduler and call
/// Submit() directly.

#ifndef DFDB_ENGINE_RUN_H_
#define DFDB_ENGINE_RUN_H_

#include <vector>

#include "common/statusor.h"
#include "engine/engine_stats.h"
#include "engine/exec_options.h"
#include "engine/query_result.h"
#include "ra/plan.h"
#include "storage/storage_engine.h"

namespace dfdb {

/// Runs one query on a private one-shot scheduler. The plan is cloned and
/// analyzed internally, so \p plan may be reused across runs and engines.
///
/// Statistics ride on the result: `result.stats()` holds the per-query
/// snapshot (and the trace when ExecOptions::enable_trace is set). When
/// \p batch_stats is non-null it receives the whole-run aggregate,
/// including pool-wide fault counters and buffer-hierarchy traffic.
StatusOr<QueryResult> RunQuery(StorageEngine* storage, const PlanNode& plan,
                               const ExecOptions& options,
                               ExecStats* batch_stats = nullptr);

/// Runs a batch of queries concurrently under the scheduler's concurrency
/// control: with MVCC snapshots (the default) every query is stamped with a
/// snapshot in submission order — readers never queue, writers serialize on
/// write-write conflicts only. Results are returned in input order, each
/// carrying its own per-query ExecStats; \p batch_stats (optional) receives
/// the batch aggregate.
StatusOr<std::vector<QueryResult>> RunBatch(
    StorageEngine* storage, const std::vector<const PlanNode*>& plans,
    const ExecOptions& options, ExecStats* batch_stats = nullptr);

}  // namespace dfdb

#endif  // DFDB_ENGINE_RUN_H_
