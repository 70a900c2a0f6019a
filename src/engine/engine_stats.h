/// \file engine_stats.h
/// \brief Execution statistics gathered by the dataflow engine.

#ifndef DFDB_ENGINE_ENGINE_STATS_H_
#define DFDB_ENGINE_ENGINE_STATS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "index/index_stats.h"
#include "obs/counter_family.h"
#include "obs/run_report.h"
#include "operators/kernels.h"
#include "ra/physical_plan.h"
#include "storage/buffer_manager.h"
#include "storage/pushdown.h"
#include "storage/snapshot.h"

namespace dfdb {

/// \brief Per-query work counters (engine.*). The byte counters correspond
/// to the paper's network-bandwidth analysis: every instruction packet's
/// operand bytes pass the "arbitration" path to a processor; every result
/// page passes the "distribution" path back.
#define DFDB_ENGINE_WORK_COUNTERS(X)                                       \
  X(tasks_executed, "tasks_executed")                                      \
  /* Instruction packets dispatched (a join outer-page task counts once */ \
  /* per inner page it consumes, since each consumption is one */          \
  /* broadcast delivery). */                                               \
  X(packets, "packets")                                                    \
  /* Operand payload bytes moved memory -> processor. */                   \
  X(arbitration_bytes, "arbitration_bytes")                                \
  /* Result payload bytes moved processor -> memory. */                    \
  X(distribution_bytes, "distribution_bytes")                              \
  /* Packet-overhead bytes (packets * overhead). */                        \
  X(overhead_bytes, "overhead_bytes")                                      \
  X(pages_produced, "pages_produced")                                      \
  X(tuples_produced, "tuples_produced")
DFDB_COUNTERS(EngineWorkCounters, DFDB_ENGINE_WORK_COUNTERS);
DFDB_ATOMIC_COUNTERS(EngineWorkStats, EngineWorkCounters,
                     DFDB_ENGINE_WORK_COUNTERS);

/// \brief Pool-wide fault-injection outcomes (engine.faults.*,
/// EngineFaultPlan).
#define DFDB_ENGINE_FAULT_COUNTERS(X)                                      \
  X(faults_injected, "faults.injected")                                    \
  X(workers_abandoned, "faults.workers_abandoned")                         \
  /* Tasks pushed back to the queue by an abandoning worker and later */   \
  /* completed by a survivor. */                                           \
  X(redispatched_tasks, "faults.redispatched_tasks")                       \
  /* Poisoned packets detected and dropped by workers. */                  \
  X(poison_dropped, "faults.poison_dropped")
DFDB_COUNTERS(EngineFaultCounters, DFDB_ENGINE_FAULT_COUNTERS);
DFDB_ATOMIC_COUNTERS(EngineFaultStats, EngineFaultCounters,
                     DFDB_ENGINE_FAULT_COUNTERS);

/// \brief MC scheduler admission outcomes (engine.sched.*). Per-query
/// snapshots carry this query's own values (admitted/queued are then
/// 0-or-1); batch and scheduler aggregates carry totals. queue_wait_ns is
/// exactly 0 for queries admitted without waiting, so seeded conflict-free
/// runs stay deterministic.
#define DFDB_ENGINE_SCHED_COUNTERS(X)                                      \
  /* Queries admitted immediately. */                                      \
  X(sched_admitted, "sched.admitted")                                      \
  /* Queries that waited in the MC queue. */                               \
  X(sched_queued, "sched.queued")                                          \
  /* Failed re-admission probes. */                                        \
  X(sched_requeues, "sched.requeues")                                      \
  /* Time spent waiting for admission. */                                  \
  X(sched_queue_wait_ns, "sched.queue_wait_ns")                            \
  /* Conflicting bypasses while waiting. */                                \
  X(sched_skips, "sched.skips")
DFDB_COUNTERS(EngineSchedCounters, DFDB_ENGINE_SCHED_COUNTERS);

/// \brief MVCC snapshot-read outcomes (engine.mvcc.*): the storage-wide
/// MvccStats observed at a query's completion (per-query snapshots) or now
/// (scheduler aggregates).
#define DFDB_ENGINE_MVCC_COUNTERS(X)                                       \
  X(mvcc_snapshots_open, "mvcc.snapshots_open")                            \
  X(mvcc_snapshots_captured, "mvcc.snapshots_captured")                    \
  X(mvcc_versions_live, "mvcc.versions_live")                              \
  X(mvcc_pages_copied, "mvcc.pages_copied")                                \
  X(mvcc_gc_reclaimed, "mvcc.gc_reclaimed")                                \
  X(mvcc_commits, "mvcc.commits")
DFDB_COUNTERS(EngineMvccCounters, DFDB_ENGINE_MVCC_COUNTERS);

/// The engine.mvcc.* view of \p mvcc.
EngineMvccCounters MvccCountersOf(const MvccStats& mvcc);

/// \brief Thread-safe per-query counters updated by worker threads.
struct EngineCounters : EngineWorkStats {
  /// Pipeline-fusion outcomes (engine.pipeline.*). Edges are counted once
  /// per query at task-build time; pages as the fused chains run.
  PipelineStats pipeline;
  /// Compiled-vs-interpreted kernel split (engine.kernel.*).
  KernelStats kernel;
  /// Access-path pruning outcomes (engine.index.*).
  IndexPruneStats index;
  /// Near-data pushdown outcomes (engine.pushdown.*).
  PushdownStats pushdown;
};

/// \brief Immutable snapshot of one query (or batch) execution.
///
/// Per-query snapshots ride on QueryResult::stats(); the batch aggregate is
/// returned through the `batch_stats` out-parameter of RunQuery/RunBatch.
/// Fault counters and buffer traffic are pool-wide, so they appear only in
/// the batch aggregate (zero in per-query snapshots).
struct ExecStats : EngineWorkCounters,
                   EngineFaultCounters,
                   EngineSchedCounters,
                   EngineMvccCounters {
  double wall_seconds = 0;
  /// Pipeline-fusion outcomes (engine.pipeline.*).
  PipelineCounters pipeline;
  /// Kernel-compilation outcomes (engine.kernel.*): how many pages ran the
  /// compiled program vs the interpreted Expr tree, how often compilation
  /// was refused, and which join path page pairs took.
  KernelStatsSnapshot kernel;
  /// Access-path pruning outcomes (engine.index.*): pages skipped via zone
  /// maps / grid-file probes on marked scans.
  IndexPruneCounters index;
  /// Near-data pushdown outcomes (engine.pushdown.*): restricts executed
  /// inside the buffer hierarchy on marked scans.
  PushdownCounters pushdown;
  BufferStats buffer;
  /// Event trace of the run this snapshot belongs to, when
  /// ExecOptions::enable_trace was set (shared across the batch; events
  /// carry their query index). Null otherwise.
  std::shared_ptr<const obs::Trace> trace;

  uint64_t network_bytes() const {
    return arbitration_bytes + distribution_bytes + overhead_bytes;
  }

  /// Average offered network load over the run, bits per second.
  double network_bps() const {
    return wall_seconds > 0
               ? static_cast<double>(network_bytes()) * 8.0 / wall_seconds
               : 0.0;
  }

  /// Backend-agnostic view (counters under `engine.*` / `storage.*`).
  obs::RunReport ToReport() const;

  std::string ToString() const;
};

/// The " | pipeline: ... | index: ... | pushdown: ... | kernel: ..." tail
/// both backends' ToString() append (families with no activity omitted).
std::string PlanCountersToString(const PipelineCounters& pipeline,
                                 const IndexPruneCounters& index,
                                 const PushdownCounters& pushdown,
                                 const KernelStatsSnapshot& kernel);

/// Registers every ExecStats counter into \p registry under the
/// observability naming scheme (`engine.tasks_executed`,
/// `engine.arbitration_bytes`, `engine.faults.injected`, `storage.*`, ...).
void RegisterMetrics(const ExecStats& stats, obs::MetricsRegistry* registry);

}  // namespace dfdb

#endif  // DFDB_ENGINE_ENGINE_STATS_H_
