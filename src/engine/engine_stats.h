/// \file engine_stats.h
/// \brief Execution statistics gathered by the dataflow engine.

#ifndef DFDB_ENGINE_ENGINE_STATS_H_
#define DFDB_ENGINE_ENGINE_STATS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "index/index_stats.h"
#include "obs/run_report.h"
#include "operators/kernels.h"
#include "ra/physical_plan.h"
#include "storage/buffer_manager.h"
#include "storage/pushdown.h"

namespace dfdb {

/// \brief Thread-safe counters updated by worker threads.
///
/// The byte counters correspond to the paper's network-bandwidth analysis:
/// every instruction packet's operand bytes pass the "arbitration" path to a
/// processor; every result page passes the "distribution" path back.
struct EngineCounters {
  std::atomic<uint64_t> tasks_executed{0};
  /// Instruction packets dispatched (a join outer-page task counts once per
  /// inner page it consumes, since each consumption is one broadcast
  /// delivery).
  std::atomic<uint64_t> packets{0};
  /// Operand payload bytes moved memory -> processor.
  std::atomic<uint64_t> arbitration_bytes{0};
  /// Result payload bytes moved processor -> memory.
  std::atomic<uint64_t> distribution_bytes{0};
  /// Packet-overhead bytes (packets * overhead).
  std::atomic<uint64_t> overhead_bytes{0};
  std::atomic<uint64_t> pages_produced{0};
  std::atomic<uint64_t> tuples_produced{0};
  // Fault injection (EngineFaultPlan).
  std::atomic<uint64_t> faults_injected{0};
  std::atomic<uint64_t> workers_abandoned{0};
  /// Tasks pushed back to the queue by an abandoning worker and later
  /// completed by a survivor.
  std::atomic<uint64_t> redispatched_tasks{0};
  /// Poisoned packets detected and dropped by workers.
  std::atomic<uint64_t> poison_dropped{0};
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
/// returned through the `batch_stats` out-parameter of
/// Executor::Execute/ExecuteBatch. Fault counters and buffer traffic are
/// pool-wide, so they appear only in the batch aggregate (zero in per-query
/// snapshots).
struct ExecStats {
  double wall_seconds = 0;
  uint64_t tasks_executed = 0;
  uint64_t packets = 0;
  uint64_t arbitration_bytes = 0;
  uint64_t distribution_bytes = 0;
  uint64_t overhead_bytes = 0;
  uint64_t pages_produced = 0;
  uint64_t tuples_produced = 0;
  uint64_t faults_injected = 0;
  uint64_t workers_abandoned = 0;
  uint64_t redispatched_tasks = 0;
  uint64_t poison_dropped = 0;
  /// Pipeline-fusion outcomes (engine.pipeline.*).
  PipelineCounters pipeline;
  // MC scheduler admission outcomes (engine.sched.*). Per-query snapshots
  // carry this query's own values (admitted/queued are then 0-or-1); batch
  // and scheduler aggregates carry totals. queue_wait_ns is exactly 0 for
  // queries admitted without waiting, so seeded conflict-free runs stay
  // deterministic.
  uint64_t sched_admitted = 0;      ///< Queries admitted immediately.
  uint64_t sched_queued = 0;        ///< Queries that waited in the MC queue.
  uint64_t sched_requeues = 0;      ///< Failed re-admission probes.
  uint64_t sched_queue_wait_ns = 0; ///< Time spent waiting for admission.
  uint64_t sched_skips = 0;         ///< Conflicting bypasses while waiting.
  // MVCC snapshot-read outcomes (engine.mvcc.*). Per-query snapshots carry
  // the storage-wide counter values observed at completion; scheduler
  // aggregates carry the live storage-wide values.
  uint64_t mvcc_snapshots_open = 0;     ///< Live snapshots right now.
  uint64_t mvcc_snapshots_captured = 0; ///< Snapshots ever captured.
  uint64_t mvcc_versions_live = 0;      ///< Version records across files.
  uint64_t mvcc_pages_copied = 0;       ///< Pages rewritten copy-on-write.
  uint64_t mvcc_gc_reclaimed = 0;       ///< Retired pages freed by GC.
  uint64_t mvcc_commits = 0;            ///< Versions installed (commits).
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
