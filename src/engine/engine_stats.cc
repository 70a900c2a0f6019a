#include "engine/engine_stats.h"

#include "common/string_util.h"
#include "obs/metrics.h"

namespace dfdb {

std::string PlanCountersToString(const PipelineCounters& pipeline,
                                 const IndexPruneCounters& index,
                                 const PushdownCounters& pushdown,
                                 const KernelStatsSnapshot& kernel) {
  std::string out;
  if (pipeline.fused_edges > 0 || pipeline.runtime_fallbacks > 0) {
    out += StrFormat(
        " | pipeline: fused=%llu materialized=%llu elided=%llu "
        "fused_pages=%llu fallbacks=%llu",
        static_cast<unsigned long long>(pipeline.fused_edges),
        static_cast<unsigned long long>(pipeline.materialized_edges),
        static_cast<unsigned long long>(pipeline.pages_elided),
        static_cast<unsigned long long>(pipeline.fused_pages),
        static_cast<unsigned long long>(pipeline.runtime_fallbacks));
  }
  if (index.any()) {
    out += StrFormat(
        " | index: pruned=%llu zonemap=%llu probes=%llu fallbacks=%llu",
        static_cast<unsigned long long>(index.pages_pruned),
        static_cast<unsigned long long>(index.zonemap_hits),
        static_cast<unsigned long long>(index.gridfile_probes),
        static_cast<unsigned long long>(index.fallback_scans));
  }
  if (pushdown.any()) {
    out += StrFormat(
        " | pushdown: pages=%llu in=%llu out=%llu elided=%s fallbacks=%llu",
        static_cast<unsigned long long>(pushdown.pages_filtered),
        static_cast<unsigned long long>(pushdown.tuples_in),
        static_cast<unsigned long long>(pushdown.tuples_out),
        HumanBytes(static_cast<int64_t>(pushdown.bytes_elided)).c_str(),
        static_cast<unsigned long long>(pushdown.fallbacks));
  }
  if (kernel.compiled_pages > 0 || kernel.interpreted_pages > 0 ||
      kernel.hash_joins > 0 || kernel.nested_joins > 0) {
    out += StrFormat(
        " | kernel: compiled=%llu interpreted=%llu fallbacks=%llu "
        "hash_joins=%llu nested_joins=%llu collisions=%llu",
        static_cast<unsigned long long>(kernel.compiled_pages),
        static_cast<unsigned long long>(kernel.interpreted_pages),
        static_cast<unsigned long long>(kernel.compile_fallbacks),
        static_cast<unsigned long long>(kernel.hash_joins),
        static_cast<unsigned long long>(kernel.nested_joins),
        static_cast<unsigned long long>(kernel.hash_build_collisions));
  }
  return out;
}

std::string ExecStats::ToString() const {
  std::string out = StrFormat(
      "wall=%.3fs tasks=%llu packets=%llu arb=%s dist=%s ovh=%s pages=%llu "
      "tuples=%llu | %s",
      wall_seconds, static_cast<unsigned long long>(tasks_executed),
      static_cast<unsigned long long>(packets),
      HumanBytes(static_cast<int64_t>(arbitration_bytes)).c_str(),
      HumanBytes(static_cast<int64_t>(distribution_bytes)).c_str(),
      HumanBytes(static_cast<int64_t>(overhead_bytes)).c_str(),
      static_cast<unsigned long long>(pages_produced),
      static_cast<unsigned long long>(tuples_produced),
      buffer.ToString().c_str());
  if (sched_queued > 0) {
    out += StrFormat(
        " | sched: admitted=%llu queued=%llu requeues=%llu wait=%.3fms",
        static_cast<unsigned long long>(sched_admitted),
        static_cast<unsigned long long>(sched_queued),
        static_cast<unsigned long long>(sched_requeues),
        static_cast<double>(sched_queue_wait_ns) / 1e6);
  }
  if (faults_injected > 0) {
    out += StrFormat(
        " | faults=%llu abandoned=%llu redispatched=%llu poison=%llu",
        static_cast<unsigned long long>(faults_injected),
        static_cast<unsigned long long>(workers_abandoned),
        static_cast<unsigned long long>(redispatched_tasks),
        static_cast<unsigned long long>(poison_dropped));
  }
  out += PlanCountersToString(pipeline, index, pushdown, kernel);
  return out;
}

void RegisterMetrics(const ExecStats& stats, obs::MetricsRegistry* registry) {
  registry->Set("engine.tasks_executed", stats.tasks_executed);
  registry->Set("engine.packets", stats.packets);
  registry->Set("engine.arbitration_bytes", stats.arbitration_bytes);
  registry->Set("engine.distribution_bytes", stats.distribution_bytes);
  registry->Set("engine.overhead_bytes", stats.overhead_bytes);
  registry->Set("engine.network_bytes", stats.network_bytes());
  registry->Set("engine.pages_produced", stats.pages_produced);
  registry->Set("engine.tuples_produced", stats.tuples_produced);
  registry->Set("engine.sched.admitted", stats.sched_admitted);
  registry->Set("engine.sched.queued", stats.sched_queued);
  registry->Set("engine.sched.requeues", stats.sched_requeues);
  registry->Set("engine.sched.queue_wait_ns", stats.sched_queue_wait_ns);
  registry->Set("engine.sched.skips", stats.sched_skips);
  registry->Set("engine.mvcc.snapshots_open", stats.mvcc_snapshots_open);
  registry->Set("engine.mvcc.snapshots_captured",
                stats.mvcc_snapshots_captured);
  registry->Set("engine.mvcc.versions_live", stats.mvcc_versions_live);
  registry->Set("engine.mvcc.pages_copied", stats.mvcc_pages_copied);
  registry->Set("engine.mvcc.gc_reclaimed", stats.mvcc_gc_reclaimed);
  registry->Set("engine.mvcc.commits", stats.mvcc_commits);
  RegisterPipelineMetrics(stats.pipeline, "engine.pipeline.", registry);
  RegisterKernelMetrics(stats.kernel, "engine.kernel.", registry);
  RegisterIndexMetrics(stats.index, "engine.index.", registry);
  RegisterPushdownMetrics(stats.pushdown, "engine.pushdown.", registry);
  registry->Set("engine.faults.injected", stats.faults_injected);
  registry->Set("engine.faults.workers_abandoned", stats.workers_abandoned);
  registry->Set("engine.faults.redispatched_tasks", stats.redispatched_tasks);
  registry->Set("engine.faults.poison_dropped", stats.poison_dropped);
  RegisterMetrics(stats.buffer, registry);
}

obs::RunReport ExecStats::ToReport() const {
  obs::RunReport report;
  report.backend = "engine";
  report.seconds = wall_seconds;
  report.simulated_time = false;
  report.data_bytes = network_bytes();
  report.packets = packets;
  report.faults = faults_injected;
  RegisterMetrics(*this, &report.counters);
  report.trace = trace;
  return report;
}

}  // namespace dfdb
