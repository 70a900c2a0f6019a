#include "engine/engine_stats.h"

#include "common/string_util.h"
#include "obs/metrics.h"

namespace dfdb {

EngineMvccCounters MvccCountersOf(const MvccStats& mvcc) {
  EngineMvccCounters c;
  c.mvcc_snapshots_open = mvcc.snapshots_open;
  c.mvcc_snapshots_captured = mvcc.snapshots_captured;
  c.mvcc_versions_live = mvcc.versions_live;
  c.mvcc_pages_copied = mvcc.pages_copied;
  c.mvcc_gc_reclaimed = mvcc.gc_reclaimed;
  c.mvcc_commits = mvcc.commits;
  return c;
}

std::string PlanCountersToString(const PipelineCounters& pipeline,
                                 const IndexPruneCounters& index,
                                 const PushdownCounters& pushdown,
                                 const KernelStatsSnapshot& kernel) {
  std::string out;
  obs::AppendCounters(&out, "pipeline", pipeline);
  obs::AppendCounters(&out, "index", index);
  obs::AppendCounters(&out, "pushdown", pushdown);
  obs::AppendCounters(&out, "kernel", kernel);
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
  obs::RegisterCounters<EngineWorkCounters>(stats, "engine.", registry);
  obs::RegisterCounters<EngineFaultCounters>(stats, "engine.", registry);
  obs::RegisterCounters<EngineSchedCounters>(stats, "engine.", registry);
  obs::RegisterCounters<EngineMvccCounters>(stats, "engine.", registry);
  registry->Set("engine.network_bytes", stats.network_bytes());
  obs::RegisterCounters(stats.pipeline, "engine.pipeline.", registry);
  obs::RegisterCounters(stats.kernel, "engine.kernel.", registry);
  obs::RegisterCounters(stats.index, "engine.index.", registry);
  obs::RegisterCounters(stats.pushdown, "engine.pushdown.", registry);
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
