#include "machine/report.h"

#include "common/string_util.h"
#include "engine/engine_stats.h"
#include "obs/metrics.h"

namespace dfdb {

std::string MachineReport::ToString() const {
  std::string out = StrFormat(
      "makespan=%s outer=%s inner=%s cache=%s disk=%s ipUtil=%.1f%% "
      "(ipkt=%llu rpkt=%llu cpkt=%llu bcast=%llu events=%llu)",
      makespan.ToString().c_str(), HumanBitsPerSecond(OuterRingBps()).c_str(),
      HumanBitsPerSecond(InnerRingBps()).c_str(),
      HumanBitsPerSecond(CacheBps()).c_str(),
      HumanBitsPerSecond(DiskBps()).c_str(), IpUtilization() * 100.0,
      static_cast<unsigned long long>(instruction_packets),
      static_cast<unsigned long long>(result_packets),
      static_cast<unsigned long long>(control_packets),
      static_cast<unsigned long long>(broadcasts),
      static_cast<unsigned long long>(events));
  if (faults.any()) {
    out += " | ";
    out += faults.ToString();
  }
  out += PlanCountersToString(pipeline, index, pushdown, kernel);
  return out;
}

void RegisterMetrics(const LevelBytes& bytes, obs::MetricsRegistry* registry) {
  registry->Set("machine.outer_ring_bytes", bytes.outer_ring);
  registry->Set("machine.inner_ring_bytes", bytes.inner_ring);
  registry->Set("machine.cache_to_ic_bytes", bytes.cache_to_ic);
  registry->Set("machine.ic_to_cache_bytes", bytes.ic_to_cache);
  registry->Set("machine.disk_read_bytes", bytes.disk_read);
  registry->Set("machine.disk_write_bytes", bytes.disk_write);
}

void RegisterMetrics(const FaultStats& faults, obs::MetricsRegistry* registry) {
  registry->Set("machine.faults.injected", faults.injected);
  registry->Set("machine.faults.ip_kills", faults.ip_kills);
  registry->Set("machine.faults.ic_failures", faults.ic_failures);
  registry->Set("machine.faults.packets_dropped", faults.packets_dropped);
  registry->Set("machine.faults.packets_corrupted", faults.packets_corrupted);
  registry->Set("machine.faults.cache_stalls", faults.cache_stalls);
  registry->Set("machine.faults.timeouts", faults.timeouts);
  registry->Set("machine.faults.retries", faults.retries);
  registry->Set("machine.faults.redispatches", faults.redispatches);
  registry->Set("machine.faults.instructions_rehomed",
                faults.instructions_rehomed);
  registry->Set("machine.faults.retry_ns_lost",
                static_cast<uint64_t>(faults.retry_ticks_lost.nanos()));
  registry->Set("machine.faults.cache_stall_ns",
                static_cast<uint64_t>(faults.cache_stall_time.nanos()));
}

obs::RunReport MachineReport::ToReport() const {
  obs::RunReport report;
  report.backend = "machine";
  report.seconds = makespan.ToSecondsF();
  report.simulated_time = true;
  report.data_bytes = bytes.outer_ring;
  report.packets = instruction_packets + result_packets + control_packets;
  report.faults = faults.injected;
  RegisterMetrics(bytes, &report.counters);
  RegisterMetrics(faults, &report.counters);
  report.counters.Set("machine.instruction_packets", instruction_packets);
  report.counters.Set("machine.result_packets", result_packets);
  report.counters.Set("machine.control_packets", control_packets);
  report.counters.Set("machine.broadcasts", broadcasts);
  report.counters.Set("machine.direct_routes", direct_routes);
  report.counters.Set("machine.events", events);
  RegisterPipelineMetrics(pipeline, "machine.pipeline.", &report.counters);
  RegisterKernelMetrics(kernel, "machine.kernel.", &report.counters);
  RegisterIndexMetrics(index, "machine.index.", &report.counters);
  RegisterPushdownMetrics(pushdown, "machine.pushdown.", &report.counters);
  report.counters.Set("machine.num_ips", static_cast<uint64_t>(num_ips));
  report.counters.Set("machine.makespan_ns",
                      static_cast<uint64_t>(makespan.nanos()));
  report.counters.Set("machine.ip_busy_ns",
                      static_cast<uint64_t>(ip_busy_total.nanos()));
  report.trace = trace;
  return report;
}

}  // namespace dfdb
