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

obs::RunReport MachineReport::ToReport() const {
  obs::RunReport report;
  report.backend = "machine";
  report.seconds = makespan.ToSecondsF();
  report.simulated_time = true;
  report.data_bytes = bytes.outer_ring;
  report.packets = instruction_packets + result_packets + control_packets;
  report.faults = faults.injected;
  obs::MetricsRegistry* registry = &report.counters;
  obs::RegisterCounters(bytes, "machine.", registry);
  obs::RegisterCounters<MachinePacketCounters>(*this, "machine.", registry);
  obs::RegisterCounters<MachineFaultCounters>(faults, "machine.faults.",
                                              registry);
  registry->Set("machine.faults.retry_ns_lost",
                static_cast<uint64_t>(faults.retry_ticks_lost.nanos()));
  registry->Set("machine.faults.cache_stall_ns",
                static_cast<uint64_t>(faults.cache_stall_time.nanos()));
  obs::RegisterCounters(pipeline, "machine.pipeline.", registry);
  obs::RegisterCounters(kernel, "machine.kernel.", registry);
  obs::RegisterCounters(index, "machine.index.", registry);
  obs::RegisterCounters(pushdown, "machine.pushdown.", registry);
  registry->Set("machine.num_ips", static_cast<uint64_t>(num_ips));
  registry->Set("machine.makespan_ns", static_cast<uint64_t>(makespan.nanos()));
  registry->Set("machine.ip_busy_ns",
                static_cast<uint64_t>(ip_busy_total.nanos()));
  report.trace = trace;
  return report;
}

}  // namespace dfdb
