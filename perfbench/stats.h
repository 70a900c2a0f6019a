/// \file stats.h
/// \brief Small measurement helpers shared by the benchmark's workloads:
/// percentiles over latency samples, a memory sampler, and the named metric
/// map the result line is printed from.

#ifndef DFDB_PERFBENCH_STATS_H_
#define DFDB_PERFBENCH_STATS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since \p start.
inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Milliseconds between two instants.
inline double Millis(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank percentile (\p p in [0,1]) of \p values; 0 when empty.
/// Sorts its argument.
double Percentile(std::vector<double> values, double p);

/// Median of \p values (nearest rank); 0 when empty.
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// Samples resident and in-use heap memory every millisecond on its own
/// thread: the resident peak over an interval (the kernel's VmHWM holds
/// the peak of the whole process) and the time-averaged heap in use —
/// memory allocated with operator new and not yet freed (heap_counter.h),
/// which unlike the resident set excludes freed memory the allocator keeps.
class MemorySampler {
 public:
  MemorySampler();
  ~MemorySampler();
  MemorySampler(const MemorySampler&) = delete;
  MemorySampler& operator=(const MemorySampler&) = delete;

  /// Stops sampling; idempotent.
  void Stop();
  /// Read after Stop().
  double peak_rss_mb() const { return peak_rss_mb_; }
  double mean_heap_mb() const { return samples_ ? heap_sum_mb_ / samples_ : 0; }

 private:
  void Sample();

  std::atomic<bool> stop_{false};
  // Written only by the sampling thread until Stop() joins it.
  double peak_rss_mb_ = 0;
  double heap_sum_mb_ = 0;
  int64_t samples_ = 0;
  std::thread thread_;  // Declared last: it reads the members above.
};

/// The host's CPU time counters (/proc/stat), summed over all CPUs.
struct CpuTicks {
  uint64_t steal = 0;   ///< Time the hypervisor ran something else.
  uint64_t wanted = 0;  ///< Time not idle: run or stolen.
};

/// The counters now; zeros when /proc/stat cannot be read.
CpuTicks ReadCpuTicks();

/// Share of the CPU time wanted between \p a and \p b that the hypervisor
/// stole; 0 if unknown. Idle CPUs are not counted, so a single busy thread
/// that loses a fifth of its time shows as 0.2 on any number of CPUs.
inline double StealShare(const CpuTicks& a, const CpuTicks& b) {
  return b.wanted > a.wanted ? static_cast<double>(b.steal - a.steal) /
                                   static_cast<double>(b.wanted - a.wanted)
                             : 0;
}

/// One reported number and its unit.
struct Metric {
  double value = 0;
  std::string unit;
};

/// Metrics by name; std::map keeps the printed order stable.
using MetricMap = std::map<std::string, Metric>;

}  // namespace perfbench

#endif  // DFDB_PERFBENCH_STATS_H_
