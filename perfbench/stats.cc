#include "stats.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "heap_counter.h"

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  // cpu user nice system idle iowait irq softirq steal ...
  unsigned long long v[8] = {};
  const int fields =
      std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (fields != 8) return t;
  for (unsigned long long x : v) t.wanted += x;
  t.wanted -= v[3] + v[4];  // idle, iowait
  t.steal = v[7];
  return t;
}

namespace {

constexpr double kMb = 1024.0 * 1024.0;

/// Resident set size of this process in MB, 0 if unknown.
double RssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int fields = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (fields != 2) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / kMb;
}

}  // namespace

MemorySampler::MemorySampler() : thread_([this] {
  while (!stop_.load(std::memory_order_relaxed)) {
    Sample();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}) {}

MemorySampler::~MemorySampler() { Stop(); }

void MemorySampler::Sample() {
  peak_rss_mb_ = std::max(peak_rss_mb_, RssMb());
  heap_sum_mb_ += static_cast<double>(HeapBytesInUse()) / kMb;
  ++samples_;
}

void MemorySampler::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
}

}  // namespace perfbench
