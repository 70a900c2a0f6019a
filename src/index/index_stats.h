/// \file index_stats.h
/// \brief Counters for the access-path layer (zone maps + grid files).
///
/// Dependency-free so every layer that reports pruning —
/// the threads engine (per-query EngineCounters), the ring simulator
/// (MachineReport), and the benches — can share one counter vocabulary.
/// Published as `engine.index.*` / `machine.index.*` in the metrics
/// registry (RegisterIndexMetrics, defined in access_path.cc).

#ifndef DFDB_INDEX_INDEX_STATS_H_
#define DFDB_INDEX_INDEX_STATS_H_

#include <atomic>
#include <cstdint>

namespace dfdb {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// \brief Plain snapshot of the pruning counters (report/stats structs).
struct IndexPruneCounters {
  /// Pages a marked scan skipped entirely (never staged, never scanned).
  uint64_t pages_pruned = 0;
  /// Pages eliminated because their zone map cannot contain a match.
  uint64_t zonemap_hits = 0;
  /// Grid-file lookups performed (one per probed scan).
  uint64_t gridfile_probes = 0;
  /// Marked scans that fell back to zone-map-only or full scanning
  /// (index dropped, unusable bounds, dirty relation state, ...).
  uint64_t fallback_scans = 0;

  IndexPruneCounters& operator+=(const IndexPruneCounters& o) {
    pages_pruned += o.pages_pruned;
    zonemap_hits += o.zonemap_hits;
    gridfile_probes += o.gridfile_probes;
    fallback_scans += o.fallback_scans;
    return *this;
  }
  bool any() const {
    return pages_pruned || zonemap_hits || gridfile_probes || fallback_scans;
  }
};

/// \brief Thread-safe accumulator, embedded in the engine's per-query
/// EngineCounters (many workers prune scans of one query concurrently).
struct IndexPruneStats {
  std::atomic<uint64_t> pages_pruned{0};
  std::atomic<uint64_t> zonemap_hits{0};
  std::atomic<uint64_t> gridfile_probes{0};
  std::atomic<uint64_t> fallback_scans{0};

  void Add(const IndexPruneCounters& c) {
    pages_pruned.fetch_add(c.pages_pruned, std::memory_order_relaxed);
    zonemap_hits.fetch_add(c.zonemap_hits, std::memory_order_relaxed);
    gridfile_probes.fetch_add(c.gridfile_probes, std::memory_order_relaxed);
    fallback_scans.fetch_add(c.fallback_scans, std::memory_order_relaxed);
  }

  IndexPruneCounters Snapshot() const {
    IndexPruneCounters c;
    c.pages_pruned = pages_pruned.load(std::memory_order_relaxed);
    c.zonemap_hits = zonemap_hits.load(std::memory_order_relaxed);
    c.gridfile_probes = gridfile_probes.load(std::memory_order_relaxed);
    c.fallback_scans = fallback_scans.load(std::memory_order_relaxed);
    return c;
  }
};

/// Registers every counter under \p prefix, e.g. `engine.index.` ->
/// `engine.index.pages_pruned`, ...
void RegisterIndexMetrics(const IndexPruneCounters& counters,
                          const char* prefix, obs::MetricsRegistry* registry);

}  // namespace dfdb

#endif  // DFDB_INDEX_INDEX_STATS_H_
