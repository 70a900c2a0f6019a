/// \file index_stats.h
/// \brief Counters for the access-path layer (zone maps + grid files).
///
/// Dependency-free so every layer that reports pruning —
/// the threads engine (per-query EngineCounters), the ring simulator
/// (MachineReport), and the benches — can share one counter vocabulary.
/// Published as `engine.index.*` / `machine.index.*` in the metrics
/// registry.

#ifndef DFDB_INDEX_INDEX_STATS_H_
#define DFDB_INDEX_INDEX_STATS_H_

#include "obs/counter_family.h"

namespace dfdb {

/// \brief Access-path pruning outcomes, exported as `engine.index.*` /
/// `machine.index.*`. The engine's per-query EngineCounters embeds the
/// atomic IndexPruneStats (many workers prune scans of one query
/// concurrently); reports carry the plain IndexPruneCounters.
#define DFDB_INDEX_PRUNE_COUNTERS(X)                                     \
  /* Pages a marked scan skipped entirely (never staged, never */        \
  /* scanned). */                                                        \
  X(pages_pruned, "pages_pruned")                                        \
  /* Pages eliminated because their zone map cannot contain a match. */  \
  X(zonemap_hits, "zonemap_hits")                                        \
  /* Grid-file lookups performed (one per probed scan). */               \
  X(gridfile_probes, "gridfile_probes")                                  \
  /* Marked scans that fell back to zone-map-only or full scanning */    \
  /* (index dropped, unusable bounds, dirty relation state, ...). */     \
  X(fallback_scans, "fallback_scans")
DFDB_COUNTERS(IndexPruneCounters, DFDB_INDEX_PRUNE_COUNTERS);
DFDB_ATOMIC_COUNTERS(IndexPruneStats, IndexPruneCounters,
                     DFDB_INDEX_PRUNE_COUNTERS);

}  // namespace dfdb

#endif  // DFDB_INDEX_INDEX_STATS_H_
