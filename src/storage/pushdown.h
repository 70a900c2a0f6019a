/// \file pushdown.h
/// \brief Near-data predicate pushdown interfaces and counters.
///
/// The paper's segmented per-IC disk cache (Section 4.1) exists so operand
/// pages can be filtered close to where they live instead of saturating the
/// arbitration network (Section 3.3). These types let the storage hierarchy
/// run a compiled restrict during the cache -> local transfer without the
/// storage layer depending on the expression subsystem: the engine adapts a
/// `CompiledPredicate` behind `PushdownFilter` and an output `Edge` behind
/// `PushdownSink`, and `BufferManager::ReadFiltered` ships only surviving
/// tuples up the hierarchy.

#ifndef DFDB_STORAGE_PUSHDOWN_H_
#define DFDB_STORAGE_PUSHDOWN_H_

#include "common/slice.h"
#include "common/status.h"
#include "obs/counter_family.h"

namespace dfdb {

/// \brief A predicate evaluated against raw tuple bytes at a storage level.
///
/// Implementations must be infallible per tuple (the engine guarantees this
/// by only pushing down `CompiledPredicate` programs, whose per-tuple error
/// paths are rejected at compile time) and thread-compatible: `Matches` is
/// called concurrently for distinct pages but never mutates shared state.
class PushdownFilter {
 public:
  virtual ~PushdownFilter() = default;
  virtual bool Matches(const char* tuple) const = 0;
};

/// \brief Receives the tuples that survive a pushed-down read.
class PushdownSink {
 public:
  virtual ~PushdownSink() = default;
  virtual Status Emit(Slice tuple) = 0;
};

/// \brief Outcomes of pushed-down reads, exported as `engine.pushdown.*` /
/// `machine.pushdown.*` depending on the backend that accumulated them.
#define DFDB_PUSHDOWN_COUNTERS(X)                                          \
  /* Pages whose restrict ran inside the storage hierarchy. */             \
  X(pages_filtered, "pages_filtered")                                      \
  /* Tuples scanned at the device by pushed-down programs. */              \
  X(tuples_in, "tuples_in")                                                \
  /* Tuples that survived and crossed a level boundary. */                 \
  X(tuples_out, "tuples_out")                                              \
  /* Bytes that never crossed the cache -> local (or ring) boundary */     \
  /* because the filter dropped their tuples at the device. */             \
  X(bytes_elided, "bytes_elided")                                          \
  /* Plan-marked scans that fell back to the unfiltered path (predicate */ \
  /* refused compilation or the scan shape changed under it). */           \
  X(fallbacks, "fallbacks")
DFDB_COUNTERS(PushdownCounters, DFDB_PUSHDOWN_COUNTERS);
DFDB_ATOMIC_COUNTERS(PushdownStats, PushdownCounters, DFDB_PUSHDOWN_COUNTERS);

}  // namespace dfdb

#endif  // DFDB_STORAGE_PUSHDOWN_H_
