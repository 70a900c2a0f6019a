/// \file heap_counter.h
/// \brief Bytes the process has allocated with operator new and not yet
/// freed.
///
/// heap_counter.cc replaces the global operator new and delete of the
/// benchmark program (and so of the dfdb libraries linked into it) with
/// versions that add and subtract each block's usable size on a per-thread
/// counter shard. Unlike the resident set size, the total does not depend
/// on how much freed memory the allocator keeps in its per-thread arenas,
/// so its peak repeats from run to run.

#ifndef DFDB_PERFBENCH_HEAP_COUNTER_H_
#define DFDB_PERFBENCH_HEAP_COUNTER_H_

#include <cstdint>

namespace perfbench {

/// Bytes allocated through operator new and not yet deleted.
int64_t HeapBytesInUse();

}  // namespace perfbench

#endif  // DFDB_PERFBENCH_HEAP_COUNTER_H_
