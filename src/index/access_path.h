/// \file access_path.h
/// \brief Runtime page pruning for marked scans — the one implementation
/// both backends call.
///
/// The optimizer marks a kScan with an access path and pre-resolved bounds
/// (PlanNode::access_path / prune_bounds); at execution time the threads
/// engine (scheduler scan drivers) and the ring simulator (IC operand
/// staging) resolve the scan's page list through ResolveScanPages() before
/// reading anything. Because both backends prune the *same marks*
/// against the *same snapshot view* with this one function, the surviving
/// page sets are identical — results stay byte-identical to a full scan,
/// only the page reads (and the simulator's ring transfers) shrink.

#ifndef DFDB_INDEX_ACCESS_PATH_H_
#define DFDB_INDEX_ACCESS_PATH_H_

#include <vector>

#include "index/index_stats.h"
#include "index/zone_map.h"
#include "ra/expr_compile.h"
#include "ra/plan.h"
#include "storage/heap_file.h"
#include "storage/snapshot.h"
#include "storage/storage_engine.h"

namespace dfdb {

/// True when a page with zone map \p entry may contain a tuple satisfying
/// every bound in \p bounds (the conjuncts of the consuming restrict).
/// Conservative: unknown columns, invalid summaries (NaN pages), and kNe
/// bounds keep the page. Exposed for tests; the NaN/CHAR-trim semantics
/// mirror expr_detail exactly.
bool ZoneMapMayMatch(const ZoneMapEntry& entry, const Schema& schema,
                     const std::vector<ColCompare>& bounds);

/// The page filter a delete hands HeapFile::DeleteWhere: ZoneMapMayMatch
/// over the conjuncts of \p program, the delete's compiled predicate from
/// its PhysicalPlan. Null (every page is read) when there is no program or
/// its shape is not a single compare or a conjunction of compares. The
/// filter keeps a pointer to \p program, which must outlive it.
HeapFile::PageFilter DeletePageFilter(const CompiledPredicate* program,
                                      const Schema& schema);

/// Resolves a scan to the page ids it reads: \p snapshot's view of the
/// scanned relation, in view order, pruned per the scan's access-path mark
/// (zone maps, then a grid-file probe when marked kGridFile) with outcomes
/// accumulated into \p stats. An unmarked scan (kFullScan) reads the whole
/// view. The simulator also stages a kDelete's target through this call
/// (deletes are never marked).
StatusOr<std::vector<PageId>> ResolveScanPages(StorageEngine* storage,
                                               const Snapshot& snapshot,
                                               const PlanNode& scan,
                                               IndexPruneCounters* stats);

}  // namespace dfdb

#endif  // DFDB_INDEX_ACCESS_PATH_H_
