/// \file oracle.h
/// \brief Exact, order-insensitive result fingerprints.
///
/// Every read the benchmark issues is compared against the result the
/// serial ReferenceExecutor computed for the same plan at setup. Result
/// order is legitimately nondeterministic with several workers, so the
/// comparison is over the multiset of raw tuple bytes: each tuple is hashed
/// twice (two seeds) and the hashes are summed, together with the tuple
/// count and width. A flipped byte changes its tuple's hash, a dropped or
/// duplicated tuple changes the count and both sums. There is no tolerance:
/// two results match only when every fingerprint field is equal.

#ifndef DFDB_PERFBENCH_ORACLE_H_
#define DFDB_PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>

#include "engine/query_result.h"
#include "net/client.h"

namespace perfbench {

struct Fingerprint {
  uint64_t tuples = 0;
  uint64_t width = 0;
  uint64_t sum_a = 0;
  uint64_t sum_b = 0;
  /// False when the payload length disagrees with tuples × width.
  bool well_formed = true;

  bool operator==(const Fingerprint&) const = default;
  std::string ToString() const;
};

/// Fingerprint of an in-process result (every page of it).
Fingerprint FingerprintOf(const dfdb::QueryResult& result);

/// Fingerprint of a result received over the wire.
Fingerprint FingerprintOf(const dfdb::net::RemoteResult& result);

/// Attempted/failed tally for one client. A failure is any non-OK status,
/// rejection, or fingerprint mismatch; nothing is retried or dropped.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// Counts one operation; returns \p ok.
  bool Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
    return ok;
  }
  void Add(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
};

}  // namespace perfbench

#endif  // DFDB_PERFBENCH_ORACLE_H_
