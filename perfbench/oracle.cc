#include "oracle.h"

#include <cstring>

#include "common/string_util.h"

namespace perfbench {
namespace {

// Every step is a bijection of the running state, so two tuples that differ
// in exactly one 8-byte word always hash differently.
inline uint64_t MixWord(uint64_t h, uint64_t w) {
  h = (h ^ w) * 0x9fb21c651e98df25ULL;
  return h ^ (h >> 32);
}

inline uint64_t Finalize(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  return h ^ (h >> 33);
}

constexpr uint64_t kSeedA = 0x243f6a8885a308d3ULL;
constexpr uint64_t kSeedB = 0x13198a2e03707344ULL;

/// Hashes one tuple under both seeds in a single pass and adds it.
void AddTuple(Fingerprint* fp, const char* p, size_t n) {
  const uint64_t len = static_cast<uint64_t>(n) * 0x9e3779b97f4a7c15ULL;
  uint64_t a = kSeedA ^ len;
  uint64_t b = kSeedB ^ len;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w;
    std::memcpy(&w, p + i, 8);
    a = MixWord(a, w);
    b = MixWord(b, w);
  }
  if (i < n) {
    uint64_t w = 0;
    std::memcpy(&w, p + i, n - i);
    w ^= static_cast<uint64_t>(n - i) << 56;
    a = MixWord(a, w);
    b = MixWord(b, w);
  }
  fp->sum_a += Finalize(a);
  fp->sum_b += Finalize(b);
  ++fp->tuples;
}

/// Fingerprint of \p n packed tuples of \p width bytes at \p data.
Fingerprint FingerprintTuples(const char* data, size_t width, uint64_t n) {
  Fingerprint fp;
  fp.width = width;
  for (uint64_t i = 0; i < n; ++i) AddTuple(&fp, data + i * width, width);
  return fp;
}

}  // namespace

std::string Fingerprint::ToString() const {
  return dfdb::StrFormat("{tuples=%llu width=%llu a=%016llx b=%016llx%s}",
                         static_cast<unsigned long long>(tuples),
                         static_cast<unsigned long long>(width),
                         static_cast<unsigned long long>(sum_a),
                         static_cast<unsigned long long>(sum_b),
                         well_formed ? "" : " malformed");
}

Fingerprint FingerprintOf(const dfdb::QueryResult& result) {
  Fingerprint fp;
  fp.width = static_cast<uint64_t>(result.schema().tuple_width());
  for (const dfdb::PagePtr& page : result.pages()) {
    if (static_cast<uint64_t>(page->tuple_width()) != fp.width) {
      fp.well_formed = false;
    }
    for (int i = 0; i < page->num_tuples(); ++i) {
      const dfdb::Slice t = page->tuple(i);
      AddTuple(&fp, t.data(), t.size());
    }
  }
  if (fp.tuples != result.num_tuples()) fp.well_formed = false;
  return fp;
}

Fingerprint FingerprintOf(const dfdb::net::RemoteResult& result) {
  const size_t width = static_cast<size_t>(result.schema.tuple_width());
  if (width == 0 || result.tuples.size() != width * result.num_tuples) {
    Fingerprint fp;
    fp.width = width;
    fp.tuples = result.num_tuples;
    fp.well_formed = false;
    return fp;
  }
  return FingerprintTuples(result.tuples.data(), width, result.num_tuples);
}

}  // namespace perfbench
