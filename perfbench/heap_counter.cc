#include "heap_counter.h"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

// Threads take shards round-robin, so concurrent allocators rarely share a
// cache line; a shared shard stays correct because updates are atomic.
constexpr int kShards = 64;

struct alignas(64) Shard {
  std::atomic<int64_t> bytes{0};
};

Shard g_shards[kShards];
std::atomic<uint32_t> g_next_shard{0};

Shard& ThisThreadShard() {
  thread_local Shard* shard =
      &g_shards[g_next_shard.fetch_add(1, std::memory_order_relaxed) %
                kShards];
  return *shard;
}

void Count(void* p, int64_t sign) {
  ThisThreadShard().bytes.fetch_add(
      sign * static_cast<int64_t>(malloc_usable_size(p)),
      std::memory_order_relaxed);
}

void* Allocate(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  Count(p, 1);
  return p;
}

void* AllocateAligned(std::size_t n, std::align_val_t align) {
  const std::size_t a = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(a, (n + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  Count(p, 1);
  return p;
}

void Release(void* p) noexcept {
  if (p == nullptr) return;
  Count(p, -1);
  std::free(p);
}

}  // namespace

int64_t HeapBytesInUse() {
  int64_t total = 0;
  for (const Shard& s : g_shards) {
    total += s.bytes.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace perfbench

using perfbench::Allocate;
using perfbench::AllocateAligned;
using perfbench::Release;

void* operator new(std::size_t n) { return Allocate(n); }
void* operator new[](std::size_t n) { return Allocate(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return Allocate(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return operator new(n, t);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return AllocateAligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return AllocateAligned(n, a);
}
void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete(void* p, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
