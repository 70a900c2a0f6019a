/// \file counter_family.h
/// \brief Declares a counter family once and derives everything else.
///
/// A counter family is a set of related monotonic counters that is exported
/// under one dotted prefix (`engine.kernel.*`, `net.*`, `dist.*`, ...). Its
/// fields are listed exactly once, as an X-macro of `(field, "suffix")`
/// pairs:
///
///   #define DFDB_FOO_COUNTERS(X) X(hits, "hits") X(misses, "miss_count")
///   DFDB_COUNTERS(FooCounters, DFDB_FOO_COUNTERS);
///   DFDB_ATOMIC_COUNTERS(FooStats, FooCounters, DFDB_FOO_COUNTERS);
///
/// Real lists put one entry per line, with `/* */` comments between
/// entries. DFDB_COUNTERS defines the plain snapshot struct: named uint64_t
/// fields, `operator+=`, `any()`, and `ForEach(f)`, which calls
/// `f(suffix, value)` for every field in list order. DFDB_ATOMIC_COUNTERS
/// defines its thread-safe twin: named std::atomic<uint64_t> fields (hot
/// paths keep their own relaxed `fetch_add`s), `Add(plain)` and
/// `Snapshot()`. obs::RegisterCounters exports a plain struct under a
/// prefix, and obs::AppendCounters prints it.
///
/// Dependency-free on purpose (the registry is a template parameter), so
/// every layer can declare its family without linking the obs library.

#ifndef DFDB_OBS_COUNTER_FAMILY_H_
#define DFDB_OBS_COUNTER_FAMILY_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#define DFDB_COUNTER_FIELD_(field, suffix) uint64_t field = 0;
#define DFDB_COUNTER_MERGE_(field, suffix) field += o.field;
#define DFDB_COUNTER_ANY_(field, suffix) || field != 0
#define DFDB_COUNTER_VISIT_(field, suffix) f(suffix, field);
#define DFDB_ATOMIC_FIELD_(field, suffix) std::atomic<uint64_t> field{0};
#define DFDB_ATOMIC_ADD_(field, suffix) \
  field.fetch_add(c.field, std::memory_order_relaxed);
#define DFDB_ATOMIC_LOAD_(field, suffix) \
  c.field = field.load(std::memory_order_relaxed);

/// Defines `struct Name` with one uint64_t per entry of \p LIST.
#define DFDB_COUNTERS(Name, LIST)                                 \
  struct Name {                                                   \
    LIST(DFDB_COUNTER_FIELD_)                                     \
    Name& operator+=(const Name& o) {                             \
      LIST(DFDB_COUNTER_MERGE_)                                   \
      return *this;                                               \
    }                                                             \
    bool any() const { return false LIST(DFDB_COUNTER_ANY_); }    \
    template <typename F>                                         \
    void ForEach(F&& f) const {                                   \
      LIST(DFDB_COUNTER_VISIT_)                                   \
    }                                                             \
  }

/// Defines `struct Name`, the atomic accumulator of the plain \p Plain.
#define DFDB_ATOMIC_COUNTERS(Name, Plain, LIST) \
  struct Name {                                 \
    LIST(DFDB_ATOMIC_FIELD_)                    \
    void Add(const Plain& c) {                  \
      LIST(DFDB_ATOMIC_ADD_)                    \
    }                                           \
    Plain Snapshot() const {                    \
      Plain c;                                  \
      LIST(DFDB_ATOMIC_LOAD_)                   \
      return c;                                 \
    }                                           \
  }

namespace dfdb {
namespace obs {

/// Sets `prefix + suffix` to the field's value in \p registry (an
/// obs::MetricsRegistry) for every field of the plain family \p counters.
/// Pass the family type explicitly when \p counters derives from several.
template <typename Counters, typename Registry>
void RegisterCounters(const Counters& counters, std::string_view prefix,
                      Registry* registry) {
  counters.ForEach([&](std::string_view suffix, uint64_t value) {
    std::string name;
    name.reserve(prefix.size() + suffix.size());
    name.append(prefix).append(suffix);
    registry->Set(std::move(name), value);
  });
}

/// Appends ` | label: suffix=value ...` to \p out when any field of the
/// plain family \p counters is nonzero (the human-readable stats tail).
template <typename Counters>
void AppendCounters(std::string* out, std::string_view label,
                    const Counters& counters) {
  if (!counters.any()) return;
  *out += " | ";
  *out += label;
  *out += ":";
  counters.ForEach([&](std::string_view suffix, uint64_t value) {
    *out += " ";
    *out += suffix;
    *out += "=";
    *out += std::to_string(value);
  });
}

}  // namespace obs
}  // namespace dfdb

#endif  // DFDB_OBS_COUNTER_FAMILY_H_
