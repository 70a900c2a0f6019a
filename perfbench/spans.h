/// \file spans.h
/// \brief In-memory spans recorded by the benchmark around its calls into
/// each layer of the system (the traced run only).
///
/// A span has a name (`<layer>.<call>`, e.g. `net.execute`), a start, an
/// end, a parent, and the id of the request it belongs to; every span of
/// one request shares that id. Each client thread records into its own
/// SpanLog, so recording takes no lock; the logs are merged after the
/// threads join and written out once when the benchmark ends. Spans are
/// recorded only from the benchmark's own code, around public entry points
/// (Client::Execute, Scheduler::Submit/Wait, ParseQuery, ...): nothing
/// inside the program is instrumented.

#ifndef DFDB_PERFBENCH_SPANS_H_
#define DFDB_PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 for a request's root span.
  uint64_t request = 0;
  const char* name = "";  ///< Static string.
  int64_t start_ns = 0;   ///< Steady-clock nanoseconds.
  int64_t end_ns = 0;
};

/// Nanoseconds on the steady clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One thread's spans. Ids are unique across logs: the log index is the
/// high part of every id it hands out.
class SpanLog {
 public:
  explicit SpanLog(uint32_t log_index)
      : next_id_((static_cast<uint64_t>(log_index) + 1) << 40) {}

  /// A fresh request id (shares the id space with spans).
  uint64_t NewRequest() { return ++next_id_; }

  /// Opens a span; returns its id. Close it with End().
  uint64_t Begin(const char* name, uint64_t request, uint64_t parent) {
    Span s;
    s.id = ++next_id_;
    s.parent = parent;
    s.request = request;
    s.name = name;
    s.start_ns = NowNs();
    open_.push_back(spans_.size());
    spans_.push_back(s);
    return s.id;
  }

  /// Closes the most recently opened span.
  void End() {
    spans_[open_.back()].end_ns = NowNs();
    open_.pop_back();
  }

  /// Records a span measured by the caller (or reported by the system,
  /// such as a server-side duration carried in a reply). Returns its id.
  uint64_t Add(const char* name, uint64_t request, uint64_t parent,
               int64_t start_ns, int64_t end_ns) {
    Span s;
    s.id = ++next_id_;
    s.parent = parent;
    s.request = request;
    s.name = name;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    spans_.push_back(s);
    return s.id;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t next_id_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// RAII span on an optional log: a null log records nothing, which is how
/// the untraced run pays no tracing cost beyond one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t request,
             uint64_t parent)
      : log_(log), id_(log ? log->Begin(name, request, parent) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  uint64_t id_;
};

/// Self time per layer: for every span, its duration minus the part of its
/// interval its child spans cover, summed by layer (the name's prefix
/// before the first '.'; a name without a dot is its own layer). Returns
/// nanoseconds per layer.
std::map<std::string, double> LayerSelfNs(const std::vector<Span>& spans);

/// Writes \p spans as a JSON array to \p path. Returns false on I/O error.
bool WriteSpansJson(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench

#endif  // DFDB_PERFBENCH_SPANS_H_
