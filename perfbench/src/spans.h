// spans.h — the traced run's in-memory span recorder.
//
// A span is one interval around a call into a library layer: a name, a
// start and end (steady clock, ns since the recorder was created), the
// span that caused it, the team thread it ran on, and the id of the solve
// it belongs to.  Task spans come from wrapping GetrfJob::exec and are
// appended from the team's worker threads into per-thread buffers (no
// lock on the hot path); every other span is opened and closed on the
// calling thread.  Nothing is written until dump() at the end of the run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/common.h"

namespace pb {

struct Span {
  std::int32_t id = -1;
  std::int32_t parent = -1;
  std::int32_t solve = -1;  ///< shared by every span of one solve
  std::int32_t tid = 0;
  std::int32_t name = 0;  ///< index into SpanRecorder::names()
  std::int64_t t0 = 0, t1 = 0;
  double seconds() const { return 1e-9 * static_cast<double>(t1 - t0); }
};

class SpanRecorder {
 public:
  explicit SpanRecorder(int threads);

  std::int64_t now() const;
  int intern(const std::string& name);
  const std::vector<std::string>& names() const { return names_; }

  /// Caller-thread span: open() returns its id, close() stamps the end.
  int open(const std::string& name, int parent, int solve);
  void close(int id);
  const Span& span(int id) const { return spans_[static_cast<std::size_t>(id)]; }
  /// Task span from a team thread; `kind` is the task's trace::Kind
  /// (its name id).  Ids are assigned when spans are merged.
  void task(int tid, int kind, int parent, int solve, std::int64_t t0,
            std::int64_t t1);

  /// Every span, caller-thread and task spans merged (task ids assigned
  /// after the caller-thread ids).
  std::vector<Span> all() const;
  /// Writes a one-line header (host JSON) plus one CSV line per span.
  bool dump(const std::string& path, const std::string& header) const;

 private:
  Clock::time_point origin_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::vector<Span>> tasks_;  ///< per team thread
};

/// Opens a span on construction and closes it on scope exit.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const std::string& name, int parent,
             int solve)
      : rec_(rec), id_(rec.open(name, parent, solve)) {}
  ~ScopedSpan() { rec_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanRecorder& rec_;
  int id_;
};

}  // namespace pb
