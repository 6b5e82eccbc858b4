#include "perfbench/src/spans.h"

#include <cstdio>

#include "src/trace/trace.h"

namespace pb {

SpanRecorder::SpanRecorder(int threads)
    : origin_(Clock::now()), tasks_(static_cast<std::size_t>(threads)) {
  spans_.reserve(1 << 16);
  for (auto& t : tasks_) t.reserve(1 << 16);
  // Task span names take ids 0..kKindCount-1 in trace::Kind order, so a
  // team thread maps a task's kind to its name without touching names_.
  static const char* const kKinds[] = {"P",     "L",     "U",     "S",
                                       "Swap",  "Other", "PackL", "PackU"};
  static_assert(sizeof kKinds / sizeof kKinds[0] == calu::trace::kKindCount,
                "one task span name per trace::Kind");
  for (const char* k : kKinds) intern(std::string("task.") + k);
}

std::int64_t SpanRecorder::now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int SpanRecorder::intern(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<int>(i);
  names_.push_back(name);
  return static_cast<int>(names_.size()) - 1;
}

int SpanRecorder::open(const std::string& name, int parent, int solve) {
  Span s;
  s.id = static_cast<std::int32_t>(spans_.size());
  s.parent = parent;
  s.solve = solve;
  s.name = intern(name);
  s.t0 = s.t1 = now();
  spans_.push_back(s);
  return s.id;
}

void SpanRecorder::close(int id) { spans_[static_cast<std::size_t>(id)].t1 = now(); }

void SpanRecorder::task(int tid, int kind, int parent, int solve,
                        std::int64_t t0, std::int64_t t1) {
  Span s;
  s.parent = parent;
  s.solve = solve;
  s.tid = tid;
  s.name = kind;
  s.t0 = t0;
  s.t1 = t1;
  tasks_[static_cast<std::size_t>(tid)].push_back(s);
}

std::vector<Span> SpanRecorder::all() const {
  std::vector<Span> out = spans_;
  for (const auto& per_thread : tasks_)
    for (Span s : per_thread) {
      s.id = static_cast<std::int32_t>(out.size());
      out.push_back(s);
    }
  return out;
}

bool SpanRecorder::dump(const std::string& path,
                        const std::string& header) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# %s\n", header.c_str());
  std::fprintf(f, "id,parent,solve,tid,name,start_ns,end_ns\n");
  for (const Span& s : all())
    std::fprintf(f, "%d,%d,%d,%d,%s,%lld,%lld\n", s.id, s.parent, s.solve,
                 s.tid, names_[static_cast<std::size_t>(s.name)].c_str(),
                 static_cast<long long>(s.t0), static_cast<long long>(s.t1));
  return std::fclose(f) == 0;
}

}  // namespace pb
