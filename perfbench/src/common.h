// common.h — shared plumbing of the benchmark driver: arguments, clocks,
// order statistics, seeded inputs, process accounting and the result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/layout/matrix.h"

namespace pb {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Reference-figure knobs (README): solver threads (0 = nproc, or
  /// nproc - 1 for the service team) and the lu schedule.
  int threads = 0;
  std::string schedule = "hybrid";
  std::string trace_out;  ///< span dump path for --trace 1 ("" = none)
  std::string commit = "unknown";
};

/// Affinity-mask cpu count (ThreadTeam::hardware_threads()).
int nproc();

// ---------------------------------------------------------------- stats ---

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}
/// The "p99" the benchmark reports: the 99th percentile when at least
/// ten samples lie beyond it, else the highest percentile that still has
/// ten beyond it, and the median below forty samples (a tail estimated
/// from fewer points would be one outlier).
double tail(std::vector<double> v);

// --------------------------------------------------------------- inputs ---

/// splitmix64 stream: the benchmark's only source of input randomness,
/// so inputs depend on --seed and on nothing in the library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  double uniform(double lo, double hi);  ///< [lo, hi)
  int range(int lo, int hi);             ///< [lo, hi]
  double exponential(double rate);

 private:
  std::uint64_t s_;
};

/// Dense m x n matrix with entries uniform in [-1, 1).
calu::layout::Matrix random_matrix(int m, int n, Rng& rng);

// ----------------------------------------------------- process accounting ---

double process_cpu_seconds();  ///< user + sys, all threads
double thread_cpu_seconds();   ///< calling thread only
double peak_rss_mib();

// --------------------------------------------------------------- output ---

/// Ordered name -> (value, unit) list printed as the result's "metrics".
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  std::string json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Raw end-to-end measurements of one untraced run.
struct EndToEnd {
  std::vector<double> latency_ms;      ///< per solve, as its caller saw it
  std::vector<double> interactive_ms;  ///< the interactive-class ones
  /// One timed op: a closed loop's call (a solve or a batch), or the
  /// service's whole open loop (first due time to last completion).
  struct Op {
    double seconds = 0.0;
    double solves = 0.0;
    double flops = 0.0;  ///< model LU flops of the op's solves
  };
  std::vector<Op> ops;
  double cpu_s = 0.0;  ///< process CPU over the timed phase
  std::vector<double> setup_s;  ///< one sample per set-up repetition
};

/// Every end-to-end metric from `e`.
void report_end_to_end(const EndToEnd& e, Metrics& out);

/// What one workload run hands back to main().
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
};

/// One-line JSON object describing the host and build (printed before the
/// result line and at the head of the span dump).
std::string host_json(const Args& args);

std::string json_escape(const std::string& s);

}  // namespace pb
