// workloads.h — the benchmark's workloads.  Each runs in its own
// process, generates its inputs from --seed before anything is timed,
// and returns end-to-end metrics (--trace 0) or per-layer metrics
// (--trace 1).  README.md says why each workload exists.
#pragma once

#include "perfbench/src/common.h"

namespace pb {

/// lu-large (mixed = false) and lu-mixed (mixed = true).
Outcome run_lu(const Args& args, bool mixed);
/// batch-small.
Outcome run_batch(const Args& args);
/// service-open.
Outcome run_service(const Args& args);

/// Runs op(i) for i = 0, 1, ... until `seconds` of wall time have passed
/// (at least once).
template <class Op>
void for_seconds(double seconds, Op op) {
  const auto t0 = Clock::now();
  int i = 0;
  do {
    op(i++);
  } while (seconds_between(t0, Clock::now()) < seconds);
}

}  // namespace pb
