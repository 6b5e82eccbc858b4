// layers.h — the traced run: one solve composed from the same public
// calls core::getrf / core::gesv / core::gesv_mixed / core::batched_run
// make, with a span around each call, and the per-layer metrics derived
// from those spans.
//
// Composition (per solve; TuneMode::Off, the Options{} default):
//
//   solve.copy     layout::Matrix lu = a
//   layout.pack    PackedMatrix::pack(lu, ..., owner_runner_from(opt, team))
//   core.plan      GetrfJob job(packed, opt)       (float jobs convert here)
//   sched.run      Session::run / run_fused, exec wrapped -> task.<kind>
//   core.finish    job.finish(team)                (deferred left swaps)
//   layout.unpack  packed.unpack(lu)
//   solve.refine   solve_factored / refine_mixed
//
// and, outside the solve span, probes on the same factors: probe.getrs
// (core::getrs), probe.residual (core::solve_residual) and, for float
// jobs, probe.convert (PackedMatrixT<float>::convert_into).
#pragma once

#include <memory>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/spans.h"
#include "src/core/calu.h"
#include "src/core/solve.h"
#include "src/sched/session.h"

namespace pb {

class ComposedSolve {
 public:
  ComposedSolve(SpanRecorder& rec, const calu::layout::Matrix& a,
                const calu::layout::Matrix& b, const calu::core::Options& opt,
                int solve_id);
  ~ComposedSolve();
  ComposedSolve(const ComposedSolve&) = delete;
  ComposedSolve& operator=(const ComposedSolve&) = delete;

  /// copy + pack + plan, each a span under `parent`.
  void prepare(calu::sched::Session& session, int parent);
  /// The job's graph and an exec that records one task span per call
  /// under `run_span` (the sched.run span of the engine run).
  const calu::sched::TaskGraph& graph() const;
  calu::sched::ExecFn traced_exec(int run_span);
  /// finish + unpack + solve/refine, each a span under `parent`.
  void epilogue(calu::sched::Session& session, int parent);
  /// Probe spans on the finished factors (outside the solve).
  void probes(int parent);

  const calu::core::SolveResult& result() const { return res_; }
  double s_flops() const;  ///< flops of the job's trailing (S) updates

 private:
  struct State;
  SpanRecorder& rec_;
  const calu::layout::Matrix& a_;
  const calu::layout::Matrix& b_;
  calu::core::Options opt_;  ///< Float32 = factor in float, refine_mixed
  int solve_;
  std::unique_ptr<State> st_;
  calu::core::SolveResult res_;
};

/// Inputs of the per-layer report besides the spans.
struct LayerRun {
  int threads = 1;               ///< team size of the traced engine runs
  std::uint64_t solves = 0;      ///< composed solves traced
  std::uint64_t ops = 0;         ///< top-level ops (solves or batches)
  double s_flops = 0.0;          ///< sum over the traced solves
  double pack_bytes = 0.0;       ///< computed: 2 * m * n * 8 per pack
  double refine_steps = 0.0;     ///< sum over the traced solves
  std::uint64_t fallbacks = 0;
  calu::sched::EngineStats engine;  ///< merged over the traced runs
  std::uint64_t engine_runs = 0;
  std::uint64_t teams_spawned = 0;  ///< ThreadTeams built while measuring
  double gemm_gflops = 0.0;         ///< 1-thread peak, double, tile size
  double gemm_f32_gflops = 0.0;     ///< the same in float
  bool float_factors = false;       ///< S ran in float (lu-mixed)
  std::vector<double> ref_op_s;     ///< untraced end-to-end op times
  std::vector<double> traced_op_s;  ///< traced op times (op span)
  // Service-only fields (0 elsewhere).
  double queue_p50_us = 0.0;
  double exec_p50_ms = 0.0;
  double jobs_per_run = 0.0;
  double generator_lag_p99_us = 0.0;
  /// The untraced phase's latencies (the open loop's, for the service).
  EndToEnd latency;
};

/// One system of a workload: its inputs and the options of its solve
/// (precision Float32 = a gesv_mixed solve).
struct System {
  const calu::layout::Matrix* a = nullptr;
  const calu::layout::Matrix* b = nullptr;
  calu::core::Options opt;
};

/// One composed, traced op: one system runs as a "solve" span through
/// Session::run; with `fused` the systems run as a "batch" span
/// (batch.prepare, sched.run via Session::run_fused, batch.epilogue), as
/// core::batched_run does.  Probes follow the op span.  Accumulates into
/// `run`; returns the op span's seconds and the per-system results in
/// input order.
double traced_op(SpanRecorder& rec, calu::sched::Session& session,
                 const std::vector<System>& systems, bool fused,
                 LayerRun& run, std::vector<calu::core::SolveResult>& results);

/// Single-thread gemm rate (GFLOP/s) at m = n = k = b, best of a few
/// repetitions of ~0.1 s each.
double gemm_peak_gflops(int b, bool single_precision);

/// Every per-layer metric, from the recorder's spans plus `run`.
void report_layers(const SpanRecorder& rec, const LayerRun& run,
                   Metrics& out);

}  // namespace pb
