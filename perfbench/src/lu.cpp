// lu-large / lu-mixed: back-to-back solves of dense n = 4096 systems with
// one right-hand side on one Session, through core::gesv (double) or
// core::gesv_mixed (float factorization, double refinement).
#include <memory>
#include <utility>

#include "perfbench/src/layers.h"
#include "perfbench/src/oracle.h"
#include "perfbench/src/workloads.h"
#include "src/core/solve.h"
#include "src/model/lu_cost.h"
#include "src/sched/thread_team.h"

namespace pb {

namespace core = calu::core;
namespace layout = calu::layout;

namespace {

constexpr int kN = 4096;
constexpr int kSystems = 2;  // distinct systems, solved round-robin

core::Schedule schedule_from(const std::string& s) {
  if (s == "static") return core::Schedule::Static;
  if (s == "dynamic") return core::Schedule::Dynamic;
  return core::Schedule::Hybrid;
}

}  // namespace

Outcome run_lu(const Args& args, bool mixed) {
  Rng rng(args.seed);
  std::vector<layout::Matrix> as, bs;
  for (int k = 0; k < kSystems; ++k) {
    as.push_back(random_matrix(kN, kN, rng));
    bs.push_back(random_matrix(kN, 1, rng));
  }
  core::Options opt;
  opt.threads = args.threads;
  opt.schedule = schedule_from(args.schedule);
  if (mixed) opt.precision = core::Precision::Float32;  // for the traced run

  auto solve = [&](int k, calu::sched::Session& s) {
    return mixed ? core::gesv_mixed(as[k], bs[k], opt, s)
                 : core::gesv(as[k], bs[k], opt, s);
  };

  Outcome out;
  Checker checker(kSystems);
  std::vector<std::pair<int, core::SolveResult>> done;
  auto verify = [&] {
    for (const auto& [k, r] : done) {
      ++out.attempted;
      if (mixed && r.used_fallback) ++out.failed;
      if (!checker.check(static_cast<std::size_t>(k), as[k], r.x, bs[k],
                         r.factorization.ipiv))
        out.correct = false;
    }
    done.clear();
  };

  LayerRun lr;
  if (args.trace) {
    lr.gemm_gflops = gemm_peak_gflops(opt.b, false);
    lr.gemm_f32_gflops = gemm_peak_gflops(opt.b, true);
    lr.float_factors = mixed;
  }

  // Set-up: Session construction plus one warm-up solve, repeated.
  EndToEnd e;
  std::unique_ptr<calu::sched::Session> session;
  for (int r = 0; r < (args.trace ? 1 : 3); ++r) {
    session.reset();
    const auto t0 = Clock::now();
    session = std::make_unique<calu::sched::Session>(
        calu::sched::SessionOptions{args.threads > 0 ? args.threads : nproc(),
                                    true});
    core::SolveResult w = solve(0, *session);
    e.setup_s.push_back(seconds_between(t0, Clock::now()));
    done.emplace_back(0, std::move(w));
  }
  verify();

  const std::uint64_t teams0 = calu::sched::ThreadTeam::teams_constructed();
  const double untraced = args.trace ? args.seconds / 2 : args.seconds;
  const double cpu0 = process_cpu_seconds();
  for_seconds(untraced, [&](int i) {
    const int k = i % kSystems;
    const auto t0 = Clock::now();
    core::SolveResult r = solve(k, *session);
    const double s = seconds_between(t0, Clock::now());
    e.latency_ms.push_back(1e3 * s);
    e.ops.push_back({s, 1.0, calu::model::lu_flops(kN, kN)});
    done.emplace_back(k, std::move(r));
  });
  e.cpu_s = process_cpu_seconds() - cpu0;
  verify();

  if (!args.trace) {
    report_end_to_end(e, out.metrics);
    return out;
  }

  // Every caller waits on its own solve: all of them are interactive.
  e.interactive_ms = e.latency_ms;
  lr.latency = e;
  SpanRecorder rec(session->threads());
  lr.threads = session->threads();
  lr.ref_op_s = e.latency_ms;
  for (double& v : lr.ref_op_s) v *= 1e-3;
  std::vector<core::SolveResult> results;
  for_seconds(args.seconds / 2, [&](int i) {
    const int k = i % kSystems;
    const std::vector<System> sys{{&as[k], &bs[k], opt}};
    lr.traced_op_s.push_back(traced_op(rec, *session, sys, false, lr, results));
    done.emplace_back(k, std::move(results[0]));
  });
  lr.teams_spawned = calu::sched::ThreadTeam::teams_constructed() - teams0;
  verify();
  report_layers(rec, lr, out.metrics);
  if (!args.trace_out.empty()) rec.dump(args.trace_out, host_json(args));
  return out;
}

}  // namespace pb
