// batch-small: a closed loop of fused core::batched_run batches on one
// Session, each of 64 systems with seeded sizes n in [48, 192], tile size
// 32 and one right-hand side.
#include <memory>
#include <utility>

#include "perfbench/src/layers.h"
#include "perfbench/src/oracle.h"
#include "perfbench/src/workloads.h"
#include "src/core/batch.h"
#include "src/model/lu_cost.h"
#include "src/sched/thread_team.h"

namespace pb {

namespace core = calu::core;
namespace layout = calu::layout;

namespace {

constexpr int kJobs = 64;
constexpr int kBatches = 8;  // distinct batches, run round-robin
constexpr int kTile = 32;
constexpr int kMinN = 48, kMaxN = 192;

}  // namespace

Outcome run_batch(const Args& args) {
  Rng rng(args.seed);
  std::vector<layout::Matrix> as, bs;
  std::vector<double> batch_flops(kBatches, 0.0);
  for (int k = 0; k < kBatches; ++k) {
    // Stratified sizes: job j draws from the j-th of 64 equal slices of
    // [kMinN, kMaxN], in seeded order, so every batch spans the range and
    // carries about the same work whatever the seed.
    std::vector<int> sizes(kJobs);
    for (int j = 0; j < kJobs; ++j)
      sizes[j] = kMinN + static_cast<int>((j + rng.uniform(0.0, 1.0)) *
                                          (kMaxN - kMinN + 1) / kJobs);
    for (int j = kJobs - 1; j > 0; --j) std::swap(sizes[j], sizes[rng.range(0, j)]);
    for (int j = 0; j < kJobs; ++j) {
      const int n = sizes[j];
      as.push_back(random_matrix(n, n, rng));
      bs.push_back(random_matrix(n, 1, rng));
      batch_flops[k] += calu::model::lu_flops(n, n);
    }
  }
  core::Options opt;
  opt.b = kTile;
  opt.threads = args.threads;

  auto make_jobs = [&](int k) {
    std::vector<core::BatchJob> jobs(kJobs);
    for (int j = 0; j < kJobs; ++j) {
      jobs[j].a = &as[k * kJobs + j];
      jobs[j].rhs = &bs[k * kJobs + j];
      jobs[j].options = opt;
    }
    return jobs;
  };

  Outcome out;
  Checker checker(as.size());
  double check_cpu = 0.0;  // main-thread CPU spent in the oracle
  auto verify = [&](int k, const std::vector<core::SolveResult>& rs) {
    const double c0 = thread_cpu_seconds();
    for (int j = 0; j < kJobs; ++j) {
      const std::size_t key = static_cast<std::size_t>(k * kJobs + j);
      ++out.attempted;
      if (!checker.check(key, as[key], rs[j].x, bs[key],
                         rs[j].factorization.ipiv))
        out.correct = false;
    }
    check_cpu += thread_cpu_seconds() - c0;
  };
  auto run_batch_once = [&](int k, calu::sched::Session& s) {
    std::vector<core::BatchJob> jobs = make_jobs(k);
    const auto t0 = Clock::now();
    core::BatchRunResult res = core::batched_run(jobs, s);
    const double sec = seconds_between(t0, Clock::now());
    std::vector<core::SolveResult> rs(kJobs);
    for (int j = 0; j < kJobs; ++j) {
      rs[j].x = std::move(res.jobs[j].x);
      rs[j].factorization = std::move(res.jobs[j].factorization);
    }
    verify(k, rs);
    return sec;
  };

  LayerRun lr;
  if (args.trace) {
    lr.gemm_gflops = gemm_peak_gflops(kTile, false);
    lr.gemm_f32_gflops = gemm_peak_gflops(kTile, true);
  }

  // Set-up: Session construction plus one warm-up batch, repeated.
  EndToEnd e;
  std::unique_ptr<calu::sched::Session> session;
  for (int r = 0; r < (args.trace ? 1 : 5); ++r) {
    session.reset();
    const auto t0 = Clock::now();
    session = std::make_unique<calu::sched::Session>(
        calu::sched::SessionOptions{args.threads > 0 ? args.threads : nproc(),
                                    true});
    run_batch_once(0, *session);
    e.setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  const std::uint64_t teams0 = calu::sched::ThreadTeam::teams_constructed();
  const double untraced = args.trace ? args.seconds / 2 : args.seconds;
  check_cpu = 0.0;
  const double cpu0 = process_cpu_seconds();
  for_seconds(untraced, [&](int i) {
    const int k = i % kBatches;
    const double sec = run_batch_once(k, *session);
    // Every solve's result is available when batched_run returns, so a
    // solve's latency is its batch's wall time.
    e.latency_ms.push_back(1e3 * sec);
    e.ops.push_back({sec, static_cast<double>(kJobs), batch_flops[k]});
  });
  e.cpu_s = process_cpu_seconds() - cpu0 - check_cpu;

  if (!args.trace) {
    report_end_to_end(e, out.metrics);
    return out;
  }

  // Every caller waits on its own solve: all of them are interactive.
  e.interactive_ms = e.latency_ms;
  lr.latency = e;
  SpanRecorder rec(session->threads());
  lr.threads = session->threads();
  for (double ms : e.latency_ms) lr.ref_op_s.push_back(1e-3 * ms);
  std::vector<core::SolveResult> results;
  for_seconds(args.seconds / 2, [&](int i) {
    const int k = i % kBatches;
    std::vector<System> sys;
    for (int j = 0; j < kJobs; ++j)
      sys.push_back({&as[k * kJobs + j], &bs[k * kJobs + j], opt});
    lr.traced_op_s.push_back(traced_op(rec, *session, sys, true, lr, results));
    verify(k, results);
  });
  lr.teams_spawned = calu::sched::ThreadTeam::teams_constructed() - teams0;
  report_layers(rec, lr, out.metrics);
  if (!args.trace_out.empty()) rec.dump(args.trace_out, host_json(args));
  return out;
}

}  // namespace pb
