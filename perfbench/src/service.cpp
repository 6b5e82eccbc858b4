// service-open: open-loop Poisson arrivals at one fixed rate from a single
// generator thread (the main thread) into sched::Service with default
// ServiceOptions and a team of nproc - 1.  Requests are n = 64, b = 16
// solves, 30% interactive.  Each request is timed from when it was due;
// the generator's own lateness is reported separately.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>

#include <sched.h>

#include "perfbench/src/layers.h"
#include "perfbench/src/oracle.h"
#include "perfbench/src/workloads.h"
#include "src/model/lu_cost.h"
#include "src/sched/thread_team.h"
#include "src/sched/topology.h"

#if __has_include("src/sched/service.h")
#include "src/sched/service.h"
#define PERFBENCH_HAVE_SERVICE 1
#endif

namespace pb {

#ifndef PERFBENCH_HAVE_SERVICE

Outcome run_service(const Args&) {
  std::fprintf(stderr, "perfbench: this tree has no sched::Service\n");
  std::exit(2);
}

#else

namespace core = calu::core;
namespace layout = calu::layout;
namespace sched = calu::sched;

namespace {

constexpr int kN = 64;
constexpr int kTile = 16;
constexpr int kPool = 64;          // distinct systems; requests draw from them
constexpr double kRate = 1000.0;   // arrivals per second
constexpr double kInteractive = 0.3;

struct Arrival {
  double due = 0.0;  // seconds after the loop starts
  int system = 0;
  bool interactive = false;
};

/// Written once by the Service's callback, read after the future resolves.
struct Slot {
  std::atomic<int> calls{0};
  std::atomic<std::int64_t> done_ns{0};
};

/// Pins the calling thread to the first cpu in topology pin order that a
/// `team`-thread pinned team does not take (none when the team fills
/// the mask).
void pin_generator(int team) {
  const std::vector<int> order = sched::system_topology().pin_order();
  if (static_cast<int>(order.size()) <= team) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(order[static_cast<std::size_t>(team)], &set);
  sched_setaffinity(0, sizeof set, &set);
}

}  // namespace

Outcome run_service(const Args& args) {
  const int threads = args.threads > 0 ? args.threads : std::max(1, nproc() - 1);
  Rng rng(args.seed);
  std::vector<layout::Matrix> as, bs;
  for (int k = 0; k < kPool; ++k) {
    as.push_back(random_matrix(kN, kN, rng));
    bs.push_back(random_matrix(kN, 1, rng));
  }
  const double open_seconds = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<Arrival> arrivals;
  for (double t = rng.exponential(kRate); t < open_seconds;
       t += rng.exponential(kRate))
    arrivals.push_back({t, rng.range(0, kPool - 1),
                        rng.uniform(0.0, 1.0) < kInteractive});

  core::Options base;
  base.b = kTile;
  sched::ServiceOptions sopt;
  sopt.session.threads = threads;

  Outcome out;
  Checker checker(kPool);
  auto verify = [&](int k, const core::BatchJobResult& r) {
    ++out.attempted;
    if (!checker.check(static_cast<std::size_t>(k), as[k], r.x, bs[k],
                       r.factorization.ipiv))
      out.correct = false;
  };
  auto request = [&](int k, bool interactive) {
    sched::ServiceRequest req;
    req.a = &as[k];
    req.rhs = &bs[k];
    req.options = base;
    req.options.priority_class = interactive ? core::PriorityClass::Interactive
                                             : core::PriorityClass::Batch;
    return req;
  };

  LayerRun lr;
  if (args.trace) {
    lr.gemm_gflops = gemm_peak_gflops(kTile, false);
    lr.gemm_f32_gflops = gemm_peak_gflops(kTile, true);
  }

  // Set-up: Service construction plus one warm-up request per system,
  // repeated.
  EndToEnd e;
  std::unique_ptr<sched::Service> svc;
  for (int r = 0; r < (args.trace ? 1 : 5); ++r) {
    svc.reset();
    const auto t0 = Clock::now();
    svc = std::make_unique<sched::Service>(sopt);
    std::vector<std::future<sched::ServiceResponse>> warm(kPool);
    for (int k = 0; k < kPool; ++k) {
      sched::Submission s = svc->submit(request(k, true));
      if (s.status == sched::SubmitStatus::Accepted)
        warm[k] = std::move(s.response);
    }
    std::vector<std::optional<sched::ServiceResponse>> resp(kPool);
    for (int k = 0; k < kPool; ++k)
      if (warm[k].valid()) resp[k] = warm[k].get();
    e.setup_s.push_back(seconds_between(t0, Clock::now()));
    for (int k = 0; k < kPool; ++k) {
      if (resp[k]) {
        verify(k, resp[k]->result);
      } else {  // rejected
        ++out.attempted;
        ++out.failed;
      }
    }
  }

  // The open loop.  The generator spins to each due time instead of
  // sleeping: a sleeping thread's wake-up can run milliseconds late on a
  // virtualized host, which would time the generator, not the Service.
  // It runs pinned on the cpu the team leaves free (the team is
  // nproc - 1 threads, pinned in topology pin order), and its CPU time is
  // left out of cpu_ms_per_solve.
  pin_generator(threads);
  const std::uint64_t teams0 = sched::ThreadTeam::teams_constructed();
  const std::size_t n = arrivals.size();
  std::unique_ptr<Slot[]> slots(new Slot[n]);
  std::vector<std::future<sched::ServiceResponse>> futs(n);
  std::vector<double> lag_us;
  lag_us.reserve(n);
  const std::uint64_t runs0 = svc->fused_runs();
  const double cpu0 = process_cpu_seconds();
  const double main_cpu0 = thread_cpu_seconds();
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t i = 0; i < n; ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(arrivals[i].due));
    while (Clock::now() < due) {
    }
    lag_us.push_back(1e6 * seconds_between(due, Clock::now()));
    sched::ServiceRequest req =
        request(arrivals[i].system, arrivals[i].interactive);
    Slot* slot = &slots[i];
    req.on_complete = [slot, start](const sched::ServiceResponse&) {
      slot->done_ns.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now() - start)
                              .count());
      slot->calls.fetch_add(1);
    };
    sched::Submission s = svc->submit(std::move(req));
    if (s.status == sched::SubmitStatus::Accepted)
      futs[i] = std::move(s.response);
  }
  std::vector<double> queue_us, exec_ms;
  double last_done = 0.0;
  std::uint64_t solves = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!futs[i].valid()) {  // rejected: fails, and misses every limit
      ++out.attempted;
      ++out.failed;
      continue;
    }
    sched::ServiceResponse r;
    try {
      r = futs[i].get();
    } catch (const std::exception&) {
      ++out.attempted;
      ++out.failed;
      continue;
    }
    if (slots[i].calls.load() != 1) out.correct = false;  // exactly once
    const double done = 1e-9 * static_cast<double>(slots[i].done_ns.load());
    last_done = std::max(last_done, done);
    const double lat_ms = 1e3 * (done - arrivals[i].due);
    e.latency_ms.push_back(lat_ms);
    if (arrivals[i].interactive) e.interactive_ms.push_back(lat_ms);
    queue_us.push_back(1e6 * r.queue_seconds);
    exec_ms.push_back(1e3 * (r.latency_seconds - r.queue_seconds));
    ++solves;
    verify(arrivals[i].system, r.result);
  }
  e.cpu_s = process_cpu_seconds() - cpu0 - (thread_cpu_seconds() - main_cpu0);
  e.ops.push_back({last_done, static_cast<double>(solves),
                   solves * calu::model::lu_flops(kN, kN)});
  const std::uint64_t runs = svc->fused_runs() - runs0;
  svc.reset();  // drains and joins; every accepted future already resolved

  if (!args.trace) {
    report_end_to_end(e, out.metrics);
    return out;
  }

  // Traced run: the same request stream through the composed fused path,
  // in batches of the size the Service formed on average.
  lr.queue_p50_us = median(queue_us);
  lr.exec_p50_ms = median(exec_ms);
  lr.jobs_per_run = runs > 0 ? static_cast<double>(solves) / runs : 0.0;
  lr.generator_lag_p99_us = tail(lag_us);
  lr.latency = e;
  const int k = std::max(1, static_cast<int>(std::lround(lr.jobs_per_run)));
  core::Options opt = base;
  opt.engine = sopt.engine;
  sched::Session session(sched::SessionOptions{threads, true});
  auto batch_systems = [&](int i) {
    std::vector<System> sys;
    for (int j = 0; j < k; ++j) {
      const Arrival& a = arrivals[(static_cast<std::size_t>(i) * k + j) % n];
      System s{&as[a.system], &bs[a.system], opt};
      s.opt.priority_class = a.interactive ? core::PriorityClass::Interactive
                                           : core::PriorityClass::Batch;
      sys.push_back(s);
    }
    return sys;
  };
  for_seconds(args.seconds / 4, [&](int i) {
    const std::vector<System> sys = batch_systems(i);
    std::vector<core::BatchJob> jobs(sys.size());
    for (std::size_t j = 0; j < sys.size(); ++j) {
      jobs[j].a = const_cast<layout::Matrix*>(sys[j].a);  // rhs: untouched
      jobs[j].rhs = sys[j].b;
      jobs[j].options = sys[j].opt;
    }
    const auto t0 = Clock::now();
    core::BatchRunResult res = core::batched_run(jobs, session);
    lr.ref_op_s.push_back(seconds_between(t0, Clock::now()));
    for (std::size_t j = 0; j < sys.size(); ++j)
      verify(static_cast<int>(sys[j].a - as.data()), res.jobs[j]);
  });
  SpanRecorder rec(session.threads());
  lr.threads = session.threads();
  std::vector<core::SolveResult> results;
  for_seconds(args.seconds / 4, [&](int i) {
    const std::vector<System> sys = batch_systems(i);
    lr.traced_op_s.push_back(traced_op(rec, session, sys, true, lr, results));
    for (std::size_t j = 0; j < sys.size(); ++j) {
      core::BatchJobResult r;
      r.x = results[j].x;
      r.factorization = results[j].factorization;
      verify(static_cast<int>(sys[j].a - as.data()), r);
    }
  });
  // The traced Session is the one team this phase builds on purpose.
  lr.teams_spawned =
      sched::ThreadTeam::teams_constructed() - teams0 - 1;
  report_layers(rec, lr, out.metrics);
  if (!args.trace_out.empty()) rec.dump(args.trace_out, host_json(args));
  return out;
}

#endif

}  // namespace pb
