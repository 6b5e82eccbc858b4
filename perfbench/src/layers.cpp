#include "perfbench/src/layers.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "src/blas/blas.h"
#include "src/layout/packed.h"
#include "src/trace/trace.h"

namespace pb {

namespace core = calu::core;
namespace layout = calu::layout;

struct ComposedSolve::State {
  layout::Matrix lu;
  layout::PackedMatrix packed;
  std::unique_ptr<core::GetrfJob> job;
  std::vector<int> ipiv;  ///< the composed factorization's pivots
};

ComposedSolve::ComposedSolve(SpanRecorder& rec, const layout::Matrix& a,
                             const layout::Matrix& b,
                             const core::Options& opt, int solve_id)
    : rec_(rec), a_(a), b_(b), opt_(opt), solve_(solve_id),
      st_(std::make_unique<State>()) {}

ComposedSolve::~ComposedSolve() = default;

void ComposedSolve::prepare(calu::sched::Session& session, int parent) {
  {
    ScopedSpan s(rec_, "solve.copy", parent, solve_);
    st_->lu = a_;
  }
  {
    ScopedSpan s(rec_, "layout.pack", parent, solve_);
    st_->packed = layout::PackedMatrix::pack(
        st_->lu, opt_.layout, opt_.b, opt_.resolved_grid(),
        core::owner_runner_from(opt_, session.team()));
  }
  {
    ScopedSpan s(rec_, "core.plan", parent, solve_);
    st_->job = std::make_unique<core::GetrfJob>(st_->packed, opt_);
  }
}

const calu::sched::TaskGraph& ComposedSolve::graph() const {
  return st_->job->graph();
}

calu::sched::ExecFn ComposedSolve::traced_exec(int run_span) {
  core::GetrfJob* job = st_->job.get();
  const calu::sched::TaskGraph* g = &job->graph();
  SpanRecorder* rec = &rec_;
  const int solve = solve_;
  return [job, g, rec, solve, run_span](int id, int tid) {
    const std::int64_t t0 = rec->now();
    job->exec(id, tid);
    const std::int64_t t1 = rec->now();
    rec->task(tid, static_cast<int>(g->task(id).kind), run_span, solve, t0,
              t1);
  };
}

void ComposedSolve::epilogue(calu::sched::Session& session, int parent) {
  {
    ScopedSpan s(rec_, "core.finish", parent, solve_);
    res_.factorization = st_->job->finish(session.team());
  }
  st_->ipiv = res_.factorization.ipiv;
  {
    ScopedSpan s(rec_, "layout.unpack", parent, solve_);
    st_->packed.unpack(st_->lu);
  }
  ScopedSpan s(rec_, "solve.refine", parent, solve_);
  if (opt_.precision == core::Precision::Float32)
    core::refine_mixed(a_, b_, st_->lu, opt_, session, res_);
  else
    core::solve_factored(a_, b_, st_->lu, res_.factorization.ipiv,
                         opt_.max_refine, res_);
}

void ComposedSolve::probes(int parent) {
  layout::Matrix x = b_;
  {
    ScopedSpan s(rec_, "probe.getrs", parent, solve_);
    core::getrs(st_->lu, st_->ipiv, x);
  }
  {
    ScopedSpan s(rec_, "probe.residual", parent, solve_);
    core::solve_residual(a_, x, b_);
  }
  if (opt_.precision == core::Precision::Float32) {
    auto f32 = layout::PackedMatrixT<float>::convert_from(st_->packed);
    ScopedSpan s(rec_, "probe.convert", parent, solve_);
    f32.convert_into(st_->packed);
  }
  st_.reset(new State);  // release the job's buffers
}

double ComposedSolve::s_flops() const {
  const double n = a_.rows(), b = opt_.b;
  double f = 0.0;
  for (double c0 = 0.0; c0 < n; c0 += b) {
    const double w = std::min(b, n - c0);
    const double rest = n - c0 - w;
    f += 2.0 * w * rest * rest;
  }
  return f;
}

double traced_op(SpanRecorder& rec, calu::sched::Session& session,
                 const std::vector<System>& systems, bool fused,
                 LayerRun& run, std::vector<core::SolveResult>& results) {
  const bool single = !fused;
  const core::Options& lead = systems.front().opt;
  std::unique_ptr<calu::noise::Injector> injector;
  const calu::sched::RunHooks hooks =
      core::run_hooks_from(lead, session.threads(), injector);
  const std::string engine = lead.resolved_engine();

  std::vector<std::unique_ptr<ComposedSolve>> cs;
  for (const System& s : systems)
    cs.push_back(std::make_unique<ComposedSolve>(
        rec, *s.a, *s.b, s.opt, static_cast<int>(run.solves++)));
  const int solve0 = single ? static_cast<int>(run.solves) - 1 : -1;

  const int op = rec.open(single ? "solve" : "batch", -1, solve0);
  const int prep = single ? op : rec.open("batch.prepare", op, -1);
  for (auto& c : cs) c->prepare(session, prep);
  if (!single) rec.close(prep);

  const int run_span = rec.open("sched.run", op, solve0);
  if (single) {
    run.engine.merge(session.run(cs[0]->graph(), cs[0]->traced_exec(run_span),
                                 hooks, engine));
  } else {
    std::vector<calu::sched::FusedJob> fused(cs.size());
    for (std::size_t j = 0; j < cs.size(); ++j) {
      fused[j].graph = &cs[j]->graph();
      fused[j].exec = cs[j]->traced_exec(run_span);
    }
    run.engine.merge(session.run_fused(fused, hooks, engine).engine);
  }
  rec.close(run_span);
  ++run.engine_runs;

  const int epi = single ? op : rec.open("batch.epilogue", op, -1);
  for (auto& c : cs) c->epilogue(session, epi);
  if (!single) rec.close(epi);
  rec.close(op);
  ++run.ops;

  results.clear();
  for (std::size_t j = 0; j < cs.size(); ++j) {
    cs[j]->probes(-1);
    const core::SolveResult& r = cs[j]->result();
    run.s_flops += cs[j]->s_flops();
    run.pack_bytes += 2.0 * 8.0 * systems[j].a->rows() * systems[j].a->cols();
    run.refine_steps += r.refine_steps;
    run.fallbacks += r.used_fallback ? 1 : 0;
    results.push_back(r);
  }
  return rec.span(op).seconds();
}

double gemm_peak_gflops(int b, bool single_precision) {
  Rng rng(0x6e33);
  const layout::Matrix a = random_matrix(b, b, rng);
  const layout::Matrix bm = random_matrix(b, b, rng);
  layout::Matrix c(b, b);
  const std::size_t count = static_cast<std::size_t>(b) * b;
  std::vector<float> af(a.data(), a.data() + count);
  std::vector<float> bf(bm.data(), bm.data() + count);
  std::vector<float> cf(count, 0.0f);
  using calu::blas::Trans;
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    long calls = 0;
    const auto t0 = Clock::now();
    double el = 0.0;
    do {
      for (int i = 0; i < 16; ++i) {
        if (single_precision)
          calu::blas::gemm(Trans::No, Trans::No, b, b, b, 1.0f, af.data(), b,
                           bf.data(), b, 0.0f, cf.data(), b);
        else
          calu::blas::gemm(Trans::No, Trans::No, b, b, b, 1.0, a.data(), b,
                           bm.data(), b, 0.0, c.data(), b);
      }
      calls += 16;
      el = seconds_between(t0, Clock::now());
    } while (el < 0.1);
    best = std::max(best, 2.0 * b * b * b * calls / el * 1e-9);
  }
  return best;
}

void report_layers(const SpanRecorder& rec, const LayerRun& run,
                   Metrics& out) {
  const std::vector<Span> spans = rec.all();
  const std::vector<std::string>& names = rec.names();
  std::map<std::string, double> by_name;  // total seconds per span name
  for (const Span& s : spans)
    by_name[names[static_cast<std::size_t>(s.name)]] += s.seconds();
  auto sum = [&](const std::string& n) {
    auto it = by_name.find(n);
    return it == by_name.end() ? 0.0 : it->second;
  };
  const double solves = std::max<double>(1.0, static_cast<double>(run.solves));
  const double ops = std::max<double>(1.0, static_cast<double>(run.ops));
  const double runs =
      std::max<double>(1.0, static_cast<double>(run.engine_runs));
  auto per_solve = [&](const std::string& n) { return sum(n) / solves; };

  // Task spans by run, for fork/join/idle/finish90, and every task's time.
  std::map<int, std::vector<const Span*>> tasks_of_run;
  std::vector<double> task_us;
  double task_busy = 0.0;
  for (const Span& s : spans)
    if (s.name < calu::trace::kKindCount) {
      tasks_of_run[s.parent].push_back(&s);
      task_us.push_back(1e6 * s.seconds());
      task_busy += s.seconds();
    }
  std::vector<double> fork_us, join_us, finish90;
  double run_seconds = 0.0;
  for (const Span& r : spans) {
    if (names[static_cast<std::size_t>(r.name)] != "sched.run") continue;
    run_seconds += r.seconds();
    auto it = tasks_of_run.find(r.id);
    if (it == tasks_of_run.end()) continue;
    std::int64_t first = r.t1, last = r.t0;
    std::vector<std::int64_t> thread_end(static_cast<std::size_t>(run.threads),
                                         -1);
    for (const Span* t : it->second) {
      first = std::min(first, t->t0);
      last = std::max(last, t->t1);
      auto& e = thread_end[static_cast<std::size_t>(t->tid)];
      e = std::max(e, t->t1);
    }
    fork_us.push_back(1e-3 * static_cast<double>(first - r.t0));
    join_us.push_back(1e-3 * static_cast<double>(r.t1 - last));
    for (auto& e : thread_end) e = std::max(e, first);
    std::sort(thread_end.begin(), thread_end.end());
    const std::size_t k = static_cast<std::size_t>(
        std::ceil(0.9 * static_cast<double>(thread_end.size())));
    const double makespan = static_cast<double>(last - first);
    if (k >= 1 && makespan > 0.0)
      finish90.push_back(static_cast<double>(thread_end[k - 1] - first) /
                         makespan);
  }

  // Top-level op spans (solve or batch): attribution to direct children.
  std::map<int, double> child_sum;
  for (const Span& s : spans)
    if (s.parent >= 0 && s.name >= calu::trace::kKindCount)
      child_sum[s.parent] += s.seconds();
  double op_total = 0.0, op_attributed = 0.0;
  for (const Span& s : spans) {
    const std::string& n = names[static_cast<std::size_t>(s.name)];
    if (s.parent != -1 || (n != "solve" && n != "batch")) continue;
    op_total += s.seconds();
    op_attributed += std::min(s.seconds(), child_sum[s.id]);
  }

  const double s_busy = sum("task.S");
  const double pack_s = sum("layout.pack");
  const double peak = run.float_factors ? run.gemm_f32_gflops : run.gemm_gflops;
  const double s_gflops = s_busy > 0.0 ? run.s_flops / s_busy * 1e-9 : 0.0;

  out.add("blas.gemm_gflops", run.gemm_gflops, "GFLOP/s");
  out.add("blas.gemm_f32_gflops", run.gemm_f32_gflops, "GFLOP/s");
  out.add("core.S.busy_s", s_busy / solves, "s");
  out.add("core.S.gflops", s_gflops, "GFLOP/s");
  out.add("core.S.gemm_frac", peak > 0.0 ? s_gflops / peak : 0.0, "ratio");
  out.add("core.P.busy_s", per_solve("task.P"), "s");
  out.add("core.L.busy_s", per_solve("task.L"), "s");
  out.add("core.U.busy_s", per_solve("task.U"), "s");
  out.add("core.pack.busy_s",
          (sum("task.PackL") + sum("task.PackU")) / solves, "s");
  // CALU applies the deferred left swaps inside GetrfJob::finish (a
  // team-parallel sweep); Swap-kind DAG tasks count too should an engine
  // ever schedule them.  Float jobs' finish also writes the factors back
  // to double, which the convert probe measures and this subtracts.
  out.add("core.swap.busy_s",
          (sum("task.Swap") +
           std::max(0.0, sum("core.finish") - sum("probe.convert"))) /
              solves,
          "s");
  out.add("core.plan_s", per_solve("core.plan"), "s");
  out.add("core.finish_s", per_solve("core.finish"), "s");
  out.add("core.tasks", static_cast<double>(task_us.size()) / solves,
          "count");
  out.add("core.task_p50_us", median(task_us), "us");
  out.add("layout.pack_s", pack_s / solves, "s");
  out.add("layout.unpack_s", per_solve("layout.unpack"), "s");
  out.add("layout.pack_gbps", pack_s > 0.0 ? run.pack_bytes / pack_s * 1e-9 : 0.0,
          "GB/s");
  out.add("solve.copy_s", per_solve("solve.copy"), "s");
  out.add("solve.getrs_s", per_solve("probe.getrs"), "s");
  out.add("solve.residual_s", per_solve("probe.residual"), "s");
  out.add("solve.refine_s",
          std::max(0.0, sum("solve.refine") - sum("probe.getrs") -
                            sum("probe.residual")) /
              solves,
          "s");
  out.add("solve.refine_steps", run.refine_steps / solves, "count");
  out.add("solve.fallbacks", static_cast<double>(run.fallbacks), "count");
  out.add("sched.run_s", run_seconds / runs, "s");
  out.add("sched.fork_us", median(fork_us), "us");
  out.add("sched.join_us", median(join_us), "us");
  out.add("sched.idle_frac",
          run_seconds > 0.0 ? 1.0 - task_busy / (run.threads * run_seconds)
                            : 0.0,
          "ratio");
  out.add("sched.finish90_frac", median(finish90), "ratio");
  out.add("sched.teams_spawned", static_cast<double>(run.teams_spawned),
          "count");
  out.add("sched.static_pops", run.engine.static_pops / runs, "count");
  out.add("sched.dynamic_pops", run.engine.dynamic_pops / runs, "count");
  out.add("sched.steals", run.engine.steals / runs, "count");
  out.add("sched.steal_attempts", run.engine.steal_attempts / runs, "count");
  out.add("sched.promotions", run.engine.promotions / runs, "count");
  out.add("batch.prepare_s",
          (sum("solve.copy") + pack_s + sum("core.plan")) / ops, "s");
  out.add("batch.fused_run_s", run_seconds / ops, "s");
  out.add("batch.epilogue_s",
          (sum("core.finish") + sum("layout.unpack") + sum("solve.refine")) /
              ops,
          "s");
  out.add("batch.fused_tasks", static_cast<double>(task_us.size()) / ops,
          "count");
  out.add("service.queue_p50_us", run.queue_p50_us, "us");
  out.add("service.exec_p50_ms", run.exec_p50_ms, "ms");
  out.add("service.jobs_per_run", run.jobs_per_run, "count");
  out.add("service.generator_lag_p99_us", run.generator_lag_p99_us, "us");
  out.add("latency.solve_p50_ms", median(run.latency.latency_ms), "ms");
  out.add("latency.solve_p99_ms", tail(run.latency.latency_ms), "ms");
  out.add("latency.interactive_p99_ms", tail(run.latency.interactive_ms),
          "ms");
  out.add("bench.attributed_frac",
          op_total > 0.0 ? op_attributed / op_total : 0.0, "ratio");
  const double ref = median(run.ref_op_s);
  out.add("bench.trace_overhead_frac",
          ref > 0.0 ? median(run.traced_op_s) / ref - 1.0 : 0.0, "ratio");
}

}  // namespace pb
