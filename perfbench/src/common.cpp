#include "perfbench/src/common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <sstream>

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include "src/blas/microkernel.h"
#include "src/sched/thread_team.h"
#include "src/sched/topology.h"

namespace pb {

int nproc() {
  // Read once, before any team exists: a pinned team pins its calling
  // thread too, and hardware_threads() reads the caller's own mask.
  static const int n = calu::sched::ThreadTeam::hardware_threads();
  return n;
}

namespace {
const std::string& affinity_list();
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double tail(std::vector<double> v) {
  const double n = static_cast<double>(v.size());
  double q = 0.5;
  if (n >= 1000.0)
    q = 0.99;
  else if (n >= 40.0)
    q = 1.0 - 10.0 / n;
  return percentile(std::move(v), q);
}

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform(double lo, double hi) {
  const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * u;
}

int Rng::range(int lo, int hi) {
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<int>(next() % span);
}

double Rng::exponential(double rate) {
  // 1 - u lies in (0, 1], so the log is finite.
  return -std::log(1.0 - uniform(0.0, 1.0)) / rate;
}

calu::layout::Matrix random_matrix(int m, int n, Rng& rng) {
  calu::layout::Matrix a(m, n);
  double* p = a.data();
  const std::size_t count = static_cast<std::size_t>(m) * n;
  for (std::size_t i = 0; i < count; ++i) p[i] = rng.uniform(-1.0, 1.0);
  return a;
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

void Metrics::add(const std::string& name, double value,
                  const std::string& unit) {
  entries_.push_back({name, value, unit});
}

std::string Metrics::json() const {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    // JSON has no NaN/Inf; a non-finite measurement is reported as -1
    // (no metric here is legitimately negative except the overhead).
    const double v = std::isfinite(e.value) ? e.value : -1.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (i) out += ", ";
    out += "\"" + e.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           e.unit + "\"}";
  }
  return out + "}";
}

void report_end_to_end(const EndToEnd& e, Metrics& out) {
  // Rates are the median over ops, so a host stall that hits a few ops
  // does not set the run's figure.
  std::vector<double> gflops, solves_per_s;
  double solves = 0.0;
  for (const EndToEnd::Op& op : e.ops) {
    gflops.push_back(op.flops / op.seconds * 1e-9);
    solves_per_s.push_back(op.solves / op.seconds);
    solves += op.solves;
  }
  out.add("gflops", median(gflops), "GFLOP/s");
  out.add("solves_per_s", median(solves_per_s), "1/s");
  out.add("cpu_ms_per_solve", solves > 0.0 ? 1e3 * e.cpu_s / solves : 0.0,
          "ms");
  out.add("setup_s", median(e.setup_s), "s");
  out.add("peak_rss_mb", peak_rss_mib(), "MiB");
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

namespace {

std::string read_affinity_list() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return "unknown";
  std::ostringstream os;
  int run_start = -1, prev = -2;
  bool first = true;
  auto flush = [&] {
    if (run_start < 0) return;
    os << (first ? "" : ",") << run_start;
    if (prev != run_start) os << "-" << prev;
    first = false;
  };
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &set)) continue;
    if (c != prev + 1) {
      flush();
      run_start = c;
    }
    prev = c;
  }
  flush();
  return os.str();
}

/// The mask as the process started with it (see nproc()).
const std::string& affinity_list() {
  static const std::string list = read_affinity_list();
  return list;
}

}  // namespace

std::string host_json(const Args& args) {
  std::ostringstream os;
  os << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"hardware_threads\": " << nproc() << ", \"affinity\": \""
     << affinity_list() << "\", \"kernel\": \""
     << calu::blas::active_kernel().name << "\", \"topology\": \""
     << json_escape(calu::sched::system_topology().summary())
     << "\", \"commit\": \"" << json_escape(args.commit)
     << "\", \"compiler\": \"" << json_escape(__VERSION__)
     << "\", \"workload\": \"" << json_escape(args.workload)
     << "\", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
     << ", \"trace\": " << (args.trace ? 1 : 0) << "}";
  return os.str();
}

}  // namespace pb
