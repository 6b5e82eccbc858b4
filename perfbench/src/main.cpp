// perfbench — one process runs one workload and prints its result.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--threads N] [--schedule hybrid|static|dynamic]
//             [--trace-out PATH] [--commit ID]
//
// Workloads: lu-large, lu-mixed, batch-small, service-open.  The last
// line of standard output is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1).  The line before it records the host and the oracle's
// self-test.  README.md documents the metrics.
#include <cstdio>
#include <cstdlib>
#include <string>

#include <unistd.h>

#include "perfbench/src/common.h"
#include "perfbench/src/oracle.h"
#include "perfbench/src/workloads.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "lu-large|lu-mixed|batch-small|service-open --seed N "
               "--seconds S --trace 0|1 [--threads N] [--schedule "
               "hybrid|static|dynamic] [--trace-out PATH] [--commit ID]\n",
               why);
  std::exit(2);
}

pb::Args parse(int argc, char** argv) {
  pb::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v);
    else if (k == "--trace") a.trace = std::atoi(v) != 0;
    else if (k == "--threads") a.threads = std::atoi(v);
    else if (k == "--schedule") a.schedule = v;
    else if (k == "--trace-out") a.trace_out = v;
    else if (k == "--commit") a.commit = v;
    else usage(("unknown flag " + k).c_str());
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  if (a.schedule != "hybrid" && a.schedule != "static" &&
      a.schedule != "dynamic")
    usage("unknown --schedule");
  return a;
}

/// Host-wide CPU time stolen from this machine's cpus by the hypervisor,
/// in seconds (the "steal" column of /proc/stat; 0 where absent).
double steal_seconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  return got == 8 ? static_cast<double>(v[7]) / sysconf(_SC_CLK_TCK) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const pb::Args args = parse(argc, argv);
  pb::Outcome out;
  // The host record reads the affinity mask before any team pins us.
  const std::string host = pb::host_json(args);
  const bool self_test = pb::oracle_self_test();
  std::printf("{\"host\": %s, \"oracle_self_test\": %s}\n", host.c_str(),
              self_test ? "true" : "false");
  std::fflush(stdout);
  const double steal0 = steal_seconds();
  if (args.workload == "lu-large")
    out = pb::run_lu(args, false);
  else if (args.workload == "lu-mixed")
    out = pb::run_lu(args, true);
  else if (args.workload == "batch-small")
    out = pb::run_batch(args);
  else if (args.workload == "service-open")
    out = pb::run_service(args);
  else
    usage(("unknown workload " + args.workload).c_str());
  // Stolen time explains a run that reads slow on a shared host.
  std::printf("{\"steal_seconds\": %.2f}\n", steal_seconds() - steal0);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              out.correct && self_test ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              out.metrics.json().c_str());
  return 0;
}
