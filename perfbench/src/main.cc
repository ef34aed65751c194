// perfbench: runs one named workload of the repository benchmark for a
// given seed and prints its metrics. Normally started through run.py, which
// builds the library, primacyd and this binary first.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --primacyd PATH [--self-test] [--trace-dir DIR]
//             [--git-sha SHA] [--source-digest HEX]
//
// Prints one context line and then, last, the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports end-to-end metrics, --trace 1 per-layer metrics (and
// writes the run's spans to DIR/<workload>-seed<N>.trace.json).
// --self-test flips one byte of one reply, so the run must report exactly
// one failed operation.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/stat.h>

#include "util/error.h"
#include "workloads.h"

namespace perfbench {
namespace {

volatile std::sig_atomic_t g_interrupted = 0;

void OnSignal(int) { g_interrupted = 1; }

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "bulk_roundtrip|range_read|daemon_cold|daemon_hot --seed N "
               "--seconds S --trace 0|1 --primacyd PATH [--self-test] "
               "[--trace-dir DIR] [--git-sha SHA] [--source-digest HEX]\n",
               message);
  return 2;
}

}  // namespace

bool Interrupted() { return g_interrupted != 0; }

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  args.trace_dir = ".bench_build/traces";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      args.self_test = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      args.trace = value == "1";
    } else if (arg == "--primacyd") {
      args.primacyd = value;
    } else if (arg == "--trace-dir") {
      args.trace_dir = value;
    } else if (arg == "--git-sha") {
      args.git_sha = value;
    } else if (arg == "--source-digest") {
      args.source_digest = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (!(args.seconds > 0)) return Usage("--seconds must be positive");
  const bool daemon = args.workload == "daemon_cold" || args.workload == "daemon_hot";
  if (daemon && args.primacyd.empty()) return Usage("--primacyd is required");
  if (args.self_test) EnableSelfTest();

  struct sigaction action {};
  action.sa_handler = OnSignal;
  sigemptyset(&action.sa_mask);
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);

  Tracer tracer(args.trace);
  Report report;
  RunState run{args, tracer, report, {}, {true}};
  try {
    if (args.workload == "bulk_roundtrip") {
      RunBulkRoundtrip(run);
    } else if (args.workload == "range_read") {
      RunRangeRead(run);
    } else if (daemon) {
      RunDaemon(run, args.workload == "daemon_hot");
    } else {
      return Usage(("unknown workload '" + args.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  if (Interrupted()) {
    std::fprintf(stderr, "perfbench: interrupted\n");
    return 130;
  }
  if (run.tally.attempted.load() == 0) {
    std::fprintf(stderr, "perfbench: no operation ran\n");
    return 1;
  }
  if (args.trace) {
    ::mkdir(args.trace_dir.c_str(), 0755);
    const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".trace.json";
    if (tracer.Write(path)) {
      report.Context("trace_file", JsonString(path));
    } else {
      std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
    }
  }
  report.Context("workload", JsonString(args.workload));
  report.Context("seed", std::to_string(args.seed));
  report.Context("host", HostFingerprintJson(args.git_sha, args.source_digest));
  report.Print(run.correct.load(), run.tally.attempted.load(), run.tally.failed.load());
  return run.correct ? 0 : 1;
}
