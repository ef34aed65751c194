// The four perfbench workloads. Each counts every operation it attempts in
// the run's OpTally, clears `correct` when a run-level check fails, and
// reports the same metrics as every other workload, each measured over its
// own operations: the end-to-end figures in an untraced run, the codec
// per-layer figures of a replay of its own input in a traced run.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool self_test = false;
  std::string primacyd;   // path of the primacyd binary (daemon workloads)
  std::string trace_dir;  // where traced runs write their span file
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

struct RunState {
  const Args& args;
  Tracer& tracer;
  Report& report;
  OpTally tally;
  /// Cleared, from any thread, when a run-level check fails.
  std::atomic<bool> correct{true};
};

/// Set by SIGINT/SIGTERM; workload loops stop early and the run exits
/// without a result.
bool Interrupted();

/// Closed-loop callers of range_read and the daemon workloads: half the
/// cores, so that the program's own worker threads, the benchmark's checks
/// and the rest of the host have cores left, and a run measures the program
/// rather than the scheduler.
std::size_t Callers();

/// Set-ups per run; setup_s is their median, so work moved into set-up shows
/// without one slow start deciding the figure.
inline constexpr int kSetupRepeats = 5;

/// Runs `make` once, appending its wall time to `times`.
template <class Make>
auto TimedSetup(Make& make, std::vector<double>& times) {
  const std::uint64_t t0 = NowNs();
  auto result = make();
  times.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  return result;
}

/// Runs the remaining set-ups, each handed to `retire`, and reports the
/// median of all as setup_s (a context figure in traced runs). Workloads
/// call it after their measured phase, so the extra set-ups' allocations
/// cannot change what was measured.
template <class Make, class Retire>
void FinishSetupTiming(RunState& run, Make& make, Retire retire,
                       std::vector<double>& times) {
  while (times.size() < static_cast<std::size_t>(kSetupRepeats) &&
         !Interrupted()) {
    auto extra = TimedSetup(make, times);
    retire(extra);
  }
  if (run.args.trace) {
    run.report.Context("setup_s", JsonNumber(Median(times)));
  } else {
    run.report.Add("setup_s", "s", Median(times), times);
  }
}

/// Concatenation of the named Table III datasets, `total_elements` doubles
/// split evenly between them, each a seed-chosen window of the dataset's
/// canonical generator output.
std::vector<double> BuildMixedArray(std::uint64_t seed,
                                    const std::vector<std::string>& datasets,
                                    std::size_t total_elements);

/// One measured operation: when it completed, how long it took, and the
/// uncompressed bytes it carried (compress input, decompress output).
struct OpSample {
  std::uint64_t done_ns = 0;
  double us = 0;
  std::uint64_t bytes = 0;
};

/// MB per second of call time of the operations completing in each whole
/// second of [start_ns, end_ns) (the whole span when it is shorter), so a
/// median over them is not moved by a few slow seconds on a shared host.
std::vector<double> WindowMBps(const std::vector<OpSample>& ops,
                               std::uint64_t start_ns, std::uint64_t end_ns);

/// The end-to-end figures every workload reports, over its own operations.
struct EndToEnd {
  /// Input MB of the workload's compress calls per second spent in them:
  /// the median over rounds, set-ups, seconds or requests, the samples.
  double compress_MBps = 0;
  std::vector<double> compress_samples;
  /// Output MB of its decompress and range calls per second spent in them.
  double decompress_MBps = 0;
  std::vector<double> decompress_samples;
  /// Latency of every measured operation, microseconds.
  std::vector<double> op_us;
  double compression_ratio = 0;
  double peak_rss_MiB = 0;
};

/// Adds the figures as metrics to an untraced run's report (op_p50_us; on
/// the context line peak_rss_MiB, and op_p99_us when ten samples lie beyond
/// it), or as the traced_end_to_end context object of a traced run.
void ReportEndToEnd(RunState& run, const EndToEnd& e2e);

/// Per-layer figures of one workload's own layers (cache, transport,
/// service), which the other workloads do not run: a context object.
std::string JsonFields(const std::vector<std::pair<std::string, double>>& fields);

/// The traced run's per-layer metrics, the same on every workload: each item
/// of the workload's input is compressed and decompressed by serial
/// PrimacyCompressor / PrimacyDecompressor calls with `chunk_bytes` chunks,
/// then replayed chunk by chunk, single-threaded, through the codec layers'
/// public functions. Each layer's cost is reported per MB of input, and the
/// part of the serial calls the replay does not cover as *_unaccounted.
/// Returns the serial calls' total seconds.
double ReportCodecLayers(RunState& run,
                         const std::vector<std::span<const double>>& items,
                         std::size_t chunk_bytes);

void RunBulkRoundtrip(RunState& run);
void RunRangeRead(RunState& run);
void RunDaemon(RunState& run, bool hot);

}  // namespace perfbench
