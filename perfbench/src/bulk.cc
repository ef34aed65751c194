// bulk_roundtrip: the paper's checkpoint write and read. One large array of
// contrasting Table III datasets is compressed and then fully decompressed
// with the codec's own chunk parallelism (threads = nproc, 3 MB chunks), in
// whole rounds until the run time is used.
//
// One operation is one round trip: a compress and a decompress call.
//
// Traced run: three parallel rounds, then the codec layer replay of the same
// array in 3 MB chunks (ReportCodecLayers); the serial calls against the
// parallel rounds give the thread pool's speed-up.
#include <cstring>
#include <thread>

#include "core/primacy_codec.h"
#include "util/error.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace primacy;

const std::vector<std::string>& BulkDatasets() {
  // ISOBAR-compressible mantissas, noise mantissas ISOBAR stores raw, exact
  // repeats, and ramps.
  static const std::vector<std::string> names = {
      "num_plasma", "num_comet", "gts_chkp_zion",
      "flash_velx", "msg_sppm",  "num_brain"};
  return names;
}

constexpr std::size_t kBulkElements = std::size_t{6} << 20;  // 48 MiB

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// One timed compress + decompress of `values`; checks the stream with
/// VerifyStream and the decoded values bit for bit against the input.
struct Round {
  double compress_s = 0;
  double decompress_s = 0;
  std::size_t stream_bytes = 0;
};

Round RunRound(RunState& run, const PrimacyCompressor& compressor,
               const PrimacyDecompressor& decompressor,
               const std::vector<double>& values, const char* compress_span,
               const char* decompress_span) {
  Round round;
  Bytes stream;
  {
    const std::uint64_t t0 = NowNs();
    Tracer::Scope span(run.tracer, compress_span);
    stream = compressor.Compress(values);
    round.compress_s = static_cast<double>(NowNs() - t0) * 1e-9;
  }
  round.stream_bytes = stream.size();
  run.tally.Record(VerifyStream(stream).ok);
  std::vector<double> back;
  {
    const std::uint64_t t0 = NowNs();
    Tracer::Scope span(run.tracer, decompress_span);
    try {
      back = decompressor.Decompress(stream);
    } catch (const Error&) {
      back.clear();
    }
    round.decompress_s = static_cast<double>(NowNs() - t0) * 1e-9;
  }
  MaybeCorruptForSelfTest(std::as_writable_bytes(std::span(back)));
  run.tally.Record(SameBits(back, values));
  return round;
}

}  // namespace

void RunBulkRoundtrip(RunState& run) {
  const Args& args = run.args;
  auto make = [&] {
    return BuildMixedArray(args.seed, BulkDatasets(), kBulkElements);
  };
  std::vector<double> setup_times;
  const std::vector<double> values = TimedSetup(make, setup_times);
  auto finish_setup = [&] {
    FinishSetupTiming(run, make, [](std::vector<double>&) {},
                      setup_times);
  };
  const std::size_t bytes = values.size() * sizeof(double);

  PrimacyOptions parallel;
  parallel.threads = std::max(1u, std::thread::hardware_concurrency());
  const PrimacyCompressor compressor(parallel);
  const PrimacyDecompressor decompressor(parallel);

  // Whole rounds until the run time is used. A traced run takes three after
  // one untimed round (pool start-up, first touch of the buffers), so its
  // figures are medians of warm rounds, as an untraced run's are.
  if (args.trace) {
    RunRound(run, compressor, decompressor, values, "bulk.warmup_compress",
             "bulk.warmup_decompress");
  }
  std::vector<double> compress_mbps;
  std::vector<double> decompress_mbps;
  std::vector<double> round_s;
  std::size_t stream_bytes = 0;
  const std::uint64_t deadline =
      NowNs() + static_cast<std::uint64_t>(args.seconds * 1e9);
  do {
    const Round round = RunRound(run, compressor, decompressor, values,
                                 "bulk.compress", "bulk.decompress");
    compress_mbps.push_back(static_cast<double>(bytes) * 1e-6 /
                            round.compress_s);
    decompress_mbps.push_back(static_cast<double>(bytes) * 1e-6 /
                              round.decompress_s);
    round_s.push_back(round.compress_s + round.decompress_s);
    stream_bytes = round.stream_bytes;
  } while (!Interrupted() &&
           (args.trace ? compress_mbps.size() < 3 : NowNs() < deadline));
  EndToEnd e2e;
  e2e.compress_MBps = Median(compress_mbps);
  e2e.compress_samples = compress_mbps;
  e2e.decompress_MBps = Median(decompress_mbps);
  e2e.decompress_samples = decompress_mbps;
  for (const double s : round_s) e2e.op_us.push_back(s * 1e6);
  e2e.compression_ratio =
      static_cast<double>(bytes) / static_cast<double>(stream_bytes);
  e2e.peak_rss_MiB = SelfPeakRssMiB();
  ReportEndToEnd(run, e2e);
  if (args.trace) {
    const double serial_s = ReportCodecLayers(
        run, {std::span<const double>(values)}, PrimacyOptions{}.chunk_bytes);
    run.report.Context("util.thread_pool_speedup",
                       JsonNumber(serial_s / Median(round_s)));
  }
  finish_setup();
}

}  // namespace perfbench
