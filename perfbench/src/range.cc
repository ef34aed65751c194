// range_read: nproc/2 reader threads issue random DecompressRange calls against
// one shared decompressor and decoded-block cache. Reads cover 1 to 64 Ki
// elements at Zipf-skewed chunk-sized blocks, so they may cross chunk
// boundaries, and the decoded stream is four times the cache budget, so
// evictions and misses show. The stream uses 256 KiB chunks rather than the
// 3 MB default, the granularity a random-access reader would choose. Encode
// does no work in the measured phase: one operation is one DecompressRange
// call, and the compress figure is that of set-up's encoding of the stream.
//
// Traced run: the same reads, each under a span, classified by the
// PrimacyDecodeStats it returns, plus the cache's own counters and a set
// of one-element reads through an uncached decompressor (the cost of
// reading one chunk cold), as context figures; then the codec layer replay
// of the stream's source array in its 256 KiB chunks.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>

#include "cache/block_cache.h"
#include "core/primacy_codec.h"
#include "util/error.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace primacy;

const std::vector<std::string> kDatasets = {"num_plasma", "num_comet",
                                            "gts_chkp_zion", "flash_velx",
                                            "msg_sppm", "num_brain"};
constexpr std::size_t kChunkBytes = 256 * 1024;  // 32 Ki doubles
constexpr std::size_t kBlockElements = kChunkBytes / sizeof(double);
// 21 chunk-sized blocks per dataset: 126 blocks, 31.5 MiB decoded, four
// times the cache budget.
constexpr std::size_t kBlocksPerDataset = 21;
constexpr std::size_t kBlocks = kBlocksPerDataset * 6;
constexpr std::size_t kElements = kBlocks * kBlockElements;
constexpr std::size_t kCacheBytes = kElements * sizeof(double) / 4;
constexpr std::uint64_t kMaxReadElements = 64 * 1024;
constexpr double kZipfExponent = 1.6;
constexpr std::size_t kWarmupReadsPerThread = 64;

struct RangeSetup {
  std::vector<double> values;
  Bytes stream;
  double compress_s = 0;
  std::unique_ptr<PrimacyDecompressor> decompressor;
};

struct ReadSample {
  OpSample op;
  PrimacyDecodeStats stats;
};

/// Runs reader `thread`'s closed loop until `deadline_ns` (or `max_reads`),
/// checking every result against the source array.
std::vector<ReadSample> ReaderLoop(RunState& run, const RangeSetup& setup,
                                   std::size_t thread, std::uint64_t deadline_ns,
                                   std::size_t max_reads, std::uint64_t salt) {
  SplitMix rng(DeriveSeed(run.args.seed, salt + thread));
  // Zipf rank r reads dataset r mod 6, at a block of that dataset picked by
  // a seeded permutation: the hot set moves with the seed, but every seed
  // heats the six datasets alike.
  std::vector<std::size_t> perm(kBlocksPerDataset);
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  SplitMix perm_rng(DeriveSeed(run.args.seed, 77));
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[perm_rng.Below(i)]);
  }
  auto block_of = [&](std::size_t rank) {
    const std::size_t dataset = rank % kDatasets.size();
    return dataset * kBlocksPerDataset + perm[rank / kDatasets.size()];
  };
  const Zipf zipf(kBlocks, kZipfExponent);
  std::vector<ReadSample> samples;
  while (samples.size() < max_reads && NowNs() < deadline_ns &&
         !Interrupted()) {
    const std::uint64_t first =
        block_of(zipf.Sample(rng)) * kBlockElements + rng.Below(kBlockElements);
    const std::uint64_t count = std::min<std::uint64_t>(
        rng.LogUniform(1, kMaxReadElements), setup.values.size() - first);
    ReadSample sample;
    sample.op.bytes = count * sizeof(double);
    std::vector<double> got;
    const std::uint64_t t0 = NowNs();
    bool ok = true;
    {
      Tracer::Scope span(run.tracer, "range.read", 0, first);
      try {
        got = setup.decompressor->DecompressRange(setup.stream, first, count,
                                                  &sample.stats);
      } catch (const Error&) {
        ok = false;
      }
    }
    sample.op.done_ns = NowNs();
    sample.op.us = static_cast<double>(sample.op.done_ns - t0) * 1e-3;
    MaybeCorruptForSelfTest(std::as_writable_bytes(std::span(got)));
    ok = ok && got.size() == count &&
         std::memcmp(got.data(), setup.values.data() + first,
                     count * sizeof(double)) == 0;
    if (run.tally.Record(ok)) samples.push_back(sample);
  }
  return samples;
}

/// All readers in parallel; returns every thread's samples concatenated.
std::vector<ReadSample> RunReaders(RunState& run, const RangeSetup& setup,
                                   std::uint64_t deadline_ns,
                                   std::size_t max_reads, std::uint64_t salt) {
  const std::size_t threads = Callers();
  std::vector<std::vector<ReadSample>> per_thread(threads);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      try {
        per_thread[t] = ReaderLoop(run, setup, t, deadline_ns, max_reads, salt);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: reader %zu: %s\n", t, e.what());
        run.correct = false;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  std::vector<ReadSample> all;
  for (auto& v : per_thread) all.insert(all.end(), v.begin(), v.end());
  return all;
}

}  // namespace

void RunRangeRead(RunState& run) {
  const Args& args = run.args;
  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  auto make = [&] {
    RangeSetup s;
    s.values = BuildMixedArray(args.seed, kDatasets, kElements);
    PrimacyOptions encode;
    encode.chunk_bytes = kChunkBytes;
    encode.threads = nproc;
    const std::uint64_t t0 = NowNs();
    s.stream = PrimacyCompressor(encode).Compress(s.values);
    s.compress_s = static_cast<double>(NowNs() - t0) * 1e-9;
    PrimacyOptions decode;
    decode.cache.enabled = true;
    decode.cache.capacity_bytes = kCacheBytes;
    s.decompressor = std::make_unique<PrimacyDecompressor>(decode);
    // Warm-up: fill the cache to its steady state before timing.
    RunReaders(run, s, ~std::uint64_t{0}, kWarmupReadsPerThread, 500);
    return s;
  };
  std::vector<double> setup_times;
  const RangeSetup setup = TimedSetup(make, setup_times);

  const CacheStatsSnapshot before = setup.decompressor->cache()->Stats();
  const std::uint64_t start = NowNs();
  const std::uint64_t deadline =
      start + static_cast<std::uint64_t>(args.seconds * 1e9);
  const std::vector<ReadSample> samples =
      RunReaders(run, setup, deadline, ~std::size_t{0}, 100);
  const std::uint64_t end = NowNs();
  const CacheStatsSnapshot after = setup.decompressor->cache()->Stats();

  const double rss = SelfPeakRssMiB();
  std::vector<double> compress_mbps;
  auto note_compress = [&](const RangeSetup& s) {
    compress_mbps.push_back(static_cast<double>(s.values.size() * sizeof(double)) *
                            1e-6 / s.compress_s);
  };
  note_compress(setup);
  FinishSetupTiming(run, make, note_compress, setup_times);

  std::vector<double> hit_us;
  std::vector<double> miss_us;
  double decoded = 0;
  double verified = 0;
  std::vector<OpSample> read_ops;
  EndToEnd e2e;
  for (const ReadSample& s : samples) {
    read_ops.push_back(s.op);
    e2e.op_us.push_back(s.op.us);
    (s.stats.cache_misses == 0 ? hit_us : miss_us).push_back(s.op.us);
    decoded += static_cast<double>(s.stats.chunks_decoded);
    verified += static_cast<double>(s.stats.chunks_verified);
  }
  e2e.compress_MBps = Median(compress_mbps);
  e2e.compress_samples = compress_mbps;
  e2e.decompress_samples = WindowMBps(read_ops, start, end);
  e2e.decompress_MBps = Median(e2e.decompress_samples);
  e2e.compression_ratio =
      static_cast<double>(setup.values.size() * sizeof(double)) /
      static_cast<double>(setup.stream.size());
  e2e.peak_rss_MiB = rss;
  ReportEndToEnd(run, e2e);
  if (!args.trace) return;

  const double reads = static_cast<double>(std::max<std::size_t>(samples.size(), 1));
  const double lookups =
      static_cast<double>((after.hits - before.hits) + (after.misses - before.misses));

  // One-element reads through an uncached decompressor: the cost of reading
  // one chunk cold, without the cache in the way.
  const PrimacyDecompressor uncached;
  for (std::size_t i = 0; i < 32; ++i) {
    const std::uint64_t first = ((i * 37) % kBlocks) * kBlockElements;
    std::vector<double> got;
    {
      Tracer::Scope span(run.tracer, "range.uncached_chunk_read", 0, first);
      got = uncached.DecompressRange(setup.stream, first, 1);
    }
    run.tally.Record(got.size() == 1 &&
                     std::memcmp(got.data(), &setup.values[first],
                                 sizeof(double)) == 0);
  }
  run.report.Context(
      "workload_layers",
      JsonFields(
          {{"range_reads_per_s",
            static_cast<double>(samples.size()) /
                (static_cast<double>(end - start) * 1e-9)},
           {"cache.hit_ratio",
            lookups == 0 ? 0
                         : static_cast<double>(after.hits - before.hits) / lookups},
           {"cache.evictions_per_1k_reads",
            static_cast<double>(after.evictions - before.evictions) * 1000.0 /
                reads},
           {"core.chunks_decoded_per_read", decoded / reads},
           {"core.chunks_verified_per_read", verified / reads},
           {"cache.hit_read_p50_us", Median(hit_us)},
           {"core.miss_read_p50_us", Median(miss_us)},
           {"core.uncached_chunk_read_us",
            Median(run.tracer.DurationsUs("range.uncached_chunk_read"))}}));
  ReportCodecLayers(run, {std::span<const double>(setup.values)}, kChunkBytes);
}

}  // namespace perfbench
