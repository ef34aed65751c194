// The traced run's codec per-layer metrics, shared by every workload: serial
// PrimacyCompressor / PrimacyDecompressor calls on the workload's input,
// then every chunk of it replayed single-threaded through the codec layers'
// public functions, one span per layer. Each layer's cost is reported per
// MB of input; whatever the serial calls spend that the replay does not
// cover is reported as *_unaccounted.
#include <cstring>
#include <optional>

#include "compress/registry.h"
#include "core/frequency.h"
#include "core/id_mapper.h"
#include "core/primacy_codec.h"
#include "isobar/analyzer.h"
#include "isobar/partitioned_codec.h"
#include "util/byte_matrix.h"
#include "util/checksum.h"
#include "util/error.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace primacy;

constexpr std::size_t kHighWidth = 2;
constexpr std::size_t kWidth = 8;

double NsPerMB(std::uint64_t ns, std::size_t bytes) {
  return static_cast<double>(ns) / (static_cast<double>(bytes) * 1e-6);
}

std::string StageJson(const telemetry::StageBreakdown& stage,
                      std::size_t bytes) {
  std::vector<std::pair<std::string, double>> fields;
  for (std::size_t s = 0; s < telemetry::kStageCount; ++s) {
    fields.emplace_back(
        std::string(telemetry::StageName(static_cast<telemetry::Stage>(s))),
        NsPerMB(stage.ns[s], bytes));
  }
  return JsonFields(fields);
}

struct ReplayCounts {
  std::size_t id_bytes = 0;
  std::size_t id_compressed_bytes = 0;
  std::size_t mantissa_bytes = 0;
  std::size_t mantissa_stream_bytes = 0;
  double compressible_fraction_sum = 0;
  std::size_t chunks = 0;
  std::uint64_t digest = 0;  // keeps the checksum pass observable
};

/// Replays every chunk of `values` through the codec layers under one span
/// per layer, checks each chunk's round trip, and adds the layers' byte
/// counts to `counts`.
void ReplayLayers(RunState& run, const PrimacyOptions& options,
                  std::span<const double> values, ReplayCounts& counts) {
  Tracer& tracer = run.tracer;
  const std::unique_ptr<Codec> solver = CreateCodec(options.solver);
  const std::size_t per_chunk = options.chunk_bytes / kWidth;
  for (std::size_t first = 0; first < values.size(); first += per_chunk) {
    const std::size_t n = std::min(per_chunk, values.size() - first);
    const std::span<const double> chunk = values.subspan(first, n);
    const std::uint64_t request = counts.chunks++;
    Tracer::Scope root(tracer, "replay.chunk", 0, request);
    const std::uint64_t parent = root.id();

    SplitBytes split;
    {
      Tracer::Scope s(tracer, "core.split", parent, request);
      split = SplitHighLow(DoublesToBigEndianRows(chunk), kWidth, kHighWidth);
    }
    std::optional<IdIndex> index;
    {
      Tracer::Scope s(tracer, "core.frequency", parent, request);
      index.emplace(IdIndex::FromFrequency(AnalyzePairFrequency(split.high)));
    }
    Bytes ids;
    {
      Tracer::Scope s(tracer, "core.id_map", parent, request);
      ids = MapToIds(split.high, *index, options.linearization);
    }
    Bytes ids_compressed;
    {
      Tracer::Scope s(tracer, "deflate.ids", parent, request);
      ids_compressed = solver->Compress(ids);
    }
    IsobarPlan plan;
    {
      Tracer::Scope s(tracer, "isobar.analyze", parent, request);
      plan = AnalyzeColumns(split.low, kWidth - kHighWidth, options.isobar);
    }
    IsobarCompressed mantissa;
    {
      Tracer::Scope s(tracer, "isobar.columns", parent, request);
      mantissa = IsobarCompress(split.low, kWidth - kHighWidth, plan, *solver);
    }
    std::uint64_t digest = 0;
    {
      // The stream checksums each chunk record (index, IDs, mantissa).
      Tracer::Scope s(tracer, "util.xxh64", parent, request);
      digest = Xxh64(ids_compressed) ^ Xxh64(mantissa.stream);
    }
    Bytes ids_back;
    {
      Tracer::Scope s(tracer, "deflate.ids_decode", parent, request);
      ids_back = solver->Decompress(ids_compressed);
    }
    Bytes low_back;
    {
      Tracer::Scope s(tracer, "isobar.decode", parent, request);
      low_back = IsobarDecompress(mantissa.stream, *solver);
    }
    Bytes high_back;
    {
      Tracer::Scope s(tracer, "core.id_unmap", parent, request);
      high_back = MapFromIds(ids_back, *index, options.linearization);
    }
    std::vector<double> back;
    {
      Tracer::Scope s(tracer, "core.merge", parent, request);
      back = BigEndianRowsToDoubles(
          MergeHighLow(high_back, low_back, kWidth, kHighWidth));
    }
    run.tally.Record(back.size() == n &&
                     std::memcmp(back.data(), chunk.data(), n * kWidth) == 0);

    counts.id_bytes += ids.size();
    counts.id_compressed_bytes += ids_compressed.size();
    counts.mantissa_bytes += split.low.size();
    counts.mantissa_stream_bytes += mantissa.stream.size();
    counts.compressible_fraction_sum += plan.CompressibleFraction();
    counts.digest ^= digest;
  }
}

}  // namespace

double ReportCodecLayers(RunState& run,
                         const std::vector<std::span<const double>>& items,
                         std::size_t chunk_bytes) {
  PrimacyOptions options;
  options.threads = 1;
  options.chunk_bytes = chunk_bytes;
  const PrimacyCompressor compressor(options);
  const PrimacyDecompressor decompressor(options);
  telemetry::StageBreakdown encode_stages;
  telemetry::StageBreakdown decode_stages;
  std::size_t bytes = 0;
  for (const std::span<const double> item : items) {
    bytes += item.size_bytes();
    PrimacyStats encode_stats;
    PrimacyDecodeStats decode_stats;
    Bytes stream;
    {
      Tracer::Scope span(run.tracer, "layers.serial_compress");
      stream = compressor.Compress(item, &encode_stats);
    }
    run.tally.Record(VerifyStream(stream).ok);
    std::vector<double> back;
    {
      Tracer::Scope span(run.tracer, "layers.serial_decompress");
      try {
        back = decompressor.Decompress(stream, &decode_stats);
      } catch (const Error&) {
        back.clear();
      }
    }
    MaybeCorruptForSelfTest(std::as_writable_bytes(std::span(back)));
    run.tally.Record(back.size() == item.size() &&
                     std::memcmp(back.data(), item.data(), item.size_bytes()) == 0);
    encode_stages.Accumulate(encode_stats.stage);
    decode_stages.Accumulate(decode_stats.stage);
  }
  ReplayCounts counts;
  for (const std::span<const double> item : items) {
    ReplayLayers(run, options, item, counts);
  }

  const Tracer& t = run.tracer;
  auto layer = [&](const char* name) { return NsPerMB(t.TotalNs(name), bytes); };
  Report& r = run.report;
  const double xxh64 = layer("util.xxh64");
  const double encode_layers = layer("core.split") + layer("core.frequency") +
                               layer("core.id_map") + layer("deflate.ids") +
                               layer("isobar.analyze") +
                               layer("isobar.columns") + xxh64;
  const double decode_layers = layer("deflate.ids_decode") +
                               layer("isobar.decode") +
                               layer("core.id_unmap") + layer("core.merge") +
                               xxh64;
  for (const char* name :
       {"core.split", "core.frequency", "core.id_map", "deflate.ids",
        "isobar.analyze", "isobar.columns", "util.xxh64"}) {
    r.Add(std::string(name) + "_ns_per_MB", "ns/MB", layer(name));
  }
  r.Add("core.encode_unaccounted_ns_per_MB", "ns/MB",
        layer("layers.serial_compress") - encode_layers);
  for (const char* name :
       {"deflate.ids_decode", "isobar.decode", "core.id_unmap", "core.merge"}) {
    r.Add(std::string(name) + "_ns_per_MB", "ns/MB", layer(name));
  }
  r.Add("core.decode_unaccounted_ns_per_MB", "ns/MB",
        layer("layers.serial_decompress") - decode_layers);
  r.Add("isobar.compressible_column_fraction", "ratio",
        counts.compressible_fraction_sum / static_cast<double>(counts.chunks));
  r.Add("core.id_bytes_ratio", "x",
        static_cast<double>(counts.id_bytes) /
            static_cast<double>(counts.id_compressed_bytes));
  r.Add("isobar.mantissa_bytes_ratio", "x",
        static_cast<double>(counts.mantissa_bytes) /
            static_cast<double>(counts.mantissa_stream_bytes));
  // The library's own stage clock for the same serial calls, per MB of
  // input, beside the replay above.
  r.Context("stage_breakdown_ns_per_MB",
            "{\"encode\": " + StageJson(encode_stages, bytes) +
                ", \"decode\": " + StageJson(decode_stages, bytes) + "}");
  return static_cast<double>(t.TotalNs("layers.serial_compress") +
                             t.TotalNs("layers.serial_decompress")) *
         1e-9;
}

}  // namespace perfbench
