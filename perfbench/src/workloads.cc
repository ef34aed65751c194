#include "workloads.h"

#include <algorithm>
#include <thread>

#include "datasets/datasets.h"

namespace perfbench {

std::vector<double> BuildMixedArray(std::uint64_t seed,
                                    const std::vector<std::string>& datasets,
                                    std::size_t total_elements) {
  std::vector<double> out;
  out.reserve(total_elements);
  for (std::size_t i = 0; i < datasets.size(); ++i) {
    const std::size_t n = total_elements * (i + 1) / datasets.size() -
                          total_elements * i / datasets.size();
    // The dataset's own generator seed fixes its exponent and mantissa
    // codebooks, the byte populations Table III characterises; the run seed
    // picks which window of the sequence the run sees.
    const std::size_t slack = n / 4;
    SplitMix rng(DeriveSeed(seed, 1000 + i));
    const std::size_t offset = rng.Below(slack + 1);
    const std::vector<double> part =
        primacy::GenerateDatasetByName(datasets[i], n + slack);
    out.insert(out.end(), part.begin() + static_cast<std::ptrdiff_t>(offset),
               part.begin() + static_cast<std::ptrdiff_t>(offset + n));
  }
  return out;
}

std::vector<double> WindowMBps(const std::vector<OpSample>& ops,
                               std::uint64_t start_ns, std::uint64_t end_ns) {
  constexpr std::uint64_t kWindowNs = 1'000'000'000;
  const std::uint64_t windows = std::max<std::uint64_t>((end_ns - start_ns) / kWindowNs, 1);
  const std::uint64_t width = windows == 1 ? end_ns - start_ns : kWindowNs;
  std::vector<double> bytes(windows, 0.0);
  std::vector<double> us(windows, 0.0);
  for (const OpSample& op : ops) {
    if (op.done_ns < start_ns) continue;
    const std::uint64_t w = (op.done_ns - start_ns) / width;
    if (w >= windows) continue;
    bytes[w] += static_cast<double>(op.bytes);
    us[w] += op.us;
  }
  std::vector<double> out;
  for (std::uint64_t w = 0; w < windows; ++w) {
    if (us[w] > 0) out.push_back(bytes[w] / us[w]);  // bytes/us = MB/s
  }
  return out;
}

std::size_t Callers() {
  return std::max(1u, std::thread::hardware_concurrency() / 2);
}

void ReportEndToEnd(RunState& run, const EndToEnd& e2e) {
  std::vector<double> sorted = e2e.op_us;
  std::sort(sorted.begin(), sorted.end());
  const double p50 = Quantile(sorted, 0.5);
  Report& r = run.report;
  if (run.args.trace) {
    r.Context("traced_end_to_end",
              JsonFields({{"compress_MBps", e2e.compress_MBps},
                          {"decompress_MBps", e2e.decompress_MBps},
                          {"op_p50_us", p50},
                          {"compression_ratio", e2e.compression_ratio}}));
    return;
  }
  r.Add("compress_MBps", "MB/s", e2e.compress_MBps, e2e.compress_samples);
  r.Add("decompress_MBps", "MB/s", e2e.decompress_MBps, e2e.decompress_samples);
  r.Add("op_p50_us", "us", p50, e2e.op_us);
  // A p99 is only a tail when at least ten samples lie beyond it.
  if (sorted.size() >= 1000) {
    r.Context("op_p99_us", JsonNumber(Quantile(sorted, 0.99)));
  }
  r.Add("compression_ratio", "x", e2e.compression_ratio);
  // Not a metric: it moves by up to a fifth between runs of one seed on
  // range_read and daemon_hot, with how frees land in malloc arenas.
  r.Context("peak_rss_MiB", JsonNumber(e2e.peak_rss_MiB));
}

std::string JsonFields(const std::vector<std::pair<std::string, double>>& fields) {
  std::string out = "{";
  for (const auto& [name, value] : fields) {
    if (out.size() > 1) out += ", ";
    out += JsonString(name) + ": " + JsonNumber(value);
  }
  return out + "}";
}

}  // namespace perfbench
