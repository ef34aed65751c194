#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "kernels/kernels.h"
#include "telemetry/stage.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

std::uint64_t SplitMix::Next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double SplitMix::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

std::uint64_t SplitMix::Below(std::uint64_t n) {
  return n == 0 ? 0 : Next() % n;
}

std::uint64_t SplitMix::LogUniform(std::uint64_t lo, std::uint64_t hi) {
  const double l = std::log(static_cast<double>(lo));
  const double h = std::log(static_cast<double>(hi) + 1.0);
  const auto v = static_cast<std::uint64_t>(std::exp(l + (h - l) * Uniform()));
  return std::clamp(v, lo, hi);
}

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream) {
  SplitMix mix(seed ^ (stream * 0xD1B54A32D192ED03ull));
  mix.Next();
  return mix.Next();
}

Zipf::Zipf(std::size_t n, double exponent) : cdf_(n) {
  double total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::Sample(SplitMix& rng) const {
  const double u = rng.Uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Quantile(values, 0.5);
}

namespace {
std::atomic<bool> g_self_test{false};
std::atomic<bool> g_corrupted{false};
}  // namespace

void EnableSelfTest() { g_self_test.store(true); }

void MaybeCorruptForSelfTest(std::span<std::byte> data) {
  if (!g_self_test.load(std::memory_order_relaxed) || data.empty()) return;
  if (g_corrupted.exchange(true)) return;
  data[data.size() / 2] ^= std::byte{0x5A};
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void Report::Add(const std::string& name, const std::string& unit,
                 double value, std::vector<double> samples) {
  metrics_.push_back({name, unit, value, std::move(samples)});
}

void Report::Context(const std::string& key, const std::string& json_value) {
  context_.emplace_back(key, json_value);
}

void Report::Print(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const {
  std::string ctx = "{\"context\": {";
  bool first = true;
  for (const auto& [key, value] : context_) {
    if (!first) ctx += ", ";
    first = false;
    ctx += JsonString(key) + ": " + value;
  }
  ctx += std::string(first ? "" : ", ") + "\"samples\": {";
  first = true;
  for (const Metric& m : metrics_) {
    if (m.samples.empty()) continue;
    std::vector<double> sorted = m.samples;
    std::sort(sorted.begin(), sorted.end());
    if (!first) ctx += ", ";
    first = false;
    ctx += JsonString(m.name) + ": {\"n\": " + std::to_string(sorted.size()) +
           ", \"q1\": " + JsonNumber(Quantile(sorted, 0.25)) +
           ", \"median\": " + JsonNumber(Quantile(sorted, 0.5)) +
           ", \"q3\": " + JsonNumber(Quantile(sorted, 0.75)) +
           ", \"p90\": " + JsonNumber(Quantile(sorted, 0.90)) +
           ", \"p99\": " + JsonNumber(Quantile(sorted, 0.99)) + "}";
  }
  ctx += "}}}";
  std::printf("%s\n", ctx.c_str());

  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  first = true;
  for (const Metric& m : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

std::uint32_t ThreadIndex() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t parent,
                     std::uint64_t request_id)
    : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  span_.name = name;
  span_.parent = parent;
  span_.request_id = request_id;
  span_.id = tracer_.next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.thread = ThreadIndex();
  span_.start_ns = NowNs();
}

Tracer::Scope::~Scope() {
  if (!tracer_.enabled_) return;
  span_.end_ns = NowNs();
  tracer_.Commit(span_);
}

void Tracer::Commit(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::uint64_t Tracer::TotalNs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const Span& s : spans_) {
    if (name == s.name) total += s.end_ns - s.start_ns;
  }
  return total;
}

std::vector<double> Tracer::DurationsUs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    }
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  std::uint64_t origin = ~std::uint64_t{0};
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const Span& s : spans_) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\": " << JsonString(s.name)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
        << ", \"ts\": " << JsonNumber(static_cast<double>(s.start_ns - origin) * 1e-3)
        << ", \"dur\": " << JsonNumber(static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request_id\": " << s.request_id << "}}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

double SelfPeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string HostFingerprintJson(const std::string& git_sha,
                                const std::string& source_digest) {
  std::string cpu = "unknown";
  std::istringstream info(ReadFile("/proc/cpuinfo"));
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  std::string out = "{\"cpu\": " + JsonString(cpu);
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"isa\": " +
         JsonString(primacy::kernels::IsaName(primacy::kernels::ActiveIsa()));
  out += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  out += std::string(", \"telemetry\": ") +
         (primacy::telemetry::kEnabled ? "true" : "false");
  out += ", \"git_sha\": " + JsonString(git_sha);
  out += ", \"source_digest\": " + JsonString(source_digest) + "}";
  return out;
}

}  // namespace perfbench
