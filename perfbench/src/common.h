// Shared pieces of the perfbench binary: the benchmark's own input
// generator, sample statistics, the result/context printer, the in-memory
// span recorder used by traced runs, and the operation/failure tally.
//
// Nothing here calls into the library under test but its byte container
// types and, for the host fingerprint, the active kernel ISA, so a fault in
// the library cannot leak into the checks.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "util/bytes.h"

namespace perfbench {

using primacy::ByteSpan;
using primacy::Bytes;

/// Monotonic nanoseconds (steady clock).
inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// SplitMix64: every size, offset and operation choice the benchmark makes
/// comes from this stream, seeded from --seed, so the same seed gives the
/// same inputs and the program's own RNG is never involved.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();
  /// Uniform integer in [0, n).
  std::uint64_t Below(std::uint64_t n);
  /// Log-uniform integer in [lo, hi].
  std::uint64_t LogUniform(std::uint64_t lo, std::uint64_t hi);

 private:
  std::uint64_t state_;
};

/// Independent sub-seed for stream `stream` of run seed `seed`.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream);

/// Zipf(s) sampler over ranks [0, n) by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double exponent);
  std::size_t Sample(SplitMix& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Linear-interpolation quantile of an ascending-sorted sample, q in [0, 1].
double Quantile(const std::vector<double>& sorted, double q);

/// Median of an unsorted sample (0 when empty).
double Median(std::vector<double> values);

/// Flips one byte of `data` on the first call in a run started with
/// --self-test, so the run can show that its checks catch a bad reply.
/// No-op otherwise and on every later call.
void MaybeCorruptForSelfTest(std::span<std::byte> data);
void EnableSelfTest();

/// Attempted/failed operation tally, shared by all workers of a run.
struct OpTally {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};

  /// Records one operation; returns `ok` for chaining.
  bool Record(bool ok) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (!ok) failed.fetch_add(1, std::memory_order_relaxed);
    return ok;
  }
};

/// Collects a run's metrics and prints them: first one context line (host
/// fingerprint, seed, each metric's sample count, quartiles, p90 and p99
/// over its samples), then, last, the result object
/// {"correct", "attempted", "failed", "metrics"}.
class Report {
 public:
  /// `samples` are the per-round or per-operation values `value` was
  /// summarized from; their quartiles go to the context line.
  void Add(const std::string& name, const std::string& unit, double value,
           std::vector<double> samples = {});
  /// Extra context (free-form key -> JSON value text).
  void Context(const std::string& key, const std::string& json_value);

  void Print(bool correct, std::uint64_t attempted,
             std::uint64_t failed) const;

 private:
  struct Metric {
    std::string name;
    std::string unit;
    double value = 0;
    std::vector<double> samples;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> context_;
};

/// JSON number text with every digit of `v` (shortest round-trip form).
std::string JsonNumber(double v);
std::string JsonString(const std::string& s);

/// In-memory span recorder for traced runs: name, start, end, parent span
/// and request id, written out as a chrome://tracing file when the run
/// ends. Disabled tracers record nothing and cost one branch per span.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t request_id = 0;
    std::uint32_t thread = 0;
  };

  /// RAII span; nests under `parent` (0 = root).
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t parent = 0,
          std::uint64_t request_id = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t id() const { return span_.id; }

   private:
    Tracer& tracer_;
    Span span_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Sum of durations of every span named `name`.
  std::uint64_t TotalNs(const std::string& name) const;
  /// Durations in microseconds of every span named `name`.
  std::vector<double> DurationsUs(const std::string& name) const;

  /// Writes every span as chrome://tracing JSON; returns false on I/O error.
  bool Write(const std::string& path) const;

 private:
  void Commit(const Span& span);

  const bool enabled_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Small integer naming the calling thread in traces.
std::uint32_t ThreadIndex();

/// Peak resident set of this process, MiB.
double SelfPeakRssMiB();

/// Host fingerprint fields as a JSON object text.
std::string HostFingerprintJson(const std::string& git_sha,
                                const std::string& source_digest);

/// Reads `path` whole ("" on error).
std::string ReadFile(const std::string& path);

}  // namespace perfbench
