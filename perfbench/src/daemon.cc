// daemon_cold and daemon_hot: nproc/2 closed-loop connections to a primacyd
// child process, one outstanding request each, spread over four tenants
// with one dataset each.
//
//   daemon_cold  alternating compress / decompress of 16-256 KiB payloads
//                (log-uniform). Every payload is a distinct slice of the
//                tenant's array and every stream is the reply to an earlier
//                compress, decompressed once, so the memo and the cache
//                never hit and per-request codec work dominates.
//   daemon_hot   512 B - 4 KiB payloads over a hot set that fits every
//                tenant's memo and cache partition, warmed in setup; 40%
//                compress, 40% decompress, 20% DecompressRange. The codec
//                is almost absent, so framing, syscalls, admission,
//                batching and memo/cache lookups set the latency.
//
// One operation is one request.
//
// Traced run: the daemon pass runs for a third of the run time and records
// how many rounds each connection completed; the same per-connection
// request sequences are then replayed at the same concurrency in-process,
// through a CompressionService built with the options primacyd builds from
// the same flags, and as direct library calls. Wire framing is timed on
// every request and reply of the daemon pass. These figures go to the
// context line; the per-layer metrics come from the codec layer replay of
// the workload's payloads (daemon_cold: slices of the request size mix
// covering every tenant's array; daemon_hot: the hot set).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <numeric>
#include <thread>

#include "core/primacy_codec.h"
#include "daemon_process.h"
#include "service/service.h"
#include "transport/client.h"
#include "transport/wire.h"
#include "util/error.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace primacy;

struct TenantSpec {
  const char* name;
  const char* dataset;
};
constexpr TenantSpec kTenants[] = {{"t0", "num_plasma"},
                                   {"t1", "gts_chkp_zion"},
                                   {"t2", "msg_sppm"},
                                   {"t3", "num_brain"}};
constexpr std::size_t kTenantCount = std::size(kTenants);

// Daemon configuration, shared by both workloads. Per tenant: a 4 MiB memo
// and a quarter of the 64 MiB cache budget; the hot set below fits both.
constexpr std::size_t kMemoBytes = 4u << 20;
constexpr std::size_t kCacheBytes = 64u << 20;
constexpr double kCacheShare = 0.25;

// daemon_cold: 16-256 KiB payload slices of a 4 MiB array per tenant.
constexpr std::size_t kColdBaseElements = 512 * 1024;
constexpr std::uint64_t kColdMinElements = 2 * 1024;
constexpr std::uint64_t kColdMaxElements = 32 * 1024;
// Slice k starts at (k * kColdStride) mod the number of start positions; the
// stride is coprime to it, so slice starts never repeat within a run.
constexpr std::uint64_t kColdStride = 1'000'003;

// daemon_hot: 64 items of 512 B - 4 KiB per tenant.
constexpr std::size_t kHotItems = 64;
constexpr std::uint64_t kHotMinElements = 64;
constexpr std::uint64_t kHotMaxElements = 512;

std::vector<std::string> DaemonFlags() {
  std::vector<std::string> flags = {"--cache-bytes", "64m",
                                    "--max-connections", "64"};
  for (const TenantSpec& t : kTenants) {
    flags.push_back("--tenant");
    flags.push_back(std::string(t.name) + ",memo=4m,cache_share=0.25");
  }
  return flags;
}

/// The CompressionService primacyd builds from DaemonFlags().
std::unique_ptr<service::CompressionService> InProcessService() {
  service::ServiceOptions options;
  options.cache_capacity_bytes = kCacheBytes;
  auto svc = std::make_unique<service::CompressionService>(options);
  for (const TenantSpec& t : kTenants) {
    service::TenantConfig config;
    config.name = t.name;
    config.memo_bytes = kMemoBytes;
    config.cache_share = kCacheShare;
    svc->AddTenant(config);
  }
  return svc;
}

struct HotItem {
  Bytes payload;
  Bytes stream;  // the daemon's warm-up reply, verified against payload
};

struct Inputs {
  std::vector<std::vector<double>> base;     // daemon_cold, per tenant
  std::vector<std::vector<HotItem>> hot;     // daemon_hot, per tenant
};

Inputs MakeInputs(std::uint64_t seed, bool hot) {
  Inputs in;
  for (std::size_t i = 0; i < kTenantCount; ++i) {
    std::vector<double> values = BuildMixedArray(
        DeriveSeed(seed, 300 + i), {kTenants[i].dataset},
        hot ? kHotItems * kHotMaxElements : kColdBaseElements);
    if (!hot) {
      in.base.push_back(std::move(values));
      continue;
    }
    // Item sizes are kHotItems log-spaced steps across [min, max], the same
    // for every seed: a seed changes the hot set's values, not its size mix.
    std::vector<HotItem> items(kHotItems);
    for (std::size_t j = 0; j < kHotItems; ++j) {
      const auto n = static_cast<std::uint64_t>(std::llround(
          static_cast<double>(kHotMinElements) *
          std::pow(static_cast<double>(kHotMaxElements) / kHotMinElements,
                   (static_cast<double>(j) + 0.5) / kHotItems)));
      const ByteSpan bytes = AsBytes(std::span<const double>(
          values.data() + j * kHotMaxElements, n));
      items[j].payload.assign(bytes.begin(), bytes.end());
    }
    in.hot.push_back(std::move(items));
  }
  return in;
}

bool Equal(ByteSpan a, ByteSpan b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

/// One way of serving requests: through the daemon, an in-process service,
/// or direct library calls. Each worker thread owns its own instance.
class Backend {
 public:
  virtual ~Backend() = default;
  /// Each returns false when the request failed; `out` holds the reply.
  virtual bool Compress(const char* tenant, ByteSpan payload, Bytes& out) = 0;
  virtual bool Decompress(const char* tenant, ByteSpan stream, Bytes& out) = 0;
  virtual bool Range(const char* tenant, ByteSpan stream, std::uint64_t first,
                     std::uint64_t count, Bytes& out) = 0;
  /// Span name of one request on this path.
  virtual const char* span() const = 0;
  /// Called after each request, outside its timing.
  virtual void AfterRequest(transport::Op, const char*, ByteSpan,
                            std::uint64_t, std::uint64_t, ByteSpan,
                            std::uint64_t, std::uint64_t) {}
};

class DaemonBackend final : public Backend {
 public:
  DaemonBackend(const std::string& socket, Tracer& tracer)
      : client_(Options(socket)), tracer_(tracer) {}

  bool Compress(const char* tenant, ByteSpan payload, Bytes& out) override {
    return Take(client_.Compress(tenant, payload), out);
  }
  bool Decompress(const char* tenant, ByteSpan stream, Bytes& out) override {
    return Take(client_.Decompress(tenant, stream), out);
  }
  bool Range(const char* tenant, ByteSpan stream, std::uint64_t first,
             std::uint64_t count, Bytes& out) override {
    return Take(client_.DecompressRange(tenant, stream, first, count), out);
  }
  const char* span() const override { return "daemon.request"; }

  /// Traced runs encode and decode the frames this request and its reply
  /// took on the wire, so framing cost is measured on the real payloads.
  void AfterRequest(transport::Op op, const char* tenant, ByteSpan payload,
                    std::uint64_t first, std::uint64_t count, ByteSpan reply,
                    std::uint64_t parent, std::uint64_t request_id) override {
    if (!tracer_.enabled()) return;
    Tracer::Scope span(tracer_, "transport.framing", parent, request_id);
    transport::RequestFrame request;
    request.request_id = request_id;
    request.op = op;
    request.tenant = tenant;
    request.first_element = first;
    request.element_count = count;
    request.payload.assign(payload.begin(), payload.end());
    const transport::DecodedFrame req =
        transport::DecodeFrame(transport::EncodeRequestFrame(request));
    transport::ResponseFrame response;
    response.request_id = request_id;
    response.op = op;
    response.payload.assign(reply.begin(), reply.end());
    const transport::DecodedFrame rsp =
        transport::DecodeFrame(transport::EncodeResponseFrame(response));
    if (req.request.payload.size() != payload.size() ||
        rsp.response.payload.size() != reply.size()) {
      std::fprintf(stderr, "perfbench: frame round trip changed a payload\n");
    }
  }

  transport::TransportClientStats Stats() const { return client_.ClientStats(); }

 private:
  static transport::TransportClientOptions Options(const std::string& socket) {
    transport::TransportClientOptions options;
    options.socket_path = socket;
    options.max_pooled_connections = 1;
    return options;
  }
  static bool Take(transport::TransportResult result, Bytes& out) {
    out = std::move(result.payload);
    return result.ok();
  }

  transport::TransportClient client_;
  Tracer& tracer_;
};

class InProcessBackend final : public Backend {
 public:
  explicit InProcessBackend(service::CompressionService& svc) : svc_(svc) {}
  bool Compress(const char* tenant, ByteSpan payload, Bytes& out) override {
    return Take(svc_.SubmitCompress(tenant, Bytes(payload.begin(), payload.end())), out);
  }
  bool Decompress(const char* tenant, ByteSpan stream, Bytes& out) override {
    return Take(svc_.SubmitDecompress(tenant, Bytes(stream.begin(), stream.end())), out);
  }
  bool Range(const char* tenant, ByteSpan stream, std::uint64_t first,
             std::uint64_t count, Bytes& out) override {
    return Take(svc_.SubmitDecompressRange(
                    tenant, Bytes(stream.begin(), stream.end()), first, count),
                out);
  }
  const char* span() const override { return "service.request"; }

 private:
  static bool Take(std::future<service::ServiceResponse> future, Bytes& out) {
    service::ServiceResponse response = future.get();
    out = std::move(response.payload);
    return response.ok();
  }
  service::CompressionService& svc_;
};

class DirectBackend final : public Backend {
 public:
  DirectBackend() : compressor_(Serial()), decompressor_(Serial()) {}
  bool Compress(const char*, ByteSpan payload, Bytes& out) override {
    return Try([&] { out = compressor_.CompressBytes(payload); });
  }
  bool Decompress(const char*, ByteSpan stream, Bytes& out) override {
    return Try([&] { out = decompressor_.DecompressBytes(stream); });
  }
  bool Range(const char*, ByteSpan stream, std::uint64_t first,
             std::uint64_t count, Bytes& out) override {
    return Try([&] {
      out = decompressor_.DecompressBytesRange(stream, first, count);
    });
  }
  const char* span() const override { return "codec.request"; }

 private:
  static PrimacyOptions Serial() {
    PrimacyOptions options;
    options.threads = 1;
    return options;
  }
  static bool Try(const std::function<void()>& fn) {
    try {
      fn();
      return true;
    } catch (const Error&) {
      return false;
    }
  }
  PrimacyCompressor compressor_;
  PrimacyDecompressor decompressor_;
};

/// What one connection measured.
struct ThreadResult {
  std::vector<OpSample> compress;
  std::vector<OpSample> decompress;  // decompress and range requests
  std::uint64_t rounds = 0;
  std::uint64_t requests = 0;
  std::uint64_t payload_bytes = 0;  // verified compress requests' input
  std::uint64_t stream_bytes = 0;   // their replies
};

/// Drives connection `t`'s closed loop for whole rounds until `deadline_ns`
/// or `max_rounds`, checking every reply against the bytes it must equal.
class ConnectionLoop {
 public:
  ConnectionLoop(RunState& run, Inputs& in, bool hot) : run_(run), in_(in), hot_(hot) {}

  ThreadResult Run(Backend& backend, std::size_t t, std::uint64_t deadline_ns,
                   std::uint64_t max_rounds) {
    ThreadResult res;
    SplitMix rng(DeriveSeed(run_.args.seed, (hot_ ? 600 : 500) + t));
    PrimacyDecompressor verifier;
    try {
      while (res.rounds < max_rounds && NowNs() < deadline_ns &&
             !Interrupted()) {
        const std::uint64_t round = res.rounds++;
        // Every connection visits the tenants in turn, so all four see
        // traffic whatever the connection count. Slice numbers of one
        // tenant, (round / tenants) * connections + t, never repeat.
        const std::size_t tenant = (t + round) % kTenantCount;
        if (hot_) {
          HotRequest(backend, tenant, rng, res, verifier, t, round);
        } else {
          ColdRound(backend, tenant, rng, res, verifier,
                    round / kTenantCount * threads() + t, t, round);
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: connection %zu: %s\n", t, e.what());
      run_.correct = false;
    }
    return res;
  }

  static std::size_t threads() {
    return Callers();
  }

 private:
  /// Times one request under `backend.span()` and, when it is served,
  /// records it in `ops`; `bytes` is its uncompressed size.
  template <class Fn>
  bool Timed(Backend& backend, std::vector<OpSample>& ops, ThreadResult& res,
             std::uint64_t bytes, std::uint64_t parent,
             std::uint64_t request_id, Fn fn) {
    const std::uint64_t t0 = NowNs();
    bool ok;
    {
      Tracer::Scope span(run_.tracer, backend.span(), parent, request_id);
      ok = fn();
    }
    const std::uint64_t t1 = NowNs();
    ++res.requests;
    if (ok) ops.push_back({t1, static_cast<double>(t1 - t0) * 1e-3, bytes});
    return ok;
  }

  /// True when `stream` decodes, through the benchmark's own decompressor,
  /// to exactly `payload`.
  bool DecodesTo(PrimacyDecompressor& verifier, ByteSpan stream,
                 ByteSpan payload, std::uint64_t parent,
                 std::uint64_t request_id) {
    Tracer::Scope span(run_.tracer, "check.verify", parent, request_id);
    try {
      return Equal(verifier.DecompressBytes(stream), payload);
    } catch (const Error&) {
      return false;
    }
  }

  void ColdRound(Backend& backend, std::size_t tenant, SplitMix& rng,
                 ThreadResult& res, PrimacyDecompressor& verifier,
                 std::uint64_t slice, std::size_t t, std::uint64_t round) {
    const std::vector<double>& base = in_.base[tenant];
    const std::uint64_t starts = base.size() - kColdMaxElements;
    const std::uint64_t first = (slice * kColdStride) % starts;
    const std::uint64_t n = rng.LogUniform(kColdMinElements, kColdMaxElements);
    const ByteSpan payload =
        AsBytes(std::span<const double>(base.data() + first, n));
    const char* name = kTenants[tenant].name;
    const std::uint64_t id = (static_cast<std::uint64_t>(t) << 40) | (round * 2);

    Bytes stream;
    {
      Tracer::Scope op(run_.tracer, "client.op", 0, id);
      const bool served = Timed(backend, res.compress, res, payload.size(),
                                op.id(), id, [&] {
        return backend.Compress(name, payload, stream);
      });
      backend.AfterRequest(transport::Op::kCompress, name, payload, 0, 0,
                           stream, op.id(), id);
      Bytes copy = stream;
      MaybeCorruptForSelfTest(copy);
      if (run_.tally.Record(served &&
                            DecodesTo(verifier, copy, payload, op.id(), id))) {
        res.payload_bytes += payload.size();
        res.stream_bytes += stream.size();
      }
      if (!served) {
        run_.tally.Record(false);  // its decompress has no stream to use
        return;
      }
    }
    Tracer::Scope op(run_.tracer, "client.op", 0, id + 1);
    Bytes restored;
    bool ok = Timed(backend, res.decompress, res, payload.size(), op.id(), id + 1,
                    [&] { return backend.Decompress(name, stream, restored); });
    backend.AfterRequest(transport::Op::kDecompress, name, stream, 0, 0,
                         restored, op.id(), id + 1);
    run_.tally.Record(ok && Equal(restored, payload));
  }

  void HotRequest(Backend& backend, std::size_t tenant, SplitMix& rng,
                  ThreadResult& res, PrimacyDecompressor& verifier,
                  std::size_t t, std::uint64_t round) {
    const HotItem& item = in_.hot[tenant][rng.Below(kHotItems)];
    const double u = rng.Uniform();
    const char* name = kTenants[tenant].name;
    const std::uint64_t id = (static_cast<std::uint64_t>(t) << 40) | round;
    Tracer::Scope op(run_.tracer, "client.op", 0, id);
    Bytes reply;
    bool ok = false;
    if (u < 0.4) {
      ok = Timed(backend, res.compress, res, item.payload.size(), op.id(), id,
                 [&] {
        return backend.Compress(name, item.payload, reply);
      });
      backend.AfterRequest(transport::Op::kCompress, name, item.payload, 0, 0,
                           reply, op.id(), id);
      MaybeCorruptForSelfTest(reply);
      // Identical bytes to the verified warm-up stream decode identically;
      // anything else is decoded and compared to the payload.
      ok = ok && (Equal(reply, item.stream) ||
                  DecodesTo(verifier, reply, item.payload, op.id(), id));
      if (ok) {
        res.payload_bytes += item.payload.size();
        res.stream_bytes += reply.size();
      }
    } else if (u < 0.8) {
      ok = Timed(backend, res.decompress, res, item.payload.size(), op.id(), id,
                 [&] {
        return backend.Decompress(name, item.stream, reply);
      });
      backend.AfterRequest(transport::Op::kDecompress, name, item.stream, 0, 0,
                           reply, op.id(), id);
      MaybeCorruptForSelfTest(reply);
      ok = ok && Equal(reply, item.payload);
    } else {
      const std::uint64_t elements = item.payload.size() / sizeof(double);
      const std::uint64_t first = rng.Below(elements);
      const std::uint64_t count = 1 + rng.Below(elements - first);
      ok = Timed(backend, res.decompress, res, count * sizeof(double), op.id(),
                 id, [&] {
        return backend.Range(name, item.stream, first, count, reply);
      });
      backend.AfterRequest(transport::Op::kDecompressRange, name, item.stream,
                           first, count, reply, op.id(), id);
      MaybeCorruptForSelfTest(reply);
      ok = ok && Equal(reply, ByteSpan(item.payload)
                                  .subspan(first * sizeof(double),
                                           count * sizeof(double)));
    }
    run_.tally.Record(ok);
  }

  RunState& run_;
  Inputs& in_;
  const bool hot_;
};

/// Runs one Backend per connection in parallel; `make` builds connection
/// t's backend, `max_rounds` (per connection) bounds replays.
std::vector<ThreadResult> RunConnections(
    ConnectionLoop& loop, const std::function<std::unique_ptr<Backend>(std::size_t)>& make,
    std::uint64_t deadline_ns, const std::vector<std::uint64_t>& max_rounds,
    std::vector<std::unique_ptr<Backend>>* keep = nullptr) {
  const std::size_t threads = ConnectionLoop::threads();
  std::vector<ThreadResult> results(threads);
  std::vector<std::unique_ptr<Backend>> backends(threads);
  for (std::size_t t = 0; t < threads; ++t) backends[t] = make(t);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      results[t] = loop.Run(*backends[t], t, deadline_ns,
                              max_rounds.empty() ? ~std::uint64_t{0}
                                                 : max_rounds[t]);
    });
  }
  for (std::thread& w : workers) w.join();
  if (keep != nullptr) *keep = std::move(backends);
  return results;
}

/// Warm-up for daemon_hot: each hot item compressed (its reply, checked by
/// decoding, becomes the item's stream), decompressed and range-read once,
/// so every tenant's memo and cache partition holds the hot set.
bool WarmHotSet(Inputs& in, const std::function<std::unique_ptr<Backend>()>& make,
                bool keep_streams, std::uint64_t* requests) {
  std::vector<std::thread> workers;
  std::vector<int> ok(kTenantCount, 1);
  std::vector<std::uint64_t> counts(kTenantCount, 0);
  for (std::size_t i = 0; i < kTenantCount; ++i) {
    workers.emplace_back([&, i] {
      std::unique_ptr<Backend> backend = make();
      PrimacyDecompressor verifier;
      try {
        for (HotItem& item : in.hot[i]) {
          Bytes stream;
          Bytes out;
          const char* name = kTenants[i].name;
          bool good = backend->Compress(name, item.payload, stream) &&
                      Equal(verifier.DecompressBytes(stream), item.payload);
          if (keep_streams) item.stream = stream;
          good = good && backend->Decompress(name, item.stream, out) &&
                 Equal(out, item.payload);
          good = good && backend->Range(name, item.stream, 0, 1, out) &&
                 Equal(out, ByteSpan(item.payload).first(sizeof(double)));
          counts[i] += 3;
          if (!good) ok[i] = 0;
        }
      } catch (const std::exception&) {
        ok[i] = 0;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  if (requests != nullptr) {
    *requests += std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
  }
  return std::all_of(ok.begin(), ok.end(), [](int v) { return v != 0; });
}

struct DaemonSetup {
  Inputs in;
  std::unique_ptr<DaemonProcess> daemon;
  std::uint64_t warm_requests = 0;
};

/// Sums `"<key>": N` over every tenant object of a StatusJson document.
std::uint64_t SumField(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  std::uint64_t total = 0;
  for (std::size_t at = json.find(needle); at != std::string::npos;
       at = json.find(needle, at + 1)) {
    total += std::strtoull(json.c_str() + at + needle.size(), nullptr, 10);
  }
  return total;
}

struct Totals {
  std::vector<OpSample> compress, decompress;
  std::uint64_t requests = 0, payload_bytes = 0, stream_bytes = 0;
  std::vector<std::uint64_t> rounds;
};

Totals Sum(const std::vector<ThreadResult>& results) {
  Totals tot;
  for (const ThreadResult& r : results) {
    tot.compress.insert(tot.compress.end(), r.compress.begin(), r.compress.end());
    tot.decompress.insert(tot.decompress.end(), r.decompress.begin(), r.decompress.end());
    tot.requests += r.requests;
    tot.payload_bytes += r.payload_bytes;
    tot.stream_bytes += r.stream_bytes;
    tot.rounds.push_back(r.rounds);
  }
  return tot;
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0 : std::accumulate(v.begin(), v.end(), 0.0) /
                             static_cast<double>(v.size());
}

/// The codec layer replay's items: daemon_cold's request size mix laid over
/// every tenant's array, or daemon_hot's hot set.
std::vector<std::span<const double>> ReplayItems(const Inputs& in,
                                                 std::uint64_t seed, bool hot) {
  std::vector<std::span<const double>> items;
  for (std::size_t i = 0; i < kTenantCount; ++i) {
    if (hot) {
      for (const HotItem& item : in.hot[i]) {
        items.emplace_back(reinterpret_cast<const double*>(item.payload.data()),
                           item.payload.size() / sizeof(double));
      }
      continue;
    }
    const std::vector<double>& base = in.base[i];
    SplitMix rng(DeriveSeed(seed, 700 + i));
    for (std::size_t first = 0; first < base.size();) {
      const std::size_t n = std::min<std::size_t>(
          rng.LogUniform(kColdMinElements, kColdMaxElements), base.size() - first);
      items.emplace_back(base.data() + first, n);
      first += n;
    }
  }
  return items;
}

}  // namespace

void RunDaemon(RunState& run, bool hot) {
  const Args& args = run.args;
  const std::string run_root = ".bench_build/run";
  std::string error;
  auto stop = [&](DaemonProcess& daemon, std::uint64_t requests) {
    if (!daemon.Stop(requests, &error)) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      run.correct = false;
    }
  };

  auto make = [&] {
    DaemonSetup s;
    s.in = MakeInputs(args.seed, hot);
    s.daemon = DaemonProcess::Start(args.primacyd, DaemonFlags(), run_root,
                                    &error);
    if (s.daemon == nullptr) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      run.correct = false;
      return s;
    }
    if (hot) {
      const std::string socket = s.daemon->socket_path();
      if (!WarmHotSet(s.in,
                      [&] {
                        return std::make_unique<DaemonBackend>(socket,
                                                               run.tracer);
                      },
                      true, &s.warm_requests)) {
        std::fprintf(stderr, "perfbench: hot-set warm-up failed\n");
        run.correct = false;
      }
    }
    return s;
  };
  auto retire = [&](DaemonSetup& s) {
    if (s.daemon != nullptr) stop(*s.daemon, s.warm_requests);
  };
  std::vector<double> setup_times;
  DaemonSetup setup = TimedSetup(make, setup_times);
  if (setup.daemon == nullptr || !run.correct) return;
  DaemonProcess& daemon = *setup.daemon;

  ConnectionLoop loop(run, setup.in, hot);
  const std::string socket = daemon.socket_path();
  const double daemon_seconds = args.trace ? args.seconds / 3 : args.seconds;
  std::vector<std::unique_ptr<Backend>> clients;
  auto make_client = [&](std::size_t) -> std::unique_ptr<Backend> {
    return std::make_unique<DaemonBackend>(socket, run.tracer);
  };
  transport::TransportClientOptions admin_options;
  admin_options.socket_path = socket;
  transport::TransportClient admin(admin_options);
  const std::string status0 = StringFromBytes(admin.Stats().payload);
  const double cpu0 = daemon.CpuSeconds();
  const std::uint64_t start = NowNs();
  const std::uint64_t deadline =
      start + static_cast<std::uint64_t>(daemon_seconds * 1e9);
  const Totals tot = Sum(RunConnections(loop, make_client, deadline, {}, &clients));
  const std::uint64_t end = NowNs();
  const double cpu1 = daemon.CpuSeconds();
  const std::string status1 = StringFromBytes(admin.Stats().payload);
  const double rss = daemon.PeakRssMiB();
  std::uint64_t connects = 0;
  std::uint64_t retries = 0;
  for (const auto& c : clients) {
    const auto stats = static_cast<DaemonBackend&>(*c).Stats();
    connects += stats.connects;
    retries += stats.retries;
  }
  const auto admin_stats = admin.ClientStats();
  clients.clear();
  stop(daemon, tot.requests + setup.warm_requests + 2);
  run.report.Context("client", "{\"connects\": " + std::to_string(connects) +
                                   ", \"retries\": " + std::to_string(retries) +
                                   ", \"admin_retries\": " +
                                   std::to_string(admin_stats.retries) + "}");
  if (Interrupted()) return;

  const double throughput =
      static_cast<double>(tot.compress.size() + tot.decompress.size()) /
                            (static_cast<double>(end - start) * 1e-9);
  Report& r = run.report;
  EndToEnd e2e;
  // Each request's own MB/s, and the median over requests: a mean over
  // call time would follow the batch timer's tail (p99 up to 30 ms).
  for (const auto& [ops, mbps] :
       {std::pair{&tot.compress, &e2e.compress_samples},
        std::pair{&tot.decompress, &e2e.decompress_samples}}) {
    for (const OpSample& op : *ops) {
      mbps->push_back(static_cast<double>(op.bytes) / op.us);  // bytes/us = MB/s
      e2e.op_us.push_back(op.us);
    }
  }
  e2e.compress_MBps = Median(e2e.compress_samples);
  e2e.decompress_MBps = Median(e2e.decompress_samples);
  // daemon_cold: over its compress replies; daemon_hot: over its hot set,
  // whose compress replies repeat the warm-up's verified streams.
  double raw = static_cast<double>(tot.payload_bytes);
  double stored = static_cast<double>(tot.stream_bytes);
  if (hot) {
    raw = stored = 0;
    for (const auto& items : setup.in.hot) {
      for (const HotItem& item : items) {
        raw += static_cast<double>(item.payload.size());
        stored += static_cast<double>(item.stream.size());
      }
    }
  }
  e2e.compression_ratio = raw / stored;
  e2e.peak_rss_MiB = rss;
  ReportEndToEnd(run, e2e);
  if (!args.trace) {
    r.Context("requests_per_s", JsonNumber(throughput));
    FinishSetupTiming(run, make, retire, setup_times);
    return;
  }

  // Traced run: the replays.
  const std::size_t compress_requests = tot.compress.size();
  std::unique_ptr<service::CompressionService> svc = InProcessService();
  if (hot) {
    if (!WarmHotSet(setup.in,
                    [&] { return std::make_unique<InProcessBackend>(*svc); },
                    false, nullptr)) {
      run.correct = false;
    }
  }
  const service::ServiceStatsSnapshot svc0 = svc->Stats();
  const std::uint64_t far = NowNs() + 120'000'000'000ull;
  const Totals in_process = Sum(RunConnections(
      loop, [&](std::size_t) { return std::make_unique<InProcessBackend>(*svc); },
      far, tot.rounds));
  const service::ServiceStatsSnapshot svc1 = svc->Stats();
  svc.reset();
  const Totals direct = Sum(RunConnections(
      loop, [&](std::size_t) { return std::make_unique<DirectBackend>(); },
      far, tot.rounds));

  const Tracer& t = run.tracer;
  const std::vector<double> daemon_us = t.DurationsUs("daemon.request");
  const std::vector<double> service_us = t.DurationsUs("service.request");
  const std::vector<double> codec_us = t.DurationsUs("codec.request");
  const double requests = static_cast<double>(std::max<std::uint64_t>(tot.requests, 1));
  const double batches = static_cast<double>(svc1.batch.batches - svc0.batch.batches);
  const double memo_hits = static_cast<double>(SumField(status1, "memo_hits") -
                                               SumField(status0, "memo_hits"));
  const double cache_hits = static_cast<double>(SumField(status1, "cache_hits") -
                                                SumField(status0, "cache_hits"));
  const double cache_misses = static_cast<double>(
      SumField(status1, "cache_misses") - SumField(status0, "cache_misses"));
  r.Context(
      "workload_layers",
      JsonFields(
          {{"requests_per_s", throughput},
           {"transport.framing_us_per_request",
            static_cast<double>(t.TotalNs("transport.framing")) * 1e-3 / requests},
           {"transport.boundary_us_per_request", Mean(daemon_us) - Mean(service_us)},
           {"transport.daemon_cpu_ms_per_1k_requests",
            (cpu1 - cpu0) * 1e3 * 1000.0 / requests},
           {"transport.connects", static_cast<double>(connects)},
           {"transport.retries", static_cast<double>(retries)},
           {"service.inprocess_request_p50_us", Median(service_us)},
           {"service.items_per_batch",
            batches == 0 ? 0
                         : static_cast<double>(svc1.batch.items - svc0.batch.items) /
                               batches},
           {"service.timeout_flushes_per_batch",
            batches == 0 ? 0
                         : static_cast<double>(svc1.batch.timeout_flushes -
                                               svc0.batch.timeout_flushes) /
                               batches},
           {"service.memo_hit_ratio",
            compress_requests == 0
                ? 0
                : memo_hits / static_cast<double>(compress_requests)},
           {"service.cache_hit_ratio",
            cache_hits + cache_misses == 0 ? 0
                                           : cache_hits / (cache_hits + cache_misses)},
           {"codec.direct_request_p50_us", Median(codec_us)},
           {"inprocess_requests", static_cast<double>(in_process.requests)},
           {"direct_requests", static_cast<double>(direct.requests)}}));
  ReportCodecLayers(run, ReplayItems(setup.in, args.seed, hot),
                    PrimacyOptions{}.chunk_bytes);
  FinishSetupTiming(run, make, retire, setup_times);
}

}  // namespace perfbench
