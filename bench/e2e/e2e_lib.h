#ifndef WSIE_BENCH_E2E_E2E_LIB_H_
#define WSIE_BENCH_E2E_E2E_LIB_H_

// Support code for the end-to-end benchmark: percentiles, digests, the
// span recorder, the query mix and an HTTP client. Nothing here reaches
// into src/ beyond its public headers.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "serve/query_engine.h"

namespace wsie::e2e {

// ------------------------------------------------------------ percentiles

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

/// The tail percentile a sample of `n` supports: the highest of p50, p75,
/// p90, p95 and p99 with at least ten samples beyond it (p50 below n = 20).
/// A fixed ladder keeps the reported level the same from run to run when
/// the sample size moves a little.
double TailLevel(size_t n);

/// A timing reported as its median and its supported tail.
struct Timing {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_level = 0.5;
  size_t n = 0;
};
Timing Summarize(const std::vector<double>& values);

// ----------------------------------------------------------------- digest

/// FNV-1a over fixed-width words and byte strings.
class Fnv {
 public:
  void U64(uint64_t value);
  void Str(std::string_view s);
  void F64(double value);
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Folds every answer field of `response` into `fnv`.
void DigestResponse(const serve::QueryEngine::Response& response, Fnv* fnv);

/// The body the HTTP front end writes for `response`. The server's
/// formatter is private to it; this copy is the oracle of the wire check.
std::string FormatResponseBody(const serve::QueryEngine::Response& response);

/// The URL-encoded target (`/lookup?name=...`) that asks the HTTP front
/// end for exactly `request`.
std::string HttpTarget(const serve::QueryEngine::Request& request);

// ---------------------------------------------------------------- process

/// Peak resident set (VmHWM) of this process in MB; 0 if unreadable.
double PeakRssMb();

/// Returns freed heap to the system and restarts the peak-RSS count from
/// the current resident set, so PeakRssMb() covers only what follows.
/// False when the kernel refuses the reset.
bool ResetPeakRss();

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

// ------------------------------------------------------------------ spans

/// Span recorder local to the benchmark. Each thread appends to its own
/// preallocated vector without locks (a mutex is taken once, when a thread
/// records its first span); spans past the capacity are dropped and
/// counted. Disabled, a ScopedSpan costs one relaxed load.
class SpanRecorder {
 public:
  struct Span {
    const char* name = nullptr;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;  ///< index into the same thread's spans, or -1
    uint64_t request = 0;
  };

  static SpanRecorder& Global();

  void Enable(size_t capacity_per_thread);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Per-name self time (duration minus direct children) in seconds, and
  /// span counts, over the spans that start in [begin_ns, end_ns). Call
  /// only after every recording thread has finished.
  struct NameTotals {
    double self_s = 0.0;
    uint64_t count = 0;
  };
  std::map<std::string, NameTotals> SelfTimes(int64_t begin_ns,
                                              int64_t end_ns) const;

  /// Seconds of [begin_ns, end_ns) covered by top-level spans recorded on
  /// the calling thread.
  double TopLevelSecondsOnThisThread(int64_t begin_ns, int64_t end_ns);

  /// Writes every span as a Chrome trace ("X" events). False on I/O error.
  bool WriteChromeTrace(const std::string& path) const;

  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  friend class ScopedSpan;
  struct ThreadSpans {
    uint32_t thread = 0;
    std::vector<Span> spans;  ///< sized to capacity, never reallocated
    std::atomic<size_t> size{0};
    std::vector<int64_t> open;  ///< stack of open span indices
  };
  ThreadSpans* ThisThread();

  std::atomic<bool> enabled_{false};
  size_t capacity_ = 0;
  std::atomic<uint64_t> dropped_{0};
  mutable std::mutex mu_;  ///< guards threads_ (registration only)
  std::vector<std::unique_ptr<ThreadSpans>> threads_;
};

/// Records one span around a call into a layer while tracing is enabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder::ThreadSpans* thread_ = nullptr;
  int64_t index_ = -1;
};

// ---------------------------------------------------------------- metrics

/// Bucket-wise difference `after - before` of one registry histogram
/// (before may lack it), so quantiles cover only the measured phase.
obs::HistogramSnapshot HistogramDelta(const obs::MetricsSnapshot& before,
                                      const obs::MetricsSnapshot& after,
                                      std::string_view name);

// -------------------------------------------------------------- query mix

/// query_mix's request mix over names ranked by count: lookup
/// 55%, co-occurrence 18%, 3-char prefix 10%, top-10 10% (half filtered by
/// type), frequency 5%, similar (k=10) 2%. Names are drawn Zipf(s=1.1)
/// over the ranking.
class QueryMix {
 public:
  QueryMix(std::vector<std::string> ranked_names, int corpus);
  serve::QueryEngine::Request Next(Rng& rng) const;
  /// The first `n` requests of the stream seeded by `seed`.
  std::vector<serve::QueryEngine::Request> Stream(uint64_t seed,
                                                  size_t n) const;

 private:
  std::vector<std::string> names_;
  int corpus_ = 0;
};

// ------------------------------------------------------------------ HTTP

/// One blocking GET over a fresh connection; returns the status code
/// (-1 on error) and fills `body`.
int HttpGet(uint16_t port, const std::string& target, std::string* body);

}  // namespace wsie::e2e

#endif  // WSIE_BENCH_E2E_E2E_LIB_H_
