// Shared pieces of the COBRA benchmark: the seeded input generator, the
// metric table, the percentile helper, process counters, and the span
// recorder that gives the per-layer breakdown.
//
// Everything here lives in the benchmark, not in the library: spans are
// recorded around calls into the library's public functions, never inside
// them.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Seeded generator for every input the benchmark makes (SplitMix64). Kept
/// here rather than borrowed from the library so that a change to the
/// library's own generator never changes the benchmark's inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, bound); bound > 0.
  std::uint64_t Below(std::uint64_t bound) { return Next() % bound; }

  /// Uniform in [lo, hi].
  std::uint64_t Between(std::uint64_t lo, std::uint64_t hi) {
    return lo + Below(hi - lo + 1);
  }

  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Mixes a seed with a stream label, so each independent input stream of a
/// run (requests, sweep sources, oracle samples) has its own generator.
std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t stream);

/// Monotonic seconds since an arbitrary epoch.
double Now();

/// Bitwise equality of two doubles (the "bit for bit" of every check).
bool SameBits(double a, double b);

/// One reported number and its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// The `q`-quantile (0 < q < 1) of `samples` by nearest rank, reported only
/// when at least ten samples lie beyond it; otherwise nullopt. A p99 thus
/// needs 1000 samples and a median 20.
std::optional<double> Percentile(std::vector<double> samples, double q);

/// Median of `samples` (any count >= 1), for repeated measurements of one
/// quantity rather than a latency distribution; 0 when empty.
double Median(std::vector<double> samples);

/// Counters from /proc/self/status (zero where unavailable).
struct ProcStatus {
  double vm_size_mb = 0.0;
  double rss_mb = 0.0;
  double peak_rss_mb = 0.0;
  double threads = 0.0;
};
ProcStatus ReadProcStatus();

/// Resets the peak resident set (VmHWM) to the current resident set, so a
/// later ReadProcStatus() reports the peak since this call. False when the
/// kernel refuses it.
bool ResetPeakRss();

/// Records timed spans: name, start, end, parent span, request id. Spans are
/// kept in memory per thread and written out when the run ends. When
/// disabled, `Time` still measures its callable (the benchmark needs the
/// durations either way) but records nothing.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;   ///< 0 = root.
    std::uint64_t request = 0;  ///< 0 = not part of a request.
  };

  /// Per-layer totals over the recorded spans. Self time is a span's
  /// duration minus the part its child spans cover.
  struct LayerTotals {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
    std::vector<double> self_samples_s;  ///< One per span.
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Runs `fn` inside a span named `name` (a string literal) and returns
  /// its wall time in seconds. Nested calls on one thread become children.
  /// `request` tags the span with a request id (0 inherits the parent's).
  template <typename Fn>
  double Time(const char* name, Fn&& fn, std::uint64_t request = 0) {
    Open open = Begin(name, request);
    std::forward<Fn>(fn)();
    return End(open);
  }

  /// Every span recorded, all threads. Call once the recording threads
  /// have finished.
  std::vector<Span> Spans() const;

  /// Aggregates `spans` by name.
  static std::map<std::string, LayerTotals> Totals(
      const std::vector<Span>& spans);

  /// Writes one JSON object per span to `path`; false on I/O failure.
  static bool WriteJsonl(const std::vector<Span>& spans,
                         const std::string& path);

 private:
  struct Open {
    const char* name;
    std::int64_t start_ns;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t request;
  };
  struct ThreadBuffer {
    std::vector<Span> spans;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> stack;  // id, req
  };

  Open Begin(const char* name, std::uint64_t request);
  double End(const Open& open);
  ThreadBuffer* Buffer();

  const bool enabled_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;  // guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
