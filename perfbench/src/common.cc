#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <unordered_map>

namespace perfbench {

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t stream) {
  Rng rng(seed ^ (stream * 0xd1b54a32d192ed03ULL));
  rng.Next();
  return rng.Next();
}

namespace {

std::int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

double Now() { return static_cast<double>(NowNanos()) * 1e-9; }

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

std::optional<double> Percentile(std::vector<double> samples, double q) {
  const std::size_t n = samples.size();
  if (n == 0 || q <= 0.0 || q >= 1.0) return std::nullopt;
  // Nearest rank: the smallest sample with at least q*n samples at or
  // below it.
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  if (n - 1 - index < 10) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

ProcStatus ReadProcStatus() {
  ProcStatus status;
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return status;
  char line[256];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    double value = 0.0;
    if (std::sscanf(line, "VmSize: %lf", &value) == 1) {
      status.vm_size_mb = value / 1024.0;
    } else if (std::sscanf(line, "VmRSS: %lf", &value) == 1) {
      status.rss_mb = value / 1024.0;
    } else if (std::sscanf(line, "VmHWM: %lf", &value) == 1) {
      status.peak_rss_mb = value / 1024.0;
    } else if (std::sscanf(line, "Threads: %lf", &value) == 1) {
      status.threads = value;
    }
  }
  std::fclose(f);
  return status;
}

bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool written = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && written;
}

Tracer::ThreadBuffer* Tracer::Buffer() {
  // One tracer per run, so a single cached (tracer, buffer) pair per thread
  // suffices; a new tracer simply re-registers.
  thread_local const Tracer* owner = nullptr;
  thread_local ThreadBuffer* buffer = nullptr;
  if (owner != this) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffer = buffers_.back().get();
    owner = this;
  }
  return buffer;
}

Tracer::Open Tracer::Begin(const char* name, std::uint64_t request) {
  Open open{name, NowNanos(), 0, 0, request};
  if (!enabled_) return open;
  ThreadBuffer* buffer = Buffer();
  if (!buffer->stack.empty()) {
    open.parent = buffer->stack.back().first;
    if (open.request == 0) open.request = buffer->stack.back().second;
  }
  open.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  buffer->stack.emplace_back(open.id, open.request);
  open.start_ns = NowNanos();
  return open;
}

double Tracer::End(const Open& open) {
  const std::int64_t end_ns = NowNanos();
  if (enabled_) {
    ThreadBuffer* buffer = Buffer();
    buffer->stack.pop_back();
    buffer->spans.push_back(
        {open.name, open.start_ns, end_ns, open.id, open.parent, open.request});
  }
  return static_cast<double>(end_ns - open.start_ns) * 1e-9;
}

std::vector<Tracer::Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

std::map<std::string, Tracer::LayerTotals> Tracer::Totals(
    const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  for (const Span& span : spans) {
    if (span.parent != 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  std::map<std::string, LayerTotals> totals;
  for (const Span& span : spans) {
    const std::int64_t duration = span.end_ns - span.start_ns;
    auto it = child_ns.find(span.id);
    const std::int64_t self =
        duration - (it == child_ns.end() ? 0 : it->second);
    LayerTotals& layer = totals[span.name];
    ++layer.count;
    layer.total_s += static_cast<double>(duration) * 1e-9;
    layer.self_s += static_cast<double>(self) * 1e-9;
    layer.self_samples_s.push_back(static_cast<double>(self) * 1e-9);
  }
  return totals;
}

bool Tracer::WriteJsonl(const std::vector<Span>& spans,
                        const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& span : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"id\":%llu,\"parent\":%llu,\"request\":%llu}\n",
                 span.name, static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns),
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
