// The swept path: AssignStream over a seeded Monte-Carlo scenario source,
// once exhaustively (kAll) and once as a top-k query, round after round.
#ifndef PERFBENCH_SWEEP_H_
#define PERFBENCH_SWEEP_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/scenario.h"
#include "deploy.h"

namespace perfbench {

/// Scenarios per pass of the `sweep` workload.
constexpr std::uint64_t kSweepScenarios = 65536;
/// Variables a sweep source draws over.
constexpr std::size_t kSweepAxes = 16;
/// Answer size of the top-k pass.
constexpr std::size_t kTopK = 16;
/// Streaming window of the kAll pass (the library's default).
constexpr std::size_t kAllWindow = 4096;
/// Streaming window of the top-k pass: small, so each pass delivers enough
/// windows for a latency distribution.
constexpr std::size_t kTopKWindow = 256;

/// The seeded source of round `round`: `scenarios` draws over the first
/// kSweepAxes of `variables` (the heaviest, so every seed sweeps the same
/// work), each in [0.5, 1.5]; the seed picks the values.
cobra::util::Result<std::shared_ptr<const cobra::core::SampledSource>>
MakeSweepSource(std::uint64_t scenarios,
                const std::vector<std::string>& variables, std::uint64_t seed,
                std::uint64_t round);

struct SweepPhase {
  std::size_t rounds = 0;
  /// Per timed round: kAll scenarios/s, top-k scenarios/s, and top-k
  /// windows delivered per second.
  std::vector<double> all_rate;
  std::vector<double> topk_rate;
  std::vector<double> topk_window_rate;
  std::vector<double> topk_window_ms;  ///< Delivery gap of each window.
  std::size_t windows = 0;             ///< Windows delivered, both passes.
  /// Per kAll pass, as the stream summary reports them.
  std::vector<double> generate_s;
  std::vector<double> plan_s;
  std::vector<double> full_sweep_s;
  std::vector<double> compressed_sweep_s;
  std::uint64_t topk_full_computed = 0;
  std::uint64_t topk_full_skipped = 0;
  double terms_lanes = 0.0;    ///< kAll: program terms x scenarios swept.
  double bytes_scanned = 0.0;  ///< kAll: program bytes read by the sweeps.
  std::size_t checks = 0;
  std::size_t mismatches = 0;
  std::vector<std::string> notes;
  /// Read after the timed rounds; the peak covers only them (NaN when the
  /// peak could not be reset).
  ProcStatus after;
};

/// One untimed warm-up round, then rounds of (kAll, top-k) over `scenarios`
/// scenarios on a fresh source each until `seconds` have passed (at least
/// one round). Each round checks the top-k answer against the kAll pass bit
/// for bit; the first timed round also checks `oracle_samples` streamed rows
/// against the sequential `Session::Assign` oracle.
SweepPhase RunSweepPhase(Deployment& deployment, std::uint64_t scenarios,
                         std::uint64_t seed, double seconds,
                         std::size_t oracle_samples, Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_SWEEP_H_
