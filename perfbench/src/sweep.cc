#include "sweep.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "core/compiled_session.h"

namespace perfbench {

namespace core = cobra::core;
using cobra::util::Result;
using cobra::util::Status;

Result<std::shared_ptr<const core::SampledSource>> MakeSweepSource(
    std::uint64_t scenarios, const std::vector<std::string>& variables,
    std::uint64_t seed, std::uint64_t round) {
  std::vector<core::RangeAxis> axes;
  for (std::size_t v = 0; v < kSweepAxes && v < variables.size(); ++v) {
    axes.push_back({variables[v], 0.5, 1.5});
  }
  return core::SampledSource::Create(std::move(axes), scenarios,
                                     MixSeed(seed, 100 + round), "mc");
}

namespace {

/// Runs one (kAll, top-k) round; `timed` folds it into the phase totals.
void RunRound(Deployment& deployment, std::uint64_t scenarios,
              std::uint64_t seed, std::uint64_t round, bool timed,
              std::size_t oracle_samples, Tracer& tracer, SweepPhase* phase) {
  auto fail = [&](const std::string& what) {
    ++phase->mismatches;
    if (phase->notes.size() < 10) phase->notes.push_back(what);
  };
  Result<std::shared_ptr<const core::SampledSource>> source =
      MakeSweepSource(scenarios, deployment.variables, seed, round);
  if (!source.ok()) {
    fail("source: " + source.status().ToString());
    return;
  }
  const core::CompiledSession& session = *deployment.served;
  const std::size_t groups = session.labels().size();
  const std::uint64_t n = (*source)->size();

  // kAll: every row, kept so the top-k answer can be checked against it.
  std::vector<double> metrics(n);
  std::vector<double> full(n * groups);
  std::vector<double> compressed(n * groups);
  core::StreamOptions all;
  all.batch.stream_block_scenarios = kAllWindow;
  all.query.kind = core::StreamQuery::Kind::kAll;
  std::size_t windows = 0;
  Result<core::SweepSummary> summary = Status::Internal("not run");
  const double all_s = tracer.Time("core.stream.all", [&] {
    summary = session.AssignStream(
        **source, all, [&](const core::StreamBlockView& view) {
          ++windows;
          std::memcpy(&metrics[view.begin], view.metrics,
                      view.count * sizeof(double));
          std::memcpy(&full[view.begin * groups], view.full,
                      view.count * groups * sizeof(double));
          std::memcpy(&compressed[view.begin * groups], view.compressed,
                      view.count * groups * sizeof(double));
          return true;
        });
  });
  if (!summary.ok() || summary->scenarios != n) {
    fail("kAll stream: " + (summary.ok() ? std::string("short stream")
                                          : summary.status().ToString()));
    return;
  }

  // Top-k: the compressed side filters, the full side runs only where a
  // block can still enter the answer.
  core::StreamOptions topk;
  topk.batch.stream_block_scenarios = kTopKWindow;
  topk.query.kind = core::StreamQuery::Kind::kTopK;
  topk.query.k = kTopK;
  std::vector<double> gaps_ms;
  Result<core::SweepSummary> best = Status::Internal("not run");
  const double topk_s = tracer.Time("core.stream.topk", [&] {
    double last = Now();
    best = session.AssignStream(**source, topk,
                                [&](const core::StreamBlockView&) {
                                  const double now = Now();
                                  gaps_ms.push_back((now - last) * 1e3);
                                  last = now;
                                  return true;
                                });
  });
  if (!best.ok()) {
    fail("top-k stream: " + best.status().ToString());
    return;
  }

  // The expected answer: the k largest kAll metrics, ties by ordinal.
  std::vector<std::uint64_t> order(n);
  for (std::uint64_t i = 0; i < n; ++i) order[i] = i;
  const std::size_t k = std::min<std::size_t>(kTopK, n);
  std::partial_sort(order.begin(), order.begin() + k, order.end(),
                    [&](std::uint64_t a, std::uint64_t b) {
                      return metrics[a] != metrics[b] ? metrics[a] > metrics[b]
                                                      : a < b;
                    });
  bool same = best->entries.size() == k;
  for (std::size_t i = 0; same && i < k; ++i) {
    const core::StreamEntry& entry = best->entries[i];
    const std::uint64_t want = order[i];
    same = entry.index == want && SameBits(entry.metric, metrics[want]) &&
           entry.full.size() == groups && entry.compressed.size() == groups;
    for (std::size_t g = 0; same && g < groups; ++g) {
      same = SameBits(entry.full[g], full[want * groups + g]) &&
             SameBits(entry.compressed[g], compressed[want * groups + g]);
    }
  }
  ++phase->checks;
  if (!same) {
    fail("round " + std::to_string(round) +
         ": top-k answer differs from the kAll pass");
  }

  // Sequential oracle on a seeded sample of streamed rows.
  Rng rng(MixSeed(seed, 4 + round));
  for (std::size_t i = 0; i < oracle_samples; ++i) {
    const std::uint64_t index = rng.Below(n);
    core::ScenarioSet one;
    const Status generated = (*source)->Generate(index, 1, &one);
    std::string why = generated.ToString();
    ++phase->checks;
    if (generated.ok() &&
        MatchesOracle(*deployment.session, one.scenario(0),
                      &full[index * groups], &compressed[index * groups],
                      groups, &why)) {
      continue;
    }
    fail("round " + std::to_string(round) + " scenario " +
         std::to_string(index) + ": streamed row " + why);
  }

  if (!timed) return;
  ++phase->rounds;
  phase->all_rate.push_back(static_cast<double>(n) / all_s);
  phase->topk_rate.push_back(static_cast<double>(best->scenarios) / topk_s);
  phase->topk_window_rate.push_back(static_cast<double>(gaps_ms.size()) /
                                    topk_s);
  phase->windows += windows + gaps_ms.size();
  phase->topk_window_ms.insert(phase->topk_window_ms.end(), gaps_ms.begin(),
                               gaps_ms.end());
  phase->generate_s.push_back(summary->generate_seconds);
  phase->plan_s.push_back(summary->plan_seconds);
  phase->full_sweep_s.push_back(summary->full_sweep_seconds);
  phase->compressed_sweep_s.push_back(summary->compressed_sweep_seconds);
  phase->topk_full_computed += best->full_rows_computed;
  phase->topk_full_skipped += best->full_rows_skipped;

  const SweepWork work = ComputeSweepWork(session, summary->engine,
                                         summary->block_lanes,
                                         static_cast<double>(n));
  phase->terms_lanes += work.terms_lanes;
  phase->bytes_scanned += work.bytes;
}

}  // namespace

SweepPhase RunSweepPhase(Deployment& deployment, std::uint64_t scenarios,
                         std::uint64_t seed, double seconds,
                         std::size_t oracle_samples, Tracer& tracer) {
  SweepPhase phase;
  // The first pass over a snapshot runs cold (first-touch of the programs
  // and the stream buffers); users pay that once, not per query.
  RunRound(deployment, scenarios, seed, 0, false, 0, tracer, &phase);
  const bool peak_reset = ResetPeakRss();
  const double deadline = Now() + seconds;
  std::uint64_t round = 1;
  do {
    RunRound(deployment, scenarios, seed, round, true,
             round == 1 ? oracle_samples : 0, tracer, &phase);
    ++round;
  } while (Now() < deadline);
  phase.after = ReadProcStatus();
  if (!peak_reset) {
    phase.after.peak_rss_mb = std::numeric_limits<double>::quiet_NaN();
  }
  return phase;
}

}  // namespace perfbench
