// Ablation A7 — high-cardinality batched serving (per-order TPC-H).
//
// bench_a6 runs TPC-H Q6 with ship-month provenance: ~84 date variables.
// This bench tags every lineitem with its *order* variable instead (tens of
// thousands of variables at bench scale factors) while a Q6-style filter
// keeps the surviving provenance small, so each scenario touches only the
// surviving monomials plus a handful of overrides out of a huge pool.
//
// The bench runs N scenarios through one immutable CompiledSession snapshot
//
//   (a) with the scalar sparse-delta engine (kSparseDelta);
//   (b) with the scenario-blocked kernel (kBlocked, the default): one scan
//       of the compiled program serves a whole block of scenario lanes;
//
// verifies (a) == (b) bit-for-bit for every scenario, spot-checks a sample
// against sequential Session::Assign(), and exits non-zero unless the
// blocked sweep is >= 2x the scalar sparse one. A small-batch leg then
// replays the daemon's common request, 8 and 64 scenarios of 16 overrides
// each, and exits non-zero unless kAuto resolves it to the blocked kernel
// and runs it >= 2x faster than pinned kSparseDelta. Every timing is of
// warm (plan-cached) calls, the median of rounds that alternate the
// engines so drift on a shared host hits both alike. A machine-readable
// BENCH_a7.json lands next to the human output for cross-PR tracking.
//
// Knobs: COBRA_A7_SCENARIOS (1024), COBRA_A7_SF (0.01, TPC-H scale factor),
//        COBRA_A7_THREADS (0 = hardware), COBRA_A7_BUCKET (128 orders per
//        tree bucket), COBRA_A7_BOUND_PCT (60), COBRA_A7_CHECK (16
//        scenarios cross-checked against sequential Assign()),
//        COBRA_A7_LANES (8, blocked-kernel lane count: 4, 8 or 16),
//        COBRA_A7_MT_THREADS (hardware, floored at 2 — the extra blocked
//        run exercising the multi-threaded tile pool).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench_util.h"
#include "core/compiled_session.h"
#include "core/scenario.h"
#include "core/session.h"
#include "data/tpch.h"
#include "data/tpch_queries.h"
#include "rel/sql/planner.h"
#include "util/timer.h"

namespace {

using namespace cobra;

core::ScenarioSet MakeScenarios(const core::Session& session, std::size_t n) {
  const std::vector<core::MetaVar>& meta = session.meta_vars();
  if (meta.empty()) {
    std::fprintf(stderr, "no meta-variables to perturb (leaf-only cut?)\n");
    std::exit(1);
  }
  core::ScenarioSet set;
  for (std::size_t i = 0; i < n; ++i) {
    auto s = set.Add("whatif-" + std::to_string(i)).ValueOrDie();
    s.Set(meta[i % meta.size()].name,
          1.0 + 0.01 * static_cast<double>(i % 40 + 1));
    if (meta.size() > 1) {
      s.Set(meta[(i + 7) % meta.size()].name,
            1.0 - 0.005 * static_cast<double>(i % 20 + 1));
    }
  }
  return set;
}

/// `n` scenarios of `deltas` overrides each over distinct meta-variables
/// (as many as the cut has), scenario i starting at meta-variable 3i.
core::ScenarioSet MakeWideScenarios(const core::Session& session,
                                    std::size_t n, std::size_t deltas) {
  const std::vector<core::MetaVar>& meta = session.meta_vars();
  core::ScenarioSet set;
  for (std::size_t i = 0; i < n; ++i) {
    auto s = set.Add("wide-" + std::to_string(i)).ValueOrDie();
    for (std::size_t d = 0; d < std::min(deltas, meta.size()); ++d) {
      s.Set(meta[(3 * i + d) % meta.size()].name,
            1.0 + 0.002 * static_cast<double>((i + d) % 50 + 1));
    }
  }
  return set;
}

double Median(std::vector<double> samples) {
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  return samples[samples.size() / 2];
}

/// Median seconds per warm AssignBatch call of `scenarios` under each of
/// `configs`. Each round times `calls` back-to-back calls per config, the
/// configs alternating within the round. The caller warms the plans.
std::vector<double> InterleavedMedians(
    const core::CompiledSession& snapshot, const core::ScenarioSet& scenarios,
    const std::vector<core::BatchOptions>& configs, std::size_t rounds,
    std::size_t calls) {
  std::vector<std::vector<double>> samples(configs.size());
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t c = 0; c < configs.size(); ++c) {
      samples[c].push_back(bench::TimeSeconds([&] {
        for (std::size_t k = 0; k < calls; ++k) {
          snapshot.AssignBatch(scenarios, configs[c]).ValueOrDie();
        }
      }) / static_cast<double>(calls));
    }
  }
  std::vector<double> medians;
  for (const std::vector<double>& s : samples) medians.push_back(Median(s));
  return medians;
}

/// Largest absolute per-group difference between two batched reports.
double MaxBatchDifference(const core::BatchAssignReport& a,
                          const core::BatchAssignReport& b) {
  if (a.reports.size() != b.reports.size()) return HUGE_VAL;
  double max_diff = 0.0;
  for (std::size_t i = 0; i < a.reports.size(); ++i) {
    const auto& ra = a.reports[i].delta.rows;
    const auto& rb = b.reports[i].delta.rows;
    if (ra.size() != rb.size()) return HUGE_VAL;
    for (std::size_t r = 0; r < ra.size(); ++r) {
      max_diff = std::max(max_diff, std::fabs(ra[r].full - rb[r].full));
      max_diff =
          std::max(max_diff, std::fabs(ra[r].compressed - rb[r].compressed));
    }
  }
  return max_diff;
}

}  // namespace

int main() {
  const std::size_t num_scenarios = bench::EnvSize("COBRA_A7_SCENARIOS", 1024);
  const double scale_factor = bench::EnvDouble("COBRA_A7_SF", 0.01);
  const std::size_t num_threads = bench::EnvSize("COBRA_A7_THREADS", 0);
  const std::size_t bucket_size = bench::EnvSize("COBRA_A7_BUCKET", 128);
  const std::size_t bound_pct = bench::EnvSize("COBRA_A7_BOUND_PCT", 60);
  const std::size_t check = bench::EnvSize("COBRA_A7_CHECK", 16);
  const std::size_t lanes = bench::EnvSize("COBRA_A7_LANES", 8);
  // Interleaved timing rounds per leg; the median rejects a round that a
  // neighbour on a shared host slowed.
  constexpr std::size_t kRounds = 9;

  bench::Header("A7: high-cardinality batched serving (per-order TPC-H)");

  data::TpchConfig config;
  config.scale_factor = scale_factor;
  rel::Database db = data::GenerateTpch(config);
  data::InstrumentTpchByOrder(&db).CheckOK();
  const std::size_t num_orders = config.NumOrders();

  // Q6's selective filter over per-order-instrumented lineitems: the pool
  // holds one variable per order but only a few percent of lineitems
  // survive, so valuations are huge relative to the provenance that scans.
  const char* sql =
      "SELECT l_returnflag, SUM(l_extendedprice * l_discount) AS revenue "
      "FROM lineitem "
      "WHERE l_shipdate >= 19940101 AND l_shipdate < 19950101 "
      "AND l_discount >= 0.05 AND l_discount <= 0.07 AND l_quantity < 24 "
      "GROUP BY l_returnflag";
  prov::PolySet provenance =
      rel::sql::RunSql(db, sql).ValueOrDie().Provenance(0);
  std::printf(
      "workload: per-order Q6 at SF %.3g — %zu monomials, %zu distinct "
      "variables, pool %zu\n",
      scale_factor, provenance.TotalMonomials(),
      provenance.NumDistinctVariables(), db.var_pool()->size());

  core::Session session(db.var_pool());
  session.LoadPolynomials(std::move(provenance));
  session.SetTreeText(data::OrderBucketTreeText(num_orders, bucket_size))
      .CheckOK();
  std::size_t bound = std::max<std::size_t>(
      1, session.full().TotalMonomials() * bound_pct / 100);
  session.SetBound(bound);
  // Greedy, not the DP: the order tree has one leaf per order, and cut
  // quality is not what this bench measures.
  core::CompressionReport report =
      session.Compress(core::Algorithm::kGreedy).ValueOrDie();
  std::printf("compressed: %zu -> %zu monomials (bound %zu, %zu meta-vars)\n",
              report.original_size, report.compressed_size, bound,
              session.meta_vars().size());

  std::shared_ptr<const core::CompiledSession> snapshot =
      session.Snapshot().ValueOrDie();
  core::ScenarioSet scenarios = MakeScenarios(session, num_scenarios);

  core::BatchOptions sparse;
  sparse.num_threads = num_threads;
  sparse.sweep = core::BatchOptions::Sweep::kSparseDelta;
  core::BatchOptions blocked;
  blocked.num_threads = num_threads;
  blocked.sweep = core::BatchOptions::Sweep::kBlocked;
  blocked.block_lanes = lanes;

  // The first (planning) calls give the results the checks below compare;
  // the timings are warm calls, so both engines pay the same plan-cache
  // lookup and neither pays planning.
  const core::BatchAssignReport sparse_batch =
      snapshot->AssignBatch(scenarios, sparse).ValueOrDie();
  const core::BatchAssignReport blocked_batch =
      snapshot->AssignBatch(scenarios, blocked).ValueOrDie();
  const std::vector<double> big_medians = InterleavedMedians(
      *snapshot, scenarios, {sparse, blocked}, kRounds, /*calls=*/1);
  const double sparse_seconds = big_medians[0];
  const double blocked_seconds = big_medians[1];

  // Multi-threaded coverage: the same blocked sweep with threads > 1 drives
  // the sweep pool (a single-threaded run never wakes it) and must stay
  // bit-identical — every polynomial is summed whole by one thread, so the
  // result does not depend on the schedule. COBRA_A7_MT_THREADS (default:
  // hardware, floored at 2 so single-core hosts still exercise the pool).
  const std::size_t mt_threads = std::max<std::size_t>(
      2, bench::EnvSize("COBRA_A7_MT_THREADS",
                        std::thread::hardware_concurrency()));
  core::BatchOptions blocked_mt = blocked;
  blocked_mt.num_threads = mt_threads;
  core::BatchAssignReport blocked_mt_batch;
  const double blocked_mt_seconds = bench::TimeSeconds([&] {
    blocked_mt_batch = snapshot->AssignBatch(scenarios, blocked_mt).ValueOrDie();
  });

  double max_diff = MaxBatchDifference(sparse_batch, blocked_batch);
  max_diff = std::max(max_diff,
                      MaxBatchDifference(blocked_batch, blocked_mt_batch));

  // Spot-check a sample against the sequential interactive path.
  const std::size_t sample = std::min(check, num_scenarios);
  for (std::size_t i = 0; i < sample; ++i) {
    session.ResetMetaValues().CheckOK();
    for (const core::Scenario::Delta& delta :
         scenarios.scenario(i).deltas) {
      session.SetMetaValue(delta.var, delta.value).CheckOK();
    }
    core::AssignReport want = session.Assign(1).ValueOrDie();
    const auto& got = blocked_batch.reports[i].delta.rows;
    if (got.size() != want.delta.rows.size()) {
      max_diff = HUGE_VAL;
      break;
    }
    for (std::size_t r = 0; r < got.size(); ++r) {
      max_diff = std::max(
          max_diff, std::fabs(got[r].full - want.delta.rows[r].full));
      max_diff = std::max(max_diff, std::fabs(got[r].compressed -
                                              want.delta.rows[r].compressed));
    }
  }
  session.ResetMetaValues().CheckOK();

  // Small-batch leg: kAuto against pinned kSparseDelta on the daemon's
  // common request sizes, 16 overrides per scenario, warm.
  constexpr std::size_t kSmallDeltas = 16;
  constexpr std::size_t kSmallCallsPerSample = 16;
  const std::size_t small_sizes[] = {8, 64};
  core::BatchOptions small_auto;
  small_auto.num_threads = num_threads;
  core::BatchOptions small_sparse = sparse;
  bool small_auto_blocked = true;
  double small_ratio[2] = {0.0, 0.0};
  double small_auto_seconds[2] = {0.0, 0.0};
  double small_sparse_seconds[2] = {0.0, 0.0};
  for (std::size_t k = 0; k < 2; ++k) {
    const core::ScenarioSet small =
        MakeWideScenarios(session, small_sizes[k], kSmallDeltas);
    const core::BatchAssignReport auto_batch =
        snapshot->AssignBatch(small, small_auto).ValueOrDie();
    const core::BatchAssignReport sparse_small =
        snapshot->AssignBatch(small, small_sparse).ValueOrDie();
    max_diff = std::max(max_diff, MaxBatchDifference(auto_batch, sparse_small));
    small_auto_blocked =
        small_auto_blocked &&
        auto_batch.engine == core::BatchOptions::Sweep::kBlocked;
    const std::vector<double> medians =
        InterleavedMedians(*snapshot, small, {small_sparse, small_auto},
                           kRounds, kSmallCallsPerSample);
    small_sparse_seconds[k] = medians[0];
    small_auto_seconds[k] = medians[1];
    small_ratio[k] = bench::Ratio(medians[0], medians[1]);
    std::printf(
        "small batch %3zu x %zu: kAuto=%s/%zu %.1fus  sparse %.1fus  "
        "kAuto vs sparse=%.1fx\n",
        small_sizes[k], kSmallDeltas, core::SweepName(auto_batch.engine),
        auto_batch.block_lanes, medians[1] * 1e6, medians[0] * 1e6,
        small_ratio[k]);
  }

  const double blocked_vs_sparse =
      bench::Ratio(sparse_seconds, blocked_seconds);
  std::printf("\n%-28s %12s %16s\n", "mode", "total (ms)", "per scenario");
  std::printf("%-28s %12.2f %14.2fus\n", "sparse-delta sweep",
              sparse_seconds * 1e3,
              sparse_seconds * 1e6 / static_cast<double>(num_scenarios));
  std::printf("%-28s %12.2f %14.2fus\n", "blocked sweep",
              blocked_seconds * 1e3,
              blocked_seconds * 1e6 / static_cast<double>(num_scenarios));
  std::printf("%-28s %12.2f %14.2fus  (threads=%zu)\n", "blocked sweep (mt)",
              blocked_mt_seconds * 1e3,
              blocked_mt_seconds * 1e6 / static_cast<double>(num_scenarios),
              blocked_mt_batch.num_threads);
  std::printf(
      "\nscenarios=%zu threads=%zu lanes=%zu  scenarios/sec: sparse=%.0f "
      "blocked=%.0f\n"
      "blocked vs sparse=%.1fx  max |diff|=%g\n",
      num_scenarios, blocked_batch.num_threads, lanes,
      bench::Ratio(static_cast<double>(num_scenarios), sparse_seconds),
      bench::Ratio(static_cast<double>(num_scenarios), blocked_seconds),
      blocked_vs_sparse, max_diff);
  std::printf("result check: %s (sequential sample: %zu)\n",
              max_diff == 0.0 ? "IDENTICAL" : "MISMATCH", sample);

  bench::JsonObject json;
  json.Add("bench", std::string("a7_highcard"));
  json.Add("scenarios", num_scenarios);
  json.Add("threads", blocked_batch.num_threads);
  json.Add("block_lanes", lanes);
  json.Add("scale_factor", scale_factor);
  json.Add("monomials_full", snapshot->full_size());
  json.Add("monomials_compressed", snapshot->compressed_size());
  json.Add("sparse_seconds", sparse_seconds);
  json.Add("blocked_seconds", blocked_seconds);
  json.Add("threads_mt", blocked_mt_batch.num_threads);
  json.Add("blocked_seconds_mt", blocked_mt_seconds);
  json.Add("blocked_vs_sparse", blocked_vs_sparse);
  json.Add("timing_rounds", kRounds);
  json.Add("small_auto_blocked", small_auto_blocked);
  json.Add("small8_auto_seconds", small_auto_seconds[0]);
  json.Add("small8_sparse_seconds", small_sparse_seconds[0]);
  json.Add("small8_auto_vs_sparse", small_ratio[0]);
  json.Add("small64_auto_seconds", small_auto_seconds[1]);
  json.Add("small64_sparse_seconds", small_sparse_seconds[1]);
  json.Add("small64_auto_vs_sparse", small_ratio[1]);
  json.Add("max_diff", max_diff);
  json.Add("identical", max_diff == 0.0);
  json.WriteFile("BENCH_a7.json");

  bench::GateSet gates;
  gates.Require("identical", max_diff == 0.0);
  gates.Require("blocked_vs_sparse>=2x", blocked_vs_sparse >= 2.0);
  gates.Require("small_auto_is_blocked", small_auto_blocked);
  gates.Require("small8_auto_vs_sparse>=2x", small_ratio[0] >= 2.0);
  gates.Require("small64_auto_vs_sparse>=2x", small_ratio[1] >= 2.0);
  gates.Print();
  return gates.ExitCode();
}
