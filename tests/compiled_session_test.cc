// Tests for the immutable CompiledSession serving layer: snapshot identity
// with the Session wrappers, sparse-override equivalence against the dense
// copy-based engine (including exponent-expanded factors and variables
// outside the abstraction), bit-identity across engines, lane widths and
// thread counts on a program dominated by one large polynomial, and
// lock-free concurrent serving (N threads x M scenarios must reproduce the
// sequential results exactly). The TSan CI job runs this whole binary.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/compiled_session.h"
#include "core/scenario.h"
#include "core/session.h"
#include "data/example_db.h"
#include "dominant_poly_session.h"

namespace cobra::core {
namespace {

/// A small session whose compression is forced to merge x and y into one
/// meta-variable G, with z and w left outside the abstraction, and an
/// exponent (x*x*x and z*z) so the sparse path exercises repeated factors.
void LoadExponentSession(Session* session) {
  // Single-tree mode allows at most one tree variable per monomial, so x
  // and y never co-occur; exponents come from x^3/y^3/z^2.
  session
      ->LoadPolynomialsText(
          "P1 = 2 * x^3 + 4 * y^3 + 5 * z^2 + 3 * w\n"
          "P2 = x * z + y * z + x + y\n")
      .CheckOK();
  session->SetTreeText("G\n  x\n  y\n").CheckOK();
  // Full size is 8 monomials; only the cut {G} reaches 5 (x^3 and y^3
  // merge into 6*G^3, x*z and y*z into 2*G*z, x and y into 2*G).
  session->SetBound(5);
  session->Compress().ValueOrDie();
  ASSERT_EQ(session->compressed().TotalMonomials(), 5u);
}

void LoadPaperSession(Session* session) {
  session->LoadPolynomialsText(data::kExamplePolynomialsText).CheckOK();
  session->SetTreeText(data::kFigure2TreeText).CheckOK();
  // Bound 6 selects the cut {Business, Special, p1, p2}, so those
  // meta-variable names are available to scenarios below.
  session->SetBound(6);
  session->Compress().ValueOrDie();
}

std::vector<ResultDelta> SequentialDeltas(Session* session,
                                          const ScenarioSet& scenarios) {
  std::vector<ResultDelta> deltas;
  for (const Scenario& scenario : scenarios.scenarios()) {
    session->ResetMetaValues().CheckOK();
    for (const Scenario::Delta& delta : scenario.deltas) {
      session->SetMetaValue(delta.var, delta.value).CheckOK();
    }
    deltas.push_back(session->Assign(1).ValueOrDie().delta);
  }
  session->ResetMetaValues().CheckOK();
  return deltas;
}

void ExpectBitIdentical(const std::vector<ResultDelta>& want,
                        const BatchAssignReport& got) {
  ASSERT_EQ(got.reports.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const auto& wr = want[i].rows;
    const auto& gr = got.reports[i].delta.rows;
    ASSERT_EQ(gr.size(), wr.size()) << "scenario " << i;
    for (std::size_t r = 0; r < wr.size(); ++r) {
      EXPECT_EQ(gr[r].label, wr[r].label);
      // EXPECT_EQ, not NEAR: the serving layer promises bit-identity.
      EXPECT_EQ(gr[r].full, wr[r].full) << "scenario " << i << " row " << r;
      EXPECT_EQ(gr[r].compressed, wr[r].compressed)
          << "scenario " << i << " row " << r;
    }
  }
}

TEST(CompiledSessionTest, SnapshotRequiresCompression) {
  Session session;
  EXPECT_EQ(session.Snapshot().status().code(),
            util::StatusCode::kFailedPrecondition);
}

TEST(CompiledSessionTest, SnapshotIsCachedAndRefreshedOnMetaChange) {
  Session session;
  LoadPaperSession(&session);
  auto a = session.Snapshot().ValueOrDie();
  auto b = session.Snapshot().ValueOrDie();
  EXPECT_EQ(a.get(), b.get());

  session.SetMetaValue("Business", 1.3).CheckOK();
  auto c = session.Snapshot().ValueOrDie();
  EXPECT_NE(a.get(), c.get());
  prov::VarId business = session.pool().Find("Business");
  ASSERT_NE(business, prov::kInvalidVar);
  EXPECT_DOUBLE_EQ(c->default_meta_valuation().Get(business), 1.3);
  // The earlier snapshot is immutable: its defaults are unchanged.
  EXPECT_NE(a->default_meta_valuation().Get(business), 1.3);
}

TEST(CompiledSessionTest, SnapshotAssignMatchesSessionAssign) {
  Session session;
  LoadPaperSession(&session);
  session.SetMetaValue("Business", 1.15).CheckOK();
  AssignReport want = session.Assign(1).ValueOrDie();

  auto snapshot = session.Snapshot().ValueOrDie();
  AssignReport got = snapshot->Assign(1).ValueOrDie();
  ASSERT_EQ(got.delta.rows.size(), want.delta.rows.size());
  for (std::size_t r = 0; r < want.delta.rows.size(); ++r) {
    EXPECT_EQ(got.delta.rows[r].full, want.delta.rows[r].full);
    EXPECT_EQ(got.delta.rows[r].compressed, want.delta.rows[r].compressed);
  }
  EXPECT_EQ(got.full_size, want.full_size);
  EXPECT_EQ(got.compressed_size, want.compressed_size);
}

TEST(CompiledSessionTest, SnapshotSurvivesSessionMutation) {
  Session session;
  LoadPaperSession(&session);
  auto snapshot = session.Snapshot().ValueOrDie();
  std::size_t old_compressed = snapshot->compressed_size();

  ScenarioSet scenarios;
  scenarios.Add("boom").ValueOrDie().Set("Business", 1.25);
  BatchAssignReport before = snapshot->AssignBatch(scenarios).ValueOrDie();

  // Recompress the session under a tighter bound: the old snapshot must be
  // unaffected and keep serving the old compression.
  session.SetBound(4);
  session.Compress().ValueOrDie();
  auto fresh = session.Snapshot().ValueOrDie();
  EXPECT_LT(fresh->compressed_size(), old_compressed);

  BatchAssignReport after = snapshot->AssignBatch(scenarios).ValueOrDie();
  EXPECT_EQ(snapshot->compressed_size(), old_compressed);
  ASSERT_EQ(after.reports.size(), before.reports.size());
  for (std::size_t r = 0; r < before.reports[0].delta.rows.size(); ++r) {
    EXPECT_EQ(after.reports[0].delta.rows[r].compressed,
              before.reports[0].delta.rows[r].compressed);
  }
}

TEST(CompiledSessionTest, SparseOverridesMatchSequentialWithExponents) {
  Session session;
  LoadExponentSession(&session);

  ScenarioSet scenarios;
  scenarios.Add("default-noop");                    // empty override list
  scenarios.Add("meta").ValueOrDie().Set("G", 1.5);              // abstracted group
  scenarios.Add("outside").ValueOrDie().Set("z", 0.5);           // out-of-abstraction var
  scenarios.Add("outside2").ValueOrDie().Set("w", 2.5).Set("z", 1.25);
  scenarios.Add("mixed").ValueOrDie().Set("G", 0.8).Set("z", 3.0).Set("w", 0.1);
  scenarios.Add("leaf-under-meta").ValueOrDie().Set("x", 9.0);   // no-op: G wins
  scenarios.Add("repeat").ValueOrDie().Set("G", 2.0).Set("G", 0.25);

  std::vector<ResultDelta> sequential = SequentialDeltas(&session, scenarios);

  auto snapshot = session.Snapshot().ValueOrDie();
  BatchOptions sparse;
  sparse.sweep = BatchOptions::Sweep::kSparseDelta;
  ExpectBitIdentical(sequential,
                     snapshot->AssignBatch(scenarios, sparse).ValueOrDie());

  // The blocked kernel must reproduce the same bits for both lane widths;
  // 7 scenarios leave a ragged tail at either width.
  for (std::size_t lanes : {4u, 8u}) {
    BatchOptions blocked;
    blocked.sweep = BatchOptions::Sweep::kBlocked;
    blocked.block_lanes = lanes;
    ExpectBitIdentical(
        sequential, snapshot->AssignBatch(scenarios, blocked).ValueOrDie());
  }
}

// Blocked-sweep property check at batch scale: scenario counts chosen to
// cover exact-multiple and ragged tails for both lane widths, across thread
// counts that exercise the (block × range) tiling, must all be bit-identical
// to the sequential path.
TEST(CompiledSessionTest, BlockedSweepBitIdenticalAcrossLaneAndThreadCounts) {
  Session session;
  LoadPaperSession(&session);
  const std::vector<MetaVar>& meta = session.meta_vars();
  ASSERT_FALSE(meta.empty());

  for (std::size_t count : {1u, 4u, 5u, 8u, 13u, 16u}) {
    ScenarioSet scenarios;
    for (std::size_t i = 0; i < count; ++i) {
      auto s = scenarios.Add("s" + std::to_string(i)).ValueOrDie();
      if (i % 3 != 0) {  // every third scenario keeps an empty override list
        s.Set(meta[i % meta.size()].name,
              1.0 + 0.03 * static_cast<double>(i + 1));
      }
    }
    std::vector<ResultDelta> sequential =
        SequentialDeltas(&session, scenarios);
    auto snapshot = session.Snapshot().ValueOrDie();
    for (std::size_t lanes : {4u, 8u}) {
      for (std::size_t threads : {1u, 3u, 8u}) {
        BatchOptions options;
        options.sweep = BatchOptions::Sweep::kBlocked;
        options.block_lanes = lanes;
        options.num_threads = threads;
        ExpectBitIdentical(
            sequential,
            snapshot->AssignBatch(scenarios, options).ValueOrDie());
      }
    }
  }
}

TEST(CompiledSessionTest, BlockedRejectsBadLaneCount) {
  Session session;
  LoadPaperSession(&session);
  auto snapshot = session.Snapshot().ValueOrDie();
  ScenarioSet scenarios;
  scenarios.Add("s").ValueOrDie().Set("Business", 1.1);
  BatchOptions options;
  options.sweep = BatchOptions::Sweep::kBlocked;  // the lane knob's engine
  options.block_lanes = 3;
  util::Result<BatchAssignReport> result =
      snapshot->AssignBatch(scenarios, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
}

// With fewer scenario blocks than threads, the planner splits a heavy
// program into whole-polynomial ranges that spare threads share. Every
// polynomial is still summed whole by one thread, so the bits match the
// sequential path.
TEST(CompiledSessionTest, PartitionedSweepIsDeterministic) {
  Session session;
  LoadDominantPolySession(&session);
  const ScenarioSet scenarios = DominantPolyScenarios(2);
  std::vector<ResultDelta> sequential = SequentialDeltas(&session, scenarios);

  auto snapshot = session.Snapshot().ValueOrDie();
  for (std::size_t threads : {1u, 3u, 8u, 16u}) {
    BatchOptions options;
    options.num_threads = threads;
    auto plan = snapshot->PlanBatch(scenarios, options).ValueOrDie();
    if (threads > 1) {
      // Witness: one block, two polynomials, so two ranges on two workers.
      EXPECT_EQ(plan->num_blocks(), 1u);
      EXPECT_EQ(plan->full_schedule().slices(), 2u);
      EXPECT_EQ(plan->full_schedule().workers, 2u);
    }
    ExpectBitIdentical(sequential, snapshot->Execute(*plan).ValueOrDie());
  }
}

// Bit-identity does not depend on the host: on a program dominated by one
// 20,000-term polynomial, whose sums show any regrouping of their additions
// in the last bits, every engine, lane width and thread count reproduces
// sequential Session::Assign bit for bit, and so do AssignGrid over two
// bases and AssignStream in windows of 3.
TEST(CompiledSessionTest, ThreadCountNeverChangesResultBits) {
  Session session;
  LoadDominantPolySession(&session);
  auto snapshot = session.Snapshot().ValueOrDie();

  struct Engine {
    BatchOptions::Sweep sweep;
    std::size_t lanes;
  };
  const Engine engines[] = {{BatchOptions::Sweep::kAuto, 8},
                            {BatchOptions::Sweep::kBlocked, 4},
                            {BatchOptions::Sweep::kBlocked, 8},
                            {BatchOptions::Sweep::kBlocked, 16},
                            {BatchOptions::Sweep::kSparseDelta, 8}};
  const std::size_t thread_counts[] = {1, 2, 3, 4, 8, 16};

  for (std::size_t n : {1u, 2u, 9u}) {
    const ScenarioSet scenarios = DominantPolyScenarios(n);
    const std::vector<ResultDelta> sequential =
        SequentialDeltas(&session, scenarios);
    for (const Engine& engine : engines) {
      for (std::size_t threads : thread_counts) {
        SCOPED_TRACE("n=" + std::to_string(n) + " engine=" +
                     SweepName(engine.sweep) + "/" +
                     std::to_string(engine.lanes) +
                     " threads=" + std::to_string(threads));
        BatchOptions options;
        options.sweep = engine.sweep;
        options.block_lanes = engine.lanes;
        options.num_threads = threads;
        ExpectBitIdentical(
            sequential,
            snapshot->AssignBatch(scenarios, options).ValueOrDie());
      }
    }
  }

  // The grid and the stream run the same sweep core over other plan shapes:
  // two bases per core, and windows of 3 scenarios per chunk.
  const ScenarioSet scenarios = DominantPolyScenarios(9);
  const prov::VarId g = snapshot->pool().Find("G");
  const prov::VarId y5 = snapshot->pool().Find("y5");
  ASSERT_NE(g, prov::kInvalidVar);
  ASSERT_NE(y5, prov::kInvalidVar);
  prov::Valuation moved = snapshot->default_meta_valuation();
  moved.Set(g, 0.87);
  moved.Set(y5, 1.29);
  const std::vector<prov::Valuation> bases = {
      snapshot->default_meta_valuation(), moved};
  const std::vector<ResultDelta> on_default =
      SequentialDeltas(&session, scenarios);
  std::vector<ResultDelta> on_moved;
  for (const Scenario& scenario : scenarios.scenarios()) {
    session.SetMetaValue("G", 0.87).CheckOK();
    session.SetMetaValue("y5", 1.29).CheckOK();
    for (const Scenario::Delta& delta : scenario.deltas) {
      session.SetMetaValue(delta.var, delta.value).CheckOK();
    }
    on_moved.push_back(session.Assign(1).ValueOrDie().delta);
    session.ResetMetaValues().CheckOK();
  }
  const std::vector<ResultDelta>* per_base[] = {&on_default, &on_moved};
  std::shared_ptr<const ExplicitSource> source =
      ExplicitSource::Create(scenarios).ValueOrDie();

  for (const Engine& engine : engines) {
    for (std::size_t threads : thread_counts) {
      SCOPED_TRACE(std::string("engine=") + SweepName(engine.sweep) + "/" +
                   std::to_string(engine.lanes) +
                   " threads=" + std::to_string(threads));
      BatchOptions options;
      options.sweep = engine.sweep;
      options.block_lanes = engine.lanes;
      options.num_threads = threads;
      const GridAssignReport grid =
          snapshot->AssignGrid(scenarios, bases, options).ValueOrDie();
      for (std::size_t b = 0; b < bases.size(); ++b) {
        for (std::size_t s = 0; s < scenarios.size(); ++s) {
          const auto& rows = (*per_base[b])[s].rows;
          for (std::size_t r = 0; r < rows.size(); ++r) {
            EXPECT_EQ(grid.full_value(b, s, r), rows[r].full);
            EXPECT_EQ(grid.compressed_value(b, s, r), rows[r].compressed);
          }
        }
      }

      StreamOptions stream;
      stream.batch = options;
      stream.batch.stream_block_scenarios = 3;
      std::size_t streamed = 0;
      const SweepSummary summary =
          snapshot
              ->AssignStream(
                  *source, stream,
                  [&](const StreamBlockView& view) {
                    for (std::size_t i = 0; i < view.count; ++i) {
                      const auto& rows = on_default[view.begin + i].rows;
                      for (std::size_t r = 0; r < rows.size(); ++r) {
                        const std::size_t cell = i * view.num_groups + r;
                        EXPECT_EQ(view.full[cell], rows[r].full);
                        EXPECT_EQ(view.compressed[cell], rows[r].compressed);
                      }
                    }
                    streamed += view.count;
                    return true;
                  })
              .ValueOrDie();
      EXPECT_EQ(streamed, scenarios.size());
      EXPECT_EQ(summary.chunks, 3u);
    }
  }
}

// A deadline cancels the sweep between tiles and never yields partial
// values; a deadline that does not pass changes no bit.
TEST(CompiledSessionTest, DeadlineCancelsTheSweepAndAFarOneChangesNoBits) {
  Session session;
  LoadDominantPolySession(&session);
  auto snapshot = session.Snapshot().ValueOrDie();
  const ScenarioSet scenarios = DominantPolyScenarios(64);
  const SweepDeadline far =
      std::chrono::steady_clock::now() + std::chrono::hours(1);

  for (std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    BatchOptions options;
    options.num_threads = threads;
    std::shared_ptr<const BatchPlan> plan =
        snapshot->PlanBatch(scenarios, options).ValueOrDie();

    const SweepDeadline passed = std::chrono::steady_clock::now();
    util::Result<BatchAssignReport> cancelled =
        snapshot->Execute(*plan, passed);
    ASSERT_FALSE(cancelled.ok());
    EXPECT_EQ(cancelled.status().code(), util::StatusCode::kDeadlineExceeded);
    cancelled = snapshot->AssignBatch(scenarios, options, passed);
    ASSERT_FALSE(cancelled.ok());
    EXPECT_EQ(cancelled.status().code(), util::StatusCode::kDeadlineExceeded);

    const BatchAssignReport reference =
        snapshot->AssignBatch(scenarios, options).ValueOrDie();
    std::vector<ResultDelta> want;
    for (const AssignReport& report : reference.reports) {
      want.push_back(report.delta);
    }
    ExpectBitIdentical(want, snapshot->Execute(*plan, far).ValueOrDie());
    ExpectBitIdentical(
        want, snapshot->AssignBatch(scenarios, options, far).ValueOrDie());
  }
}

// Every plan on the default base shares the session's one pool-sized copy
// of it; an explicit base gets its own copy.
TEST(CompiledSessionTest, DefaultBasePlansShareTheSessionsBase) {
  Session session;
  LoadPaperSession(&session);
  auto snapshot = session.Snapshot().ValueOrDie();
  ScenarioSet scenarios;
  scenarios.Add("slump").ValueOrDie().Set("Business", 0.8);
  const prov::Valuation* shared = &snapshot->default_meta_valuation();
  EXPECT_EQ(shared->size(), snapshot->pool_size());

  BatchOptions sparse;
  sparse.sweep = BatchOptions::Sweep::kSparseDelta;
  EXPECT_EQ(&snapshot->PlanBatch(scenarios).ValueOrDie()->base(), shared);
  EXPECT_EQ(&snapshot->PlanBatch(scenarios, sparse).ValueOrDie()->base(),
            shared);
  snapshot->ClearPlanCache();  // Plan the passed default base afresh.
  EXPECT_EQ(&snapshot->PlanBatch(scenarios, *shared, sparse)
                 .ValueOrDie()
                 ->base(),
            shared);

  prov::Valuation moved = *shared;
  moved.Set(snapshot->pool().Find("Business"), 1.1);
  const std::shared_ptr<const BatchPlan> explicit_base =
      snapshot->PlanBatch(scenarios, moved).ValueOrDie();
  EXPECT_NE(&explicit_base->base(), shared);
  EXPECT_EQ(explicit_base->base().values(), moved.values());
}

TEST(CompiledSessionTest, SnapshotSharesPoolAndFreezesItsSize) {
  Session session;
  LoadPaperSession(&session);
  auto snapshot = session.Snapshot().ValueOrDie();
  // Shared by pointer, not deep-copied (the old per-snapshot pool copy made
  // Snapshot() O(pool) even when nothing changed).
  EXPECT_EQ(&snapshot->pool(), &session.pool());
  EXPECT_EQ(snapshot->pool_size(), session.pool().size());

  // A variable interned after the snapshot resolves in the shared pool but
  // is outside the snapshot's frozen world: scenario compilation rejects it
  // instead of silently ignoring it (sparse) or aborting (dense).
  session.mutable_pool()->Intern("late_var");
  ScenarioSet scenarios;
  scenarios.Add("late").ValueOrDie().Set("late_var", 2.0);
  for (BatchOptions::Sweep sweep :
       {BatchOptions::Sweep::kBlocked, BatchOptions::Sweep::kSparseDelta}) {
    BatchOptions options;
    options.sweep = sweep;
    util::Result<BatchAssignReport> result =
        snapshot->AssignBatch(scenarios, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("after"), std::string::npos);
  }
}

TEST(CompiledSessionTest, LeafToMetaIndirectionCoversPool) {
  Session session;
  LoadExponentSession(&session);
  auto snapshot = session.Snapshot().ValueOrDie();
  const std::vector<prov::VarId>& remap = snapshot->leaf_to_meta();
  ASSERT_GE(remap.size(), snapshot->pool().size());
  prov::VarId x = snapshot->pool().Find("x");
  prov::VarId g = snapshot->pool().Find("G");
  prov::VarId z = snapshot->pool().Find("z");
  ASSERT_NE(x, prov::kInvalidVar);
  ASSERT_NE(g, prov::kInvalidVar);
  ASSERT_NE(z, prov::kInvalidVar);
  EXPECT_EQ(remap[x], g);  // abstracted leaf points at its meta-variable
  EXPECT_EQ(remap[z], z);  // off-tree variable maps to itself
}

// The headline guarantee: one snapshot, shared by N threads with zero
// locks, each thread running batches and single assignments concurrently,
// reproduces the sequential Session results bit for bit. Run under
// ThreadSanitizer in CI.
TEST(CompiledSessionConcurrencyTest, ManyThreadsMatchSequential) {
  Session session;
  LoadPaperSession(&session);

  constexpr std::size_t kScenarios = 12;
  ScenarioSet scenarios;
  const std::vector<MetaVar>& meta = session.meta_vars();
  ASSERT_FALSE(meta.empty());
  for (std::size_t i = 0; i < kScenarios; ++i) {
    auto s = scenarios.Add("scenario-" + std::to_string(i)).ValueOrDie();
    s.Set(meta[i % meta.size()].name, 1.0 + 0.05 * static_cast<double>(i));
    s.Set(meta[(i + 1) % meta.size()].name,
          1.0 - 0.02 * static_cast<double>(i));
  }
  std::vector<ResultDelta> sequential = SequentialDeltas(&session, scenarios);

  std::shared_ptr<const CompiledSession> snapshot =
      session.Snapshot().ValueOrDie();

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIterations = 10;
  std::vector<std::vector<BatchAssignReport>> results(kThreads);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t]() {
      // Alternate sweep engines, lane widths, and thread counts across
      // workers so the blocked (4 and 8 lanes) and sparse paths run
      // concurrently.
      BatchOptions options;
      options.num_threads = 1 + t % 3;
      options.sweep = t % 3 == 0 ? BatchOptions::Sweep::kSparseDelta
                                 : BatchOptions::Sweep::kBlocked;
      options.block_lanes = t % 2 == 0 ? 8 : 4;
      for (std::size_t i = 0; i < kIterations; ++i) {
        results[t].push_back(
            snapshot->AssignBatch(scenarios, options).ValueOrDie());
      }
    });
  }
  for (std::thread& th : pool) th.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(results[t].size(), kIterations);
    for (const BatchAssignReport& batch : results[t]) {
      ExpectBitIdentical(sequential, batch);
    }
  }
}

// The tiled scheduler on a heavy program (two poly ranges on two workers,
// pool helpers shared by every caller) must stay data-race-free and
// bit-identical to the sequential path when many snapshot users run it
// concurrently. Run under ThreadSanitizer in CI.
TEST(CompiledSessionConcurrencyTest, PartitionedTiledSchedulerDeterministic) {
  Session session;
  LoadDominantPolySession(&session);
  const ScenarioSet scenarios = DominantPolyScenarios(2);
  const std::vector<ResultDelta> sequential =
      SequentialDeltas(&session, scenarios);
  auto snapshot = session.Snapshot().ValueOrDie();

  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kIterations = 8;
  std::vector<std::vector<BatchAssignReport>> results(kThreads);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t]() {
      BatchOptions options;
      options.num_threads = 4;
      options.sweep = t % 2 == 0 ? BatchOptions::Sweep::kBlocked
                                 : BatchOptions::Sweep::kSparseDelta;
      for (std::size_t i = 0; i < kIterations; ++i) {
        results[t].push_back(
            snapshot->AssignBatch(scenarios, options).ValueOrDie());
      }
    });
  }
  for (std::thread& th : pool) th.join();

  for (const std::vector<BatchAssignReport>& per_thread : results) {
    for (const BatchAssignReport& batch : per_thread) {
      EXPECT_GT(batch.num_threads, 1u);
      ExpectBitIdentical(sequential, batch);
    }
  }
}

// Snapshots share the session's pool instead of copying it, so the one
// mutation the authoring side may perform concurrently — interning new
// names (e.g. the owning Database keeps loading data) — must be safe
// against serving reads. VarPool synchronizes internally; this test is the
// TSan witness for that contract.
TEST(CompiledSessionConcurrencyTest, ServingWhileAuthoringInterns) {
  Session session;
  LoadPaperSession(&session);
  ScenarioSet scenarios;
  scenarios.Add("boom").ValueOrDie().Set("Business", 1.25);
  scenarios.Add("slump").ValueOrDie().Set("Business", 0.8).Set("Special", 0.9);
  std::vector<ResultDelta> sequential = SequentialDeltas(&session, scenarios);
  auto snapshot = session.Snapshot().ValueOrDie();

  constexpr std::size_t kReaders = 4;
  constexpr std::size_t kIterations = 12;
  std::vector<std::vector<BatchAssignReport>> results(kReaders);
  std::vector<std::thread> pool;
  pool.reserve(kReaders + 1);
  for (std::size_t t = 0; t < kReaders; ++t) {
    pool.emplace_back([&, t]() {
      for (std::size_t i = 0; i < kIterations; ++i) {
        results[t].push_back(snapshot->AssignBatch(scenarios).ValueOrDie());
      }
    });
  }
  pool.emplace_back([&]() {
    // The writer grows the shared pool and reads it back while serving is
    // in flight. (Mutating the Session itself stays single-threaded, per
    // its contract — only the pool is shared.)
    for (int i = 0; i < 300; ++i) {
      prov::VarId id =
          session.mutable_pool()->Intern("late_" + std::to_string(i));
      ASSERT_NE(session.pool().Find("Business"), prov::kInvalidVar);
      ASSERT_EQ(session.pool().Name(id), "late_" + std::to_string(i));
    }
  });
  for (std::thread& th : pool) th.join();

  for (const std::vector<BatchAssignReport>& per_thread : results) {
    for (const BatchAssignReport& batch : per_thread) {
      ExpectBitIdentical(sequential, batch);
    }
  }
}

}  // namespace
}  // namespace cobra::core
