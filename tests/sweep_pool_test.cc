// Tests for the persistent sweep pool behind CompiledSession's sweeps
// (AssignBatch, AssignGrid, AssignStream): a warm multi-threaded batch
// starts no thread per call, and concurrent callers with different thread
// budgets and engines share the pool's helpers without changing a single
// bit of any answer. The workload is a program heavy enough that small
// batches really run on several threads. Run under TSan in CI.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/compiled_session.h"
#include "core/scenario.h"
#include "core/session.h"
#include "dominant_poly_session.h"
#include "prov/valuation.h"

namespace cobra::core {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// This process's live thread count (the "Threads" line of
/// /proc/self/status; 0 if unreadable). Unlike a kernel-wide counter, it
/// moves only with threads this process starts or ends.
std::uint64_t LiveThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoull(line.substr(8));
  }
  return 0;
}

class SweepPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LoadDominantPolySession(&session_);
    snapshot_ = session_.Snapshot().ValueOrDie();
    ASSERT_FALSE(snapshot_->meta_vars().empty());
  }

  /// A pool-sized base that moves every meta-variable by `factor`.
  prov::Valuation ScaledBase(double factor) const {
    prov::Valuation base = snapshot_->default_meta_valuation();
    for (const MetaVar& meta : snapshot_->meta_vars()) {
      base.Set(meta.var, base.Get(meta.var) * factor);
    }
    return base;
  }

  /// One scenario's rows from the sequential path: reset the session, set
  /// the base's meta values, apply the deltas, Assign().
  struct Rows {
    std::vector<double> full;
    std::vector<double> compressed;
  };
  std::vector<Rows> SequentialRows(const ScenarioSet& scenarios,
                                   const prov::Valuation& base) {
    std::vector<Rows> rows;
    for (const Scenario& scenario : scenarios.scenarios()) {
      session_.ResetMetaValues().CheckOK();
      for (const MetaVar& meta : snapshot_->meta_vars()) {
        session_.SetMetaValue(meta.name, base.Get(meta.var)).CheckOK();
      }
      for (const Scenario::Delta& delta : scenario.deltas) {
        session_.SetMetaValue(delta.var, delta.value).CheckOK();
      }
      Rows row;
      for (const ResultDelta::Row& r :
           session_.Assign(1).ValueOrDie().delta.rows) {
        row.full.push_back(r.full);
        row.compressed.push_back(r.compressed);
      }
      rows.push_back(std::move(row));
    }
    session_.ResetMetaValues().CheckOK();
    return rows;
  }

  Session session_;
  std::shared_ptr<const CompiledSession> snapshot_;
};

TEST_F(SweepPoolTest, WarmMultiThreadedBatchesStartNoThreadPerCall) {
  const ScenarioSet scenarios = DominantPolyScenarios(8);
  BatchOptions options;
  options.num_threads = 4;
  // Warm-up: plans the batch and starts the pool's helpers.
  for (int i = 0; i < 20; ++i) {
    const BatchAssignReport report =
        snapshot_->AssignBatch(scenarios, options).ValueOrDie();
    ASSERT_GT(report.num_threads, 1u)
        << "the batch must really run multi-threaded for this test to mean "
           "anything";
  }

  // A sampler watches the live thread count while the calls run. Threads
  // started per call would be alive for most of each call (one helper per
  // side: each side runs on the caller plus one helper), so the sampler
  // would see the count rise above what the warm-up left behind.
  const std::uint64_t baseline = LiveThreads() + 1;  // Plus the sampler.
  ASSERT_GT(baseline, 1u) << "/proc/self/status has no Threads line";
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> peak{0};
  std::thread sampler([&done, &peak] {
    while (!done.load(std::memory_order_relaxed)) {
      const std::uint64_t live = LiveThreads();
      if (live > peak.load(std::memory_order_relaxed)) {
        peak.store(live, std::memory_order_relaxed);
      }
    }
  });
  constexpr int kCalls = 2000;
  int failed = 0;
  for (int i = 0; i < kCalls; ++i) {
    failed += snapshot_->AssignBatch(scenarios, options).ok() ? 0 : 1;
  }
  done.store(true, std::memory_order_relaxed);
  sampler.join();
  EXPECT_EQ(failed, 0);
  EXPECT_LE(peak.load(), baseline)
      << kCalls << " warm batches raised the live thread count from "
      << baseline << " to " << peak.load();
}

TEST_F(SweepPoolTest, ConcurrentCallersShareThePoolBitIdentically) {
  const ScenarioSet scenarios = DominantPolyScenarios(32);
  const std::vector<prov::Valuation> bases = {
      snapshot_->default_meta_valuation(), ScaledBase(1.25)};
  std::vector<std::vector<Rows>> expected;
  for (const prov::Valuation& base : bases) {
    expected.push_back(SequentialRows(scenarios, base));
  }
  std::shared_ptr<const ExplicitSource> source =
      ExplicitSource::Create(scenarios).ValueOrDie();

  constexpr std::array<std::size_t, 4> kBudgets = {1, 2, 4, 8};
  constexpr std::array<BatchOptions::Sweep, 2> kEngines = {
      BatchOptions::Sweep::kBlocked, BatchOptions::Sweep::kSparseDelta};
  constexpr int kCallers = 8;
  constexpr int kRounds = 10;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      BatchOptions options;
      options.num_threads = kBudgets[c % kBudgets.size()];
      options.sweep = kEngines[(c / kBudgets.size()) % kEngines.size()];
      for (int round = 0; round < kRounds; ++round) {
        util::Result<GridAssignReport> grid =
            snapshot_->AssignGrid(scenarios, bases, options);
        if (!grid.ok()) {
          failures.fetch_add(1);
          return;
        }
        for (std::size_t b = 0; b < bases.size(); ++b) {
          for (std::size_t s = 0; s < scenarios.size(); ++s) {
            const Rows& want = expected[b][s];
            for (std::size_t g = 0; g < want.full.size(); ++g) {
              if (!SameBits(grid->full_value(b, s, g), want.full[g]) ||
                  !SameBits(grid->compressed_value(b, s, g),
                            want.compressed[g])) {
                mismatches.fetch_add(1);
              }
            }
          }
        }

        StreamOptions stream;
        stream.batch = options;
        stream.batch.stream_block_scenarios = 8;
        std::size_t streamed = 0;
        auto consumer = [&](const StreamBlockView& view) {
          for (std::size_t i = 0; i < view.count; ++i) {
            const Rows& want = expected[0][view.begin + i];
            for (std::size_t g = 0; g < view.num_groups; ++g) {
              if (!SameBits(view.full[i * view.num_groups + g],
                            want.full[g]) ||
                  !SameBits(view.compressed[i * view.num_groups + g],
                            want.compressed[g])) {
                mismatches.fetch_add(1);
              }
            }
          }
          streamed += view.count;
          return true;
        };
        if (!snapshot_->AssignStream(*source, stream, consumer).ok() ||
            streamed != scenarios.size()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace cobra::core
