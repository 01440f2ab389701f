#ifndef COBRA_CORE_BATCH_PLAN_H_
#define COBRA_CORE_BATCH_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.h"
#include "prov/eval_program.h"
#include "prov/valuation.h"
#include "util/status.h"

namespace cobra::core {

class CompiledSession;

/// 128-bit content fingerprint of a `ScenarioSet`: a hash over the scenario
/// names and their override lists (variable names and IEEE-754 value bit
/// patterns, in order). Two sets with the same content — including delta
/// order — fingerprint identically; mutating a set after planning (adding a
/// scenario, changing a delta) changes the fingerprint, so a stale plan can
/// never be replayed for the mutated set. The fingerprint is computed from
/// the raw set without resolving variable names against the pool, which is
/// what makes a warm plan-cache hit cheap: one pass over the bytes instead
/// of recompiling every scenario.
struct PlanFingerprint {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const PlanFingerprint& a, const PlanFingerprint& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
  friend bool operator!=(const PlanFingerprint& a, const PlanFingerprint& b) {
    return !(a == b);
  }

  /// 32 hex digits, for display (shell `plan` table, bench JSON).
  std::string ToHex() const;
};

/// Computes the content fingerprint of `scenarios` (see PlanFingerprint).
PlanFingerprint FingerprintScenarios(const ScenarioSet& scenarios);

/// 128-bit content hash of a base valuation as seen through a frozen pool —
/// the per-base half of the plan-cache key. Like the scenario fingerprint,
/// plan *identity* rests on its equality, so it is two independently-seeded
/// 64-bit chains, not one.
struct BaseFingerprint {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const BaseFingerprint& a, const BaseFingerprint& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
  friend bool operator!=(const BaseFingerprint& a, const BaseFingerprint& b) {
    return !(a == b);
  }
};

/// Hashes exactly `pool_size` entries of `base`: positions past
/// `base.size()` hash as the neutral 1.0 the `Valuation` contract extends
/// with, and entries beyond the frozen pool are ignored (the kernels never
/// read them). A short valuation and its pool-sized extension therefore
/// fingerprint identically and share one overlay.
BaseFingerprint FingerprintBase(const prov::Valuation& base,
                                std::size_t pool_size);

/// One scenario lowered to pool ids: a sorted, duplicate-free override list
/// (later deltas on the same variable keep the last value).
struct CompiledScenario {
  std::vector<prov::VarOverride> overrides;
};

/// The tile schedule for one compiled program: whole-polynomial ranges and
/// the number of workers that share them. Each polynomial lies in exactly
/// one range and is summed whole, in compiled order, by one thread, so the
/// schedule decides only who computes which cell, never a cell's bits.
/// Derived once at planning time from the program shape, the scenario
/// block count and the thread budget; execution only reads it.
struct ProgramSchedule {
  /// Whole-poly [begin, end) ranges, in scan order, covering every
  /// polynomial exactly once.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges;

  /// NumPolys() of the scheduled program.
  std::size_t num_polys = 0;

  /// Threads the sweep of this side uses: the thread budget clamped to the
  /// tile count and to the scan work, so a sweep too short to repay waking
  /// a helper runs on the calling thread alone.
  std::size_t workers = 1;

  /// Tiles per scenario block for this program.
  std::size_t slices() const { return ranges.size(); }
};

/// The resolved engine choice of the `Sweep::kAuto` policy.
struct EnginePick {
  BatchOptions::Sweep engine = BatchOptions::Sweep::kSparseDelta;
  std::size_t lanes = 1;  ///< 4, 8 or 16 for kBlocked, 1 for the scalars.
};

/// The adaptive engine policy: picks the sweep engine and lane count from
/// the combined program weight (terms + factors of both sides), the
/// scenario count, and the widest per-scenario override list. Deliberately
/// independent of the thread count (and of anything else nondeterministic),
/// so the same workload always plans the same way.
///
/// The blocked kernel wins at every batch size once the program scan
/// outweighs its per-block fixed costs (override-union tables): a warm
/// probe on A7's per-order program measured 8 lanes at 4.4-17x the sparse
/// engine for every n from 1 to 127, and BENCH_a7 ~3.5x at 1024. The
/// 16-lane width only pays once blocks are plentiful enough that its wider
/// ragged tail cannot dominate. Policy table:
///
///   weight < 2048, or weight < 32 x override width
///                      -> kSparseDelta (scalar, 1 lane)
///   scenarios < 512                           -> kBlocked, 8 lanes
///   scenarios >= 512                          -> kBlocked, 16 lanes
///
/// (4 lanes remains reachable by pinning `block_lanes = 4` explicitly.)
EnginePick ChooseAutoEngine(std::size_t program_weight,
                            std::size_t num_scenarios,
                            std::size_t max_override_width);

/// The cheap per-base half of a plan: the pool-sized base valuation the
/// scenarios apply on top of, its content fingerprint, and — for the
/// blocked engine — the block patch tables with value rows bound to that
/// base. Materialized from a `PlanCore` in O(union sizes) plus, for a base
/// that is not already shared, one pool-sized copy: no scenario lowering,
/// no sorting, no index builds. Immutable once published inside a
/// `BatchPlan`.
struct PlanBaseOverlay {
  /// The base valuation both program sides evaluate under, pool-sized (the
  /// kernels index it with any factor id the programs carry). Shared, not
  /// owned: every overlay on a session's default base points at the
  /// session's one copy, and a stream's windows share one base. Never null
  /// in a published plan.
  std::shared_ptr<const prov::Valuation> base;

  /// FingerprintBase(*base, frozen pool size) — the overlay's cache key.
  BaseFingerprint base_fingerprint;

  /// Per-block override-union tables bound to `base` (empty unless the
  /// core's engine is kBlocked). Structurally identical to the core's
  /// skeletons; only the value rows differ per base.
  std::vector<prov::BlockOverrides> block_tables;
};

/// The base-independent core of a plan: everything derived from the
/// (scenario set, options, session) triple alone — scenario lowering into
/// sorted override lists, the resolved engine/lane/thread choice, the
/// per-block override-union *skeletons* (sorted unions + dense row indexes,
/// values unbound), and the (scenario-block × poly-range) tile schedules
/// for both program sides. This is the expensive half of planning; a grid
/// sweep or a per-user-defaults serving tier compiles it once and stamps
/// out a `PlanBaseOverlay` per base.
///
/// A core is deeply immutable after construction and references its origin
/// session through a weak_ptr (plans live in the session's own cache, so a
/// strong back-reference would make every snapshot that ever planned a
/// batch immortal).
class PlanCore {
 public:
  /// Compiles the base-independent half. Validates `options` (naming the
  /// offending field and the accepted values) and the scenario set
  /// (non-empty, unique names, every delta variable known to the snapshot)
  /// once, here — execution never re-validates — and builds the core from
  /// `PinOptions(*session, options, scenarios.size(), widest override
  /// list)`. `session` must be non-null. A caller that already
  /// fingerprinted the set (the plan cache keys on it before planning) may
  /// pass the digest to skip the second content pass; null recomputes it.
  static util::Result<std::shared_ptr<const PlanCore>> Create(
      std::shared_ptr<const CompiledSession> session,
      const ScenarioSet& scenarios, const BatchOptions& options,
      const PlanFingerprint* precomputed_fingerprint = nullptr);

  /// Validates `options` and resolves everything they leave open for a
  /// batch of `num_scenarios` scenarios whose widest override list has
  /// `max_override_width` entries: `kAuto` becomes the engine the policy
  /// picks (`ChooseAutoEngine`), `block_lanes` that engine's lane count,
  /// and `num_threads = 0` the core count. Options already pinned come back
  /// unchanged, so a core built from pinned options plans exactly as they
  /// say — `AssignStream` pins once for the whole stream (window size,
  /// source `max_deltas()` bound) and builds every window's core from the
  /// result.
  static util::Result<BatchOptions> PinOptions(
      const CompiledSession& session, const BatchOptions& options,
      std::size_t num_scenarios, std::size_t max_override_width);

  /// Materializes the per-base half on a shared base, which must already be
  /// pool-sized (non-null, at least `frozen_pool_size()` entries): for the
  /// blocked engine, rebinds every block skeleton's value rows to it. A
  /// caller that already fingerprinted the base (the overlay cache keys on
  /// it before materializing) may pass the digest; null recomputes it.
  std::shared_ptr<const PlanBaseOverlay> MakeOverlay(
      std::shared_ptr<const prov::Valuation> base,
      const BaseFingerprint* precomputed_fingerprint = nullptr) const;

  /// MakeOverlay() on a pool-sized copy of `base_meta_valuation`.
  std::shared_ptr<const PlanBaseOverlay> MakeOverlay(
      const prov::Valuation& base_meta_valuation,
      const BaseFingerprint* precomputed_fingerprint = nullptr) const;

  /// The session this core was built against, or null if that session has
  /// since been destroyed (see the class comment). The weak_ptr makes the
  /// check ABA-safe: a new session reusing the old one's address still
  /// fails to lock the old control block.
  std::shared_ptr<const CompiledSession> session() const {
    return session_.lock();
  }

  /// Content fingerprint of the planned scenario set.
  const PlanFingerprint& fingerprint() const { return fingerprint_; }

  /// The resolved engine — never `kAuto` (the policy resolves it at
  /// planning time so the choice is inspectable and cacheable).
  BatchOptions::Sweep engine() const { return engine_; }

  /// Scenario lanes per block: 4, 8 or 16 for the blocked kernel, 1
  /// otherwise.
  std::size_t lanes() const { return lanes_; }

  /// The resolved thread budget (`num_threads`, 0 resolved to the core
  /// count). Each side's schedule clamps it to that side's work.
  std::size_t num_threads() const { return num_threads_; }

  std::size_t num_scenarios() const { return scenario_names_.size(); }

  /// Scenario blocks of the sweep (== ceil(scenarios / lanes)).
  std::size_t num_blocks() const { return num_blocks_; }

  /// Total (block × range) tiles across both program sides — the unit of
  /// work the sweep's worker threads claim.
  std::size_t num_tiles() const {
    return num_blocks_ *
           (full_schedule_.slices() + compressed_schedule_.slices());
  }

  /// The options the core was built from (with `sweep` still as requested;
  /// see engine() for the resolved choice).
  const BatchOptions& options() const { return options_; }

  const std::vector<std::string>& scenario_names() const {
    return scenario_names_;
  }

  const std::vector<CompiledScenario>& compiled() const { return compiled_; }

  /// Per-block override-union skeletons (empty unless engine() ==
  /// kBlocked): the base-invariant structure of the block tables, value
  /// rows unbound. MakeOverlay() rebinds them per base; the kernels never
  /// read these directly.
  const std::vector<prov::BlockOverrides>& block_skeletons() const {
    return block_skeletons_;
  }

  /// Tile schedule of the sweep-side full program.
  const ProgramSchedule& full_schedule() const { return full_schedule_; }

  /// Tile schedule of the compressed program.
  const ProgramSchedule& compressed_schedule() const {
    return compressed_schedule_;
  }

  /// The pool size frozen into this core (== the origin session's
  /// pool_size()); overlays size their base valuation to it.
  std::size_t frozen_pool_size() const { return frozen_pool_size_; }

 private:
  PlanCore() = default;

  std::weak_ptr<const CompiledSession> session_;
  PlanFingerprint fingerprint_;
  BatchOptions options_;
  BatchOptions::Sweep engine_ = BatchOptions::Sweep::kSparseDelta;
  std::size_t lanes_ = 1;
  std::size_t num_threads_ = 1;
  std::size_t num_blocks_ = 0;
  std::size_t frozen_pool_size_ = 0;
  std::vector<std::string> scenario_names_;
  std::vector<CompiledScenario> compiled_;
  std::vector<prov::BlockOverrides> block_skeletons_;
  ProgramSchedule full_schedule_;
  ProgramSchedule compressed_schedule_;
};

/// An immutable, reusable execution plan for one (scenario set, base meta
/// valuation, BatchOptions) triple against one `CompiledSession` — the
/// plan-once / execute-many half of the batched serving path.
///
/// Internally a plan is a pair: a shared, base-independent `PlanCore`
/// (scenario lowering, engine/lane resolution, override-union skeletons,
/// tile schedules) plus a cheap `PlanBaseOverlay` binding one base
/// valuation (pool-sized base + per-block value rows). The plan cache keys
/// cores on the scenario fingerprint and options alone and attaches one
/// overlay per distinct base, so replaying the same scenario set against a
/// different base — the grid / per-user-defaults workload — reuses the
/// expensive half and pays only the overlay. `CompiledSession::Execute`
/// runs the sweep reading only this plan; `AssignBatch` is a thin
/// PlanBatch + Execute wrapper; `AssignGrid` stamps out overlays in its
/// inner loop.
///
/// A plan is deeply immutable after construction and may be executed
/// concurrently from any number of threads. Like its core it references the
/// origin session through a weak_ptr — `Execute` rejects a plan whose
/// origin is gone or different.
class BatchPlan {
 public:
  /// Compiles a full plan (core + overlay) in one call — the single-base
  /// convenience path. See `PlanCore::Create` for the validation contract.
  static util::Result<std::shared_ptr<const BatchPlan>> Create(
      std::shared_ptr<const CompiledSession> session,
      const ScenarioSet& scenarios,
      const prov::Valuation& base_meta_valuation, const BatchOptions& options,
      const PlanFingerprint* precomputed_fingerprint = nullptr);

  /// Pairs an existing core with an overlay (both non-null, and the
  /// overlay's base non-null) — the grid / overlay-cache path. The overlay
  /// should have been produced by `core->MakeOverlay()`; `VerifyPlan`
  /// audits the pairing.
  static std::shared_ptr<const BatchPlan> FromParts(
      std::shared_ptr<const PlanCore> core,
      std::shared_ptr<const PlanBaseOverlay> overlay);

  /// The shared base-independent half.
  const std::shared_ptr<const PlanCore>& core() const { return core_; }

  /// The per-base half.
  const PlanBaseOverlay& overlay() const { return *overlay_; }

  /// @name Flat accessors (delegating to the core/overlay pair).
  /// @{
  std::shared_ptr<const CompiledSession> session() const {
    return core_->session();
  }
  const PlanFingerprint& fingerprint() const { return core_->fingerprint(); }
  BatchOptions::Sweep engine() const { return core_->engine(); }
  std::size_t lanes() const { return core_->lanes(); }
  std::size_t num_threads() const { return core_->num_threads(); }
  std::size_t num_scenarios() const { return core_->num_scenarios(); }
  std::size_t num_blocks() const { return core_->num_blocks(); }
  std::size_t num_tiles() const { return core_->num_tiles(); }
  const BatchOptions& options() const { return core_->options(); }
  const std::vector<std::string>& scenario_names() const {
    return core_->scenario_names();
  }
  const std::vector<CompiledScenario>& compiled() const {
    return core_->compiled();
  }

  /// The pool-sized base meta valuation scenarios apply on top of.
  const prov::Valuation& base() const { return *overlay_->base; }

  /// Per-block override-union tables bound to base() (empty unless
  /// engine() == kBlocked).
  const std::vector<prov::BlockOverrides>& block_tables() const {
    return overlay_->block_tables;
  }

  const ProgramSchedule& full_schedule() const {
    return core_->full_schedule();
  }
  const ProgramSchedule& compressed_schedule() const {
    return core_->compressed_schedule();
  }
  /// @}

 private:
  BatchPlan(std::shared_ptr<const PlanCore> core,
            std::shared_ptr<const PlanBaseOverlay> overlay)
      : core_(std::move(core)), overlay_(std::move(overlay)) {}

  std::shared_ptr<const PlanCore> core_;
  std::shared_ptr<const PlanBaseOverlay> overlay_;
};

}  // namespace cobra::core

#endif  // COBRA_CORE_BATCH_PLAN_H_
