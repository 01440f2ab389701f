#include "core/batch_plan.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>
#include <unordered_set>
#include <utility>

#include "core/compiled_session.h"
#include "util/hash.h"
#include "util/str.h"

namespace cobra::core {

namespace {

/// Below this combined program weight (terms + factors, both sides) the
/// adaptive policy always picks the scalar sparse engine: the blocked
/// kernel's per-batch fixed costs (override-union tables, tile dispatch)
/// are not amortized by so short a scan.
constexpr std::size_t kAutoMinBlockedWeight = 2048;

/// The blocked kernel's per-block fixed cost grows with the override-union
/// width; the policy requires the program scan to outweigh it by this
/// factor before blocking pays.
constexpr std::size_t kAutoOverrideWeightFactor = 32;

/// From this many scenarios up the adaptive policy widens blocks to 16
/// lanes: with hundreds of blocks the wider ragged tail is noise and the
/// per-factor bookkeeping (row lookup, base load) is amortized over twice
/// the scenarios per program scan.
constexpr std::size_t kAutoWideLanesMinScenarios = 512;

/// When a batch has fewer scenario blocks than threads, the planner splits
/// each program into whole-polynomial ranges so spare threads share one
/// block's scan, but never into ranges of fewer than this many terms on
/// average.
constexpr std::size_t kPartitionMinTerms = 1024;

/// Scan work (terms + factors, times program scans) a sweep must have per
/// worker before another worker joins. A warm blocked sweep of a small
/// batch takes about a microsecond, less than waking a pool helper costs,
/// so small sweeps run on the calling thread alone.
constexpr std::size_t kMinScanWorkPerWorker = 4096;

/// Builds the tile schedule for one program: whole-poly ranges sized by
/// PartitionPolys, and the worker count the sweep of this side uses:
/// min(threads, tiles, ceil(scan work / kMinScanWorkPerWorker)), where one
/// scan per scenario block reads every term and factor once.
ProgramSchedule MakeSchedule(const prov::EvalProgram& program,
                             std::size_t threads, std::size_t num_blocks) {
  ProgramSchedule schedule;
  schedule.num_polys = program.NumPolys();

  std::size_t parts = 1;
  if (threads > num_blocks) {
    const std::size_t want = (threads + num_blocks - 1) / num_blocks;
    const std::size_t cap = program.NumTerms() / kPartitionMinTerms + 1;
    parts = std::min(want, cap);
  }
  const std::vector<std::uint32_t> bounds = program.PartitionPolys(parts);
  for (std::size_t r = 0; r + 1 < bounds.size(); ++r) {
    schedule.ranges.emplace_back(bounds[r], bounds[r + 1]);
  }

  const std::size_t work =
      (program.NumTerms() + program.factors().size()) * num_blocks;
  const std::size_t by_work =
      (work + kMinScanWorkPerWorker - 1) / kMinScanWorkPerWorker;
  schedule.workers = std::max<std::size_t>(
      1, std::min({threads, num_blocks * schedule.slices(), by_work}));
  return schedule;
}

/// Validates the engine knobs once, at planning time; every rejection names
/// the offending BatchOptions field and the accepted values.
util::Status ValidateSweepOptions(const BatchOptions& options) {
  switch (options.sweep) {
    case BatchOptions::Sweep::kAuto:
    case BatchOptions::Sweep::kBlocked:
    case BatchOptions::Sweep::kSparseDelta:
      break;
    default:
      return util::Status::InvalidArgument(util::StrFormat(
          "AssignBatch: invalid BatchOptions.sweep = %d (accepted: kAuto, "
          "kBlocked, kSparseDelta)",
          static_cast<int>(options.sweep)));
  }
  if (options.sweep == BatchOptions::Sweep::kBlocked &&
      options.block_lanes != 4 && options.block_lanes != 8 &&
      options.block_lanes != 16) {
    return util::Status::InvalidArgument(util::StrFormat(
        "AssignBatch: invalid BatchOptions.block_lanes = %zu (accepted: 4, 8 "
        "or 16; kAuto picks the lane count itself and the scalar engines "
        "ignore the knob)",
        options.block_lanes));
  }
  return util::Status::OK();
}

/// PinOptions() on options ValidateSweepOptions() accepted. The kAuto
/// policy reads only the program shapes, the scenario count and the
/// override width — never the thread count — so the choice is
/// deterministic for a given workload.
BatchOptions ResolveOptions(const CompiledSession& session,
                            BatchOptions options, std::size_t num_scenarios,
                            std::size_t max_override_width) {
  if (options.sweep == BatchOptions::Sweep::kAuto) {
    const prov::EvalProgram& sweep_full = session.sweep_full_program();
    const prov::EvalProgram& compressed = session.compressed_program();
    const std::size_t weight =
        sweep_full.NumTerms() + sweep_full.factors().size() +
        compressed.NumTerms() + compressed.factors().size();
    const EnginePick pick =
        ChooseAutoEngine(weight, num_scenarios, max_override_width);
    options.sweep = pick.engine;
    if (pick.engine == BatchOptions::Sweep::kBlocked) {
      options.block_lanes = pick.lanes;
    }
  }
  if (options.num_threads == 0) {
    options.num_threads =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  return options;
}

}  // namespace

std::string PlanFingerprint::ToHex() const {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

PlanFingerprint FingerprintScenarios(const ScenarioSet& scenarios) {
  // A 128-bit digest (util::Hash128): a plan silently replayed for the
  // wrong scenario set would corrupt results, so 64 bits of collision
  // resistance is not enough to stake correctness on. Names are fed
  // word-wise into both chains — never pre-collapsed to one 64-bit hash.
  util::Hash128 hash(0x9e3779b97f4a7c15ULL, 0xc2b2ae3d27d4eb4fULL);
  hash.Feed(scenarios.size());
  for (const Scenario& scenario : scenarios.scenarios()) {
    hash.FeedBytes(scenario.name);
    hash.Feed(scenario.deltas.size());
    for (const Scenario::Delta& delta : scenario.deltas) {
      hash.FeedBytes(delta.var);
      std::uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(delta.value));
      std::memcpy(&bits, &delta.value, sizeof(bits));
      hash.Feed(bits);
    }
  }
  return {hash.lo(), hash.hi()};
}

BaseFingerprint FingerprintBase(const prov::Valuation& base,
                                std::size_t pool_size) {
  // 128-bit (util::Hash128) because overlay *identity* relies on it — same
  // correctness standard as the scenario fingerprint. Hashing the
  // pool-normalized view (short valuations extend neutrally, tails past the
  // frozen pool are invisible to the kernels) means equal-behaving bases
  // always share one overlay.
  util::Hash128 hash(0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL);
  hash.Feed(pool_size);
  const std::vector<double>& values = base.values();
  const std::size_t covered = std::min(values.size(), pool_size);
  for (std::size_t v = 0; v < covered; ++v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(values[v]));
    std::memcpy(&bits, &values[v], sizeof(bits));
    hash.Feed(bits);
  }
  if (covered < pool_size) {
    std::uint64_t neutral_bits = 0;
    const double neutral = 1.0;
    std::memcpy(&neutral_bits, &neutral, sizeof(neutral_bits));
    for (std::size_t v = covered; v < pool_size; ++v) hash.Feed(neutral_bits);
  }
  return {hash.lo(), hash.hi()};
}

EnginePick ChooseAutoEngine(std::size_t program_weight,
                            std::size_t num_scenarios,
                            std::size_t max_override_width) {
  // Policy table (see the header comment):
  //   weight < 2048, or weight < 32 x override width -> sparse
  //   n < 512  -> blocked, 8 lanes
  //   n >= 512 -> blocked, 16 lanes
  if (program_weight < kAutoMinBlockedWeight ||
      program_weight < kAutoOverrideWeightFactor * max_override_width) {
    return {BatchOptions::Sweep::kSparseDelta, 1};
  }
  return {BatchOptions::Sweep::kBlocked,
          num_scenarios >= kAutoWideLanesMinScenarios ? std::size_t{16}
                                                      : std::size_t{8}};
}

util::Result<std::shared_ptr<const PlanCore>> PlanCore::Create(
    std::shared_ptr<const CompiledSession> session,
    const ScenarioSet& scenarios, const BatchOptions& options,
    const PlanFingerprint* precomputed_fingerprint) {
  if (session == nullptr) {
    return util::Status::InvalidArgument("BatchPlan: null session");
  }

  // Options are validated here, once, and never mid-sweep.
  COBRA_RETURN_IF_ERROR(ValidateSweepOptions(options));

  if (scenarios.empty()) {
    return util::Status::InvalidArgument("AssignBatch: empty scenario set");
  }
  {
    std::unordered_set<std::string_view> seen;
    for (const Scenario& scenario : scenarios.scenarios()) {
      if (!seen.insert(scenario.name).second) {
        return util::Status::InvalidArgument(
            util::StrFormat("AssignBatch: duplicate scenario name \"%s\"",
                            scenario.name.c_str()));
      }
    }
  }

  const prov::VarPool& pool = session->pool();
  const std::size_t frozen_pool_size = session->pool_size();

  auto core = std::shared_ptr<PlanCore>(new PlanCore());
  core->session_ = session;
  core->fingerprint_ = precomputed_fingerprint != nullptr
                           ? *precomputed_fingerprint
                           : FingerprintScenarios(scenarios);
  core->options_ = options;
  core->frozen_pool_size_ = frozen_pool_size;
  core->scenario_names_ = scenarios.Names();

  // Lower every scenario to a sorted, duplicate-free (VarId, value) list.
  std::size_t max_override_width = 0;
  core->compiled_.reserve(scenarios.size());
  for (const Scenario& scenario : scenarios.scenarios()) {
    CompiledScenario compiled;
    for (const Scenario::Delta& delta : scenario.deltas) {
      prov::VarId id = pool.Find(delta.var);
      if (id == prov::kInvalidVar) {
        return util::Status::InvalidArgument(util::StrFormat(
            "AssignBatch scenario \"%s\": unknown variable: %s",
            scenario.name.c_str(), delta.var.c_str()));
      }
      if (id >= frozen_pool_size) {
        // The pool is shared with the (still-mutable) authoring session;
        // names interned after this snapshot was taken are not part of its
        // frozen world.
        return util::Status::InvalidArgument(util::StrFormat(
            "AssignBatch scenario \"%s\": variable %s was interned after "
            "this snapshot was taken",
            scenario.name.c_str(), delta.var.c_str()));
      }
      // Deltas apply in order, so a repeated variable keeps the last value;
      // the compiled list stays duplicate-free for the kernels.
      bool found = false;
      for (prov::VarOverride& existing : compiled.overrides) {
        if (existing.var == id) {
          existing.value = delta.value;
          found = true;
        }
      }
      if (!found) compiled.overrides.push_back({id, delta.value});
    }
    std::sort(compiled.overrides.begin(), compiled.overrides.end(),
              [](const prov::VarOverride& a, const prov::VarOverride& b) {
                return a.var < b.var;
              });
    max_override_width = std::max(max_override_width,
                                  compiled.overrides.size());
    core->compiled_.push_back(std::move(compiled));
  }

  const std::size_t n = scenarios.size();
  const BatchOptions pinned =
      ResolveOptions(*session, options, n, max_override_width);
  core->engine_ = pinned.sweep;
  core->lanes_ = pinned.sweep == BatchOptions::Sweep::kBlocked
                     ? pinned.block_lanes
                     : 1;
  const std::size_t threads = pinned.num_threads;
  core->num_threads_ = threads;
  core->num_blocks_ = (n + core->lanes_ - 1) / core->lanes_;

  // Per-block override-union skeletons (blocked kernel only): the sorted
  // unions and dense row indexes, built once here; MakeOverlay() binds the
  // value rows to each base. One table per block serves both program sides:
  // the tables are valuation-level, and both sides evaluate under the same
  // compressed-side base.
  if (core->engine_ == BatchOptions::Sweep::kBlocked) {
    core->block_skeletons_.reserve(core->num_blocks_);
    for (std::size_t b = 0; b < core->num_blocks_; ++b) {
      prov::OverrideSpan spans[prov::EvalProgram::kMaxLanes];
      const std::size_t count = std::min(core->lanes_, n - b * core->lanes_);
      for (std::size_t l = 0; l < count; ++l) {
        const std::vector<prov::VarOverride>& ov =
            core->compiled_[b * core->lanes_ + l].overrides;
        spans[l] = {ov.data(), ov.size()};
      }
      core->block_skeletons_.push_back(
          prov::MakeBlockOverridesSkeleton(spans, count));
    }
  }

  core->full_schedule_ = MakeSchedule(session->sweep_full_program(), threads,
                                      core->num_blocks_);
  core->compressed_schedule_ =
      MakeSchedule(session->compressed_program(), threads, core->num_blocks_);

  return std::shared_ptr<const PlanCore>(std::move(core));
}

util::Result<BatchOptions> PlanCore::PinOptions(
    const CompiledSession& session, const BatchOptions& options,
    std::size_t num_scenarios, std::size_t max_override_width) {
  COBRA_RETURN_IF_ERROR(ValidateSweepOptions(options));
  return ResolveOptions(session, options, num_scenarios, max_override_width);
}

std::shared_ptr<const PlanBaseOverlay> PlanCore::MakeOverlay(
    std::shared_ptr<const prov::Valuation> base,
    const BaseFingerprint* precomputed_fingerprint) const {
  COBRA_CHECK_MSG(base != nullptr && base->size() >= frozen_pool_size_,
                  "PlanCore::MakeOverlay: base is null or not pool-sized");
  auto overlay = std::make_shared<PlanBaseOverlay>();
  overlay->base = std::move(base);
  overlay->base_fingerprint =
      precomputed_fingerprint != nullptr
          ? *precomputed_fingerprint
          : FingerprintBase(*overlay->base, frozen_pool_size_);

  if (engine_ == BatchOptions::Sweep::kBlocked) {
    const std::size_t n = num_scenarios();
    overlay->block_tables.reserve(block_skeletons_.size());
    for (std::size_t b = 0; b < block_skeletons_.size(); ++b) {
      prov::OverrideSpan spans[prov::EvalProgram::kMaxLanes];
      const std::size_t count = std::min(lanes_, n - b * lanes_);
      for (std::size_t l = 0; l < count; ++l) {
        const std::vector<prov::VarOverride>& ov =
            compiled_[b * lanes_ + l].overrides;
        spans[l] = {ov.data(), ov.size()};
      }
      overlay->block_tables.push_back(prov::RebindBlockOverrides(
          block_skeletons_[b], *overlay->base, spans, count));
    }
  }
  return std::shared_ptr<const PlanBaseOverlay>(std::move(overlay));
}

std::shared_ptr<const PlanBaseOverlay> PlanCore::MakeOverlay(
    const prov::Valuation& base_meta_valuation,
    const BaseFingerprint* precomputed_fingerprint) const {
  auto base = std::make_shared<prov::Valuation>(base_meta_valuation);
  base->Resize(frozen_pool_size_);
  return MakeOverlay(std::shared_ptr<const prov::Valuation>(std::move(base)),
                     precomputed_fingerprint);
}

util::Result<std::shared_ptr<const BatchPlan>> BatchPlan::Create(
    std::shared_ptr<const CompiledSession> session,
    const ScenarioSet& scenarios, const prov::Valuation& base_meta_valuation,
    const BatchOptions& options,
    const PlanFingerprint* precomputed_fingerprint) {
  util::Result<std::shared_ptr<const PlanCore>> core = PlanCore::Create(
      std::move(session), scenarios, options, precomputed_fingerprint);
  if (!core.ok()) return core.status();
  return FromParts(*core, (*core)->MakeOverlay(base_meta_valuation));
}

std::shared_ptr<const BatchPlan> BatchPlan::FromParts(
    std::shared_ptr<const PlanCore> core,
    std::shared_ptr<const PlanBaseOverlay> overlay) {
  COBRA_CHECK_MSG(
      core != nullptr && overlay != nullptr && overlay->base != nullptr,
      "BatchPlan::FromParts: null core, overlay or overlay base");
  return std::shared_ptr<const BatchPlan>(
      new BatchPlan(std::move(core), std::move(overlay)));
}

}  // namespace cobra::core
