#ifndef COBRA_CORE_METRICS_H_
#define COBRA_CORE_METRICS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "prov/eval_program.h"
#include "prov/poly_set.h"
#include "prov/valuation.h"

namespace cobra::core {

class CompiledSession;  // core/compiled_session.h

/// Measured cost of applying valuations to full vs compressed provenance —
/// the "assignment speedup" the demo reports (§4: 47% and 79%).
struct AssignmentTiming {
  double full_seconds = 0.0;        ///< Per assignment over full provenance.
  double compressed_seconds = 0.0;  ///< Per assignment over compressed.
  std::size_t repetitions = 0;      ///< Assignments timed per side.

  /// The paper's speedup figure: (t_full - t_compressed) / t_full, in
  /// percent. 47 means the compressed assignment costs 53% of the full one.
  double SpeedupPercent() const {
    if (full_seconds <= 0.0) return 0.0;
    return 100.0 * (full_seconds - compressed_seconds) / full_seconds;
  }
};

/// Times `valuation` application to both polynomial sets using compiled
/// evaluation programs. Runs `min_reps` assignments per side (at least; more
/// when each run is very short) and reports per-assignment averages.
/// These PolySet overloads accept externally-supplied valuations: an
/// undersized valuation is extended neutrally (1.0 per the `Valuation`
/// contract) instead of aborting. The program overloads below keep the
/// pre-validated hot-path contract.
AssignmentTiming MeasureAssignment(const prov::PolySet& full,
                                   const prov::PolySet& compressed,
                                   const prov::Valuation& full_valuation,
                                   const prov::Valuation& compressed_valuation,
                                   std::size_t min_reps = 5);

/// Same measurement over already-compiled programs. This is the overload
/// `Session` uses: compiling an `EvalProgram` walks the whole polynomial
/// object graph, so callers that assign repeatedly (interactive sessions,
/// scenario batches) compile once and pass the programs here.
AssignmentTiming MeasureAssignment(const prov::EvalProgram& full_program,
                                   const prov::EvalProgram& compressed_program,
                                   const prov::Valuation& full_valuation,
                                   const prov::Valuation& compressed_valuation,
                                   std::size_t min_reps = 5);

/// Same measurement over a `CompiledSession` snapshot's programs (the
/// serving layer's precompiled artifacts). Read-only on the snapshot, so
/// safe to call from many threads concurrently.
AssignmentTiming MeasureAssignment(const CompiledSession& snapshot,
                                   const prov::Valuation& full_valuation,
                                   const prov::Valuation& compressed_valuation,
                                   std::size_t min_reps = 5);

/// Per-group difference between the answers computed from full and from
/// compressed provenance under corresponding valuations — the "changes in
/// the analysis query results" panel of the demo UI.
struct ResultDelta {
  struct Row {
    std::string label;
    double full = 0.0;
    double compressed = 0.0;
    double abs_error = 0.0;
    double rel_error = 0.0;  ///< abs / |full| (0 when full == 0).
  };
  std::vector<Row> rows;
  double max_abs_error = 0.0;
  double max_rel_error = 0.0;
  double mean_rel_error = 0.0;

  /// Renders the top-`max_rows` rows plus the error summary.
  std::string ToString(std::size_t max_rows = 10) const;
};

/// Evaluates both sides and computes the deltas. The sets must be label-
/// aligned (same group order), which `ApplyCut` preserves.
ResultDelta CompareResults(const prov::PolySet& full,
                           const prov::PolySet& compressed,
                           const prov::Valuation& full_valuation,
                           const prov::Valuation& compressed_valuation);

/// Same comparison over already-compiled programs; `labels` supplies the
/// group names (usually `full.labels()`).
ResultDelta CompareResults(const prov::EvalProgram& full_program,
                           const prov::EvalProgram& compressed_program,
                           const std::vector<std::string>& labels,
                           const prov::Valuation& full_valuation,
                           const prov::Valuation& compressed_valuation);

/// Same comparison over a `CompiledSession` snapshot's programs and labels.
/// Read-only on the snapshot, so safe to call from many threads
/// concurrently.
ResultDelta CompareResults(const CompiledSession& snapshot,
                           const prov::Valuation& full_valuation,
                           const prov::Valuation& compressed_valuation);

/// Builds the delta report from already-evaluated per-group values. The
/// batched scenario engine evaluates many scenarios in one sweep and calls
/// this per scenario, on that scenario's rows of the sweep's matrices.
ResultDelta DeltaFromValues(const std::vector<std::string>& labels,
                            std::span<const double> full_values,
                            std::span<const double> compressed_values);

/// Sensitivity ranking: which hypothetical parameter moves the answers
/// most? For every variable v in `polys`, the impact is
/// `Σ_groups |∂P_g/∂v|` evaluated at `at` — the total absolute change of
/// all results per unit change of v around the current scenario. Rows are
/// sorted by descending impact. A natural companion to compression: it
/// tells the analyst which meta-variables are worth assigning first.
struct SensitivityReport {
  struct Row {
    prov::VarId var;
    std::string name;
    double impact;
  };
  std::vector<Row> rows;  ///< Descending by impact.

  /// Renders the top-`max_rows` variables.
  std::string ToString(std::size_t max_rows = 10) const;
};
SensitivityReport AnalyzeSensitivity(const prov::PolySet& polys,
                                     const prov::Valuation& at,
                                     const prov::VarPool& pool);

}  // namespace cobra::core

#endif  // COBRA_CORE_METRICS_H_
