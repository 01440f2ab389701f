#include "core/metrics.h"

#include <algorithm>
#include <cmath>

#include "core/compiled_session.h"
#include "util/status.h"
#include "util/str.h"
#include "util/timer.h"

namespace cobra::core {

namespace {

/// Times repeated assignments over one compiled program; returns seconds
/// per assignment. Repetitions scale up until one timed block is long
/// enough for the clock resolution, and the minimum over several blocks is
/// reported (the standard microbenchmark defence against scheduler noise —
/// the minimum is the least-perturbed observation of a deterministic
/// computation).
double TimeAssignments(const prov::EvalProgram& program,
                       const prov::Valuation& valuation, std::size_t min_reps) {
  std::vector<double> out;
  // Warm-up pass (faults in the arrays).
  program.Eval(valuation, &out);
  // Calibrate the repetition count for ~1ms blocks.
  std::size_t reps = min_reps;
  double elapsed = 0.0;
  for (;;) {
    util::Timer timer;
    for (std::size_t i = 0; i < reps; ++i) program.Eval(valuation, &out);
    elapsed = timer.ElapsedSeconds();
    if (elapsed >= 1e-3 || reps >= 1u << 20) break;
    reps *= 8;
  }
  double best = elapsed / static_cast<double>(reps);
  constexpr int kBlocks = 4;
  for (int block = 1; block < kBlocks; ++block) {
    util::Timer timer;
    for (std::size_t i = 0; i < reps; ++i) program.Eval(valuation, &out);
    best = std::min(best, timer.ElapsedSeconds() / static_cast<double>(reps));
  }
  return best;
}

}  // namespace

AssignmentTiming MeasureAssignment(const prov::PolySet& full,
                                   const prov::PolySet& compressed,
                                   const prov::Valuation& full_valuation,
                                   const prov::Valuation& compressed_valuation,
                                   std::size_t min_reps) {
  prov::EvalProgram full_program(full);
  prov::EvalProgram compressed_program(compressed);
  // These overloads accept externally-supplied valuations: extend an
  // undersized one neutrally so the programs' size contract holds instead
  // of aborting inside Eval().
  prov::Valuation fv = full_valuation;
  fv.Resize(full_program.MinValuationSize());
  prov::Valuation cv = compressed_valuation;
  cv.Resize(compressed_program.MinValuationSize());
  return MeasureAssignment(full_program, compressed_program, fv, cv, min_reps);
}

AssignmentTiming MeasureAssignment(const CompiledSession& snapshot,
                                   const prov::Valuation& full_valuation,
                                   const prov::Valuation& compressed_valuation,
                                   std::size_t min_reps) {
  return MeasureAssignment(snapshot.full_program(),
                           snapshot.compressed_program(), full_valuation,
                           compressed_valuation, min_reps);
}

AssignmentTiming MeasureAssignment(const prov::EvalProgram& full_program,
                                   const prov::EvalProgram& compressed_program,
                                   const prov::Valuation& full_valuation,
                                   const prov::Valuation& compressed_valuation,
                                   std::size_t min_reps) {
  AssignmentTiming timing;
  timing.repetitions = min_reps;
  timing.full_seconds = TimeAssignments(full_program, full_valuation, min_reps);
  timing.compressed_seconds =
      TimeAssignments(compressed_program, compressed_valuation, min_reps);
  return timing;
}

ResultDelta CompareResults(const prov::PolySet& full,
                           const prov::PolySet& compressed,
                           const prov::Valuation& full_valuation,
                           const prov::Valuation& compressed_valuation) {
  prov::EvalProgram full_program(full);
  prov::EvalProgram compressed_program(compressed);
  // Externally-supplied valuations: extend neutrally instead of aborting.
  prov::Valuation fv = full_valuation;
  fv.Resize(full_program.MinValuationSize());
  prov::Valuation cv = compressed_valuation;
  cv.Resize(compressed_program.MinValuationSize());
  return CompareResults(full_program, compressed_program, full.labels(), fv,
                        cv);
}

ResultDelta CompareResults(const CompiledSession& snapshot,
                           const prov::Valuation& full_valuation,
                           const prov::Valuation& compressed_valuation) {
  return CompareResults(snapshot.full_program(), snapshot.compressed_program(),
                        snapshot.labels(), full_valuation,
                        compressed_valuation);
}

ResultDelta CompareResults(const prov::EvalProgram& full_program,
                           const prov::EvalProgram& compressed_program,
                           const std::vector<std::string>& labels,
                           const prov::Valuation& full_valuation,
                           const prov::Valuation& compressed_valuation) {
  COBRA_CHECK_MSG(full_program.NumPolys() == compressed_program.NumPolys(),
                  "CompareResults: group count mismatch");
  std::vector<double> full_values, compressed_values;
  full_program.Eval(full_valuation, &full_values);
  compressed_program.Eval(compressed_valuation, &compressed_values);
  return DeltaFromValues(labels, full_values, compressed_values);
}

ResultDelta DeltaFromValues(const std::vector<std::string>& labels,
                            std::span<const double> full_values,
                            std::span<const double> compressed_values) {
  COBRA_CHECK_MSG(full_values.size() == compressed_values.size() &&
                      full_values.size() == labels.size(),
                  "DeltaFromValues: group count mismatch");
  ResultDelta delta;
  double rel_sum = 0.0;
  for (std::size_t i = 0; i < full_values.size(); ++i) {
    ResultDelta::Row row;
    row.label = labels[i];
    row.full = full_values[i];
    row.compressed = compressed_values[i];
    row.abs_error = std::fabs(row.full - row.compressed);
    row.rel_error =
        row.full == 0.0 ? (row.abs_error == 0.0 ? 0.0 : 1.0)
                        : row.abs_error / std::fabs(row.full);
    delta.max_abs_error = std::max(delta.max_abs_error, row.abs_error);
    delta.max_rel_error = std::max(delta.max_rel_error, row.rel_error);
    rel_sum += row.rel_error;
    delta.rows.push_back(std::move(row));
  }
  delta.mean_rel_error =
      delta.rows.empty() ? 0.0 : rel_sum / static_cast<double>(delta.rows.size());
  return delta;
}

SensitivityReport AnalyzeSensitivity(const prov::PolySet& polys,
                                     const prov::Valuation& at,
                                     const prov::VarPool& pool) {
  SensitivityReport report;
  for (prov::VarId var : polys.AllVariables()) {
    double impact = 0.0;
    for (const prov::Polynomial& p : polys.polys()) {
      impact += std::fabs(p.Derivative(var).Eval(at));
    }
    report.rows.push_back(
        {var, var < pool.size() ? pool.Name(var) : "?", impact});
  }
  std::stable_sort(report.rows.begin(), report.rows.end(),
                   [](const SensitivityReport::Row& a,
                      const SensitivityReport::Row& b) {
                     return a.impact > b.impact;
                   });
  return report;
}

std::string SensitivityReport::ToString(std::size_t max_rows) const {
  std::string out =
      util::StrFormat("%-16s %16s\n", "variable", "impact (d/dv)");
  std::size_t shown = std::min(max_rows, rows.size());
  for (std::size_t i = 0; i < shown; ++i) {
    out += util::StrFormat("%-16s %16.4f\n", rows[i].name.c_str(),
                           rows[i].impact);
  }
  if (shown < rows.size()) {
    out += util::StrFormat("... (%zu more variables)\n", rows.size() - shown);
  }
  return out;
}

std::string ResultDelta::ToString(std::size_t max_rows) const {
  std::string out = util::StrFormat(
      "%-16s %14s %14s %12s %10s\n", "group", "full", "compressed", "abs_err",
      "rel_err");
  std::size_t shown = std::min(max_rows, rows.size());
  for (std::size_t i = 0; i < shown; ++i) {
    const Row& r = rows[i];
    out += util::StrFormat("%-16s %14.4f %14.4f %12.4f %9.4f%%\n",
                           r.label.c_str(), r.full, r.compressed, r.abs_error,
                           100.0 * r.rel_error);
  }
  if (shown < rows.size()) {
    out += util::StrFormat("... (%zu more groups)\n", rows.size() - shown);
  }
  out += util::StrFormat(
      "errors: max_abs=%.6f max_rel=%.4f%% mean_rel=%.4f%%\n", max_abs_error,
      100.0 * max_rel_error, 100.0 * mean_rel_error);
  return out;
}

}  // namespace cobra::core
