#ifndef COBRA_REL_AGGREGATE_H_
#define COBRA_REL_AGGREGATE_H_

#include <string>
#include <vector>

#include "prov/poly_set.h"
#include "prov/valuation.h"
#include "rel/annot.h"
#include "rel/expr.h"
#include "util/status.h"

namespace cobra::rel {

/// Supported aggregate functions.
enum class AggFunc {
  kSum,    ///< SUM(expr) — symbolic (semimodule), the paper's workhorse.
  kCount,  ///< COUNT(*) or COUNT(expr) — symbolic (value 1 per tuple).
  kAvg,    ///< AVG(expr) — numeric only (ratio of two semimodule values).
  kMin,    ///< MIN(expr) — numeric only.
  kMax,    ///< MAX(expr) — numeric only.
};

/// Returns "SUM", "COUNT", ...
const char* AggFuncToString(AggFunc f);

/// One aggregate of a GROUP BY query.
struct AggSpec {
  AggFunc func;
  ExprPtr input;     ///< Aggregated expression (null for COUNT(*)).
  std::string name;  ///< Output column name.
};

/// Result of a GROUP BY query with provenance.
///
/// Group keys are stored as a plain table (one row per group); each
/// symbolic aggregate cell is a provenance polynomial from the aggregate
/// semimodule: `SUM(e)` over a group = `Σ_rows annotation(row) · e(row)`,
/// normalized in N[X]. Numeric-only aggregates (AVG/MIN/MAX) are stored as
/// constants.
class GroupedResult {
 public:
  GroupedResult(Schema key_schema, std::vector<AggSpec> specs)
      : keys_(std::move(key_schema)), specs_(std::move(specs)) {}

  /// Number of groups.
  std::size_t NumGroups() const { return keys_.NumRows(); }

  /// Number of aggregates per group.
  std::size_t NumAggs() const { return specs_.size(); }

  /// The group-key table (one row per group).
  const Table& keys() const { return keys_; }
  Table* mutable_keys() { return &keys_; }

  /// The aggregate specs.
  const std::vector<AggSpec>& specs() const { return specs_; }

  /// The polynomial of aggregate `agg` in group `group`.
  const prov::Polynomial& PolyAt(std::size_t group, std::size_t agg) const {
    return cells_[group * specs_.size() + agg];
  }

  /// Appends one group's polynomials (must match NumAggs()).
  void AddGroup(std::vector<prov::Polynomial> aggs);

  /// A human-readable label for group `g`: key values joined with ",".
  std::string GroupLabel(std::size_t g) const;

  /// Extracts aggregate column `agg` as a labelled PolySet — the provenance
  /// input that COBRA compresses.
  prov::PolySet ToPolySet(std::size_t agg = 0) const;

  /// Evaluates all aggregates under `valuation` into a numeric table
  /// (key columns followed by one DOUBLE column per aggregate). Passing the
  /// neutral valuation reproduces the ordinary query answer.
  Table Evaluate(const prov::Valuation& valuation) const;

 private:
  Table keys_;
  std::vector<AggSpec> specs_;
  std::vector<prov::Polynomial> cells_;  // row-major: group * NumAggs + agg
};

/// Grouped aggregation over an annotated input.
///
/// `group_cols` name the grouping columns (empty = single global group).
/// SUM/COUNT cells are symbolic; AVG/MIN/MAX require every contributing
/// tuple to be annotated with One (otherwise the result would not commute
/// with valuations) and fail with FailedPrecondition if not.
util::Result<GroupedResult> GroupByAggregate(
    const AnnotatedTable& input, const std::vector<std::string>& group_cols,
    const std::vector<AggSpec>& aggs);

}  // namespace cobra::rel

#endif  // COBRA_REL_AGGREGATE_H_
