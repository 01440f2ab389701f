#ifndef COBRA_PROV_POLYNOMIAL_H_
#define COBRA_PROV_POLYNOMIAL_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "prov/monomial.h"
#include "prov/variable.h"

namespace cobra::prov {

class Valuation;

/// One term of a polynomial: `coeff * monomial`.
struct Term {
  Monomial monomial;
  double coeff = 0.0;

  bool operator==(const Term& other) const = default;
};

/// A provenance polynomial: a finite sum of coefficient-weighted monomials.
///
/// This is the symbolic query result of the paper — an element of the
/// semiring N[X] (extended to rational coefficients by the aggregate
/// semimodule). Terms are kept in canonical form: distinct monomials,
/// sorted deterministically, no zero coefficients. Equality is therefore
/// structural equality of the mathematical object.
class Polynomial {
 public:
  /// The zero polynomial.
  Polynomial() = default;

  /// Builds a polynomial from arbitrary terms; monomials are deduplicated by
  /// summing coefficients and zero terms are dropped.
  static Polynomial FromTerms(std::vector<Term> terms);

  /// The constant polynomial `c` (zero polynomial when c == 0).
  static Polynomial Constant(double c);

  /// The polynomial consisting of the single variable `v`.
  static Polynomial Var(VarId v);

  /// Sum of two polynomials.
  Polynomial Plus(const Polynomial& other) const;

  /// Product of two polynomials (distributes and merges).
  Polynomial TimesPoly(const Polynomial& other) const;

  /// This polynomial scaled by `factor`.
  Polynomial Scale(double factor) const;

  /// This polynomial multiplied by a single monomial.
  Polynomial TimesMonomial(const Monomial& m) const;

  /// Number of monomials — the paper's measure of provenance size.
  std::size_t NumMonomials() const { return terms_.size(); }

  /// True iff this is the zero polynomial.
  bool IsZero() const { return terms_.empty(); }

  /// The canonical term list (sorted, deduplicated, non-zero).
  const std::vector<Term>& terms() const { return terms_; }

  /// Coefficient of `m` (0 when absent).
  double CoefficientOf(const Monomial& m) const;

  /// Inserts every distinct variable id into `out`.
  void CollectVariables(std::unordered_set<VarId>* out) const;

  /// The set of distinct variables, sorted.
  std::vector<VarId> Variables() const;

  /// Largest total degree over all monomials (0 for constants/zero).
  std::uint32_t Degree() const;

  /// Evaluates under a valuation of all contained variables.
  double Eval(const Valuation& valuation) const;

  /// Replaces every variable `v` by `mapping[v]` and merges monomials that
  /// become identical by summing their coefficients. This is how an
  /// abstraction is applied (Section 2 of the paper).
  Polynomial SubstituteVars(const std::vector<VarId>& mapping) const;

  /// Partial evaluation: fixes the variables for which `fixed[v]` is true
  /// to their value in `valuation`, folding them into the coefficients and
  /// merging monomials that become identical. The result is a polynomial
  /// over the remaining variables only — specialization for an analyst who
  /// has committed part of a scenario. For a fully-fixed variable set this
  /// equals `Constant(Eval(valuation))`.
  Polynomial PartialEval(const Valuation& valuation,
                         const std::vector<bool>& fixed) const;

  /// Formal partial derivative with respect to `var`: each monomial
  /// `c·var^e·r` becomes `(c·e)·var^(e-1)·r`; monomials without `var`
  /// vanish. Evaluated at a valuation this is the result's sensitivity to
  /// the variable — how much the answer moves per unit change of the
  /// hypothetical parameter.
  Polynomial Derivative(VarId var) const;

  /// Renders e.g. "208.8 * p1 * m1 + 240 * p1 * m3". The zero polynomial
  /// renders as "0". Term order follows the canonical monomial order.
  std::string ToString(const VarPool& pool) const;

  /// True iff all coefficients match `other` within `eps` and the monomial
  /// sets are identical. Structural operator== requires exact coefficients.
  bool AlmostEquals(const Polynomial& other, double eps) const;

  bool operator==(const Polynomial& other) const = default;

 private:
  void Canonicalize();

  std::vector<Term> terms_;
};

/// Incremental polynomial builder with O(1) amortized term insertion.
///
/// Query evaluation adds millions of contributions to group polynomials;
/// the builder accumulates them in a hash map and `Build()` produces the
/// canonical `Polynomial` once at the end.
class PolynomialBuilder {
 public:
  /// Adds `coeff * m` to the polynomial under construction.
  void AddTerm(const Monomial& m, double coeff);

  /// Adds every term of `p`, scaled by `factor`.
  void AddPolynomial(const Polynomial& p, double factor = 1.0);

  /// Number of distinct monomials currently accumulated.
  std::size_t NumMonomials() const { return acc_.size(); }

  /// Produces the canonical polynomial and resets the builder.
  Polynomial Build();

 private:
  std::unordered_map<Monomial, double, MonomialHash> acc_;
};

}  // namespace cobra::prov

#endif  // COBRA_PROV_POLYNOMIAL_H_
