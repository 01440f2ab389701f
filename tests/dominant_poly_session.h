// Shared test workload: a provenance set dominated by one large polynomial,
// heavy enough that batched sweeps of a few scenarios really run on several
// threads, with coefficients whose sums round differently when their
// additions are regrouped.

#ifndef COBRA_TESTS_DOMINANT_POLY_SESSION_H_
#define COBRA_TESTS_DOMINANT_POLY_SESSION_H_

#include <cstdio>
#include <string>

#include "core/scenario.h"
#include "core/session.h"

namespace cobra::core {

/// Terms of the dominant polynomial: 200 x-variables times 100 y-variables.
inline constexpr std::size_t kDominantPolyTerms = 20000;

/// Loads `Big = sum of c * x<i> * y<j>` over every (i, j), 20,000 distinct
/// terms with non-integer coefficients, plus `Small = x0 + 3 * z`, under a
/// tree G over {x0, x1}. The bound forces the cut {G}, so "G" is the one
/// meta-variable; the y-variables and z stay outside the abstraction and
/// scenarios may set them too.
inline void LoadDominantPolySession(Session* session) {
  std::string text = "Big = ";
  char coeff[32];
  for (std::size_t t = 0; t < kDominantPolyTerms; ++t) {
    if (t > 0) text += " + ";
    std::snprintf(coeff, sizeof coeff, "%.17g",
                  1.0 + static_cast<double>(t * 7919 % 1000) / 997.0);
    text += coeff;
    text += " * x" + std::to_string(t % 200) + " * y" +
            std::to_string(t / 200);
  }
  text += "\nSmall = x0 + 3 * z\n";
  session->LoadPolynomialsText(text).CheckOK();
  session->SetTreeText("G\n  x0\n  x1\n").CheckOK();
  session->SetBound(kDominantPolyTerms + 1);
  session->Compress().ValueOrDie();
}

/// `n` scenarios over the dominant-poly session's variables: G, a y-variable
/// and z with non-integer values; every fourth scenario overrides nothing.
inline ScenarioSet DominantPolyScenarios(std::size_t n) {
  ScenarioSet scenarios;
  for (std::size_t i = 0; i < n; ++i) {
    auto s = scenarios.Add("s" + std::to_string(i)).ValueOrDie();
    if (i % 4 == 3) continue;
    const double x = static_cast<double>(i + 1);
    s.Set("G", 1.0 + 0.031 * x);
    if (i % 2 == 1) s.Set("y" + std::to_string(i * 7 % 100), 0.5 + 0.113 * x);
    if (i % 3 == 0) s.Set("z", 1.5 - 0.071 * x);
  }
  return scenarios;
}

}  // namespace cobra::core

#endif  // COBRA_TESTS_DOMINANT_POLY_SESSION_H_
