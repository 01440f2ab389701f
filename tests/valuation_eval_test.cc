// Tests for valuations, PolySet and the compiled EvalProgram.

#include <gtest/gtest.h>

#include "prov/eval_program.h"
#include "prov/parser.h"
#include "prov/poly_set.h"
#include "prov/valuation.h"
#include "util/rng.h"

namespace cobra::prov {
namespace {

class ValuationTest : public ::testing::Test {
 protected:
  VarPool pool_;
  VarId x_ = pool_.Intern("x");
  VarId y_ = pool_.Intern("y");
};

TEST_F(ValuationTest, DefaultsToNeutralOne) {
  Valuation v(pool_);
  EXPECT_EQ(v.size(), pool_.size());
  EXPECT_DOUBLE_EQ(v.Get(x_), 1.0);
  EXPECT_DOUBLE_EQ(v.Get(y_), 1.0);
}

TEST_F(ValuationTest, SetAndGet) {
  Valuation v(pool_);
  v.Set(x_, 0.8);
  EXPECT_DOUBLE_EQ(v.Get(x_), 0.8);
  EXPECT_DOUBLE_EQ(v.Get(y_), 1.0);
}

TEST_F(ValuationTest, SetByNameFindsVariable) {
  Valuation v(pool_);
  EXPECT_TRUE(v.SetByName(pool_, "x", 2.5).ok());
  EXPECT_DOUBLE_EQ(v.Get(x_), 2.5);
  EXPECT_FALSE(v.SetByName(pool_, "unknown", 1.0).ok());
}

TEST_F(ValuationTest, ResizeKeepsValuesAndAddsNeutral) {
  Valuation v(1);
  v.Set(0, 3.0);
  v.Resize(4);
  EXPECT_DOUBLE_EQ(v.Get(0), 3.0);
  EXPECT_DOUBLE_EQ(v.Get(3), 1.0);
  v.Resize(2);  // shrinking is a no-op
  EXPECT_EQ(v.size(), 4u);
}

TEST_F(ValuationTest, VarPoolInternIsIdempotent) {
  EXPECT_EQ(pool_.Intern("x"), x_);
  EXPECT_EQ(pool_.Find("y"), y_);
  EXPECT_EQ(pool_.Find("zz"), kInvalidVar);
  EXPECT_TRUE(pool_.Contains("x"));
  EXPECT_FALSE(pool_.Contains("zz"));
  EXPECT_EQ(pool_.Name(x_), "x");
}

class PolySetTest : public ::testing::Test {
 protected:
  PolySet MakeSet() {
    PolySet set;
    set.Add("a", ParsePolynomial("2 * x + y", &pool_).ValueOrDie());
    set.Add("b", ParsePolynomial("x * y + 3", &pool_).ValueOrDie());
    return set;
  }
  VarPool pool_;
};

TEST_F(PolySetTest, TotalsAndVariables) {
  PolySet set = MakeSet();
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.TotalMonomials(), 4u);
  EXPECT_EQ(set.NumDistinctVariables(), 2u);
  EXPECT_EQ(set.AllVariables().size(), 2u);
}

TEST_F(PolySetTest, SubstituteAppliesToAll) {
  PolySet set = MakeSet();
  VarId z = pool_.Intern("z");
  std::vector<VarId> mapping{z, z, z};
  PolySet mapped = set.SubstituteVars(mapping);
  EXPECT_EQ(mapped.poly(0),
            ParsePolynomial("3 * z", &pool_).ValueOrDie());
  EXPECT_EQ(mapped.poly(1),
            ParsePolynomial("z^2 + 3", &pool_).ValueOrDie());
  EXPECT_EQ(mapped.label(0), "a");
}

// ---- EvalProgram: compiled evaluation must equal naive evaluation ----

class EvalProgramTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EvalProgramTest, MatchesNaiveEvalOnRandomSets) {
  util::Rng rng(GetParam());
  VarPool pool;
  for (int i = 0; i < 6; ++i) pool.Intern("v" + std::to_string(i));

  PolySet set;
  std::size_t num_polys = 1 + rng.NextBelow(5);
  for (std::size_t p = 0; p < num_polys; ++p) {
    std::vector<Term> terms;
    std::size_t n = rng.NextBelow(8);
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<VarPower> factors;
      std::size_t k = rng.NextBelow(4);
      for (std::size_t j = 0; j < k; ++j) {
        factors.push_back({static_cast<VarId>(rng.NextBelow(6)),
                           static_cast<std::uint32_t>(1 + rng.NextBelow(3))});
      }
      terms.push_back({Monomial::FromFactors(std::move(factors)),
                       rng.NextDoubleInRange(-10, 10)});
    }
    set.Add("p" + std::to_string(p), Polynomial::FromTerms(std::move(terms)));
  }

  EvalProgram program(set);
  EXPECT_EQ(program.NumPolys(), set.size());
  EXPECT_EQ(program.NumTerms(), set.TotalMonomials());

  Valuation valuation(pool);
  for (VarId v = 0; v < pool.size(); ++v) {
    valuation.Set(v, rng.NextDoubleInRange(0.5, 2.0));
  }
  std::vector<double> compiled;
  program.Eval(valuation, &compiled);
  ASSERT_EQ(compiled.size(), set.size());
  for (std::size_t p = 0; p < set.size(); ++p) {
    EXPECT_NEAR(compiled[p], set.poly(p).Eval(valuation), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvalProgramTest,
                         ::testing::Range<std::uint64_t>(0, 25));

TEST(EvalProgramEdge, EmptySetAndEmptyPoly) {
  PolySet set;
  set.Add("zero", Polynomial());
  EvalProgram program(set);
  Valuation valuation(std::size_t{0});
  std::vector<double> out;
  program.Eval(valuation, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0], 0.0);
}

TEST(EvalProgramEdge, ConstantPolynomial) {
  VarPool pool;
  PolySet set;
  set.Add("c", Polynomial::Constant(7.5));
  EvalProgram program(set);
  std::vector<double> out;
  program.Eval(Valuation(pool), &out);
  EXPECT_DOUBLE_EQ(out[0], 7.5);
}

}  // namespace
}  // namespace cobra::prov
