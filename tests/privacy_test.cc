// Tests for src/privacy: leakage metrics (Defs 2.2/2.3), identifiability
// (Def 2.1), analytical models, and the Monte-Carlo experiment runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "data/datasets/employee.h"
#include "data/domain.h"
#include "data/encoded_relation.h"
#include "partition/pli_cache.h"
#include "discovery/discovery_engine.h"
#include "generation/generation_engine.h"
#include "privacy/analytical.h"
#include "privacy/experiment.h"
#include "privacy/identifiability.h"
#include "privacy/leakage.h"

namespace metaleak {
namespace {

Relation MakeRelation(std::vector<Attribute> attrs,
                      std::vector<std::vector<Value>> cols) {
  return std::move(Relation::Make(Schema(std::move(attrs)), std::move(cols)))
      .ValueOrDie();
}

Attribute Cat(const char* name) {
  return {name, DataType::kString, SemanticType::kCategorical};
}
Attribute Cont(const char* name) {
  return {name, DataType::kDouble, SemanticType::kContinuous};
}

std::vector<Value> Strs(std::initializer_list<const char*> xs) {
  std::vector<Value> out;
  for (const char* x : xs) out.push_back(Value::Str(x));
  return out;
}

std::vector<Value> Reals(std::initializer_list<double> xs) {
  std::vector<Value> out;
  for (double x : xs) out.push_back(Value::Real(x));
  return out;
}

// --- Leakage ---------------------------------------------------------------

TEST(LeakageTest, CategoricalExactMatchAtSameIndex) {
  Relation real = MakeRelation({Cat("c")}, {Strs({"a", "b", "c"})});
  Relation syn = MakeRelation({Cat("c")}, {Strs({"a", "c", "c"})});
  auto matches = CountCategoricalMatches(real, syn, 0);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(*matches, 2u);  // index 0 and 2; index 1 differs
}

TEST(LeakageTest, CategoricalSkipsRealNulls) {
  Relation real = MakeRelation(
      {Cat("c")}, {{Value::Str("a"), Value::Null(), Value::Str("c")}});
  Relation syn = MakeRelation({Cat("c")}, {Strs({"a", "b", "x"})});
  auto matches = CountCategoricalMatches(real, syn, 0);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(*matches, 1u);
}

TEST(LeakageTest, CategoricalNumericCrossTypeMatches) {
  // Real int column vs synthetic double draws: 22 == 22.0 must count.
  Relation real = MakeRelation(
      {{"n", DataType::kInt64, SemanticType::kCategorical}},
      {{Value::Int(22), Value::Int(5)}});
  Relation syn = MakeRelation(
      {{"n", DataType::kDouble, SemanticType::kCategorical}},
      {{Value::Real(22.0), Value::Real(4.0)}});
  auto matches = CountCategoricalMatches(real, syn, 0);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(*matches, 1u);
}

TEST(LeakageTest, ContinuousEpsilonBall) {
  Relation real = MakeRelation({Cont("x")}, {Reals({10, 20, 30})});
  Relation syn = MakeRelation({Cont("x")}, {Reals({10.5, 25, 29.9})});
  auto m1 = CountContinuousMatches(real, syn, 0, 1.0);
  ASSERT_TRUE(m1.ok());
  EXPECT_EQ(*m1, 2u);  // 10.5 and 29.9 inside +/-1
  auto m0 = CountContinuousMatches(real, syn, 0, 0.0);
  ASSERT_TRUE(m0.ok());
  EXPECT_EQ(*m0, 0u);
  EXPECT_FALSE(CountContinuousMatches(real, syn, 0, -1.0).ok());
}

TEST(LeakageTest, MseMatchesHandComputation) {
  Relation real = MakeRelation({Cont("x")}, {Reals({1, 2})});
  Relation syn = MakeRelation({Cont("x")}, {Reals({2, 4})});
  auto mse = AttributeMse(real, syn, 0);
  ASSERT_TRUE(mse.ok());
  EXPECT_DOUBLE_EQ(*mse, (1.0 + 4.0) / 2.0);
}

TEST(LeakageTest, RejectsMisalignedRelations) {
  Relation real = MakeRelation({Cat("c")}, {Strs({"a", "b"})});
  Relation syn = MakeRelation({Cat("c")}, {Strs({"a"})});
  EXPECT_FALSE(CountCategoricalMatches(real, syn, 0).ok());
  Relation renamed = MakeRelation({Cat("other")}, {Strs({"a", "b"})});
  EXPECT_FALSE(CountCategoricalMatches(real, renamed, 0).ok());
}

TEST(LeakageTest, EvaluateLeakageCoversAllAttributes) {
  Relation real = MakeRelation({Cat("c"), Cont("x")},
                               {Strs({"a", "b"}), Reals({1, 2})});
  Relation syn = MakeRelation({Cat("c"), Cont("x")},
                              {Strs({"a", "a"}), Reals({1.001, 5})});
  LeakageOptions options;
  options.absolute_epsilon = 0.01;
  auto report = EvaluateLeakage(real, syn, options);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->attributes.size(), 2u);
  EXPECT_EQ(report->attributes[0].matches, 1u);
  EXPECT_EQ(report->attributes[1].matches, 1u);
  ASSERT_TRUE(report->attributes[1].mse.has_value());
  EXPECT_EQ(report->TotalCategoricalMatches(), 1u);
  EXPECT_TRUE(report->ForAttribute(1).ok());
  EXPECT_FALSE(report->ForAttribute(9).ok());
}

TEST(LeakageTest, PerfectCopyLeaksEverything) {
  Relation real = datasets::Employee();
  auto report = EvaluateLeakage(real, real);
  ASSERT_TRUE(report.ok());
  for (const AttributeLeakage& a : report->attributes) {
    EXPECT_EQ(a.matches, real.num_rows());
    EXPECT_DOUBLE_EQ(a.match_rate, 1.0);
    if (a.mse.has_value()) EXPECT_DOUBLE_EQ(*a.mse, 0.0);
  }
}

// --- Identifiability ----------------------------------------------------------

TEST(IdentifiabilityTest, UniqueRowsPerSubset) {
  // Name is a key: all unique. Age has a duplicate (22).
  Relation employee = datasets::Employee();
  auto by_name = UniqueRows(employee, AttributeSet::Single(0));
  ASSERT_TRUE(by_name.ok());
  for (bool u : *by_name) EXPECT_TRUE(u);
  auto by_age = UniqueRows(employee, AttributeSet::Single(1));
  ASSERT_TRUE(by_age.ok());
  EXPECT_TRUE((*by_age)[0]);   // 18 unique
  EXPECT_FALSE((*by_age)[1]);  // 22 duplicated
  EXPECT_FALSE((*by_age)[2]);
  EXPECT_TRUE((*by_age)[3]);   // 26 unique
}

TEST(IdentifiabilityTest, FractionAndAnySubset) {
  Relation employee = datasets::Employee();
  auto frac_age = IdentifiableFraction(employee, AttributeSet::Single(1));
  ASSERT_TRUE(frac_age.ok());
  EXPECT_DOUBLE_EQ(*frac_age, 0.5);
  // With subsets of size 1, Name already identifies everyone.
  auto any1 = IdentifiableByAnySubset(employee, 1);
  ASSERT_TRUE(any1.ok());
  EXPECT_DOUBLE_EQ(*any1, 1.0);
}

TEST(IdentifiabilityTest, SupersetPreservesUniqueness) {
  Relation employee = datasets::Employee();
  // Age alone: 50%. Age+Department: Bob(22,CS) unique, Charlie(22,Sales)
  // unique -> 100%.
  auto frac = IdentifiableFraction(employee, AttributeSet::Of({1, 2}));
  ASSERT_TRUE(frac.ok());
  EXPECT_DOUBLE_EQ(*frac, 1.0);
}

TEST(IdentifiabilityTest, DiscoverUccsFindsMinimalKeys) {
  Relation employee = datasets::Employee();
  auto uccs = DiscoverUniqueColumnCombinations(employee, 2);
  ASSERT_TRUE(uccs.ok());
  // Name and Salary are single-attribute keys.
  EXPECT_NE(std::find(uccs->begin(), uccs->end(), AttributeSet::Single(0)),
            uccs->end());
  EXPECT_NE(std::find(uccs->begin(), uccs->end(), AttributeSet::Single(3)),
            uccs->end());
  // No UCC may contain another (minimality).
  for (AttributeSet a : *uccs) {
    for (AttributeSet b : *uccs) {
      if (a != b) EXPECT_FALSE(a.ContainsAll(b));
    }
  }
}

TEST(IdentifiabilityTest, ForSubsetsMatchesPerSubsetUnion) {
  Relation employee = datasets::Employee();
  EncodedRelation encoded = EncodedRelation::Encode(employee);
  PliCache cache(&encoded);
  std::vector<AttributeSet> subsets = {AttributeSet::Single(1),
                                       AttributeSet::Of({1, 2})};
  auto rows = IdentifiableRowsForSubsets(cache, subsets);
  ASSERT_TRUE(rows.ok());
  auto age = UniqueRows(encoded, AttributeSet::Single(1));
  auto age_dept = UniqueRows(encoded, AttributeSet::Of({1, 2}));
  ASSERT_TRUE(age.ok());
  ASSERT_TRUE(age_dept.ok());
  ASSERT_EQ(rows->size(), employee.num_rows());
  for (size_t r = 0; r < rows->size(); ++r) {
    EXPECT_EQ((*rows)[r], (*age)[r] || (*age_dept)[r]) << "row " << r;
  }
}

TEST(IdentifiabilityTest, ForSubsetsErroringSubsetPropagates) {
  // Regression: a chunk that errors bails with a short (possibly empty)
  // bitmap, so the OR-merge must normalize both sides to n instead of
  // assuming every chunk produced n bits. Mix valid subsets with an
  // out-of-range one so erroring and clean chunks merge, at both thread
  // counts.
  Relation employee = datasets::Employee();
  EncodedRelation encoded = EncodedRelation::Encode(employee);
  PliCache cache(&encoded);
  std::vector<AttributeSet> subsets;
  for (size_t c = 0; c < encoded.num_columns(); ++c) {
    subsets.push_back(AttributeSet::Single(c));
  }
  subsets.push_back(AttributeSet::Single(63));  // out of range
  for (size_t threads : {1, 8}) {
    SetGlobalThreadCount(threads);
    auto rows = IdentifiableRowsForSubsets(cache, subsets);
    EXPECT_FALSE(rows.ok()) << "threads=" << threads;
  }
  SetGlobalThreadCount(0);
}

TEST(IdentifiabilityTest, NoKeysInDuplicatedRelation) {
  Relation r = MakeRelation({Cat("c")}, {Strs({"a", "a"})});
  auto uccs = DiscoverUniqueColumnCombinations(r, 1);
  ASSERT_TRUE(uccs.ok());
  EXPECT_TRUE(uccs->empty());
  auto any = IdentifiableByAnySubset(r, 1);
  ASSERT_TRUE(any.ok());
  EXPECT_DOUBLE_EQ(*any, 0.0);
}

// --- Key check ahead of the identifiability sweep ---------------------------

// IdentifiableRows marks every row once some column's dictionary shows a
// key (every code, NULL included, occurs once); IdentifiableRowsForSubsets
// sweeps the subsets it is given with no such shortcut. These cases hold
// the two to each other at every width, on relations where the check
// fires and where it must not. The sweep's subsets run on pool threads,
// so the cases run at pool sizes 1, 3 and 8.
class IdentifiabilityKeyCheckTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override { SetGlobalThreadCount(GetParam()); }
  void TearDown() override { SetGlobalThreadCount(0); }
};

// "<prefix><n>", built by appending: GCC 12 misreports -Wrestrict on
// const char* + std::string.
std::string Label(const char* prefix, size_t n) {
  std::string out = prefix;
  out += std::to_string(n);
  return out;
}

// Every subset of {0..m-1} with exactly k attributes.
std::vector<AttributeSet> AllSubsetsOfSize(size_t m, size_t k) {
  std::vector<AttributeSet> out;
  for (uint32_t mask = 1; mask < (uint32_t{1} << m); ++mask) {
    std::vector<size_t> attrs;
    for (size_t c = 0; c < m; ++c) {
      if (mask & (uint32_t{1} << c)) attrs.push_back(c);
    }
    if (attrs.size() == k) out.push_back(AttributeSet::Of(attrs));
  }
  return out;
}

// IdentifiableRows at widths 1..m+1 against the sweep over every subset
// of size min(width, m), each on a fresh cache.
void ExpectRowsMatchFullSweep(const EncodedRelation& encoded) {
  const size_t m = encoded.num_columns();
  for (size_t width = 1; width <= m + 1; ++width) {
    SCOPED_TRACE("width " + std::to_string(width));
    PliCache cache(&encoded);
    Result<std::vector<bool>> got = IdentifiableRows(cache, width);
    PliCache sweep_cache(&encoded);
    Result<std::vector<bool>> want = IdentifiableRowsForSubsets(
        sweep_cache, AllSubsetsOfSize(m, std::min(width, m)));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(*got, *want);
  }
}

// Column "id" holds 0..n-1 with NULL at row 17 and, when `second_null`,
// at row 90 too; "g" and "h" repeat small cycles, and row 90 copies row
// 17's g and h. With one NULL "id" is a key. With two it is not, and
// rows 17 and 90 agree on every attribute, so no subset singles them out.
EncodedRelation KeyFixture(bool second_null) {
  constexpr int64_t kRows = 200;
  std::vector<Value> id, g, h;
  for (int64_t r = 0; r < kRows; ++r) {
    const bool null_id = r == 17 || (second_null && r == 90);
    id.push_back(null_id ? Value::Null() : Value::Int(r));
    const int64_t src = r == 90 ? 17 : r;
    g.push_back(Value::Str(Label("g", src % 7)));
    h.push_back(Value::Int(src % 11));
  }
  Relation relation = MakeRelation(
      {{"id", DataType::kInt64, SemanticType::kCategorical}, Cat("g"),
       {"h", DataType::kInt64, SemanticType::kCategorical}},
      {std::move(id), std::move(g), std::move(h)});
  return EncodedRelation::Encode(relation);
}

TEST_P(IdentifiabilityKeyCheckTest, OneNullKeyMarksEveryRowWithoutPartitions) {
  const EncodedRelation encoded = KeyFixture(/*second_null=*/false);
  ASSERT_EQ(encoded.dictionary(0).null_count(), 1u);
  ExpectRowsMatchFullSweep(encoded);
  for (size_t width = 1; width <= 3; ++width) {
    PliCache cache(&encoded);
    Result<std::vector<bool>> rows = IdentifiableRows(cache, width);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(*rows, std::vector<bool>(encoded.num_rows(), true));
    // The dictionaries answered: no partition was looked up or built.
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
  }
}

TEST_P(IdentifiabilityKeyCheckTest, TwoNullsAreNotAKeySoTheSweepRuns) {
  const EncodedRelation encoded = KeyFixture(/*second_null=*/true);
  ASSERT_EQ(encoded.dictionary(0).null_count(), 2u);
  ExpectRowsMatchFullSweep(encoded);
  for (size_t width = 1; width <= 3; ++width) {
    PliCache cache(&encoded);
    Result<std::vector<bool>> rows = IdentifiableRows(cache, width);
    ASSERT_TRUE(rows.ok());
    EXPECT_FALSE((*rows)[17]);
    EXPECT_FALSE((*rows)[90]);
    EXPECT_EQ(std::count(rows->begin(), rows->end(), true),
              static_cast<long>(encoded.num_rows()) - 2);
  }
}

// No column is a key, and the width-2 sweep reaches both of its halves:
// pairs whose count table fits the sweep's 2^20-cell budget go to the
// counting tables, and the two wide columns' pair (over 1,100 codes
// each) goes to the PLI path. The trailing rows copy leading ones, so
// some rows stay unidentifiable.
TEST_P(IdentifiabilityKeyCheckTest, KeylessSweepReachesCountingAndPliPaths) {
  constexpr size_t kRows = 3000;
  constexpr size_t kCopied = 200;
  Rng rng(29);
  std::vector<std::vector<Value>> cols(4);
  for (size_t r = 0; r < kRows; ++r) {
    if (r >= kRows - kCopied) {
      for (auto& col : cols) {
        Value copy = col[r - (kRows - kCopied)];
        col.push_back(std::move(copy));
      }
      continue;
    }
    cols[0].push_back(Value::Int(static_cast<int64_t>(rng.UniformIndex(5000))));
    cols[1].push_back(Value::Int(static_cast<int64_t>(rng.UniformIndex(5000))));
    cols[2].push_back(rng.Bernoulli(0.05)
                          ? Value::Null()
                          : Value::Str(Label("l", rng.UniformIndex(40))));
    cols[3].push_back(Value::Int(static_cast<int64_t>(rng.UniformIndex(30))));
  }
  Relation relation = MakeRelation(
      {{"wide_a", DataType::kInt64, SemanticType::kCategorical},
       {"wide_b", DataType::kInt64, SemanticType::kCategorical},
       Cat("narrow_a"),
       {"narrow_b", DataType::kInt64, SemanticType::kCategorical}},
      std::move(cols));
  const EncodedRelation encoded = EncodedRelation::Encode(relation);

  constexpr size_t kPairTableBudget = size_t{1} << 20;
  ASSERT_GE(encoded.dictionary(0).num_codes(), 1100u);
  ASSERT_GE(encoded.dictionary(1).num_codes(), 1100u);
  size_t counted = 0;
  size_t fallback = 0;
  for (size_t a = 0; a < 4; ++a) {
    const ColumnDictionary& da = encoded.dictionary(a);
    ASSERT_LT(da.num_distinct() + (da.has_null() ? 1 : 0), kRows);
    for (size_t b = a + 1; b < 4; ++b) {
      const size_t entries = size_t{da.num_codes()} *
                             encoded.dictionary(b).num_codes();
      ++(entries <= kPairTableBudget ? counted : fallback);
    }
  }
  ASSERT_GT(counted, 0u);
  ASSERT_GT(fallback, 0u);

  ExpectRowsMatchFullSweep(encoded);
  PliCache cache(&encoded);
  Result<std::vector<bool>> rows = IdentifiableRows(cache, 2);
  ASSERT_TRUE(rows.ok());
  EXPECT_GT(cache.misses(), 0u);  // the wide pair's PLI was built
  const auto identifiable = std::count(rows->begin(), rows->end(), true);
  EXPECT_GT(identifiable, 0);
  EXPECT_LT(identifiable, static_cast<long>(kRows));
}

// The EncodedRelation overload runs the key check before it builds its
// own cache, through the check the PliCache overload runs; the two must
// agree at every width, on a keyed relation and on a keyless one.
TEST_P(IdentifiabilityKeyCheckTest, EncodedOverloadAgreesWithCacheOverload) {
  for (bool second_null : {false, true}) {
    SCOPED_TRACE(second_null ? "keyless" : "keyed");
    const EncodedRelation encoded = KeyFixture(second_null);
    for (size_t width = 0; width <= encoded.num_columns() + 1; ++width) {
      SCOPED_TRACE("width " + std::to_string(width));
      PliCache cache(&encoded);
      Result<std::vector<bool>> from_cache = IdentifiableRows(cache, width);
      Result<std::vector<bool>> from_encoding =
          IdentifiableRows(encoded, width);
      ASSERT_TRUE(from_cache.ok()) << from_cache.status().ToString();
      ASSERT_TRUE(from_encoding.ok()) << from_encoding.status().ToString();
      EXPECT_EQ(*from_encoding, *from_cache);
      const auto identifiable =
          std::count(from_cache->begin(), from_cache->end(), true);
      const long n = static_cast<long>(encoded.num_rows());
      EXPECT_EQ(identifiable,
                width == 0 ? 0 : (second_null ? n - 2 : n));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, IdentifiabilityKeyCheckTest,
                         ::testing::Values(1, 3, 8));

// --- Analytical models ------------------------------------------------------------

TEST(AnalyticalTest, Example31Values) {
  // The paper's Example 3.1: N=4, |age domain|=9 -> 4/9; departments 3
  // -> 4/3.
  Domain age = Domain::Categorical({Value::Int(18), Value::Int(19),
                                    Value::Int(20), Value::Int(21),
                                    Value::Int(22), Value::Int(23),
                                    Value::Int(24), Value::Int(25),
                                    Value::Int(26)});
  Domain dept = Domain::Categorical(
      {Value::Str("Sales"), Value::Str("Customer Service"),
       Value::Str("Management")});
  EXPECT_NEAR(ExpectedRandomCategoricalMatches(4, age), 4.0 / 9.0, 1e-12);
  EXPECT_NEAR(ExpectedRandomCategoricalMatches(4, dept), 4.0 / 3.0, 1e-12);
}

TEST(AnalyticalTest, FdMappingExpectationRefines) {
  Domain big = Domain::Categorical({Value::Int(1), Value::Int(2),
                                    Value::Int(3), Value::Int(4),
                                    Value::Int(5), Value::Int(6)});
  Domain small = Domain::Categorical({Value::Int(1), Value::Int(2)});
  // |D_A| >= |D_B| (A refines B): expectation >= 1, the paper's claim.
  EXPECT_GE(ExpectedCorrectFdMappings(big, small), 1.0);
  EXPECT_DOUBLE_EQ(ExpectedCorrectFdMappings(big, small), 3.0);
}

TEST(AnalyticalTest, FdTupleExpectationEqualsRandom) {
  Domain d = Domain::Categorical({Value::Int(1), Value::Int(2),
                                  Value::Int(3)});
  EXPECT_DOUBLE_EQ(ExpectedFdRhsMatches(99, d),
                   ExpectedRandomCategoricalMatches(99, d));
}

TEST(AnalyticalTest, NdPairExpectation) {
  Domain dx = Domain::Categorical({Value::Int(1), Value::Int(2)});
  Domain dy = Domain::Categorical({Value::Int(1), Value::Int(2),
                                   Value::Int(3), Value::Int(4)});
  // N*K/(|Dx||Dy|) = 100*2/(2*4) = 25.
  EXPECT_DOUBLE_EQ(ExpectedNdPairMatches(100, dx, dy, 2), 25.0);
}

TEST(AnalyticalTest, NdAtLeastOneMatchesClosedForm) {
  Domain dy = Domain::Categorical({Value::Int(1), Value::Int(2),
                                   Value::Int(3), Value::Int(4)});
  // 1 - C(2,2)/C(4,2) = 1 - 1/6.
  EXPECT_NEAR(NdAtLeastOneCorrectMapping(dy, 2), 5.0 / 6.0, 1e-12);
}

TEST(AnalyticalTest, ContinuousRandomMatchesMonteCarlo) {
  Domain d = Domain::Continuous(0, 100);
  const double eps = 2.0;
  const size_t n = 200;
  double expected = ExpectedRandomContinuousMatches(n, d, eps);
  Rng rng(31337);
  double total = 0;
  const int reps = 3000;
  for (int rep = 0; rep < reps; ++rep) {
    size_t hits = 0;
    for (size_t i = 0; i < n; ++i) {
      double real = rng.UniformDouble(0, 100);
      double syn = rng.UniformDouble(0, 100);
      if (std::abs(real - syn) <= eps) ++hits;
    }
    total += static_cast<double>(hits);
  }
  EXPECT_NEAR(total / reps, expected, 0.25);
}

TEST(AnalyticalTest, ContinuousMseMatchesMonteCarlo) {
  Domain d = Domain::Continuous(0, 60);
  double expected = ExpectedRandomContinuousMse(d);  // 60^2/6 = 600
  EXPECT_DOUBLE_EQ(expected, 600.0);
  Rng rng(4242);
  double acc = 0;
  const int reps = 200000;
  for (int rep = 0; rep < reps; ++rep) {
    double a = rng.UniformDouble(0, 60);
    double b = rng.UniformDouble(0, 60);
    acc += (a - b) * (a - b);
  }
  EXPECT_NEAR(acc / reps, expected, 5.0);
}

TEST(AnalyticalTest, OdExpectationIsDeterministicAndBounded) {
  Domain d = Domain::Continuous(0, 100);
  double e1 = ExpectedOdMatches(132, 10, d, 1.0);
  double e2 = ExpectedOdMatches(132, 10, d, 1.0);
  EXPECT_DOUBLE_EQ(e1, e2);
  EXPECT_GE(e1, 0.0);
  EXPECT_LE(e1, 132.0);
  // Larger epsilon cannot reduce expected matches.
  EXPECT_GE(ExpectedOdMatches(132, 10, d, 5.0), e1);
}

TEST(AnalyticalTest, OdOrderStatisticsBeatRandomForManyPartitions) {
  // Order statistics concentrate: with many partitions the i-th generated
  // value is close to the i-th real value, so OD-informed generation hits
  // more often than the random baseline.
  Domain d = Domain::Continuous(0, 100);
  double od = ExpectedOdMatches(1000, 500, d, 1.0);
  double rand = ExpectedRandomContinuousMatches(1000, d, 1.0);
  EXPECT_GT(od, rand);
}

TEST(AnalyticalTest, AfdExpectationEqualsFdAtEveryErrorRate) {
  // Section IV-A: "the privacy conclusion for AFD is the same as FD".
  Domain d = Domain::Categorical({Value::Int(1), Value::Int(2),
                                  Value::Int(3), Value::Int(4)});
  double fd = ExpectedFdRhsMatches(200, d);
  for (double g3 : {0.0, 0.05, 0.2, 0.5, 1.0}) {
    EXPECT_DOUBLE_EQ(ExpectedAfdMatches(200, d, g3), fd) << "g3=" << g3;
  }
}

TEST(AnalyticalTest, OfdTransitionProbability) {
  Domain dy = Domain::Categorical(
      {Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(4),
       Value::Int(5), Value::Int(6), Value::Int(7), Value::Int(8)});
  // 8 remaining partitions over |Y|=8: forced to move, P = 0... the
  // formula gives 1 - 8/8 = 0 at step 0 and rises to 1 at the end.
  EXPECT_DOUBLE_EQ(OfdTransitionProbability(8, 0, dy), 0.0);
  EXPECT_DOUBLE_EQ(OfdTransitionProbability(8, 4, dy), 0.5);
  EXPECT_DOUBLE_EQ(OfdTransitionProbability(8, 8, dy), 1.0);
  // More steps than partitions clamps at 1.
  EXPECT_DOUBLE_EQ(OfdTransitionProbability(8, 100, dy), 1.0);
  // Monotone non-decreasing in the step.
  double prev = 0.0;
  for (size_t t = 0; t <= 8; ++t) {
    double p = OfdTransitionProbability(8, t, dy);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(AnalyticalTest, OfdExpectationDeterministicAndBounded) {
  Domain d = Domain::Continuous(0, 50);
  double e1 = ExpectedOfdMatches(100, 20, d, 0.5);
  double e2 = ExpectedOfdMatches(100, 20, d, 0.5);
  EXPECT_DOUBLE_EQ(e1, e2);
  EXPECT_GE(e1, 0.0);
  EXPECT_LE(e1, 100.0);
  // The OFD chain is the strict variant of the OD assignment; on a
  // continuous domain the two numerical evaluations agree closely.
  double od = ExpectedOdMatches(100, 20, d, 0.5);
  EXPECT_NEAR(e1, od, 0.15 * std::max(1.0, od));
}

TEST(AnalyticalTest, DdExpectationInterpolatesRestartRate) {
  Domain d = Domain::Continuous(0, 100);
  double all_restart = ExpectedDdMatches(100, d, 1.0, 5.0, 1.0);
  double expected_random = ExpectedRandomContinuousMatches(100, d, 1.0);
  EXPECT_NEAR(all_restart, expected_random, 1e-9);
}

// --- Experiment runner -------------------------------------------------------------

TEST(ExperimentTest, RejectsZeroRounds) {
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  ExperimentConfig config;
  config.rounds = 0;
  EXPECT_FALSE(RunMethod(employee, report->metadata,
                         GenerationMethod::kRandom, config)
                   .ok());
}

TEST(ExperimentTest, DeterministicGivenSeed) {
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  ExperimentConfig config;
  config.rounds = 20;
  auto a = RunMethod(employee, report->metadata, GenerationMethod::kFd,
                     config);
  auto b = RunMethod(employee, report->metadata, GenerationMethod::kFd,
                     config);
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t c = 0; c < a->attributes.size(); ++c) {
    EXPECT_DOUBLE_EQ(a->attributes[c].mean_matches,
                     b->attributes[c].mean_matches);
  }
}

TEST(ExperimentTest, RandomCoversAllAttributes) {
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  ExperimentConfig config;
  config.rounds = 5;
  auto result = RunMethod(employee, report->metadata,
                          GenerationMethod::kRandom, config);
  ASSERT_TRUE(result.ok());
  for (const MethodAttributeResult& a : result->attributes) {
    EXPECT_TRUE(a.covered);
  }
}

TEST(ExperimentTest, RandomMatchesAnalyticalExpectation) {
  // Empirical mean matches ~= N/|D| for every categorical attribute.
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  ExperimentConfig config;
  config.rounds = 4000;
  auto result = RunMethod(employee, report->metadata,
                          GenerationMethod::kRandom, config);
  ASSERT_TRUE(result.ok());
  auto domains = report->metadata.RequireDomains();
  ASSERT_TRUE(domains.ok());
  for (const MethodAttributeResult& a : result->attributes) {
    if (a.semantic != SemanticType::kCategorical) continue;
    double expected = ExpectedRandomCategoricalMatches(
        employee.num_rows(), (*domains)[a.attribute]);
    EXPECT_NEAR(a.mean_matches, expected, 0.1) << a.name;
  }
}

TEST(ExperimentTest, FdLeakageMatchesRandomWithinNoise) {
  // The paper's headline claim on the running example.
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  ExperimentConfig config;
  config.rounds = 4000;
  auto results =
      RunExperiment(employee, report->metadata,
                    {GenerationMethod::kRandom, GenerationMethod::kFd},
                    config);
  ASSERT_TRUE(results.ok());
  const MethodResult& random = (*results)[0];
  const MethodResult& fd = (*results)[1];
  for (size_t c = 0; c < random.attributes.size(); ++c) {
    if (!fd.attributes[c].covered) continue;
    if (random.attributes[c].semantic != SemanticType::kCategorical) {
      continue;
    }
    EXPECT_NEAR(fd.attributes[c].mean_matches,
                random.attributes[c].mean_matches, 0.15)
        << random.attributes[c].name;
  }
}

TEST(ExperimentTest, ThreadCountDoesNotChangeResults) {
  // Per-round seeds are drawn up front, so 1, 2 and 8 workers must
  // produce bit-identical means.
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  ExperimentConfig config;
  config.rounds = 64;
  std::vector<MethodResult> runs;
  for (size_t threads : {1u, 2u, 8u}) {
    config.threads = threads;
    auto result = RunMethod(employee, report->metadata,
                            GenerationMethod::kFd, config);
    ASSERT_TRUE(result.ok());
    runs.push_back(std::move(*result));
  }
  for (size_t i = 1; i < runs.size(); ++i) {
    for (size_t c = 0; c < runs[0].attributes.size(); ++c) {
      EXPECT_DOUBLE_EQ(runs[i].attributes[c].mean_matches,
                       runs[0].attributes[c].mean_matches);
      EXPECT_EQ(runs[i].attributes[c].covered,
                runs[0].attributes[c].covered);
      if (runs[0].attributes[c].mean_mse.has_value()) {
        EXPECT_DOUBLE_EQ(*runs[i].attributes[c].mean_mse,
                         *runs[0].attributes[c].mean_mse);
      }
    }
  }
}

TEST(ExperimentTest, UncoveredAttributesFlaggedNa) {
  // Restrict metadata to a single ND; every other attribute must be
  // covered=false under the ND method.
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  MetadataPackage pkg = report->metadata;
  DependencySet only_nd;
  for (const Dependency& d :
       pkg.dependencies.OfKind(DependencyKind::kNumerical)) {
    only_nd.Add(d);
    break;  // keep exactly one
  }
  pkg.dependencies = only_nd;
  ASSERT_EQ(pkg.dependencies.size(), 1u);
  size_t nd_rhs = pkg.dependencies.all()[0].rhs;
  ExperimentConfig config;
  config.rounds = 3;
  auto result =
      RunMethod(employee, pkg, GenerationMethod::kNd, config);
  ASSERT_TRUE(result.ok());
  for (const MethodAttributeResult& a : result->attributes) {
    EXPECT_EQ(a.covered, a.attribute == nd_rhs) << a.name;
  }
}

}  // namespace
}  // namespace metaleak
