// Unit tests for src/common: Status/Result, strings, CSV, math (with
// ShannonEntropyBits held to a plain loop bit for bit), printer, and Rng
// held to the standard library's engine and distributions.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/csv.h"
#include "common/macros.h"
#include "common/math_util.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/table_printer.h"

namespace metaleak {
namespace {

// --- Status ---------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::Invalid("bad arg");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalid());
  EXPECT_EQ(s.message(), "bad arg");
  EXPECT_EQ(s.ToString(), "Invalid argument: bad arg");
}

TEST(StatusTest, AllFactoriesSetMatchingPredicate) {
  EXPECT_TRUE(Status::KeyError("x").IsKeyError());
  EXPECT_TRUE(Status::TypeError("x").IsTypeError());
  EXPECT_TRUE(Status::IoError("x").IsIoError());
  EXPECT_TRUE(Status::NotImplemented("x").IsNotImplemented());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
}

TEST(StatusTest, CopyPreservesState) {
  Status s = Status::KeyError("missing");
  Status t = s;
  EXPECT_EQ(s, t);
  Status u;
  u = t;
  EXPECT_EQ(u.message(), "missing");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_NE(Status::Invalid("a"), Status::Invalid("b"));
  EXPECT_NE(Status::Invalid("a"), Status::KeyError("a"));
}

// --- Result ----------------------------------------------------------------

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::Invalid("not positive");
  return x;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 5);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalid());
  EXPECT_EQ(r.ValueOr(42), 42);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  auto chain = [](int x) -> Result<int> {
    METALEAK_ASSIGN_OR_RETURN(int v, ParsePositive(x));
    return v * 2;
  };
  EXPECT_EQ(*chain(3), 6);
  EXPECT_FALSE(chain(0).ok());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> p = std::move(r).ValueUnsafe();
  EXPECT_EQ(*p, 7);
}

// --- string_util -----------------------------------------------------------

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','),
            (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("x", ','), (std::vector<std::string>{"x"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  a b  "), "a b");
  EXPECT_EQ(Trim("\t\nx\r "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringUtilTest, ParseInt64Strict) {
  EXPECT_EQ(ParseInt64("42"), 42);
  EXPECT_EQ(ParseInt64("-7"), -7);
  EXPECT_EQ(ParseInt64(" 13 "), 13);  // trimmed
  EXPECT_FALSE(ParseInt64("12.5").has_value());
  EXPECT_FALSE(ParseInt64("12x").has_value());
  EXPECT_FALSE(ParseInt64("").has_value());
  EXPECT_FALSE(ParseInt64("abc").has_value());
}

TEST(StringUtilTest, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(*ParseDouble("-1e3"), -1000.0);
  EXPECT_DOUBLE_EQ(*ParseDouble("42"), 42.0);
  EXPECT_FALSE(ParseDouble("1.2.3").has_value());
  EXPECT_FALSE(ParseDouble("").has_value());
  EXPECT_FALSE(ParseDouble("x1").has_value());
}

TEST(StringUtilTest, StartsWithAndToLower) {
  EXPECT_TRUE(StartsWith("metaleak", "meta"));
  EXPECT_FALSE(StartsWith("meta", "metaleak"));
  EXPECT_EQ(ToLower("AbC"), "abc");
}

TEST(StringUtilTest, FormatDoubleTrimsZeros) {
  EXPECT_EQ(FormatDouble(12.5, 3), "12.5");
  EXPECT_EQ(FormatDouble(12.0, 3), "12");
  // 0.125 is exactly representable; printf rounds half to even.
  EXPECT_EQ(FormatDouble(0.125, 2), "0.12");
  EXPECT_EQ(FormatDouble(0.126, 2), "0.13");
  EXPECT_EQ(FormatDouble(-3.1400, 4), "-3.14");
}

// --- CSV --------------------------------------------------------------------

TEST(CsvTest, ParsesSimpleRows) {
  auto t = ParseCsv("a,b\n1,2\n3,4\n");
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->rows.size(), 3u);
  EXPECT_EQ(t->rows[1], (std::vector<std::string>{"1", "2"}));
}

TEST(CsvTest, HandlesQuotedFields) {
  auto t = ParseCsv("name,dept\n\"Smith, John\",\"Customer \"\"X\"\"\"\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->rows[1][0], "Smith, John");
  EXPECT_EQ(t->rows[1][1], "Customer \"X\"");
}

TEST(CsvTest, HandlesNewlineInsideQuotes) {
  auto t = ParseCsv("a\n\"line1\nline2\"\n");
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->rows.size(), 2u);
  EXPECT_EQ(t->rows[1][0], "line1\nline2");
}

TEST(CsvTest, HandlesCrLf) {
  auto t = ParseCsv("a,b\r\n1,2\r\n");
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->rows.size(), 2u);
  EXPECT_EQ(t->rows[1][1], "2");
}

TEST(CsvTest, RejectsRaggedRowsWhenStrict) {
  auto t = ParseCsv("a,b\n1\n");
  EXPECT_FALSE(t.ok());
  EXPECT_TRUE(t.status().IsIoError());
}

TEST(CsvTest, PadsRaggedRowsWhenLenient) {
  CsvOptions options;
  options.strict_field_count = false;
  auto t = ParseCsv("a,b\n1\n", options);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->rows[1].size(), 2u);
}

TEST(CsvTest, RejectsUnterminatedQuote) {
  EXPECT_FALSE(ParseCsv("\"oops\n").ok());
}

TEST(CsvTest, NoTrailingNewline) {
  auto t = ParseCsv("a,b\n1,2");
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->rows.size(), 2u);
}

TEST(CsvTest, WriteRoundTrip) {
  CsvTable table;
  table.rows = {{"h1", "h 2"}, {"va,l", "x\"y"}};
  std::string text = WriteCsv(table);
  auto parsed = ParseCsv(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->rows, table.rows);
}

// --- math_util ---------------------------------------------------------------

TEST(MathUtilTest, LogChooseMatchesSmallCases) {
  EXPECT_NEAR(Choose(5, 2), 10.0, 1e-9);
  EXPECT_NEAR(Choose(10, 0), 1.0, 1e-9);
  EXPECT_NEAR(Choose(10, 10), 1.0, 1e-9);
  EXPECT_EQ(Choose(3, 5), 0.0);
  EXPECT_EQ(Choose(3, -1), 0.0);
}

TEST(MathUtilTest, LogChooseLargeStaysFinite) {
  double lc = LogChoose(100000, 50000);
  EXPECT_TRUE(std::isfinite(lc));
  EXPECT_GT(lc, 0.0);
}

TEST(MathUtilTest, BinomialExpectation) {
  EXPECT_DOUBLE_EQ(BinomialExpectation(100, 0.25), 25.0);
  EXPECT_DOUBLE_EQ(BinomialExpectation(0, 0.5), 0.0);
}

TEST(MathUtilTest, BinomialAtLeastOne) {
  EXPECT_NEAR(BinomialAtLeastOne(1, 0.5), 0.5, 1e-12);
  EXPECT_NEAR(BinomialAtLeastOne(2, 0.5), 0.75, 1e-12);
  EXPECT_DOUBLE_EQ(BinomialAtLeastOne(0, 0.3), 0.0);
  // Tiny p: stable and ~= n*p.
  EXPECT_NEAR(BinomialAtLeastOne(10, 1e-12), 1e-11, 1e-13);
}

TEST(MathUtilTest, HypergeometricExpectation) {
  // 10 draws from 100 with 30 successes: 3 expected.
  EXPECT_DOUBLE_EQ(HypergeometricExpectation(100, 30, 10), 3.0);
  EXPECT_DOUBLE_EQ(HypergeometricExpectation(0, 0, 5), 0.0);
}

TEST(MathUtilTest, HypergeometricAtLeastOne) {
  // Drawing 2 from 4 with 2 successes: P0 = C(2,2)/C(4,2) = 1/6.
  EXPECT_NEAR(HypergeometricAtLeastOne(4, 2, 2), 5.0 / 6.0, 1e-12);
  // Pigeonhole: draws + successes > population forces overlap.
  EXPECT_DOUBLE_EQ(HypergeometricAtLeastOne(4, 3, 2), 1.0);
  EXPECT_DOUBLE_EQ(HypergeometricAtLeastOne(10, 0, 5), 0.0);
}

TEST(MathUtilTest, HypergeometricPmfSumsToOne) {
  double total = 0.0;
  for (int64_t k = 0; k <= 5; ++k) {
    total += HypergeometricPmf(20, 8, 5, k);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(MathUtilTest, IntervalOverlap) {
  EXPECT_DOUBLE_EQ(IntervalOverlap(0, 2, 1, 3), 1.0);
  EXPECT_DOUBLE_EQ(IntervalOverlap(0, 1, 2, 3), 0.0);
  EXPECT_DOUBLE_EQ(IntervalOverlap(0, 5, 1, 2), 1.0);
  EXPECT_DOUBLE_EQ(IntervalOverlap(3, 1, 0, 5), 0.0);  // inverted
}

TEST(MathUtilTest, DescriptiveStats) {
  std::vector<double> xs = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Mean(xs), 2.5);
  EXPECT_NEAR(Variance(xs), 5.0 / 3.0, 1e-12);
  EXPECT_NEAR(StdDev(xs), std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({7.0}), 0.0);
}

TEST(MathUtilTest, MeanSquaredError) {
  EXPECT_DOUBLE_EQ(MeanSquaredError({1, 2}, {3, 2}), 2.0);
  EXPECT_DOUBLE_EQ(MeanSquaredError({}, {}), 0.0);
}

TEST(MathUtilTest, Quantile) {
  std::vector<double> xs = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.5), 2.5);
}

// --- ShannonEntropyBits against a plain loop --------------------------------

// -sum p log2 p with one log2 per nonzero count, in index order: the
// definition ShannonEntropyBits must reproduce bit for bit although it
// computes the term of each small count once per call.
template <typename Count>
double PlainEntropyBits(const std::vector<Count>& counts) {
  double total = 0.0;
  for (Count c : counts) total += static_cast<double>(c);
  if (total == 0.0) return 0.0;
  double entropy = 0.0;
  for (Count c : counts) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / total;
    entropy -= p * std::log2(p);
  }
  return entropy;
}

// Both overloads against the plain loop, compared as bits (a -0.0 for
// +0.0 fails).
void ExpectEntropyMatchesPlainLoop(const std::vector<uint32_t>& counts) {
  const std::vector<size_t> wide(counts.begin(), counts.end());
  const uint64_t want = std::bit_cast<uint64_t>(PlainEntropyBits(counts));
  EXPECT_EQ(std::bit_cast<uint64_t>(ShannonEntropyBits(wide)), want);
  EXPECT_EQ(std::bit_cast<uint64_t>(
                ShannonEntropyBits(counts.data(), counts.size())),
            want);
}

TEST(EntropyTableTest, MatchesPlainLoopBitForBit) {
  {
    SCOPED_TRACE("all ones");
    const std::vector<uint32_t> ones(1024, 1);
    ExpectEntropyMatchesPlainLoop(ones);
    // 1024 terms of exactly 10/1024 sum exactly.
    EXPECT_EQ(ShannonEntropyBits(ones.data(), ones.size()), 10.0);
    ExpectEntropyMatchesPlainLoop(std::vector<uint32_t>(100000, 1));
  }
  {
    SCOPED_TRACE("counts straddling the table cap");
    std::vector<uint32_t> counts;
    for (uint32_t c = 250; c <= 262; ++c) {
      counts.insert(counts.end(), {c, c, 1, c});
    }
    counts.insert(counts.end(), {255, 256, 257, 255, 256, 257});
    ExpectEntropyMatchesPlainLoop(counts);
  }
  {
    SCOPED_TRACE("interleaved zeros");
    ExpectEntropyMatchesPlainLoop(
        {0, 3, 0, 0, 7, 3, 0, 255, 0, 256, 0, 1, 0, 1, 0, 0});
  }
  {
    SCOPED_TRACE("single count");
    for (uint32_t c : {1u, 42u, 255u, 256u, 300u}) {
      ExpectEntropyMatchesPlainLoop({c});
      EXPECT_EQ(std::bit_cast<uint64_t>(
                    ShannonEntropyBits(std::vector<size_t>{c})),
                std::bit_cast<uint64_t>(0.0));
    }
    ExpectEntropyMatchesPlainLoop({0, 0, 9, 0});
  }
  {
    SCOPED_TRACE("total near 2^32");
    ExpectEntropyMatchesPlainLoop(
        {0xFFFFF000u, 1, 2, 1, 255, 256, 0, 2, 1, 4000, 1, 255});
    ExpectEntropyMatchesPlainLoop({0x7FFFFFFFu, 0x7FFFFFFFu, 1, 1, 3});
  }
  {
    SCOPED_TRACE("empty and all zero");
    ExpectEntropyMatchesPlainLoop({});
    ExpectEntropyMatchesPlainLoop({0, 0, 0});
  }
  {
    SCOPED_TRACE("random mixes of small and large counts");
    Rng rng(17);
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<uint32_t> counts(1 + rng.UniformIndex(600));
      for (uint32_t& c : counts) {
        c = static_cast<uint32_t>(rng.Bernoulli(0.8) ? rng.UniformIndex(8)
                                                     : rng.UniformIndex(700));
      }
      ExpectEntropyMatchesPlainLoop(counts);
    }
  }
}

// --- Rng ---------------------------------------------------------------------

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformDoubleInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
  EXPECT_DOUBLE_EQ(rng.UniformDouble(4.0, 4.0), 4.0);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(99);
  for (size_t k : {0u, 1u, 5u, 10u}) {
    std::vector<size_t> s = rng.SampleWithoutReplacement(10, k);
    ASSERT_EQ(s.size(), k);
    std::sort(s.begin(), s.end());
    EXPECT_TRUE(std::adjacent_find(s.begin(), s.end()) == s.end());
    for (size_t v : s) EXPECT_LT(v, 10u);
  }
  // Full draw covers everything.
  std::vector<size_t> all = rng.SampleWithoutReplacement(6, 6);
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, (std::vector<size_t>{0, 1, 2, 3, 4, 5}));
}

TEST(RngTest, SampleWithoutReplacementIsRoughlyUniform) {
  Rng rng(1234);
  std::vector<int> hits(8, 0);
  const int reps = 8000;
  for (int i = 0; i < reps; ++i) {
    for (size_t v : rng.SampleWithoutReplacement(8, 2)) hits[v]++;
  }
  // Each element appears with probability 1/4 per draw-pair.
  for (int h : hits) {
    EXPECT_NEAR(static_cast<double>(h) / reps, 0.25, 0.03);
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> v = {1, 2, 3, 4, 5, 6};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ForkedStreamsDiffer) {
  Rng parent(42);
  Rng c1 = parent.Fork();
  Rng c2 = parent.Fork();
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (c1.UniformInt(0, 1 << 30) != c2.UniformInt(0, 1 << 30)) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

// --- Rng against the standard library ------------------------------------
//
// Rng's engine is its own MT19937-64 and its hot primitives fix their
// arithmetic inline; these oracles hold both to the standard library
// output for output, so every seeded result stays where it was.

const uint64_t kOracleSeeds[] = {0,    1,
                                 21,   7777,
                                 0x9E3779B97F4A7C15ULL, ~uint64_t{0}};

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

TEST(RngOracleTest, EngineMatchesStdMt19937_64) {
  constexpr size_t kDraws = 1000000;
  for (uint64_t seed : kOracleSeeds) {
    MersenneTwister64 engine(seed);
    std::mt19937_64 oracle(seed);
    size_t first_mismatch = kDraws;
    for (size_t i = 0; i < kDraws; ++i) {
      if (engine() != oracle()) {
        first_mismatch = i;
        break;
      }
    }
    EXPECT_EQ(first_mismatch, kDraws) << "seed " << seed;
  }
}

TEST(RngOracleTest, EngineMeetsStandardCheckValue) {
  // [rand.predef]: the 10000th draw of mt19937_64 seeded with 5489.
  MersenneTwister64 engine(5489);
  for (int i = 1; i < 10000; ++i) engine();
  EXPECT_EQ(engine(), 9981545732273789042ULL);
}

TEST(RngOracleTest, CopyContinuesTheStream) {
  Rng rng(21);
  for (int i = 0; i < 500; ++i) rng.UniformIndex(10);  // past one twist
  Rng copy = rng;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(copy.engine()(), rng.engine()()) << "draw " << i;
  }
}

#ifdef __GLIBCXX__
// The primitives reproduce libstdc++'s distribution algorithms, which the
// standard leaves to each library, so these oracles need libstdc++.

TEST(RngOracleTest, RngIsTheSizeOfStdEngine) {
  EXPECT_EQ(sizeof(Rng), sizeof(std::mt19937_64));
}

TEST(RngOracleTest, UniformIndexMatchesUniformIntDistribution) {
  const size_t kSizes[] = {1,
                           2,
                           3,
                           16,
                           size_t{1} << 32,
                           (size_t{1} << 32) + 1,
                           (size_t{1} << 63) + 12345,
                           ~size_t{0}};
  for (uint64_t seed : kOracleSeeds) {
    for (size_t n : kSizes) {
      Rng rng(seed);
      std::mt19937_64 oracle(seed);
      std::uniform_int_distribution<size_t> dist(0, n - 1);
      size_t mismatches = 0;
      for (int i = 0; i < 20000; ++i) {
        mismatches += rng.UniformIndex(n) != dist(oracle);
      }
      EXPECT_EQ(mismatches, 0u) << "seed " << seed << " n " << n;
      EXPECT_EQ(rng.engine()(), oracle()) << "seed " << seed << " n " << n;
    }
  }
}

TEST(RngOracleTest, UniformDoubleMatchesUniformRealDistribution) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  const std::pair<double, double> kRanges[] = {
      {0.0, 1000.0},   {-1000.0, -3.5},
      {-1.0, 1.0},     {0.0, 8 * tiny},
      {-1e300, 1e300}, {1.0, std::nextafter(1.0, 2.0)}};
  for (uint64_t seed : kOracleSeeds) {
    for (auto [lo, hi] : kRanges) {
      Rng rng(seed);
      std::mt19937_64 oracle(seed);
      std::mt19937_64 unit(seed);
      std::uniform_real_distribution<double> dist(lo, hi);
      size_t mismatches = 0;
      size_t fused = 0;
      for (int i = 0; i < 20000; ++i) {
        const double want = dist(oracle);
        mismatches += Bits(rng.UniformDouble(lo, hi)) != Bits(want);
        // A volatile product rounds before the add. Were the expression
        // fused into an FMA (a -march with FMA and no -ffp-contract=off),
        // it would round once and differ from this.
        volatile double scaled =
            std::generate_canonical<double, 64>(unit) * (hi - lo);
        fused += Bits(scaled + lo) != Bits(want);
      }
      EXPECT_EQ(mismatches, 0u) << "seed " << seed << " [" << lo << ", "
                                << hi << ")";
      EXPECT_EQ(fused, 0u) << "seed " << seed << " [" << lo << ", " << hi
                           << ")";
      EXPECT_EQ(rng.engine()(), oracle());
    }
    // An empty range returns lo without a draw.
    Rng rng(seed);
    EXPECT_EQ(rng.UniformDouble(-4.5, -4.5), -4.5);
    EXPECT_EQ(rng.engine()(), std::mt19937_64(seed)());
  }
}

TEST(RngOracleTest, BernoulliMatchesBernoulliDistribution) {
  for (uint64_t seed : kOracleSeeds) {
    for (double p : {0.0, 0.3, 1.0}) {
      Rng rng(seed);
      std::mt19937_64 oracle(seed);
      std::bernoulli_distribution dist(p);
      size_t mismatches = 0;
      for (int i = 0; i < 20000; ++i) {
        mismatches += rng.Bernoulli(p) != dist(oracle);
      }
      EXPECT_EQ(mismatches, 0u) << "seed " << seed << " p " << p;
      EXPECT_EQ(rng.engine()(), oracle());
    }
  }
}

TEST(RngOracleTest, UniformIntMatchesUniformIntDistribution) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::pair<int64_t, int64_t> kRanges[] = {
      {-5, 5}, {7, 7}, {-(int64_t{1} << 40), int64_t{1} << 40},
      {kMin, kMin + 2}, {kMin, kMax}};
  for (uint64_t seed : kOracleSeeds) {
    for (auto [lo, hi] : kRanges) {
      Rng rng(seed);
      std::mt19937_64 oracle(seed);
      std::uniform_int_distribution<int64_t> dist(lo, hi);
      size_t mismatches = 0;
      for (int i = 0; i < 20000; ++i) {
        mismatches += rng.UniformInt(lo, hi) != dist(oracle);
      }
      EXPECT_EQ(mismatches, 0u) << "seed " << seed << " [" << lo << ", "
                                << hi << "]";
      EXPECT_EQ(rng.engine()(), oracle());
    }
  }
}

TEST(RngOracleTest, NormalMatchesNormalDistribution) {
  for (uint64_t seed : kOracleSeeds) {
    Rng rng(seed);
    std::mt19937_64 oracle(seed);
    size_t mismatches = 0;
    for (int i = 0; i < 20000; ++i) {
      // A fresh distribution per draw, as Rng::Normal constructs one.
      const double mean = i % 2 == 0 ? 0.0 : 10.0;
      const double stddev = i % 2 == 0 ? 1.0 : 2.5;
      mismatches += Bits(rng.Normal(mean, stddev)) !=
                    Bits(std::normal_distribution<double>(mean,
                                                          stddev)(oracle));
    }
    EXPECT_EQ(mismatches, 0u) << "seed " << seed;
    EXPECT_EQ(rng.engine()(), oracle());
  }
}

// Floyd's algorithm over std::uniform_int_distribution, the draw
// SampleWithoutReplacement keeps.
std::vector<size_t> StdFloyd(std::mt19937_64* engine, size_t n, size_t k) {
  std::vector<size_t> out;
  std::unordered_set<size_t> chosen;
  for (size_t j = n - k; j < n; ++j) {
    const size_t t = std::uniform_int_distribution<size_t>(0, j)(*engine);
    const size_t pick = chosen.insert(t).second ? t : j;
    if (pick == j) chosen.insert(j);
    out.push_back(pick);
  }
  return out;
}

TEST(RngOracleTest, SampleWithoutReplacementMatchesStdFloyd) {
  const std::pair<size_t, size_t> kShapes[] = {
      {10, 0}, {10, 3}, {10, 10}, {1000, 999}, {size_t{1} << 40, 69}};
  for (uint64_t seed : kOracleSeeds) {
    for (auto [n, k] : kShapes) {
      Rng rng(seed);
      std::mt19937_64 oracle(seed);
      EXPECT_EQ(rng.SampleWithoutReplacement(n, k), StdFloyd(&oracle, n, k))
          << "seed " << seed << " n " << n << " k " << k;
      EXPECT_EQ(rng.engine()(), oracle());
    }
  }
}

TEST(RngOracleTest, ForkSeedAndForkMatchStdEngine) {
  for (uint64_t seed : kOracleSeeds) {
    Rng rng(seed);
    std::mt19937_64 oracle(seed);
    for (int i = 0; i < 4; ++i) {
      const uint64_t a = oracle();
      const uint64_t b = oracle();
      const uint64_t child_seed =
          a ^ (b * 0xBF58476D1CE4E5B9ULL + 0x94D049BB133111EBULL);
      Rng child = i % 2 == 0 ? Rng(rng.ForkSeed()) : rng.Fork();
      std::mt19937_64 child_oracle(child_seed);
      for (int d = 0; d < 1000; ++d) {
        ASSERT_EQ(child.engine()(), child_oracle()) << "seed " << seed;
      }
    }
    EXPECT_EQ(rng.engine()(), oracle());
  }
}

// A bit generator that returns one fixed value, to feed
// std::generate_canonical the conversion's edge cases.
struct FixedBits {
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return bits; }
  uint64_t bits;
};

TEST(RngOracleTest, CanonicalDoubleMatchesGenerateCanonical) {
  const uint64_t p53 = uint64_t{1} << 53;
  const uint64_t p63 = uint64_t{1} << 63;
  const uint64_t top = ~uint64_t{0};
  for (uint64_t bits : {uint64_t{0}, uint64_t{1}, p53 - 1, p53 + 1, p63,
                        p63 + 1, top - 1024, top - 1023, top}) {
    FixedBits engine{bits};
    EXPECT_EQ(Bits(Rng::CanonicalDouble(bits)),
              Bits(std::generate_canonical<double, 64>(engine)))
        << bits;
  }
  // 2^64 - 1024 and 2^64 - 1 round to 1, which clamps below it.
  EXPECT_EQ(Rng::CanonicalDouble(top - 1023), std::nextafter(1.0, 0.0));
  EXPECT_EQ(Rng::CanonicalDouble(top), std::nextafter(1.0, 0.0));
}
#endif  // __GLIBCXX__

// --- TablePrinter -------------------------------------------------------------

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter p("Title");
  p.SetHeader({"a", "long-header"});
  p.AddRow({"wide-cell", "1"});
  std::string out = p.ToString();
  EXPECT_NE(out.find("Title"), std::string::npos);
  EXPECT_NE(out.find("long-header"), std::string::npos);
  EXPECT_NE(out.find("wide-cell"), std::string::npos);
}

TEST(TablePrinterTest, PadsShortRows) {
  TablePrinter p;
  p.SetHeader({"a", "b", "c"});
  p.AddRow({"1"});
  EXPECT_EQ(p.num_rows(), 1u);
  EXPECT_FALSE(p.ToString().empty());
}

TEST(TablePrinterTest, MarkdownHasSeparator) {
  TablePrinter p;
  p.SetHeader({"x", "y"});
  p.AddRow({"1", "2"});
  std::string md = p.ToMarkdown();
  EXPECT_NE(md.find("|---|---|"), std::string::npos);
  EXPECT_NE(md.find("| 1 | 2 |"), std::string::npos);
}

}  // namespace
}  // namespace metaleak
