// The lazy ND pools against the pool-first generator they replaced.
//
// The ND generator (Section IV-B) gives each LHS value a pool of
// K = take RHS values drawn without replacement, and each row draws a
// slot of its group's pool. The library fills a slot only when a row
// first draws it, which changes the RNG stream but not the distribution.
// The pool-first generator lives on in tests/reference/ as the oracle,
// and this suite holds the two to the same distribution:
//
//   * NdPoolDistributionTest: over 400 fixed seeds per shape, the mean
//     of each per-seed statistic (matches against a fixed real column,
//     rows whose RHS lies in the real pool, distinct RHS values per LHS
//     group, and H(Y | X)) agrees between the two generators within 4
//     standard errors, and the lazy means sit within 4 standard errors
//     of ExpectedNdRhsMatches / ExpectedNdPairMatches. The seeds are
//     fixed, so the suite is deterministic.
//   * NdPoolExactnessTest: the code-path generator agrees bit for bit
//     with the boxed lazy-pool oracle (reference::GenerateNdColumn) on
//     every code width and on real targets, and leaves the RNG at the
//     same point; an ND-only experiment sweep is bit-identical under the
//     fused scan and EvaluateLeakage at 1 and 8 threads. CI runs this
//     suite under TSan, since the kernel's scratch is thread-local and
//     the sweep's rounds run on the pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "data/datasets/synthetic.h"
#include "data/domain.h"
#include "data/encoded_batch.h"
#include "discovery/discovery_engine.h"
#include "generation/column_generators.h"
#include "generation/generation_engine.h"
#include "privacy/analytical.h"
#include "privacy/experiment.h"
#include "reference/generation_reference.h"
#include "reference/round_kernel_reference.h"

namespace metaleak {
namespace {

// One ND generation problem: a fixed LHS column over Int(0..num_lhs-1),
// Dom(Y), the fan-out and a fixed real RHS column. A categorical Dom(Y)
// is Int(0..|Dom(Y)|-1), so a value is its own domain index. For a
// categorical target every LHS value owns a planted real pool of
// take = min(K, |Dom(Y)|) values, and the real column draws from it, as
// a relation satisfying the ND would.
struct Shape {
  std::string name;
  std::vector<Value> lhs;
  size_t num_lhs = 0;
  Domain domain;
  size_t fanout = 0;
  std::vector<Value> real;
  std::vector<char> in_real_pool;  // [x * |Dom(Y)| + y], categorical only
  double epsilon = 0.0;            // continuous match radius
};

// `num_lhs` LHS values over `rows` rows, each present at least once, in
// a fixed shuffled order so the group sizes are uneven.
std::vector<Value> LhsColumn(size_t rows, size_t num_lhs, Rng* rng) {
  std::vector<Value> lhs;
  for (size_t r = 0; r < rows; ++r) {
    const size_t x = r < num_lhs ? r : rng->UniformIndex(num_lhs);
    lhs.push_back(Value::Int(static_cast<int64_t>(x)));
  }
  rng->Shuffle(&lhs);
  return lhs;
}

Shape CategoricalShape(std::string name, size_t rows, size_t num_lhs,
                       size_t domain_size, size_t fanout) {
  Rng rng(domain_size * 1000 + fanout);
  Shape shape;
  shape.name = std::move(name);
  shape.lhs = LhsColumn(rows, num_lhs, &rng);
  shape.num_lhs = num_lhs;
  std::vector<Value> values;
  for (size_t i = 0; i < domain_size; ++i) {
    values.push_back(Value::Int(static_cast<int64_t>(i)));
  }
  shape.domain = Domain::Categorical(values);
  shape.fanout = fanout;
  const size_t take = std::min(fanout, domain_size);
  std::vector<std::vector<size_t>> pools;
  shape.in_real_pool.assign(num_lhs * domain_size, 0);
  for (size_t x = 0; x < num_lhs; ++x) {
    pools.push_back(rng.SampleWithoutReplacement(domain_size, take));
    for (size_t y : pools.back()) shape.in_real_pool[x * domain_size + y] = 1;
  }
  for (const Value& x : shape.lhs) {
    shape.real.push_back(values[rng.Choice(pools[x.AsInt()])]);
  }
  return shape;
}

Shape ContinuousShape(size_t rows, size_t num_lhs, size_t fanout) {
  Rng rng(4242);
  Shape shape;
  shape.name = "continuous";
  shape.lhs = LhsColumn(rows, num_lhs, &rng);
  shape.num_lhs = num_lhs;
  shape.domain = Domain::Continuous(0.0, 100.0);
  shape.fanout = fanout;
  shape.epsilon = 1.0;
  for (size_t r = 0; r < rows; ++r) {
    shape.real.push_back(Value::Real(rng.UniformDouble(0.0, 100.0)));
  }
  return shape;
}

// The shapes both suites run: a 16-value domain at three fan-outs, a
// fan-out above the domain size (take = |Dom(Y)|), K = 1, many small
// groups, three large groups and a continuous target.
std::vector<Shape> Shapes() {
  return {CategoricalShape("dom16_k2", 400, 40, 16, 2),
          CategoricalShape("dom16_k6", 400, 40, 16, 6),
          CategoricalShape("dom16_k14", 400, 40, 16, 14),
          CategoricalShape("k_above_domain", 400, 40, 8, 12),
          CategoricalShape("k1", 400, 40, 16, 1),
          CategoricalShape("wide_lhs_500_of_1000", 1000, 500, 64, 35),
          CategoricalShape("three_groups", 1500, 3, 64, 35),
          ContinuousShape(400, 40, 6)};
}

// --- Distribution gate ---------------------------------------------------------

enum Stat { kMatches, kPoolHits, kDistinctPerGroup, kCondEntropy, kNumStats };
const char* const kStatNames[kNumStats] = {
    "matches", "pair matches", "distinct RHS per group", "H(Y|X)"};

// Per-seed statistics of one generated RHS column.
std::vector<double> Measure(const Shape& shape, const std::vector<Value>& y) {
  const size_t n = y.size();
  const bool categorical = shape.domain.is_categorical();
  const size_t domain_size = shape.domain.values().size();
  std::vector<double> stats(kNumStats, 0.0);
  // (LHS value, RHS key) per row; the RHS key is the domain index or the
  // double itself.
  std::vector<std::pair<int64_t, double>> pairs;
  pairs.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    const int64_t x = shape.lhs[r].AsInt();
    if (categorical) {
      const int64_t v = y[r].AsInt();
      stats[kMatches] += v == shape.real[r].AsInt();
      stats[kPoolHits] += shape.in_real_pool[x * domain_size + v];
      pairs.emplace_back(x, static_cast<double>(v));
    } else {
      const double v = y[r].AsNumeric();
      stats[kMatches] +=
          std::abs(v - shape.real[r].AsNumeric()) <= shape.epsilon;
      pairs.emplace_back(x, v);
    }
  }
  // A uniform guess of X is right with probability 1/|D_X|, so a row
  // counts as a correctly generated (X, Y) pair with probability
  // P(Y in the real pool) / |D_X| (Section IV-B).
  stats[kPoolHits] /= static_cast<double>(shape.num_lhs);

  // Distinct (x, y) pairs per group, and H(Y | X) = sum over pairs of
  // n_xy/n * log2(n_x / n_xy).
  std::sort(pairs.begin(), pairs.end());
  size_t groups = 0;
  size_t distinct_pairs = 0;
  for (size_t i = 0; i < n;) {
    size_t end = i;
    while (end < n && pairs[end].first == pairs[i].first) ++end;
    ++groups;
    const double n_x = static_cast<double>(end - i);
    for (size_t j = i; j < end;) {
      size_t run = j;
      while (run < end && pairs[run].second == pairs[j].second) ++run;
      ++distinct_pairs;
      const double n_xy = static_cast<double>(run - j);
      stats[kCondEntropy] +=
          n_xy / static_cast<double>(n) * std::log2(n_x / n_xy);
      j = run;
    }
    i = end;
  }
  stats[kDistinctPerGroup] =
      static_cast<double>(distinct_pairs) / static_cast<double>(groups);
  return stats;
}

struct Moments {
  double sum = 0.0;
  double sum_sq = 0.0;
  size_t count = 0;

  void Add(double x) {
    sum += x;
    sum_sq += x * x;
    ++count;
  }
  double mean() const { return sum / static_cast<double>(count); }
  // Squared standard error of the mean.
  double se2() const {
    const double c = static_cast<double>(count);
    const double var = std::max(0.0, (sum_sq - sum * sum / c) / (c - 1.0));
    return var / c;
  }
};

// The library's ND generator on a batch whose column 0 holds the first
// `num_rows` LHS values (codes in ascending value order, or doubles) and
// whose column 1 is the target at `width`, decoded back to Values.
std::vector<Value> GenerateThroughBatch(const Shape& shape, bool real_lhs,
                                        CodeWidth width, size_t num_rows,
                                        Rng* rng) {
  using Kind = EncodedBatch::ColumnKind;
  const bool categorical = shape.domain.is_categorical();
  EncodedBatch batch;
  batch.Configure({real_lhs ? Kind::kReals : Kind::kCodes,
                   categorical ? Kind::kCodes : Kind::kReals},
                  {CodeWidth::kU32, width});
  batch.ResetRows(num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    const int64_t x = shape.lhs[r].AsInt();
    if (real_lhs) {
      batch.reals(0)[r] = static_cast<double>(x);
    } else {
      batch.set_code(0, r, static_cast<uint32_t>(x) + 1);
    }
  }
  GenerateNdColumnEncoded(0, shape.domain, num_rows, shape.fanout, rng,
                          &batch, 1);
  std::vector<Value> out;
  for (size_t r = 0; r < num_rows; ++r) {
    out.push_back(categorical
                      ? shape.domain.values()[batch.code_at(1, r) - 1]
                      : Value::Real(batch.reals(1)[r]));
  }
  return out;
}

// One ND generator run over the whole shape.
using NdGenerator = std::vector<Value> (*)(const Shape&, Rng*);

// The library's lazy pools as the attack rounds run them, on u32 codes.
std::vector<Value> LazyPools(const Shape& shape, Rng* rng) {
  return GenerateThroughBatch(shape, /*real_lhs=*/false, CodeWidth::kU32,
                              shape.lhs.size(), rng);
}

std::vector<Value> PoolFirst(const Shape& shape, Rng* rng) {
  return reference::PoolFirstNdColumn(shape.lhs, shape.domain,
                                      shape.lhs.size(), shape.fanout, rng);
}

constexpr size_t kSeeds = 400;

// Moments of every statistic over kSeeds runs of `generate`; seed s of
// the run uses Rng(first_seed + s).
std::vector<Moments> Sample(const Shape& shape, NdGenerator generate,
                            uint64_t first_seed) {
  std::vector<Moments> moments(kNumStats);
  for (uint64_t s = 0; s < kSeeds; ++s) {
    Rng rng(first_seed + s);
    const std::vector<Value> y = generate(shape, &rng);
    const std::vector<double> stats = Measure(shape, y);
    for (size_t i = 0; i < kNumStats; ++i) moments[i].Add(stats[i]);
  }
  return moments;
}

// Checks the library's lazy pools against the pool-first oracle and the
// closed forms.
void ExpectSameDistribution(const Shape& shape) {
  SCOPED_TRACE(shape.name);
  // Disjoint seed ranges keep the two samples independent.
  const std::vector<Moments> got = Sample(shape, LazyPools, 1);
  const std::vector<Moments> want = Sample(shape, PoolFirst, 1 + kSeeds);
  const bool categorical = shape.domain.is_categorical();
  double max_z = 0.0;
  for (size_t i = 0; i < kNumStats; ++i) {
    if (i == kPoolHits && !categorical) continue;
    const double gap = got[i].mean() - want[i].mean();
    const double se = std::sqrt(got[i].se2() + want[i].se2());
    if (se > 0.0) max_z = std::max(max_z, std::abs(gap) / se);
    EXPECT_LE(std::abs(gap), 4.0 * se + 1e-12)
        << kStatNames[i] << ": lazy " << got[i].mean() << ", pool-first "
        << want[i].mean() << ", se " << se;
  }
  std::printf("[ %s ] largest |z| lazy vs pool-first: %.2f\n",
              shape.name.c_str(), max_z);

  const size_t n = shape.lhs.size();
  double expected_matches = 0.0;
  if (categorical) {
    expected_matches = ExpectedNdRhsMatches(n, shape.domain);
    const size_t take =
        std::min(shape.fanout, shape.domain.values().size());
    std::vector<Value> lhs_values;
    for (size_t x = 0; x < shape.num_lhs; ++x) {
      lhs_values.push_back(Value::Int(static_cast<int64_t>(x)));
    }
    const double expected_pairs = ExpectedNdPairMatches(
        n, Domain::Categorical(lhs_values), shape.domain, take);
    EXPECT_NEAR(got[kPoolHits].mean(), expected_pairs,
                4.0 * std::sqrt(got[kPoolHits].se2()) + 1e-9)
        << "outside the ExpectedNdPairMatches band";
  } else {
    // Each real value's epsilon ball, clipped to the domain, over the
    // range: the exact expectation for this fixed real column.
    for (const Value& v : shape.real) {
      const double x = v.AsNumeric();
      expected_matches +=
          (std::min(shape.domain.hi(), x + shape.epsilon) -
           std::max(shape.domain.lo(), x - shape.epsilon)) /
          shape.domain.range();
    }
  }
  EXPECT_NEAR(got[kMatches].mean(), expected_matches,
              4.0 * std::sqrt(got[kMatches].se2()) + 1e-9)
      << "outside the expected-matches band";
}

TEST(NdPoolDistributionTest, LazyPoolsMatchPoolFirstOnEveryShape) {
  for (const Shape& shape : Shapes()) ExpectSameDistribution(shape);
}

// --- Exactness: the library against the boxed oracle ------------------------

// Bitwise equality: doubles by their bits, other Values by ==.
bool SameBits(const Value& a, const Value& b) {
  if (!a.is_double() || !b.is_double()) return a == b;
  const double x = a.AsNumeric();
  const double y = b.AsNumeric();
  return std::memcmp(&x, &y, sizeof(x)) == 0;
}

TEST(NdPoolExactnessTest, EncodedTwinMatchesValueTwinOnEveryWidth) {
  for (const Shape& shape : Shapes()) {
    const std::vector<CodeWidth> widths =
        shape.domain.is_categorical()
            ? std::vector<CodeWidth>{CodeWidth::kU8, CodeWidth::kU16,
                                     CodeWidth::kU32}
            : std::vector<CodeWidth>{CodeWidth::kU32};
    const size_t n = shape.lhs.size();
    for (CodeWidth width : widths) {
      for (bool real_lhs : {false, true}) {
        for (size_t rows : {size_t{0}, size_t{1}, n}) {
          SCOPED_TRACE(testing::Message()
                       << shape.name << " width "
                       << CodeWidthName(width) << " real_lhs "
                       << real_lhs << " rows " << rows);
          const uint64_t seed = 7 + rows + static_cast<uint64_t>(width);
          Rng coded(seed);
          Rng boxed(seed);
          const std::vector<Value> got =
              GenerateThroughBatch(shape, real_lhs, width, rows, &coded);
          const std::vector<Value> lhs(shape.lhs.begin(),
                                       shape.lhs.begin() + rows);
          const std::vector<Value> want =
              reference::GenerateNdColumn(lhs, shape.domain, rows,
                                          shape.fanout, &boxed);
          ASSERT_EQ(got.size(), want.size());
          for (size_t r = 0; r < rows; ++r) {
            ASSERT_TRUE(SameBits(got[r], want[r]))
                << "row " << r << ": " << got[r].ToString() << " vs "
                << want[r].ToString();
          }
          EXPECT_EQ(coded.engine()(), boxed.engine()());
        }
      }
    }
  }
}

TEST(NdPoolExactnessTest, NdOnlySweepIsBitIdenticalAcrossPathsAndThreads) {
  // The profiled Zipf package discloses ND edges onto u8, u16 and u32
  // code targets and onto both continuous columns.
  Relation relation =
      std::move(datasets::SyntheticZipfScale(2000, 21)).ValueOrDie();
  auto report = ProfileRelation(relation, DiscoveryOptions{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_FALSE(
      report->metadata.dependencies.OfKind(DependencyKind::kNumerical)
          .empty());

  ExperimentEngine engine(relation, report->metadata);
  ExperimentConfig config;
  config.rounds = 12;
  std::vector<std::vector<MethodResult>> sweeps;
  for (bool value_path : {false, true}) {
    for (size_t threads : {1u, 8u}) {
      config.use_value_path = value_path;
      config.threads = threads;
      auto result = engine.RunAll({GenerationMethod::kNd}, config);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      sweeps.push_back(std::move(*result));
    }
  }
  for (size_t i = 1; i < sweeps.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_EQ(sweeps[i].size(), 1u);
    EXPECT_EQ(sweeps[i][0].round_seeds, sweeps[0][0].round_seeds);
    ASSERT_EQ(sweeps[i][0].attributes.size(),
              sweeps[0][0].attributes.size());
    for (size_t c = 0; c < sweeps[0][0].attributes.size(); ++c) {
      const MethodAttributeResult& x = sweeps[0][0].attributes[c];
      const MethodAttributeResult& y = sweeps[i][0].attributes[c];
      SCOPED_TRACE(x.name);
      EXPECT_EQ(x.covered, y.covered);
      EXPECT_EQ(x.mean_matches, y.mean_matches);
      EXPECT_EQ(x.stddev_matches, y.stddev_matches);
      ASSERT_EQ(x.mean_mse.has_value(), y.mean_mse.has_value());
      if (x.mean_mse.has_value()) {
        EXPECT_EQ(*x.mean_mse, *y.mean_mse);
      }
    }
  }
}

}  // namespace
}  // namespace metaleak
