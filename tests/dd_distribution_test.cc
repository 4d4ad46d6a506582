// The DD chain kernel against the std::sort generator it replaced.
//
// The DD generator (Section IV-D) walks a Markov chain over the rows in
// ascending LHS order: a row whose LHS lies within epsilon of its
// predecessor's draws its RHS from the delta ball around the
// predecessor's RHS, any other row from the whole domain. The library
// buckets rows by LHS rank with a counting sort, so tied rows take their
// steps in row order. The generator it replaced sorted row ids with
// std::sort, whose tie order the standard leaves unspecified. Tied rows
// are exchangeable, so both chains have one law; only which tied row
// takes which step differs. The std::sort generator lives on in
// tests/reference/ as the oracle:
//
//   * DdChainDistributionTest: over 240 fixed seeds per shape, the means
//     of three per-seed statistics (matches against a fixed real RHS,
//     MSE against it, and the mean |y_i - y_j| over pairs of rows that
//     share an LHS value) agree between the kernel and the oracle within
//     4 standard errors. On a tie-free LHS the two agree bit for bit.
//   * DdChainExactnessTest: both twins run one kernel, so they agree bit
//     for bit on every shape, LHS storage and code width, and leave the
//     RNG at the same point; a sweep whose DD LHS columns hold ties is
//     bit-identical on both paths at 1 and 8 threads. CI runs this suite
//     under TSan, since the kernel's scratch is thread-local and shared
//     with ND and OD on pool threads.
//   * DdChainOrderTest: on a tied LHS, walked in (LHS, row) order, every
//     step whose LHS gap is within epsilon lies within delta of its
//     predecessor, on both twins.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "data/code_column.h"
#include "data/domain.h"
#include "data/encoded_batch.h"
#include "data/relation.h"
#include "generation/column_generators.h"
#include "generation/generation_engine.h"
#include "metadata/metadata_package.h"
#include "privacy/experiment.h"
#include "reference/round_kernel_reference.h"

namespace metaleak {
namespace {

// One DD generation problem: a fixed numeric LHS column, the continuous
// Dom(Y), the thresholds and a fixed real RHS column that roughly
// follows the DD (each LHS value has a centre the real rows scatter
// around).
struct Shape {
  std::string name;
  std::vector<Value> lhs;
  Domain domain;
  double epsilon = 0.0;
  double delta = 0.0;
  std::vector<double> real;
  double match_radius = 0.0;
  // Rows per distinct LHS value, for the tie statistic.
  std::vector<std::vector<size_t>> groups;
  // Whether the LHS is stored as dictionary codes on the code path.
  bool coded = false;
};

// Draws one centre per distinct LHS value in `values`, then fills the
// real column (each row's centre plus noise) and the row groups.
void Finish(const std::vector<Value>& values, Rng* rng, Shape* shape) {
  std::map<Value, size_t> index;
  for (const Value& v : values) index.emplace(v, index.size());
  std::vector<double> centres;
  for (size_t i = 0; i < index.size(); ++i) {
    centres.push_back(rng->UniformDouble(shape->domain.lo() + 5.0,
                                         shape->domain.hi() - 5.0));
  }
  shape->groups.assign(index.size(), {});
  for (size_t r = 0; r < shape->lhs.size(); ++r) {
    const size_t k = index.at(shape->lhs[r]);
    shape->groups[k].push_back(r);
    shape->real.push_back(centres[k] + rng->UniformDouble(-2.0, 2.0));
  }
}

// Every value of `values` at least once, then uniform picks, shuffled.
std::vector<Value> Spread(const std::vector<Value>& values, size_t rows,
                          Rng* rng) {
  std::vector<Value> lhs;
  for (size_t r = 0; r < rows; ++r) {
    lhs.push_back(r < values.size() ? values[r] : rng->Choice(values));
  }
  rng->Shuffle(&lhs);
  return lhs;
}

// 24 integer LHS values in blocks of four consecutive integers, blocks 4
// apart, so at epsilon 1 a chain runs through a block and restarts at the
// next one; ~25 rows per value.
Shape CodedHeavyTies() {
  Rng rng(2301);
  Shape shape;
  shape.name = "coded_heavy_ties";
  std::vector<Value> values;
  for (int64_t k = 0; k < 24; ++k) {
    values.push_back(Value::Int(k + 3 * (k / 4)));
  }
  shape.lhs = Spread(values, 600, &rng);
  shape.domain = Domain::Continuous(0.0, 100.0);
  shape.epsilon = 1.0;
  shape.delta = 4.0;
  shape.match_radius = 5.0;
  shape.coded = true;
  Finish(values, &rng, &shape);
  return shape;
}

// 60 distinct doubles over 800 rows, as a column an FD, OD or ND derives
// from a low-cardinality one holds; gaps straddle epsilon.
Shape RealRepeated() {
  Rng rng(2302);
  Shape shape;
  shape.name = "real_repeated";
  std::vector<Value> values;
  for (int k = 0; k < 60; ++k) {
    values.push_back(Value::Real(rng.UniformDouble(0.0, 50.0)));
  }
  shape.lhs = Spread(values, 800, &rng);
  shape.domain = Domain::Continuous(0.0, 100.0);
  shape.epsilon = 0.5;
  shape.delta = 2.0;
  shape.match_radius = 5.0;
  Finish(values, &rng, &shape);
  return shape;
}

// 500 distinct doubles: no ties, so the kernel and the oracle walk the
// same chain.
Shape TieFree() {
  Rng rng(2303);
  Shape shape;
  shape.name = "real_tie_free";
  std::vector<Value> values;
  for (int k = 0; k < 500; ++k) {
    values.push_back(Value::Real(rng.UniformDouble(0.0, 100.0)));
  }
  shape.lhs = values;
  shape.domain = Domain::Continuous(-50.0, 50.0);
  shape.epsilon = 0.3;
  shape.delta = 2.0;
  shape.match_radius = 5.0;
  Finish(values, &rng, &shape);
  return shape;
}

std::vector<Shape> Shapes() {
  return {CodedHeavyTies(), RealRepeated(), TieFree()};
}

// --- The two twins -----------------------------------------------------------

std::vector<Value> ValueTwin(const Shape& shape, size_t rows, Rng* rng) {
  const std::vector<Value> lhs(shape.lhs.begin(), shape.lhs.begin() + rows);
  return GenerateDdColumn(lhs, shape.domain, rows, shape.epsilon,
                          shape.delta, rng)
      .ValueOrDie();
}

// The encoded twin on a batch whose column 0 holds the first `rows` LHS
// values (dictionary codes in ascending value order at `width`, or
// doubles) and whose column 1 is the target, decoded back to Values.
std::vector<Value> EncodedTwin(const Shape& shape, bool coded,
                               CodeWidth width, size_t rows, Rng* rng) {
  using Kind = EncodedBatch::ColumnKind;
  std::vector<Value> dictionary = shape.lhs;
  std::sort(dictionary.begin(), dictionary.end());
  dictionary.erase(std::unique(dictionary.begin(), dictionary.end()),
                   dictionary.end());
  std::vector<double> code_numeric = {0.0};
  for (const Value& v : dictionary) code_numeric.push_back(v.AsNumeric());

  EncodedBatch batch;
  batch.Configure({coded ? Kind::kCodes : Kind::kReals, Kind::kReals},
                  {width, CodeWidth::kU32});
  batch.ResetRows(rows);
  for (size_t r = 0; r < rows; ++r) {
    if (coded) {
      const size_t code =
          std::lower_bound(dictionary.begin(), dictionary.end(),
                           shape.lhs[r]) -
          dictionary.begin() + 1;
      batch.set_code(0, r, static_cast<uint32_t>(code));
    } else {
      batch.reals(0)[r] = shape.lhs[r].AsNumeric();
    }
  }
  EXPECT_TRUE(GenerateDdColumnEncoded(0, shape.domain, code_numeric, rows,
                                      shape.epsilon, shape.delta, rng,
                                      &batch, 1)
                  .ok());
  std::vector<Value> out;
  for (size_t r = 0; r < rows; ++r) {
    out.push_back(Value::Real(batch.reals(1)[r]));
  }
  return out;
}

// The code widths that hold every code of the shape's dictionary.
std::vector<CodeWidth> Widths(const Shape& shape) {
  const size_t distinct = shape.groups.size();
  std::vector<CodeWidth> widths;
  for (CodeWidth w : {CodeWidth::kU8, CodeWidth::kU16, CodeWidth::kU32}) {
    if (distinct + 1 < CodeWidthSentinel(w)) widths.push_back(w);
  }
  return widths;
}

// The kernel as the attack rounds run it: the encoded twin, on the
// shape's natural storage.
std::vector<Value> Kernel(const Shape& shape, Rng* rng) {
  return EncodedTwin(shape, shape.coded, CodeWidth::kU32, shape.lhs.size(),
                     rng);
}

std::vector<Value> Oracle(const Shape& shape, Rng* rng) {
  return reference::SortDdColumn(shape.lhs, shape.domain, shape.lhs.size(),
                                 shape.epsilon, shape.delta, rng);
}

// Bitwise equality of two generated real columns.
bool SameBits(const std::vector<Value>& a, const std::vector<Value>& b) {
  if (a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r) {
    const double x = a[r].AsNumeric();
    const double y = b[r].AsNumeric();
    if (std::memcmp(&x, &y, sizeof(x)) != 0) return false;
  }
  return true;
}

// --- Distribution gate ---------------------------------------------------------

enum Stat { kMatches, kMse, kTieGap, kNumStats };
const char* const kStatNames[kNumStats] = {"matches", "MSE",
                                           "tied-row RHS gap"};

// Per-seed statistics of one generated RHS column. The tie statistic is
// the mean |y_i - y_j| over all pairs of rows sharing an LHS value, which
// does not depend on which tied row took which step.
std::vector<double> Measure(const Shape& shape, const std::vector<Value>& y) {
  const size_t n = y.size();
  std::vector<double> stats(kNumStats, 0.0);
  for (size_t r = 0; r < n; ++r) {
    const double diff = y[r].AsNumeric() - shape.real[r];
    stats[kMatches] += std::abs(diff) <= shape.match_radius;
    stats[kMse] += diff * diff;
  }
  stats[kMse] /= static_cast<double>(n);
  double gap_sum = 0.0;
  double pairs = 0.0;
  std::vector<double> ys;
  for (const std::vector<size_t>& group : shape.groups) {
    ys.clear();
    for (size_t r : group) ys.push_back(y[r].AsNumeric());
    std::sort(ys.begin(), ys.end());
    // Sum over pairs of |y_i - y_j| from the sorted values.
    const double m = static_cast<double>(ys.size());
    for (size_t k = 0; k < ys.size(); ++k) {
      gap_sum += ys[k] * (2.0 * static_cast<double>(k) - m + 1.0);
    }
    pairs += m * (m - 1.0) / 2.0;
  }
  stats[kTieGap] = pairs > 0.0 ? gap_sum / pairs : 0.0;
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

using DdGenerator = std::vector<Value> (*)(const Shape&, Rng*);

constexpr size_t kSeeds = 240;

// Moments of every statistic over kSeeds runs of `generate`; seed s of
// the run uses Rng(first_seed + s).
std::vector<Moments> Sample(const Shape& shape, DdGenerator generate,
                            uint64_t first_seed) {
  std::vector<Moments> moments(kNumStats);
  for (uint64_t s = 0; s < kSeeds; ++s) {
    Rng rng(first_seed + s);
    const std::vector<double> stats = Measure(shape, generate(shape, &rng));
    for (size_t i = 0; i < kNumStats; ++i) moments[i].Add(stats[i]);
  }
  return moments;
}

TEST(DdChainDistributionTest, KernelMatchesSortOracleOnEveryShape) {
  for (const Shape& shape : Shapes()) {
    SCOPED_TRACE(shape.name);
    // Disjoint seed ranges keep the two samples independent.
    const std::vector<Moments> got = Sample(shape, Kernel, 1);
    const std::vector<Moments> want = Sample(shape, Oracle, 1 + kSeeds);
    double max_z = 0.0;
    for (size_t i = 0; i < kNumStats; ++i) {
      const double gap = got[i].mean() - want[i].mean();
      const double se = std::sqrt(got[i].se2() + want[i].se2());
      if (se > 0.0) max_z = std::max(max_z, std::abs(gap) / se);
      EXPECT_LE(std::abs(gap), 4.0 * se + 1e-12)
          << kStatNames[i] << ": kernel " << got[i].mean() << ", oracle "
          << want[i].mean() << ", se " << se;
    }
    std::printf("[ %s ] largest |z| kernel vs std::sort: %.2f\n",
                shape.name.c_str(), max_z);
  }
}

TEST(DdChainDistributionTest, TieFreeLhsMatchesSortOracleBitForBit) {
  const Shape shape = TieFree();
  for (uint64_t s = 1; s <= kSeeds; ++s) {
    SCOPED_TRACE(s);
    Rng kernel(s);
    Rng oracle(s);
    ASSERT_TRUE(SameBits(Kernel(shape, &kernel), Oracle(shape, &oracle)));
    ASSERT_EQ(kernel.engine()(), oracle.engine()());
  }
}

// --- Exactness: one kernel behind both twins --------------------------------

TEST(DdChainExactnessTest, EncodedTwinMatchesValueTwinOnEveryWidth) {
  for (const Shape& shape : Shapes()) {
    const size_t n = shape.lhs.size();
    for (bool coded : {true, false}) {
      const std::vector<CodeWidth> widths =
          coded ? Widths(shape) : std::vector<CodeWidth>{CodeWidth::kU32};
      for (CodeWidth width : widths) {
        for (size_t rows : {size_t{0}, size_t{1}, n}) {
          SCOPED_TRACE(testing::Message()
                       << shape.name << " coded " << coded << " width "
                       << CodeWidthName(width) << " rows " << rows);
          const uint64_t seed = 11 + rows + static_cast<uint64_t>(width);
          Rng encoded(seed);
          Rng boxed(seed);
          const std::vector<Value> got =
              EncodedTwin(shape, coded, width, rows, &encoded);
          const std::vector<Value> want = ValueTwin(shape, rows, &boxed);
          EXPECT_TRUE(SameBits(got, want));
          EXPECT_EQ(encoded.engine()(), boxed.engine()());
        }
      }
    }
  }
}

// A relation whose DD LHS columns hold ties on the generated side: `a` is
// a 16-value numeric categorical root (code-stored), `x` an OD image of
// `a` (16 distinct doubles, real-stored), `d` an ND image of `a`. Under
// the Full plan, `y` walks a DD chain over `x` and `z` one over `a`, on
// the same pool threads as the ND and OD kernels.
struct SweepFixture {
  Relation real;
  MetadataPackage metadata;
};

SweepFixture MakeSweepFixture(size_t rows) {
  Schema schema({{"a", DataType::kInt64, SemanticType::kCategorical},
                 {"x", DataType::kDouble, SemanticType::kContinuous},
                 {"y", DataType::kDouble, SemanticType::kContinuous},
                 {"d", DataType::kInt64, SemanticType::kCategorical},
                 {"z", DataType::kDouble, SemanticType::kContinuous}});
  Rng rng(2304);
  std::vector<std::vector<Value>> cols(5);
  for (size_t r = 0; r < rows; ++r) {
    const int64_t a = static_cast<int64_t>(rng.UniformIndex(16));
    const double x = 10.0 * static_cast<double>(a) + 0.5;
    cols[0].push_back(Value::Int(a));
    cols[1].push_back(Value::Real(x));
    cols[2].push_back(Value::Real(x + rng.UniformDouble(0.0, 30.0)));
    cols[3].push_back(Value::Int((a + static_cast<int64_t>(
                                          rng.UniformIndex(3))) % 24));
    cols[4].push_back(Value::Real(rng.UniformDouble(0.0, 100.0)));
  }
  SweepFixture fixture{
      std::move(Relation::Make(schema, std::move(cols))).ValueOrDie(), {}};
  MetadataPackage& m = fixture.metadata;
  m.schema = schema;
  m.num_rows = rows;
  std::vector<Value> a_values, d_values;
  for (int64_t i = 0; i < 16; ++i) a_values.push_back(Value::Int(i));
  for (int64_t i = 0; i < 24; ++i) d_values.push_back(Value::Int(i));
  m.domains = {Domain::Categorical(a_values), Domain::Continuous(0.0, 160.0),
               Domain::Continuous(0.0, 200.0),
               Domain::Categorical(d_values), Domain::Continuous(0.0, 100.0)};
  m.dependencies.Add(Dependency::Od(0, 1));
  m.dependencies.Add(Dependency::Dd(1, 2, 12.0, 5.0));
  m.dependencies.Add(Dependency::Nd(0, 3, 3));
  m.dependencies.Add(Dependency::Dd(0, 4, 1.0, 3.0));
  return fixture;
}

TEST(DdChainExactnessTest, TiedSweepIsBitIdenticalAcrossPathsAndThreads) {
  const SweepFixture fixture = MakeSweepFixture(600);
  auto ctx = GenerationContext::Build(fixture.metadata);
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
  ASSERT_TRUE(ctx->encodable()) << ctx->fallback_reason();

  ExperimentEngine engine(fixture.real, fixture.metadata);
  ExperimentConfig config;
  config.rounds = 12;
  const std::vector<GenerationMethod> methods = {GenerationMethod::kDd,
                                                 GenerationMethod::kFull};
  std::vector<std::vector<MethodResult>> sweeps;
  for (bool value_path : {false, true}) {
    for (size_t threads : {1u, 8u}) {
      config.use_value_path = value_path;
      config.threads = threads;
      auto result = engine.RunAll(methods, config);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      sweeps.push_back(std::move(*result));
    }
  }
  for (size_t i = 1; i < sweeps.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_EQ(sweeps[i].size(), methods.size());
    for (size_t m = 0; m < methods.size(); ++m) {
      EXPECT_EQ(sweeps[i][m].round_seeds, sweeps[0][m].round_seeds);
      ASSERT_EQ(sweeps[i][m].attributes.size(),
                sweeps[0][m].attributes.size());
      for (size_t c = 0; c < sweeps[0][m].attributes.size(); ++c) {
        const MethodAttributeResult& x = sweeps[0][m].attributes[c];
        const MethodAttributeResult& y = sweeps[i][m].attributes[c];
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
}

// --- The chain order -----------------------------------------------------------

// Walks the rows in (LHS, row) order and checks that every step whose LHS
// gap is within epsilon lies within delta of its predecessor. Returns the
// number of such steps.
size_t ExpectStepsWithinDelta(const Shape& shape,
                              const std::vector<Value>& y) {
  std::vector<size_t> order(shape.lhs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return shape.lhs[a] < shape.lhs[b];
  });
  size_t proximal = 0;
  for (size_t p = 1; p < order.size(); ++p) {
    const double dx = shape.lhs[order[p]].AsNumeric() -
                      shape.lhs[order[p - 1]].AsNumeric();
    if (std::abs(dx) > shape.epsilon) continue;
    ++proximal;
    const double dy =
        std::abs(y[order[p]].AsNumeric() - y[order[p - 1]].AsNumeric());
    EXPECT_LE(dy, shape.delta)
        << "rows " << order[p - 1] << " and " << order[p];
    if (dy > shape.delta) break;
  }
  return proximal;
}

TEST(DdChainOrderTest, TiedRowsStepInRowOrderOnBothTwins) {
  for (const Shape& shape : {CodedHeavyTies(), RealRepeated()}) {
    SCOPED_TRACE(shape.name);
    const size_t n = shape.lhs.size();
    Rng rng(77);
    // Most steps of a tied shape are proximal, so the check has teeth.
    EXPECT_GT(ExpectStepsWithinDelta(shape, ValueTwin(shape, n, &rng)),
              n / 2);
    for (bool coded : {true, false}) {
      SCOPED_TRACE(coded ? "coded" : "real-stored");
      ExpectStepsWithinDelta(
          shape, EncodedTwin(shape, coded, CodeWidth::kU16, n, &rng));
    }
  }
}

}  // namespace
}  // namespace metaleak
