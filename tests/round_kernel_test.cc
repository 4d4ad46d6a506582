// Oracle tests for the per-round Monte-Carlo kernels.
//
// The sampler (Floyd's algorithm over a flat chosen-index table), the
// generators' rank and composite-LHS fold kernels, the LSD radix sort
// and the NN-linkage merge walk each replaced an implementation built on
// std::unordered_* containers, std::sort or per-row binary search. Those
// implementations live on in tests/reference/ and every kernel here must
// agree with them bit for bit: the same draws and RNG consumption, the
// same ranks, group ids and counts, on random inputs and on the edge
// cases (k at 0/1/n-1/n, signed zeros, infinities, denormals, all-equal
// columns, NULL cells on either side, exact ties at epsilon 0). The last
// test runs the kernels on several threads at once; their scratch is
// thread-local, and CI runs this suite under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "common/radix_sort.h"
#include "common/random.h"
#include "data/encoded_batch.h"
#include "data/encoded_relation.h"
#include "data/relation.h"
#include "generation/column_generators.h"
#include "privacy/risk_estimator.h"
#include "reference/round_kernel_reference.h"

namespace metaleak {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kDenorm = std::numeric_limits<double>::denorm_min();

// --- Floyd sampler -----------------------------------------------------------

// Draws (n, k) from three equally seeded streams (the vector form, the
// caller-buffer form and the reference) and checks the outputs and the
// streams' next draws agree.
void ExpectFloydMatches(uint64_t seed, size_t n, size_t k) {
  SCOPED_TRACE(testing::Message() << "n=" << n << " k=" << k);
  Rng lib(seed);
  Rng buffered(seed);
  Rng ref(seed);
  const std::vector<size_t> expected =
      reference::SampleWithoutReplacement(&ref, n, k);
  EXPECT_EQ(lib.SampleWithoutReplacement(n, k), expected);
  std::vector<size_t> out(k + 1, 7);
  buffered.SampleWithoutReplacement(n, k, out.data());
  EXPECT_EQ(std::vector<size_t>(out.begin(), out.begin() + k), expected);
  EXPECT_EQ(out[k], 7u) << "wrote past out[k - 1]";
  const uint64_t next = ref.engine()();
  EXPECT_EQ(lib.engine()(), next);
  EXPECT_EQ(buffered.engine()(), next);
}

TEST(RoundKernelOracleTest, FloydMatchesReferenceDrawForDraw) {
  for (size_t n : {1, 2, 10, 64, 1000}) {
    for (size_t k : {size_t{0}, size_t{1}, n - 1, n}) {
      ExpectFloydMatches(n * 31 + k, n, k);
    }
  }
  ExpectFloydMatches(3, 0, 0);
  // n >> k: the shape of every ND pool fill.
  ExpectFloydMatches(5, 1u << 20, 3);
  ExpectFloydMatches(6, size_t{1} << 40, 69);
  Rng pick(11);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 1 + pick.UniformIndex(5000);
    ExpectFloydMatches(1000 + trial, n, pick.UniformIndex(n + 1));
  }
}

TEST(RoundKernelOracleTest, FloydTableResetsBetweenCalls) {
  // One stream, many calls of shrinking and growing k: the thread's
  // table must be empty at the start of every call.
  Rng lib(42);
  Rng ref(42);
  for (size_t k : {500, 3, 0, 1, 499, 500, 2, 40, 40, 1000, 1}) {
    EXPECT_EQ(lib.SampleWithoutReplacement(1000, k),
              reference::SampleWithoutReplacement(&ref, 1000, k));
  }
}

// --- Radix sort and rank -----------------------------------------------------

// Edge-case and random double columns, all NaN-free.
std::vector<std::vector<double>> RealInputs() {
  std::vector<std::vector<double>> inputs = {
      {},
      {1.5},
      {-0.0},
      {4.0, 4.0, 4.0, 4.0, 4.0},
      {0.0, -0.0, 0.0, -0.0, 1.0, -1.0},
      {-0.0, 0.0},
      {0.0, -0.0},
      {kInf, -kInf, 0.0, kInf, -kInf, 1.0, -1.0},
      {kDenorm, -kDenorm, 0.0, -0.0, kDenorm, 2 * kDenorm},
      {std::numeric_limits<double>::max(),
       std::numeric_limits<double>::lowest(),
       std::numeric_limits<double>::min(), -kInf, kInf},
  };
  Rng rng(2024);
  for (size_t n : {2, 17, 300, 5000}) {
    // Wide magnitudes and signs, so every radix digit varies.
    std::vector<double> wide(n);
    for (double& x : wide) {
      x = std::ldexp(rng.UniformDouble(-1.0, 1.0),
                     static_cast<int>(rng.UniformInt(-1060, 1020)));
    }
    inputs.push_back(wide);
    // A generated-like column: one domain, many duplicates, signed zeros
    // and infinities mixed in.
    std::vector<double> dup(n);
    for (double& x : dup) {
      const size_t pick = rng.UniformIndex(40);
      x = pick == 0   ? -0.0
          : pick == 1 ? 0.0
          : pick == 2 ? kInf
          : pick == 3 ? -kInf
                      : std::floor(rng.UniformDouble(0.0, 30.0)) * 0.25;
    }
    inputs.push_back(dup);
    std::vector<double> uniform(n);
    for (double& x : uniform) x = rng.UniformDouble(0.0, 1000.0);
    inputs.push_back(uniform);
  }
  return inputs;
}

// std::sort leaves equal elements in an unspecified order, and -0.0 and
// +0.0 are equal; everywhere else the two sorts agree bit for bit.
void ExpectSameSortedBits(const std::vector<double>& got,
                          const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] == 0.0 && want[i] == 0.0) continue;
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i]), std::bit_cast<uint64_t>(want[i]))
        << "at " << i << ": " << got[i] << " vs " << want[i];
  }
}

TEST(RoundKernelOracleTest, RadixSortMatchesStdSort) {
  for (const std::vector<double>& input : RealInputs()) {
    SCOPED_TRACE(testing::Message() << "n=" << input.size());
    std::vector<double> got = input;
    RadixSortDoubles(got.data(), got.size());
    std::vector<double> want = input;
    reference::SortReals(&want);
    ExpectSameSortedBits(got, want);
    // The radix order is total: -0.0 sorts before +0.0.
    for (size_t i = 1; i < got.size(); ++i) {
      EXPECT_LE(OrderedKey(got[i - 1]), OrderedKey(got[i]));
    }
  }
}

TEST(RoundKernelOracleTest, RadixSortKeysMatchesStdSort) {
  Rng rng(7);
  for (size_t n : {0, 1, 2, 100, 4096, 20000}) {
    std::vector<uint64_t> keys(n);
    for (uint64_t& k : keys) {
      // Narrow and full-width keys, so skipped and live passes both run.
      k = n % 2 == 0 ? rng.engine()() : rng.engine()() & 0xFFFF;
    }
    std::vector<uint64_t> want = keys;
    std::sort(want.begin(), want.end());
    std::vector<uint64_t> scratch(n);
    RadixSortKeys(keys.data(), scratch.data(), n);
    EXPECT_EQ(keys, want) << "n=" << n;
  }
}

TEST(RoundKernelOracleTest, OrderedKeyRoundTripsAndOrders) {
  for (const std::vector<double>& input : RealInputs()) {
    for (double x : input) {
      EXPECT_EQ(std::bit_cast<uint64_t>(FromOrderedKey(OrderedKey(x))),
                std::bit_cast<uint64_t>(x));
    }
  }
  EXPECT_LT(OrderedKey(-0.0), OrderedKey(0.0));
  EXPECT_EQ(RankKey(-0.0), RankKey(0.0));
  EXPECT_LT(OrderedKey(-kInf), OrderedKey(-kDenorm));
  EXPECT_LT(OrderedKey(-kDenorm), OrderedKey(-0.0));
  EXPECT_LT(OrderedKey(0.0), OrderedKey(kDenorm));
  EXPECT_LT(OrderedKey(kDenorm), OrderedKey(kInf));
}

TEST(RoundKernelOracleTest, RadixRankMatchesSortUniqueLowerBound) {
  for (const std::vector<double>& input : RealInputs()) {
    SCOPED_TRACE(testing::Message() << "n=" << input.size());
    std::vector<uint32_t> want;
    const uint32_t want_distinct = reference::RankReals(input, &want);
    std::vector<uint32_t> got(input.size(), 0xDEAD);
    EXPECT_EQ(RadixRankDoubles(input.data(), input.size(), got.data()),
              want_distinct);
    EXPECT_EQ(got, want);
  }
}

// --- Rank and fold over batch columns ----------------------------------------

// A batch mixing u8/u16/u32 code columns (codes drawn from a sparse
// range, NULL code 0 included) and real columns with duplicates and
// signed zeros.
EncodedBatch MixedBatch(size_t n, uint64_t seed) {
  using Kind = EncodedBatch::ColumnKind;
  EncodedBatch batch;
  batch.Configure({Kind::kCodes, Kind::kCodes, Kind::kCodes, Kind::kReals,
                   Kind::kReals},
                  {CodeWidth::kU8, CodeWidth::kU16, CodeWidth::kU32,
                   CodeWidth::kU32, CodeWidth::kU32});
  batch.ResetRows(n);
  Rng rng(seed);
  const uint32_t code_limit[3] = {12, 60000, 90000};
  for (size_t c = 0; c < 3; ++c) {
    // A small pool of codes per column so groups repeat.
    std::vector<uint32_t> pool(1 + rng.UniformIndex(40));
    for (uint32_t& code : pool) {
      code = static_cast<uint32_t>(rng.UniformIndex(code_limit[c] + 1));
    }
    for (size_t r = 0; r < n; ++r) batch.set_code(c, r, rng.Choice(pool));
  }
  for (size_t r = 0; r < n; ++r) {
    const size_t pick = rng.UniformIndex(20);
    batch.reals(3)[r] = pick == 0 ? -0.0
                        : pick == 1 ? 0.0
                        : pick == 2 ? kInf
                                    : std::floor(rng.UniformDouble(0, 9));
    batch.reals(4)[r] = rng.UniformDouble(-1.0, 1.0);
  }
  return batch;
}

TEST(RoundKernelOracleTest, RankEncodedColumnMatchesReference) {
  for (size_t n : {0, 1, 257, 3000}) {
    const EncodedBatch batch = MixedBatch(n, 100 + n);
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " col=" << c);
      std::vector<uint32_t> want;
      const uint32_t want_distinct =
          reference::RankBatchColumn(batch, c, n, &want);
      std::vector<uint32_t> got;
      EXPECT_EQ(RankEncodedColumn(batch, c, n, &got), want_distinct);
      EXPECT_EQ(got, want);
    }
  }
}

TEST(RoundKernelOracleTest, FoldMatchesUnorderedMapFold) {
  const std::vector<std::vector<size_t>> lhs_sets = {
      {},        {0},       {1},       {2},       {3},       {4},
      {0, 1},    {1, 3},    {3, 0},    {2, 4},    {3, 4},    {0, 1, 2},
      {2, 3, 0}, {4, 1, 3}, {3, 3, 1}, {0, 2, 4},
  };
  for (size_t n : {0, 1, 257, 3000}) {
    const EncodedBatch batch = MixedBatch(n, 500 + n);
    for (const std::vector<size_t>& lhs : lhs_sets) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " lhs size "
                                      << lhs.size());
      std::vector<uint32_t> want;
      const uint32_t want_groups =
          reference::FoldLhsGroups(batch, lhs, n, &want);
      std::vector<uint32_t> got;
      EXPECT_EQ(FoldLhsGroupsEncoded(batch, lhs, n, &got), want_groups);
      EXPECT_EQ(got, want);
    }
  }
}

// --- NN linkage ----------------------------------------------------------------

// Binds the library estimator to `real` and checks its cells on `batch`
// against the binary-search oracle.
void ExpectNnMatches(const Relation& relation,
                     const std::vector<Domain>& domains,
                     const LeakageOptions& options,
                     const EncodedBatch& batch) {
  const EncodedRelation encoded = EncodedRelation::Encode(relation);
  RiskContext ctx;
  ctx.real = &encoded;
  ctx.syn_schema = &relation.schema();
  ctx.domains = &domains;
  ctx.leakage = options;
  auto bound = NnLinkageEstimator::Instance().Bind(ctx);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  const size_t m = relation.num_columns();
  std::vector<RiskMeasureCell> cells(2 * m);
  ASSERT_TRUE((*bound)->Evaluate(batch, cells.data()).ok());
  std::vector<bool> present;
  const std::vector<double> want =
      reference::NnLinkageCells(encoded, domains, options, batch, &present);
  for (size_t i = 0; i < 2 * m; ++i) {
    SCOPED_TRACE(testing::Message() << "cell " << i);
    EXPECT_EQ(cells[i].present, present[i]);
    EXPECT_EQ(cells[i].value, want[i]);
  }
}

// Columns: "x" (continuous, real-stored generation), "y" (continuous,
// coded generation over a numeric categorical domain), "c" (categorical,
// inactive for this estimator).
struct NnFixture {
  Relation relation;
  std::vector<Domain> domains;
};

NnFixture MakeNnFixture(const std::vector<Value>& x,
                        const std::vector<Value>& y,
                        const std::vector<Value>& y_domain, double x_lo,
                        double x_hi) {
  Schema schema({{"x", DataType::kDouble, SemanticType::kContinuous},
                 {"y", DataType::kDouble, SemanticType::kContinuous},
                 {"c", DataType::kInt64, SemanticType::kCategorical}});
  std::vector<Value> c;
  for (size_t r = 0; r < x.size(); ++r) {
    c.push_back(Value::Int(static_cast<int64_t>(r % 3)));
  }
  return NnFixture{
      Relation::Make(schema, {x, y, c}).ValueOrDie(),
      {Domain::Continuous(x_lo, x_hi), Domain::Categorical(y_domain),
       Domain::Categorical({Value::Int(0), Value::Int(1), Value::Int(2)})}};
}

EncodedBatch NnBatch(const std::vector<Domain>& domains, size_t n) {
  EncodedBatch batch;
  batch.Configure(ColumnKindsForDomains(domains),
                  CodeWidthsForDomains(domains));
  batch.ResetRows(n);
  for (size_t r = 0; r < n; ++r) batch.set_code(2, r, 1 + r % 3);
  return batch;
}

TEST(RoundKernelOracleTest, NnLinkageMatchesOracleOnRandomColumns) {
  Rng rng(99);
  for (size_t n : {1, 2, 50, 2000}) {
    SCOPED_TRACE(testing::Message() << "n=" << n);
    std::vector<Value> y_domain;
    for (int i = 0; i < 64; ++i) {
      y_domain.push_back(Value::Real(std::floor(rng.UniformDouble(-50, 50))));
    }
    std::vector<Value> x, y;
    for (size_t r = 0; r < n; ++r) {
      x.push_back(rng.Bernoulli(0.3)
                      ? Value::Null()
                      : Value::Real(std::round(rng.UniformDouble(0, 500))));
      y.push_back(rng.Bernoulli(0.2) ? Value::Null()
                                     : rng.Choice(y_domain));
    }
    NnFixture f = MakeNnFixture(x, y, y_domain, 0.0, 500.0);
    EncodedBatch batch = NnBatch(f.domains, n);
    const size_t y_codes = f.domains[1].values().size();
    for (size_t r = 0; r < n; ++r) {
      batch.reals(0)[r] = rng.Bernoulli(0.5)
                              ? std::round(rng.UniformDouble(0, 500))
                              : rng.UniformDouble(0, 500);
      // Code 0 is a NULL generated cell.
      batch.set_code(1, r,
                     static_cast<uint32_t>(rng.UniformIndex(y_codes + 1)));
    }
    for (double fraction : {0.0, 0.01, 0.2}) {
      LeakageOptions options;
      options.epsilon_fraction = fraction;
      ExpectNnMatches(f.relation, f.domains, options, batch);
    }
    LeakageOptions absolute;
    absolute.absolute_epsilon = 1.0;
    ExpectNnMatches(f.relation, f.domains, absolute, batch);
  }
}

TEST(RoundKernelOracleTest, NnLinkageMatchesOracleOnExactTiesAtEpsilonZero) {
  // Real values on the integers, generated values on the integers and
  // the half-integers: every real value has an exact hit or two
  // equidistant neighbours, and aligned draws tie the NN distance.
  const size_t n = 400;
  std::vector<Value> y_domain;
  for (int i = 0; i <= 40; ++i) y_domain.push_back(Value::Real(i * 0.5));
  std::vector<Value> x, y;
  Rng rng(5);
  for (size_t r = 0; r < n; ++r) {
    x.push_back(r % 17 == 0 ? Value::Null()
                            : Value::Real(static_cast<double>(r % 20)));
    y.push_back(Value::Real(static_cast<double>(r % 20)));
  }
  NnFixture f = MakeNnFixture(x, y, y_domain, 0.0, 20.0);
  EncodedBatch batch = NnBatch(f.domains, n);
  for (size_t r = 0; r < n; ++r) {
    batch.reals(0)[r] = 0.5 * static_cast<double>(rng.UniformIndex(41));
    batch.set_code(1, r, 1 + static_cast<uint32_t>(rng.UniformIndex(41)));
  }
  LeakageOptions options;
  options.absolute_epsilon = 0.0;
  ExpectNnMatches(f.relation, f.domains, options, batch);
  options.absolute_epsilon = 0.5;
  ExpectNnMatches(f.relation, f.domains, options, batch);
}

TEST(RoundKernelOracleTest, NnLinkageMatchesOracleOnAllNullBatchAndReal) {
  const size_t n = 30;
  const std::vector<Value> y_domain = {Value::Real(1.0), Value::Real(2.0)};
  std::vector<Value> x, y;
  for (size_t r = 0; r < n; ++r) {
    x.push_back(Value::Real(static_cast<double>(r)));
    y.push_back(Value::Real(r % 2 == 0 ? 1.0 : 2.0));
  }
  NnFixture f = MakeNnFixture(x, y, y_domain, 0.0, 30.0);
  EncodedBatch batch = NnBatch(f.domains, n);
  for (size_t r = 0; r < n; ++r) {
    batch.reals(0)[r] = static_cast<double>(r);
    batch.set_code(1, r, 0);  // every generated y is NULL
  }
  ExpectNnMatches(f.relation, f.domains, LeakageOptions{}, batch);

  // An all-NULL real column: nothing to link, both cells present at 0.
  std::vector<Value> nulls(n, Value::Null());
  NnFixture g = MakeNnFixture(x, nulls, y_domain, 0.0, 30.0);
  EncodedBatch coded = NnBatch(g.domains, n);
  for (size_t r = 0; r < n; ++r) {
    coded.reals(0)[r] = 0.5;
    coded.set_code(1, r, 1 + r % 2);
  }
  ExpectNnMatches(g.relation, g.domains, LeakageOptions{}, coded);
}

// --- Thread-local scratch ------------------------------------------------------

TEST(RoundKernelOracleTest, KernelsAgreeWithOracleOnConcurrentThreads) {
  constexpr size_t kThreads = 4;
  std::vector<EncodedBatch> batches;
  for (size_t t = 0; t < kThreads; ++t) {
    batches.push_back(MixedBatch(1000 + 300 * t, 900 + t));
  }

  // One NN-linkage estimator bound once and evaluated on every thread,
  // as the experiment engine's parallel rounds do.
  const size_t nn_rows = 1500;
  Rng nn_rng(77);
  std::vector<Value> y_domain;
  for (int i = 0; i < 30; ++i) y_domain.push_back(Value::Real(i));
  std::vector<Value> x, y;
  for (size_t r = 0; r < nn_rows; ++r) {
    x.push_back(Value::Real(std::floor(nn_rng.UniformDouble(0, 300))));
    y.push_back(nn_rng.Choice(y_domain));
  }
  NnFixture nn = MakeNnFixture(x, y, y_domain, 0.0, 300.0);
  const EncodedRelation encoded = EncodedRelation::Encode(nn.relation);
  RiskContext ctx;
  ctx.real = &encoded;
  ctx.syn_schema = &nn.relation.schema();
  ctx.domains = &nn.domains;
  auto bound = NnLinkageEstimator::Instance().Bind(ctx);
  ASSERT_TRUE(bound.ok());
  std::vector<EncodedBatch> nn_batches;
  for (size_t t = 0; t < kThreads; ++t) {
    nn_batches.push_back(NnBatch(nn.domains, nn_rows));
    for (size_t r = 0; r < nn_rows; ++r) {
      nn_batches[t].reals(0)[r] = std::floor(nn_rng.UniformDouble(0, 300));
      nn_batches[t].set_code(
          1, r, static_cast<uint32_t>(nn_rng.UniformIndex(31)));
    }
  }

  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      const EncodedBatch& batch = batches[t];
      const size_t n = batch.num_rows();
      for (int rep = 0; rep < 20; ++rep) {
        std::vector<uint32_t> got, want;
        const std::vector<size_t> lhs = {t % 3, 3, 4 - t % 2};
        failures[t] += FoldLhsGroupsEncoded(batch, lhs, n, &got) !=
                       reference::FoldLhsGroups(batch, lhs, n, &want);
        failures[t] += got != want;
        failures[t] += RankEncodedColumn(batch, 4, n, &got) !=
                       reference::RankBatchColumn(batch, 4, n, &want);
        failures[t] += got != want;
        std::vector<double> sorted = batch.reals(4);
        std::vector<double> expected = sorted;
        RadixSortDoubles(sorted.data(), n);
        reference::SortReals(&expected);
        failures[t] += sorted != expected;
        Rng lib(t * 100 + rep);
        Rng ref(t * 100 + rep);
        failures[t] += lib.SampleWithoutReplacement(n, 40 + rep) !=
                       reference::SampleWithoutReplacement(&ref, n, 40 + rep);
        std::vector<RiskMeasureCell> cells(2 * 3);
        failures[t] += !(*bound)->Evaluate(nn_batches[t], cells.data()).ok();
        std::vector<bool> present;
        const std::vector<double> nn_want = reference::NnLinkageCells(
            encoded, nn.domains, LeakageOptions{}, nn_batches[t], &present);
        for (size_t i = 0; i < cells.size(); ++i) {
          failures[t] += cells[i].value != nn_want[i] ||
                         cells[i].present != present[i];
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace metaleak
