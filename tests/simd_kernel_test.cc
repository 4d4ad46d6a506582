// SIMD kernel layer: per-primitive unit tests and scalar-vs-vector
// parity.
//
// Two kinds of coverage. (1) Kernel-level: every primitive in
// common/simd.h is exercised on empty, odd-length, all-NULL/all-NaN and
// tail-remainder inputs, plus a randomized fuzz comparing each dispatch
// level the host supports against the scalar reference — bitwise for
// doubles, since the parity contract is byte-identical output. (2)
// Consumer-level: the fused leakage scan is run with the dispatch level
// forced to scalar and to the best supported level, at 1 and 8 threads,
// asserting identical results. The PLI engine (Intersect, Refines,
// G3Error and MaxFanout) and the identifiability sweep take no dispatch
// level, so their cases run one path twice; they still pin the results
// at both pool sizes and the sweep's erroring-subset merge.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "common/simd.h"
#include "data/code_column.h"
#include "data/datasets/synthetic.h"
#include "data/domain.h"
#include "data/encoded_batch.h"
#include "data/encoded_relation.h"
#include "partition/attribute_set.h"
#include "partition/pli_cache.h"
#include "partition/position_list_index.h"
#include "privacy/identifiability.h"
#include "privacy/leakage.h"

namespace metaleak {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::vector<SimdLevel> SupportedLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (SupportedSimdLevel() >= SimdLevel::kAvx2) {
    levels.push_back(SimdLevel::kAvx2);
  }
  return levels;
}

// Bitwise double equality: the parity contract is byte-identical, which
// EXPECT_EQ on doubles cannot express (NaN != NaN, -0.0 == +0.0).
::testing::AssertionResult BitEqual(double a, double b) {
  uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  if (ua == ub) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " and " << b << " differ bitwise";
}

// One uncarried epsilon-ball scan through the carried-accumulator form.
EpsilonBallStats ScanEpsilonBall(SimdLevel level, const double* real,
                                 const double* syn, size_t n, double eps) {
  EpsilonBallStats out;
  EpsilonBallMseInto(level, real, syn, n, eps, &out);
  return out;
}

EpsilonBallStats ScanEpsilonBallCoded(SimdLevel level, const double* real,
                                      const uint32_t* syn_codes,
                                      const double* code_numeric, size_t n,
                                      double eps) {
  EpsilonBallStats out;
  EpsilonBallMseCodedInto(level, real, syn_codes, code_numeric, n, eps,
                          &out);
  return out;
}

// Set bits across a row set's words.
size_t PopCount(const std::vector<uint64_t>& words) {
  size_t count = 0;
  for (uint64_t w : words) {
    count += static_cast<size_t>(__builtin_popcountll(w));
  }
  return count;
}

// The array sizes every kernel loop shape must survive: empty, below one
// vector width, every tail remainder around the 2/4/8-lane widths, and a
// couple of long odd lengths.
std::vector<size_t> EdgeSizes() {
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 18; ++n) sizes.push_back(n);
  sizes.push_back(63);
  sizes.push_back(64);
  sizes.push_back(65);
  sizes.push_back(67);
  sizes.push_back(257);
  return sizes;
}

TEST(SimdDispatchTest, LevelNamesAndOrdering) {
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx2), "avx2");
  EXPECT_GE(SupportedSimdLevel(), SimdLevel::kScalar);
  EXPECT_LE(ActiveSimdLevel(), SupportedSimdLevel());
}

TEST(SimdDispatchTest, OverrideClampsToSupported) {
  SetSimdLevelOverride(SimdLevel::kAvx2);
  EXPECT_EQ(ActiveSimdLevel(), SupportedSimdLevel() >= SimdLevel::kAvx2
                                   ? SimdLevel::kAvx2
                                   : SupportedSimdLevel());
  SetSimdLevelOverride(SimdLevel::kScalar);
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  ClearSimdLevelOverride();
  EXPECT_LE(ActiveSimdLevel(), SupportedSimdLevel());
}

TEST(SimdDispatchTest, HostInfoIsPopulated) {
  const HostInfo info = QueryHostInfo();
  EXPECT_FALSE(info.cpu_model.empty());
  EXPECT_FALSE(info.cpu_features.empty());
  const std::string meta = BenchMetadataJson();
  EXPECT_NE(meta.find("\"meta\""), std::string::npos);
  EXPECT_NE(meta.find("\"simd_level\""), std::string::npos);
  EXPECT_NE(meta.find("\"cpu_model\""), std::string::npos);
}

TEST(SimdKernelTest, CountEqualU32KnownAnswers) {
  const std::vector<uint32_t> a = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  const std::vector<uint32_t> b = {1, 0, 3, 0, 5, 0, 7, 0, 9};
  for (SimdLevel level : SupportedLevels()) {
    EXPECT_EQ(CountEqualU32(level, a.data(), b.data(), a.size()), 5u);
    EXPECT_EQ(CountEqualU32(level, a.data(), b.data(), 0), 0u);
    EXPECT_EQ(CountEqualU32(level, a.data(), a.data(), a.size()), 9u);
  }
}

TEST(SimdKernelTest, CountEqualU32Fuzz) {
  Rng rng(101);
  for (size_t n : EdgeSizes()) {
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<uint32_t> a(n), b(n);
      for (size_t r = 0; r < n; ++r) {
        a[r] = static_cast<uint32_t>(rng.UniformInt(0, 7));
        b[r] = static_cast<uint32_t>(rng.UniformInt(0, 7));
      }
      const size_t expect =
          CountEqualU32(SimdLevel::kScalar, a.data(), b.data(), n);
      for (SimdLevel level : SupportedLevels()) {
        EXPECT_EQ(CountEqualU32(level, a.data(), b.data(), n), expect)
            << "n=" << n << " level=" << SimdLevelName(level);
      }
    }
  }
}

TEST(SimdKernelTest, CountEqualF64NanNeverEqual) {
  const std::vector<double> all_nan(11, kNaN);
  for (SimdLevel level : SupportedLevels()) {
    EXPECT_EQ(CountEqualF64(level, all_nan.data(), all_nan.data(),
                            all_nan.size()),
              0u);
  }
  Rng rng(102);
  for (size_t n : EdgeSizes()) {
    std::vector<double> a(n), b(n);
    for (size_t r = 0; r < n; ++r) {
      a[r] = rng.Bernoulli(0.2) ? kNaN
                                : static_cast<double>(rng.UniformInt(0, 4));
      b[r] = rng.Bernoulli(0.2) ? kNaN
                                : static_cast<double>(rng.UniformInt(0, 4));
    }
    const size_t expect =
        CountEqualF64(SimdLevel::kScalar, a.data(), b.data(), n);
    for (SimdLevel level : SupportedLevels()) {
      EXPECT_EQ(CountEqualF64(level, a.data(), b.data(), n), expect)
          << "n=" << n << " level=" << SimdLevelName(level);
    }
  }
}

TEST(SimdKernelTest, EpsilonBallMseSkipsRealNanOnly) {
  // Real NaN: the row is skipped entirely. Synthetic NaN: the row IS
  // compared, never matches, and poisons the sum — the reference scan's
  // exact semantics.
  const std::vector<double> real = {1.0, kNaN, 3.0, 4.0};
  const std::vector<double> syn = {1.05, 2.0, kNaN, 4.2};
  for (SimdLevel level : SupportedLevels()) {
    const EpsilonBallStats s =
        ScanEpsilonBall(level, real.data(), syn.data(), real.size(), 0.1);
    EXPECT_EQ(s.compared, 3u) << SimdLevelName(level);
    EXPECT_EQ(s.matches, 1u) << SimdLevelName(level);
    EXPECT_TRUE(std::isnan(s.sum_squares)) << SimdLevelName(level);
  }
}

TEST(SimdKernelTest, EpsilonBallMseFuzzBitwise) {
  Rng rng(103);
  for (size_t n : EdgeSizes()) {
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<double> real(n), syn(n);
      for (size_t r = 0; r < n; ++r) {
        real[r] =
            rng.Bernoulli(0.15) ? kNaN : rng.UniformDouble(0.0, 10.0);
        syn[r] = rng.Bernoulli(0.1) ? kNaN : rng.UniformDouble(0.0, 10.0);
      }
      const EpsilonBallStats expect = ScanEpsilonBall(
          SimdLevel::kScalar, real.data(), syn.data(), n, 0.5);
      for (SimdLevel level : SupportedLevels()) {
        const EpsilonBallStats got =
            ScanEpsilonBall(level, real.data(), syn.data(), n, 0.5);
        EXPECT_EQ(got.matches, expect.matches);
        EXPECT_EQ(got.compared, expect.compared);
        EXPECT_TRUE(BitEqual(got.sum_squares, expect.sum_squares))
            << "n=" << n << " level=" << SimdLevelName(level);
      }
    }
  }
}

TEST(SimdKernelTest, EpsilonBallMseCodedSkipsEitherNan) {
  // code_numeric[0] is NaN (the NULL slot): rows pointing at it are
  // skipped, exactly like NaN real cells.
  const std::vector<double> code_numeric = {kNaN, 1.0, 2.0};
  const std::vector<double> real = {1.04, kNaN, 2.0, 5.0};
  const std::vector<uint32_t> codes = {1, 1, 0, 2};
  for (SimdLevel level : SupportedLevels()) {
    const EpsilonBallStats s =
        ScanEpsilonBallCoded(level, real.data(), codes.data(),
                             code_numeric.data(), real.size(), 0.1);
    EXPECT_EQ(s.compared, 2u) << SimdLevelName(level);
    EXPECT_EQ(s.matches, 1u) << SimdLevelName(level);
    EXPECT_FALSE(std::isnan(s.sum_squares)) << SimdLevelName(level);
  }
}

TEST(SimdKernelTest, EpsilonBallMseCodedFuzzBitwise) {
  Rng rng(104);
  std::vector<double> code_numeric = {kNaN};
  for (int i = 0; i < 9; ++i) {
    code_numeric.push_back(rng.Bernoulli(0.1)
                               ? kNaN
                               : rng.UniformDouble(0.0, 10.0));
  }
  for (size_t n : EdgeSizes()) {
    std::vector<double> real(n);
    std::vector<uint32_t> codes(n);
    for (size_t r = 0; r < n; ++r) {
      real[r] = rng.Bernoulli(0.15) ? kNaN : rng.UniformDouble(0.0, 10.0);
      codes[r] =
          static_cast<uint32_t>(rng.UniformIndex(code_numeric.size()));
    }
    const EpsilonBallStats expect =
        ScanEpsilonBallCoded(SimdLevel::kScalar, real.data(), codes.data(),
                             code_numeric.data(), n, 0.4);
    for (SimdLevel level : SupportedLevels()) {
      const EpsilonBallStats got =
          ScanEpsilonBallCoded(level, real.data(), codes.data(),
                               code_numeric.data(), n, 0.4);
      EXPECT_EQ(got.matches, expect.matches);
      EXPECT_EQ(got.compared, expect.compared);
      EXPECT_TRUE(BitEqual(got.sum_squares, expect.sum_squares))
          << "n=" << n << " level=" << SimdLevelName(level);
    }
  }
}

TEST(SimdKernelTest, BitsetHelpers) {
  EXPECT_EQ(BitsetWords(0), 0u);
  EXPECT_EQ(BitsetWords(1), 1u);
  EXPECT_EQ(BitsetWords(64), 1u);
  EXPECT_EQ(BitsetWords(65), 2u);
  EXPECT_EQ(BitsetTailMask(64), ~uint64_t{0});
  EXPECT_EQ(BitsetTailMask(1), uint64_t{1});
  EXPECT_EQ(BitsetTailMask(3), uint64_t{7});

  // 70 rows over 2 words: complement + tail re-mask gives exactly the
  // missing rows.
  const size_t n = 70;
  const size_t words = BitsetWords(n);
  std::vector<uint64_t> in_cluster(words, 0);
  for (size_t row : {3u, 64u, 69u}) {
    in_cluster[row >> 6] |= uint64_t{1} << (row & 63);
  }
  std::vector<uint64_t> bits(words, 0);
  BitsetOrNotInto(bits.data(), in_cluster.data(), words);
  bits[words - 1] &= BitsetTailMask(n);
  EXPECT_EQ(PopCount(bits), n - 3);

  // Ascending enumeration.
  std::vector<uint64_t> other(words, 0);
  for (size_t row : {3u, 5u, 64u}) {
    other[row >> 6] |= uint64_t{1} << (row & 63);
  }
  std::vector<uint64_t> product(words);
  for (size_t w = 0; w < words; ++w) product[w] = in_cluster[w] & other[w];
  std::vector<size_t> rows;
  BitsetForEach(product.data(), words,
                [&](size_t row) { rows.push_back(row); });
  EXPECT_EQ(rows, (std::vector<size_t>{3, 64}));

  // OR-merge.
  BitsetOrInto(other.data(), in_cluster.data(), words);
  EXPECT_EQ(PopCount(other), 4u);
}

// --- Consumer parity: scalar vs best supported level ---------------------

// Runs `fn` once with the dispatch level forced to scalar and once at
// the best supported level, returning both results.
template <typename Fn>
auto AtBothLevels(Fn&& fn) {
  SetSimdLevelOverride(SimdLevel::kScalar);
  auto scalar = fn();
  SetSimdLevelOverride(SupportedSimdLevel());
  auto vector = fn();
  ClearSimdLevelOverride();
  return std::make_pair(std::move(scalar), std::move(vector));
}

class SimdConsumerParityTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { SetGlobalThreadCount(GetParam()); }
  void TearDown() override {
    SetGlobalThreadCount(0);
    ClearSimdLevelOverride();
  }
};

std::vector<uint32_t> RandomCodes(size_t n, uint32_t num_codes, Rng* rng) {
  std::vector<uint32_t> codes(n);
  for (size_t r = 0; r < n; ++r) {
    codes[r] = static_cast<uint32_t>(rng->UniformIndex(num_codes));
  }
  return codes;
}

TEST_P(SimdConsumerParityTest, PliEngineMatchesScalar) {
  Rng rng(201);
  const size_t n = 5000;
  // Few-cluster (3/4), many-cluster (40/37) and mixed partitions.
  for (auto [ca, cb] : std::vector<std::pair<uint32_t, uint32_t>>{
           {3, 4}, {3, 40}, {40, 37}}) {
    const std::vector<uint32_t> codes_a = RandomCodes(n, ca, &rng);
    const std::vector<uint32_t> codes_b = RandomCodes(n, cb, &rng);
    auto run = [&] {
      PositionListIndex a = PositionListIndex::FromCodes(codes_a, ca);
      PositionListIndex b = PositionListIndex::FromCodes(codes_b, cb);
      PositionListIndex product = a.Intersect(b);
      return std::make_tuple(product.rows(), product.cluster_offsets(),
                             a.G3Error(b), a.Refines(b), a.MaxFanout(b),
                             product.Refines(a));
    };
    auto [scalar, vector] = AtBothLevels(run);
    EXPECT_EQ(std::get<0>(scalar), std::get<0>(vector));
    EXPECT_EQ(std::get<1>(scalar), std::get<1>(vector));
    EXPECT_TRUE(
        BitEqual(std::get<2>(scalar), std::get<2>(vector)));
    EXPECT_EQ(std::get<3>(scalar), std::get<3>(vector));
    EXPECT_EQ(std::get<4>(scalar), std::get<4>(vector));
    EXPECT_EQ(std::get<5>(scalar), std::get<5>(vector));
  }
}

datasets::SyntheticConfig PlantedConfig(size_t rows) {
  datasets::SyntheticConfig config;
  config.num_rows = rows;
  config.seed = 7;
  datasets::SyntheticAttribute a;
  a.name = "a";
  a.kind = datasets::SyntheticAttribute::Kind::kCategoricalBase;
  a.domain_size = 12;
  datasets::SyntheticAttribute b;
  b.name = "b";
  b.kind = datasets::SyntheticAttribute::Kind::kContinuousBase;
  datasets::SyntheticAttribute c;
  c.name = "c";
  c.kind = datasets::SyntheticAttribute::Kind::kDerivedMonotone;
  c.source = 1;
  c.domain_size = 0;  // continuous output: codes stay order-preserving
  datasets::SyntheticAttribute d;
  d.name = "d";
  d.kind = datasets::SyntheticAttribute::Kind::kCategoricalBase;
  d.domain_size = 4;
  config.attributes = {a, b, c, d};
  return config;
}

TEST_P(SimdConsumerParityTest, IdentifiabilitySweepMatchesScalar) {
  Result<Relation> relation = datasets::Synthetic(PlantedConfig(800));
  ASSERT_TRUE(relation.ok());
  EncodedRelation encoded = EncodedRelation::Encode(*relation);
  auto [scalar, vector] = AtBothLevels([&] {
    PliCache cache(&encoded);
    Result<std::vector<bool>> rows = IdentifiableRows(cache, 2);
    EXPECT_TRUE(rows.ok());
    return rows.ok() ? *rows : std::vector<bool>{};
  });
  EXPECT_EQ(scalar, vector);

  // The erroring-subset merge path behaves identically at both levels.
  auto [err_scalar, err_vector] = AtBothLevels([&] {
    PliCache cache(&encoded);
    std::vector<AttributeSet> subsets = {AttributeSet::Of({0}),
                                         AttributeSet::Of({63})};
    return IdentifiableRowsForSubsets(cache, subsets).ok();
  });
  EXPECT_FALSE(err_scalar);
  EXPECT_FALSE(err_vector);
}

TEST_P(SimdConsumerParityTest, FusedLeakageScanMatchesScalar) {
  Result<Relation> relation = datasets::Synthetic(PlantedConfig(1500));
  ASSERT_TRUE(relation.ok());
  EncodedRelation encoded = EncodedRelation::Encode(*relation);
  Result<std::vector<Domain>> domains = ExtractDomains(*relation);
  ASSERT_TRUE(domains.ok());
  Result<EncodedLeakageContext> ctx = EncodedLeakageContext::Build(
      encoded, relation->schema(), *domains, LeakageOptions{});
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();

  // A hand-filled batch with NULL codes and out-of-ball reals sprinkled
  // in, evaluated at both levels: matches and MSE must agree bitwise.
  const size_t n = encoded.num_rows();
  const std::vector<EncodedBatch::ColumnKind> kinds =
      ColumnKindsForDomains(*domains);
  EncodedBatch batch;
  batch.Configure(kinds);
  batch.ResetRows(n);
  Rng rng(202);
  for (size_t c = 0; c < kinds.size(); ++c) {
    if (kinds[c] == EncodedBatch::ColumnKind::kCodes) {
      const size_t num_codes = (*domains)[c].values().size() + 1;
      for (size_t r = 0; r < n; ++r) {
        batch.set_code(c, r,
                       static_cast<uint32_t>(rng.UniformIndex(num_codes)));
      }
    } else {
      for (size_t r = 0; r < n; ++r) {
        batch.reals(c)[r] = rng.UniformDouble(-10.0, 110.0);
      }
    }
  }
  auto [scalar, vector] = AtBothLevels([&] {
    std::vector<AttributeRoundStats> stats(encoded.num_columns());
    Status status = ctx->Evaluate(batch, stats.data());
    EXPECT_TRUE(status.ok());
    return stats;
  });
  ASSERT_EQ(scalar.size(), vector.size());
  size_t total_matches = 0;
  for (size_t c = 0; c < scalar.size(); ++c) {
    EXPECT_EQ(scalar[c].matches, vector[c].matches) << "attr " << c;
    EXPECT_EQ(scalar[c].has_mse, vector[c].has_mse) << "attr " << c;
    EXPECT_TRUE(BitEqual(scalar[c].mse, vector[c].mse)) << "attr " << c;
    total_matches += scalar[c].matches;
  }
  EXPECT_GT(total_matches, 0u);  // not vacuous
}

INSTANTIATE_TEST_SUITE_P(Threads, SimdConsumerParityTest,
                         ::testing::Values(1, 8));

// --- Width-dispatched code kernels ------------------------------------
//
// The same logical code sequence stored at u8/u16/u32 must drive every
// code kernel to byte-identical answers, at every dispatch level. The
// fixtures keep all codes below 200 so one sequence is representable at
// all three widths.

struct WidthViews {
  std::vector<uint8_t> v8;
  std::vector<uint16_t> v16;
  std::vector<uint32_t> v32;

  explicit WidthViews(const std::vector<uint32_t>& codes)
      : v8(codes.begin(), codes.end()),
        v16(codes.begin(), codes.end()),
        v32(codes) {}

  std::vector<CodeColumnView> views() const {
    return {{v8.data(), v8.size(), CodeWidth::kU8},
            {v16.data(), v16.size(), CodeWidth::kU16},
            {v32.data(), v32.size(), CodeWidth::kU32}};
  }
};

TEST(SimdKernelTest, WidthVariantsAgreeOnCodeKernels) {
  Rng rng(404);
  constexpr uint32_t kNumCodes = 200;
  for (size_t n : EdgeSizes()) {
    std::vector<uint32_t> a_codes(n), b_codes(n);
    std::vector<double> real(n);
    std::vector<double> numeric(kNumCodes);
    for (size_t r = 0; r < n; ++r) {
      a_codes[r] = static_cast<uint32_t>(rng.UniformIndex(kNumCodes));
      b_codes[r] = rng.Bernoulli(0.5)
                       ? a_codes[r]
                       : static_cast<uint32_t>(rng.UniformIndex(kNumCodes));
      real[r] = rng.Bernoulli(0.1) ? kNaN : rng.UniformDouble(0.0, 200.0);
    }
    for (uint32_t c = 0; c < kNumCodes; ++c) {
      numeric[c] = rng.UniformDouble(0.0, 200.0);
    }
    const WidthViews a(a_codes), b(b_codes);

    for (SimdLevel level : SupportedLevels()) {
      // Reference: everything evaluated through the u32 views.
      const size_t ref_count =
          CountEqualCodes(level, a.views()[2], b.views()[2]);
      EpsilonBallStats ref_ball;
      EpsilonBallMseCodedInto(level, real.data(), a.views()[2],
                              numeric.data(), 1.5, &ref_ball);

      for (const CodeColumnView& av : a.views()) {
        for (const CodeColumnView& bv : b.views()) {
          EXPECT_EQ(CountEqualCodes(level, av, bv), ref_count)
              << "n=" << n << " widths " << static_cast<int>(av.width)
              << "x" << static_cast<int>(bv.width);
        }
        EpsilonBallStats ball;
        EpsilonBallMseCodedInto(level, real.data(), av, numeric.data(),
                                1.5, &ball);
        EXPECT_EQ(ball.matches, ref_ball.matches) << "n=" << n;
        EXPECT_EQ(ball.compared, ref_ball.compared) << "n=" << n;
        EXPECT_TRUE(BitEqual(ball.sum_squares, ref_ball.sum_squares))
            << "n=" << n;
      }
    }
  }
}

// The tiling contract behind the streaming scans: a kernel invoked over
// chained row tiles (lengths a multiple of 4, except the last) must
// reproduce the one-shot full scan byte for byte, at every width and
// dispatch level.
TEST(SimdKernelTest, WidthKernelsTileExactly) {
  Rng rng(405);
  constexpr uint32_t kNumCodes = 180;
  const size_t n = 257;
  const std::vector<size_t> tile_sizes = {64, 100, 4, 88, 1};
  std::vector<uint32_t> codes(n);
  std::vector<double> real(n);
  std::vector<double> numeric(kNumCodes);
  for (size_t r = 0; r < n; ++r) {
    codes[r] = static_cast<uint32_t>(rng.UniformIndex(kNumCodes));
    real[r] = rng.Bernoulli(0.1) ? kNaN : rng.UniformDouble(0.0, 200.0);
  }
  for (uint32_t c = 0; c < kNumCodes; ++c) {
    numeric[c] = rng.UniformDouble(0.0, 200.0);
  }
  const WidthViews w(codes);
  for (SimdLevel level : SupportedLevels()) {
    for (const CodeColumnView& view : w.views()) {
      EpsilonBallStats full;
      EpsilonBallMseCodedInto(level, real.data(), view, numeric.data(),
                              2.0, &full);

      EpsilonBallStats tiled;
      size_t row = 0;
      for (size_t len : tile_sizes) {
        const CodeColumnView slice = view.Slice(row, len);
        EpsilonBallMseCodedInto(level, real.data() + row, slice,
                                numeric.data(), 2.0, &tiled);
        row += len;
      }
      ASSERT_EQ(row, n);
      EXPECT_EQ(tiled.matches, full.matches);
      EXPECT_EQ(tiled.compared, full.compared);
      EXPECT_TRUE(BitEqual(tiled.sum_squares, full.sum_squares));
    }
  }
}

}  // namespace
}  // namespace metaleak
