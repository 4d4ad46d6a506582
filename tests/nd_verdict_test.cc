// ND verdicts under the bounded fan-out scan.
//
// The ND validator stops each fan-out scan past the largest K the
// candidate could still emit, and ValidateDependency past the recorded
// fan-out. These suites hold both to checks that never stop early:
// PositionListIndex::MaxFanout with a bound against the unbounded scan,
// ValidateDependency against the unbounded K, and DiscoverNds at LHS
// widths 1 and 2 against the brute-force search of tests/reference/ —
// the same dependencies with the same K and the same number of
// validations, at pool sizes 1, 3 and 8 (the lattice validates a level's
// candidates on pool threads). The inputs are random relations plus
// shapes that sit on the bound: |Y| equal to min_slack and one above it,
// a fraction product under 1, and fan-outs exactly at the bound and one
// above it under either predicate.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "data/encoded_relation.h"
#include "data/relation.h"
#include "discovery/lattice.h"
#include "discovery/rfd_discovery.h"
#include "discovery/validators.h"
#include "metadata/dependency.h"
#include "partition/attribute_set.h"
#include "partition/position_list_index.h"
#include "reference/nd_reference.h"

namespace metaleak {
namespace {

constexpr size_t kUnbounded = std::numeric_limits<size_t>::max();

std::string Label(const char* prefix, size_t n) {
  std::string out = prefix;
  out += std::to_string(n);
  return out;
}

// Categorical Int64 columns over the same rows.
EncodedRelation EncodeColumns(std::vector<std::vector<Value>> cols) {
  std::vector<Attribute> attrs;
  for (size_t c = 0; c < cols.size(); ++c) {
    attrs.push_back(
        {Label("c", c), DataType::kInt64, SemanticType::kCategorical});
  }
  return EncodedRelation::Encode(
      std::move(Relation::Make(Schema(std::move(attrs)), std::move(cols)))
          .ValueOrDie());
}

// Random relation whose columns follow earlier ones with a small spread,
// so fan-outs land on both sides of the emit bound: column 0 draws from
// 2..12 values; each later column adds a draw in [0, spread) to a scaled
// earlier column, modulo its own 2..16 values, or is independent. Cells
// are NULL at `null_rate`.
EncodedRelation RandomRelation(Rng& rng, size_t m, size_t n,
                               double null_rate) {
  std::vector<std::vector<int64_t>> raw(m, std::vector<int64_t>(n));
  std::vector<std::vector<Value>> cols(m);
  for (size_t c = 0; c < m; ++c) {
    const size_t card = 2 + rng.UniformIndex(c == 0 ? 11 : 15);
    const bool follows = c > 0 && rng.Bernoulli(0.75);
    const size_t parent = c > 0 ? rng.UniformIndex(c) : 0;
    const size_t spread = 1 + rng.UniformIndex(4);
    const size_t scale = 1 + rng.UniformIndex(3);
    for (size_t r = 0; r < n; ++r) {
      const size_t base = follows ? static_cast<size_t>(raw[parent][r]) * scale
                                  : rng.UniformIndex(card);
      raw[c][r] = static_cast<int64_t>(
          (base + (follows ? rng.UniformIndex(spread) : 0)) % card);
      cols[c].push_back(rng.Bernoulli(null_rate) ? Value::Null()
                                                 : Value::Int(raw[c][r]));
    }
  }
  return EncodeColumns(std::move(cols));
}

// Every ND option set the random and edge cases run under.
std::vector<NdDiscoveryOptions> OptionGrid() {
  std::vector<NdDiscoveryOptions> grid;
  for (double fraction : {0.75, 0.5, 0.1, 1.0}) {
    for (size_t slack : {2, 0, 3}) {
      NdDiscoveryOptions options;
      options.max_fanout_fraction = fraction;
      options.min_slack = slack;
      grid.push_back(options);
    }
  }
  return grid;
}

// DiscoverNds against the brute-force search at LHS widths 1 and 2.
// Returns the number of NDs emitted across both widths.
size_t ExpectMatchesBruteForce(const EncodedRelation& relation,
                               NdDiscoveryOptions options) {
  size_t emitted = 0;
  for (size_t max_lhs : {1, 2}) {
    SCOPED_TRACE(testing::Message()
                 << "max_lhs " << max_lhs << " fraction "
                 << options.max_fanout_fraction << " slack "
                 << options.min_slack);
    options.max_lhs = max_lhs;
    LatticeSearchStats stats;
    Result<DependencySet> got = DiscoverNds(relation, options, &stats);
    if (!got.ok()) {
      ADD_FAILURE() << got.status().ToString();
      continue;
    }
    const reference::NdSearch want = reference::DiscoverNds(relation, options);
    EXPECT_EQ(got->all(), want.dependencies.all());
    EXPECT_EQ(stats.validator_invocations, want.validations);
    emitted += want.dependencies.size();
  }
  return emitted;
}

class NdVerdictOracleTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override { SetGlobalThreadCount(GetParam()); }
  void TearDown() override { SetGlobalThreadCount(0); }
};

TEST_P(NdVerdictOracleTest, RandomRelationsMatchBruteForce) {
  Rng rng(41);
  size_t emitted = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const size_t m = 2 + rng.UniformIndex(4);
    const size_t n = 20 + rng.UniformIndex(180);
    const double null_rate = trial % 3 == 0 ? 0.0 : 0.15;
    SCOPED_TRACE(testing::Message() << "trial " << trial << " m " << m
                                    << " n " << n);
    const EncodedRelation relation = RandomRelation(rng, m, n, null_rate);
    for (const NdDiscoveryOptions& options : OptionGrid()) {
      emitted += ExpectMatchesBruteForce(relation, options);
    }
  }
  // The grid reaches both verdicts, not only failures.
  EXPECT_GT(emitted, 0u);
}

// Y = r mod |Y| over 96 rows. LHS "pairs" groups consecutive row pairs
// (fan-out 2) except its last cluster in code order, which holds the
// last `wide` rows (fan-out min(wide, |Y|)); "first" puts that wide
// cluster first instead; "fd" is Y itself (fan-out 1).
EncodedRelation BoundShape(size_t distinct_y, size_t wide) {
  constexpr size_t kRows = 96;
  std::vector<Value> y, pairs, first, fd;
  for (size_t r = 0; r < kRows; ++r) {
    const int64_t yv = static_cast<int64_t>(r % distinct_y);
    y.push_back(Value::Int(yv));
    pairs.push_back(Value::Int(
        r + wide >= kRows ? 1000 : static_cast<int64_t>(r / 2)));
    first.push_back(
        Value::Int(r < wide ? -1 : static_cast<int64_t>((r - wide) / 2)));
    fd.push_back(Value::Int(yv));
  }
  return EncodeColumns(
      {std::move(y), std::move(pairs), std::move(first), std::move(fd)});
}

// The emitted fan-outs of NDs with RHS 0 (Y), by LHS attribute.
std::vector<size_t> EmittedIntoY(const EncodedRelation& relation,
                                 const NdDiscoveryOptions& options,
                                 size_t lhs) {
  std::vector<size_t> ks;
  for (const Dependency& d : DiscoverNds(relation, options).ValueOrDie()) {
    if (d.rhs == 0 && d.lhs == AttributeSet::Single(lhs)) {
      ks.push_back(d.max_fanout);
    }
  }
  return ks;
}

TEST_P(NdVerdictOracleTest, EdgeShapesMatchBruteForce) {
  NdDiscoveryOptions defaults;  // fraction 0.75, slack 2
  {
    SCOPED_TRACE("|Y| == min_slack");
    const EncodedRelation shape = BoundShape(2, 2);
    ExpectMatchesBruteForce(shape, defaults);
    EXPECT_TRUE(EmittedIntoY(shape, defaults, 1).empty());
  }
  {
    SCOPED_TRACE("|Y| == min_slack + 1");
    for (size_t wide : {2, 3}) {
      const EncodedRelation shape = BoundShape(3, wide);
      ExpectMatchesBruteForce(shape, defaults);
      EXPECT_TRUE(EmittedIntoY(shape, defaults, 1).empty());
    }
  }
  {
    SCOPED_TRACE("fraction * |Y| < 1");
    NdDiscoveryOptions options = defaults;
    options.max_fanout_fraction = 0.1;
    options.min_slack = 0;
    const EncodedRelation shape = BoundShape(5, 3);
    ExpectMatchesBruteForce(shape, options);
    EXPECT_TRUE(EmittedIntoY(shape, options, 1).empty());
  }
  // |Y| = 8 at the defaults: floor(0.75 * 8) = 6 = 8 - 2, bound 6.
  // |Y| = 10 at fraction 0.5: the fraction binds, bound 5.
  // |Y| = 10 at fraction 0.9, slack 3: the slack binds, bound 7.
  struct AtBound {
    size_t distinct_y;
    double fraction;
    size_t slack;
    size_t bound;
  };
  for (const AtBound& at : {AtBound{8, 0.75, 2, 6}, AtBound{10, 0.5, 2, 5},
                            AtBound{10, 0.9, 3, 7}}) {
    NdDiscoveryOptions options = defaults;
    options.max_fanout_fraction = at.fraction;
    options.min_slack = at.slack;
    for (size_t wide : {at.bound, at.bound + 1}) {
      SCOPED_TRACE(testing::Message() << "|Y| " << at.distinct_y
                                      << " fan-out " << wide);
      const EncodedRelation shape = BoundShape(at.distinct_y, wide);
      ExpectMatchesBruteForce(shape, options);
      // At the bound the wide cluster's K is emitted whether it comes
      // first or last; one above it, neither LHS emits.
      const std::vector<size_t> want =
          wide == at.bound ? std::vector<size_t>{wide} : std::vector<size_t>{};
      EXPECT_EQ(EmittedIntoY(shape, options, 1), want);
      EXPECT_EQ(EmittedIntoY(shape, options, 2), want);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, NdVerdictOracleTest,
                         ::testing::Values(1, 3, 8));

// --- The bounded scan itself ---------------------------------------------

// Every ordered pair of a random relation's columns, and every pair of
// columns as a two-attribute LHS, at every bound from 0 past K.
TEST(MaxFanoutBoundTest, ExactUpToTheBoundAndAboveItPast) {
  Rng rng(43);
  for (int trial = 0; trial < 12; ++trial) {
    const size_t m = 2 + rng.UniformIndex(3);
    const EncodedRelation relation =
        RandomRelation(rng, m, 10 + rng.UniformIndex(150), 0.1);
    std::vector<std::vector<size_t>> lhss;
    for (size_t a = 0; a < m; ++a) {
      lhss.push_back({a});
      for (size_t b = a + 1; b < m; ++b) lhss.push_back({a, b});
    }
    for (const std::vector<size_t>& lhs : lhss) {
      const PositionListIndex x = PositionListIndex::FromEncoded(relation, lhs);
      for (size_t rhs = 0; rhs < m; ++rhs) {
        const PositionListIndex y =
            PositionListIndex::FromEncoded(relation, {rhs});
        const size_t k = x.MaxFanout(y);
        EXPECT_EQ(x.MaxFanout(y, kUnbounded), k);
        for (size_t bound = 0; bound <= k + 2; ++bound) {
          SCOPED_TRACE(testing::Message() << "trial " << trial << " rhs "
                                          << rhs << " k " << k << " bound "
                                          << bound);
          const size_t got = x.MaxFanout(y, bound);
          if (k <= bound) {
            EXPECT_EQ(got, k);
          } else {
            EXPECT_GT(got, bound);
          }
        }
      }
    }
  }
}

TEST(MaxFanoutBoundTest, EmptyRelationIsZeroAtAnyBound) {
  const EncodedRelation empty = EncodeColumns({{}, {}});
  const PositionListIndex x = PositionListIndex::FromEncoded(empty, {0});
  const PositionListIndex y = PositionListIndex::FromEncoded(empty, {1});
  for (size_t bound : {size_t{0}, size_t{1}, kUnbounded}) {
    EXPECT_EQ(x.MaxFanout(y, bound), 0u);
  }
}

// ValidateDependency's ND case passes the recorded fan-out as the bound;
// its verdict must be the unbounded K against that fan-out, for
// recorded fan-outs below, at and above K, zero included.
TEST(MaxFanoutBoundTest, ValidateDependencyAgreesWithUnboundedCheck) {
  Rng rng(47);
  for (int trial = 0; trial < 12; ++trial) {
    const size_t m = 2 + rng.UniformIndex(3);
    const EncodedRelation relation =
        RandomRelation(rng, m, 10 + rng.UniformIndex(150), 0.1);
    for (uint32_t mask = 1; mask < (uint32_t{1} << m); ++mask) {
      std::vector<size_t> lhs;
      for (size_t c = 0; c < m; ++c) {
        if (mask & (uint32_t{1} << c)) lhs.push_back(c);
      }
      if (lhs.size() > 2) continue;
      const PositionListIndex x = PositionListIndex::FromEncoded(relation, lhs);
      for (size_t rhs = 0; rhs < m; ++rhs) {
        if (mask & (uint32_t{1} << rhs)) continue;
        const size_t k = x.MaxFanout(
            PositionListIndex::FromEncoded(relation, {rhs}));
        for (size_t fanout = 0; fanout <= k + 1; ++fanout) {
          SCOPED_TRACE(testing::Message() << "trial " << trial << " rhs "
                                          << rhs << " k " << k
                                          << " fan-out " << fanout);
          Result<bool> got = ValidateDependency(
              relation, Dependency::Nd(AttributeSet::Of(lhs), rhs, fanout));
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          EXPECT_EQ(*got, k <= fanout);
        }
      }
    }
  }
}

}  // namespace
}  // namespace metaleak
