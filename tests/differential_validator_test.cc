// Agreement of the single-attribute DD scan with the value-pair oracle
// (tests/reference/differential_reference).
//
// The library orders row ids by (lhs code, rhs code, row) with two
// counting passes and relies on codes being order-preserving; the oracle
// std::sorts the decoded (x, y) doubles. The minimal delta must match bit
// for bit, through both ComputeMinimalDelta overloads and at pool sizes 1
// and 8, on random relations with NULLs, repeated x with different y,
// signed zeros, int64 columns above 2^53 (distinct codes sharing a
// double), 1-row and all-NULL columns, and 30000-row relations. The
// window is one serial scan; CheckDifferential's witness (the first pair
// whose rhs gap exceeds the bound) must be a real violation, appear iff
// the oracle's delta exceeds the bound, be the same pair at every pool
// size and code width, and be the first such pair wherever in the rows
// it lies. A NaN or negative epsilon is Invalid on every entry point.
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/random.h"
#include "data/code_column.h"
#include "data/encoded_relation.h"
#include "data/relation.h"
#include "discovery/validators.h"
#include "metadata/dependency.h"
#include "reference/differential_reference.h"

namespace metaleak {
namespace {

constexpr size_t kPoolSizes[] = {1, 8};

Schema TwoColumns(DataType type) {
  return Schema({{"x", type, SemanticType::kContinuous},
                 {"y", type, SemanticType::kContinuous}});
}

Relation FromRows(const Schema& schema,
                  const std::vector<std::vector<Value>>& rows) {
  Relation relation = Relation::Empty(schema);
  for (const std::vector<Value>& row : rows) {
    EXPECT_TRUE(relation.AppendRow(row).ok());
  }
  return relation;
}

// Random doubles: x from `x_values` distinct points (so lhs ties occur),
// y anywhere in [-50, 50), each cell NULL at `null_rate`.
Relation RandomXY(size_t rows, size_t x_values, double null_rate,
                  uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Value>> cells;
  for (size_t r = 0; r < rows; ++r) {
    Value x = Value::Real(0.25 * static_cast<double>(
                                     rng.UniformIndex(x_values)));
    Value y = Value::Real(rng.UniformDouble(-50.0, 50.0));
    if (rng.Bernoulli(null_rate)) x = Value::Null();
    if (rng.Bernoulli(null_rate)) y = Value::Null();
    cells.push_back({x, y});
  }
  return FromRows(TwoColumns(DataType::kDouble), cells);
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Every path against the oracle at every pool size, both directions.
void ExpectMatchesOracle(const Relation& relation, double eps,
                         const std::string& label) {
  for (size_t pool : kPoolSizes) {
    SetGlobalThreadCount(pool);
    const EncodedRelation encoded = EncodedRelation::Encode(relation);
    for (auto [x, y] : {std::pair<size_t, size_t>{0, 1}, {1, 0}}) {
      Result<double> want = reference::ComputeMinimalDelta(relation, x, y, eps);
      ASSERT_TRUE(want.ok()) << label << ": " << want.status().ToString();
      Result<double> by_value = ComputeMinimalDelta(relation, x, y, eps);
      Result<double> by_code = ComputeMinimalDelta(encoded, x, y, eps);
      ASSERT_TRUE(by_value.ok() && by_code.ok()) << label;
      EXPECT_EQ(Bits(*by_value), Bits(*want))
          << label << " pool " << pool << " x " << x << " eps " << eps;
      EXPECT_EQ(Bits(*by_code), Bits(*want))
          << label << " pool " << pool << " x " << x << " eps " << eps;
    }
  }
  SetGlobalThreadCount(0);
}

TEST(DdScanOracleTest, RandomRelationsWithNulls) {
  uint64_t seed = 1;
  for (size_t rows : {0, 2, 17, 300, 2000}) {
    for (size_t x_values : {1, 5, 400}) {
      for (double null_rate : {0.0, 0.2, 0.9}) {
        const Relation relation = RandomXY(rows, x_values, null_rate, seed++);
        for (double eps : {0.0, 0.25, 3.0, 1e9}) {
          ExpectMatchesOracle(relation, eps,
                              "rows " + std::to_string(rows) + " seed " +
                                  std::to_string(seed));
        }
      }
    }
  }
}

TEST(DdScanOracleTest, RepeatedXWithDifferentY) {
  std::vector<std::vector<Value>> rows;
  for (int k = 0; k < 40; ++k) {
    rows.push_back({Value::Real(k % 3), Value::Real(7.0 * (k % 11) - 30.0)});
  }
  const Relation relation = FromRows(TwoColumns(DataType::kDouble), rows);
  for (double eps : {0.0, 0.5, 1.0, 2.0}) {
    ExpectMatchesOracle(relation, eps, "repeated x");
  }
}

TEST(DdScanOracleTest, SignedZeros) {
  std::vector<std::vector<Value>> rows;
  const double values[] = {-0.0, 0.0, 1.5, -2.0, 0.0, -0.0};
  for (int k = 0; k < 36; ++k) {
    rows.push_back({Value::Real(values[k % 6]), Value::Real(values[(k / 6) % 6])});
  }
  const Relation relation = FromRows(TwoColumns(DataType::kDouble), rows);
  for (double eps : {0.0, 1.0, 4.0}) {
    ExpectMatchesOracle(relation, eps, "signed zeros");
  }
}

TEST(DdScanOracleTest, Int64AboveTwoToThe53) {
  // 2^53 + k for k in [0, 8): neighbours share a double, so distinct
  // codes decode to equal lhs and rhs values.
  const int64_t base = int64_t{1} << 53;
  std::vector<std::vector<Value>> rows;
  Rng rng(53);
  for (int k = 0; k < 64; ++k) {
    rows.push_back({Value::Int(base + static_cast<int64_t>(rng.UniformIndex(8))),
                    Value::Int(base + static_cast<int64_t>(rng.UniformIndex(8)) -
                               static_cast<int64_t>(rng.UniformIndex(3)) * 1000)});
  }
  const Relation relation = FromRows(TwoColumns(DataType::kInt64), rows);
  for (double eps : {0.0, 1.0, 2.0, 5000.0}) {
    ExpectMatchesOracle(relation, eps, "int64 above 2^53");
  }
}

TEST(DdScanOracleTest, OneRowAndAllNullColumns) {
  ExpectMatchesOracle(
      FromRows(TwoColumns(DataType::kDouble), {{Value::Real(1), Value::Real(2)}}),
      1.0, "one row");
  ExpectMatchesOracle(FromRows(TwoColumns(DataType::kDouble),
                               {{Value::Null(), Value::Real(2)},
                                {Value::Null(), Value::Real(3)},
                                {Value::Null(), Value::Null()}}),
                      1.0, "all-NULL x");
}

// 30000 points with lhs ties and NULLs, beyond the 8192-point grain the
// scan once split its window at: one serial window must still match the
// oracle bit for bit.
TEST(DdScanOracleTest, MoreRowsThanTheChunkGrain) {
  const Relation relation = RandomXY(30000, 4000, 0.05, 8192);
  for (double eps : {0.0, 0.25, 10.0}) {
    ExpectMatchesOracle(relation, eps, "30000 rows");
  }
}

TEST(DdScanOracleTest, NonNumericPairIsATypeError) {
  const Relation relation =
      FromRows(Schema({{"x", DataType::kString, SemanticType::kCategorical},
                       {"y", DataType::kDouble, SemanticType::kContinuous}}),
               {{Value::Str("a"), Value::Real(1)}, {Value::Str("b"), Value::Real(2)}});
  EXPECT_EQ(ComputeMinimalDelta(relation, 0, 1, 1.0).status().code(),
            StatusCode::kTypeError);
  EXPECT_EQ(reference::ComputeMinimalDelta(relation, 0, 1, 1.0).status().code(),
            StatusCode::kTypeError);
}

// The witness at one pool size and code-width floor.
std::optional<PositionListIndex::RowPair> WitnessAt(
    const Relation& relation, size_t x, size_t y, double eps, double bound,
    size_t pool, std::optional<CodeWidth> floor) {
  SetGlobalThreadCount(pool);
  if (floor.has_value()) {
    SetCodeWidthFloorOverride(*floor);
  } else {
    ClearCodeWidthFloorOverride();
  }
  const EncodedRelation encoded = EncodedRelation::Encode(relation);
  Result<DifferentialCheck> check =
      CheckDifferential(encoded, x, y, eps, bound);
  ClearCodeWidthFloorOverride();
  SetGlobalThreadCount(0);
  EXPECT_TRUE(check.ok());
  return check.ok() ? check->witness : std::nullopt;
}

TEST(DdScanOracleTest, WitnessIsCanonicalAndViolates) {
  const std::vector<Relation> relations = {
      RandomXY(300, 40, 0.1, 3), RandomXY(20000, 3000, 0.02, 4),
      RandomXY(20000, 300, 0.3, 5)};
  for (size_t k = 0; k < relations.size(); ++k) {
    const Relation& relation = relations[k];
    for (double eps : {0.0, 0.5, 4.0}) {
      Result<double> delta = reference::ComputeMinimalDelta(relation, 0, 1, eps);
      ASSERT_TRUE(delta.ok());
      for (double bound : {*delta * 0.25, *delta * 0.9, *delta}) {
        SCOPED_TRACE("relation " + std::to_string(k) + " eps " +
                     std::to_string(eps) + " bound " + std::to_string(bound));
        const std::optional<PositionListIndex::RowPair> ref =
            WitnessAt(relation, 0, 1, eps, bound, 1, std::nullopt);
        ASSERT_EQ(ref.has_value(), *delta > bound);
        for (size_t pool : {size_t{1}, size_t{3}, size_t{8}}) {
          for (std::optional<CodeWidth> floor :
               {std::optional<CodeWidth>{}, std::optional<CodeWidth>{CodeWidth::kU16},
                std::optional<CodeWidth>{CodeWidth::kU32}}) {
            EXPECT_EQ(WitnessAt(relation, 0, 1, eps, bound, pool, floor), ref)
                << "pool " << pool;
          }
        }
        if (!ref.has_value()) continue;
        const Value& x1 = relation.column(0)[ref->first];
        const Value& x2 = relation.column(0)[ref->second];
        const Value& y1 = relation.column(1)[ref->first];
        const Value& y2 = relation.column(1)[ref->second];
        ASSERT_FALSE(x1.is_null() || x2.is_null() || y1.is_null() || y2.is_null());
        EXPECT_LE(x1.AsNumeric(), x2.AsNumeric());
        EXPECT_LE(std::fabs(x2.AsNumeric() - x1.AsNumeric()), eps);
        EXPECT_GT(std::fabs(y2.AsNumeric() - y1.AsNumeric()), bound);
      }
    }
  }
}

// One spike in y at row `spike` of x = 0, 1, 2, ...: the only pairs over
// the bound straddle it, so the scan must stop at the spike's first pair
// whether the spike lies near the start, the middle or the end of the
// 20000 rows (the positions once straddled the scan's 8192-point chunks).
TEST(DdScanOracleTest, WitnessSurvivesTheChunkFold) {
  for (size_t spike : {size_t{100}, size_t{9000}, size_t{19990}}) {
    std::vector<std::vector<Value>> rows;
    for (size_t k = 0; k < 20000; ++k) {
      rows.push_back({Value::Real(static_cast<double>(k)),
                      Value::Real(k == spike ? 50.0 : 0.0)});
    }
    const Relation relation = FromRows(TwoColumns(DataType::kDouble), rows);
    for (size_t pool : {size_t{1}, size_t{8}}) {
      SetGlobalThreadCount(pool);
      const EncodedRelation encoded = EncodedRelation::Encode(relation);
      Result<DifferentialCheck> check =
          CheckDifferential(encoded, 0, 1, 1.5, 25.0);
      SetGlobalThreadCount(0);
      ASSERT_TRUE(check.ok());
      ASSERT_TRUE(check->witness.has_value()) << "spike " << spike;
      EXPECT_EQ(check->witness->first, spike - 1);
      EXPECT_EQ(check->witness->second, spike);
    }
  }
}

TEST(DdScanOracleTest, UnboundedCheckIsTheMinimalDelta) {
  const Relation relation = RandomXY(5000, 700, 0.1, 77);
  const EncodedRelation encoded = EncodedRelation::Encode(relation);
  Result<double> want = reference::ComputeMinimalDelta(relation, 0, 1, 0.5);
  Result<DifferentialCheck> check =
      CheckDifferential(encoded, 0, 1, 0.5, *want);
  ASSERT_TRUE(want.ok() && check.ok());
  EXPECT_FALSE(check->witness.has_value());
  EXPECT_EQ(Bits(check->delta), Bits(*want));
}

// x = 0, 10, ..., 90 and y alternating 0 and 100, with a second lhs
// column equal to x: eps 1 pairs no rows (delta 0) and eps +inf pairs
// every row (delta 100). A NaN epsilon compares false against every lhs
// gap, so a scan that took it would never close its window and report
// the +inf delta; the single- and multi-attribute paths and
// ValidateDependency refuse it, as they refuse a negative one.
TEST(DdScanOracleTest, NanEpsilonIsInvalid) {
  std::vector<std::vector<Value>> rows;
  for (int k = 0; k < 10; ++k) {
    rows.push_back({Value::Real(10.0 * k), Value::Real(10.0 * k),
                    Value::Real(k % 2 == 0 ? 0.0 : 100.0)});
  }
  const Relation relation =
      FromRows(Schema({{"x", DataType::kDouble, SemanticType::kContinuous},
                       {"z", DataType::kDouble, SemanticType::kContinuous},
                       {"y", DataType::kDouble, SemanticType::kContinuous}}),
               rows);
  const EncodedRelation encoded = EncodedRelation::Encode(relation);
  const double inf = std::numeric_limits<double>::infinity();
  const AttributeSet xz = AttributeSet::Of({0, 1});
  ASSERT_EQ(*ComputeMinimalDelta(encoded, 0, 2, 1.0), 0.0);
  ASSERT_EQ(*ComputeMinimalDelta(encoded, 0, 2, inf), 100.0);
  ASSERT_EQ(*ComputeMinimalDelta(encoded, xz, {1.0, 1.0}, 2), 0.0);
  ASSERT_EQ(*ComputeMinimalDelta(encoded, xz, {inf, inf}, 2), 100.0);
  for (double eps : {std::numeric_limits<double>::quiet_NaN(), -1.0}) {
    SCOPED_TRACE("eps " + std::to_string(eps));
    EXPECT_TRUE(ComputeMinimalDelta(relation, 0, 2, eps).status().IsInvalid());
    EXPECT_TRUE(ComputeMinimalDelta(encoded, 0, 2, eps).status().IsInvalid());
    EXPECT_TRUE(
        CheckDifferential(encoded, 0, 2, eps, 50.0).status().IsInvalid());
    EXPECT_TRUE(ComputeMinimalDelta(encoded, AttributeSet::Single(0), {eps}, 2)
                    .status()
                    .IsInvalid());
    EXPECT_TRUE(
        ComputeMinimalDelta(encoded, xz, {eps, 1.0}, 2).status().IsInvalid());
    EXPECT_TRUE(
        ComputeMinimalDelta(encoded, xz, {1.0, eps}, 2).status().IsInvalid());
    EXPECT_TRUE(ValidateDependency(relation, Dependency::Dd(0, 2, eps, 150.0))
                    .status()
                    .IsInvalid());
    EXPECT_TRUE(
        ValidateDependency(encoded, Dependency::Dd(xz, 2, {1.0, eps}, 150.0))
            .status()
            .IsInvalid());
  }
}

}  // namespace
}  // namespace metaleak
