// Tests for the dictionary-encoding layer (EncodedRelation) and for the
// agreement between the boxed-Value paths (the oracles in tests/reference
// and the library's Relation overloads) and the code paths built on top
// of the encoding: PLI construction, distribution profiles,
// order-dependency validation (against the sorted-pair oracle),
// minimal-delta computation and full FD discovery must produce identical
// results on both representations.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"

#include "data/datasets/echocardiogram.h"
#include "data/datasets/employee.h"
#include "data/csv_loader.h"
#include "data/datasets/synthetic.h"
#include "data/delta_relation.h"
#include "data/domain.h"
#include "data/encoded_relation.h"
#include "data/relation.h"
#include "discovery/discovery_engine.h"
#include "discovery/tane.h"
#include "discovery/validators.h"
#include "metadata/value_distribution.h"
#include "partition/pli_cache.h"
#include "partition/position_list_index.h"
#include "privacy/identifiability.h"
#include "reference/distribution_reference.h"
#include "reference/encode_reference.h"
#include "reference/order_reference.h"
#include "reference/pli_reference.h"

namespace metaleak {
namespace {

Schema TestSchema() {
  return Schema({
      {"id", DataType::kInt64, SemanticType::kCategorical},
      {"score", DataType::kDouble, SemanticType::kContinuous},
      {"label", DataType::kString, SemanticType::kCategorical},
  });
}

Relation TestRelation() {
  return std::move(Relation::Make(
                       TestSchema(),
                       {{Value::Int(3), Value::Int(1), Value::Int(3),
                         Value::Null(), Value::Int(2)},
                        {Value::Real(0.5), Value::Null(), Value::Real(0.5),
                         Value::Real(-1.0), Value::Real(2.25)},
                        {Value::Str("b"), Value::Str("a"), Value::Str("b"),
                         Value::Null(), Value::Str("a")}}))
      .ValueOrDie();
}

Relation Synthetic50(uint64_t seed) {
  return std::move(datasets::SyntheticUniform(50, 3, 2, 8, seed))
      .ValueOrDie();
}

// Canonical cluster form: clusters sorted, rows within already ascending
// for the code path and made ascending here for the hash path.
std::vector<std::vector<size_t>> Canonical(const PositionListIndex& pli) {
  std::vector<std::vector<size_t>> out = pli.ToNestedClusters();
  for (auto& c : out) std::sort(c.begin(), c.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> DependencyStrings(const DependencySet& deps,
                                           const Schema& schema) {
  std::vector<std::string> out;
  for (const Dependency& d : deps) out.push_back(d.ToString(schema));
  std::sort(out.begin(), out.end());
  return out;
}

// --- Encoding basics ---------------------------------------------------------

TEST(EncodedRelationTest, RoundTripDecodeEqualsOriginal) {
  for (const Relation& rel :
       {TestRelation(), datasets::Employee(), datasets::Echocardiogram(),
        Synthetic50(7)}) {
    EncodedRelation encoded = EncodedRelation::Encode(rel);
    auto decoded = encoded.Decode();
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, rel);
  }
}

TEST(EncodedRelationTest, NullGetsTheReservedCode) {
  Relation rel = TestRelation();
  EncodedRelation encoded = EncodedRelation::Encode(rel);
  // Row 3 of "id" and "label" is NULL; row 1 of "score" is NULL.
  EXPECT_EQ(encoded.code_at(3, 0), ColumnDictionary::kNullCode);
  EXPECT_EQ(encoded.code_at(1, 1), ColumnDictionary::kNullCode);
  EXPECT_TRUE(encoded.is_null(3, 2));
  EXPECT_FALSE(encoded.is_null(0, 0));

  const ColumnDictionary& id = encoded.dictionary(0);
  EXPECT_TRUE(id.has_null());
  EXPECT_EQ(id.null_count(), 1u);
  EXPECT_TRUE(id.decode(ColumnDictionary::kNullCode).is_null());
  EXPECT_EQ(id.count(ColumnDictionary::kNullCode), 1u);

  // The NULL slot exists even for columns without NULLs, so code 0 never
  // aliases a real value.
  Relation no_nulls = std::move(Relation::Make(
                                    TestSchema(),
                                    {{Value::Int(1), Value::Int(1)},
                                     {Value::Real(0.0), Value::Real(1.0)},
                                     {Value::Str("x"), Value::Str("y")}}))
                          .ValueOrDie();
  EncodedRelation e2 = EncodedRelation::Encode(no_nulls);
  EXPECT_FALSE(e2.dictionary(0).has_null());
  EXPECT_EQ(e2.dictionary(0).count(ColumnDictionary::kNullCode), 0u);
  EXPECT_EQ(e2.dictionary(0).num_codes(), 2u);  // NULL slot + value 1
  EXPECT_EQ(e2.dictionary(0).num_distinct(), 1u);
}

TEST(EncodedRelationTest, AllNullColumnHasOnlyTheNullCode) {
  Relation rel = std::move(Relation::Make(
                               TestSchema(),
                               {{Value::Null(), Value::Null()},
                                {Value::Null(), Value::Null()},
                                {Value::Null(), Value::Null()}}))
                     .ValueOrDie();
  EncodedRelation encoded = EncodedRelation::Encode(rel);
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(encoded.dictionary(c).num_distinct(), 0u);
    EXPECT_EQ(encoded.dictionary(c).null_count(), 2u);
    for (uint32_t code : encoded.column(c).ToU32()) {
      EXPECT_EQ(code, ColumnDictionary::kNullCode);
    }
  }
  auto decoded = encoded.Decode();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, rel);
}

// A key is a column whose every code, NULL included, occurs once: one
// NULL is a code like any value, two NULLs share a code. The
// identifiability sweep and the conditional-entropy cells both skip work
// on this test, so a version that ignores NULLs either way must fail.
TEST(EncodedRelationTest, KeyCountsOneNullAsACode) {
  auto column = [](std::initializer_list<int> xs) {
    std::vector<Value> out;
    for (int x : xs) out.push_back(x < 0 ? Value::Null() : Value::Int(x));
    return out;
  };
  Relation rel = std::move(Relation::Make(
                               Schema({{"distinct", DataType::kInt64,
                                        SemanticType::kCategorical},
                                       {"one_null", DataType::kInt64,
                                        SemanticType::kCategorical},
                                       {"two_nulls", DataType::kInt64,
                                        SemanticType::kCategorical},
                                       {"repeat", DataType::kInt64,
                                        SemanticType::kCategorical},
                                       {"all_null", DataType::kInt64,
                                        SemanticType::kCategorical}}),
                               {column({4, 1, 3, 2}), column({4, -1, 3, 2}),
                                column({4, -1, 3, -1}), column({4, 1, 4, 2}),
                                column({-1, -1, -1, -1})}))
                     .ValueOrDie();
  const EncodedRelation encoded = EncodedRelation::Encode(rel);
  EXPECT_TRUE(encoded.IsKey(0));
  EXPECT_TRUE(encoded.IsKey(1));
  EXPECT_FALSE(encoded.IsKey(2));
  EXPECT_FALSE(encoded.IsKey(3));
  EXPECT_FALSE(encoded.IsKey(4));
  // One row: a lone NULL is a key, as is a lone value.
  const EncodedRelation single = EncodedRelation::Encode(
      std::move(Relation::Make(
                    Schema({{"x", DataType::kInt64,
                             SemanticType::kCategorical},
                            {"y", DataType::kInt64,
                             SemanticType::kCategorical}}),
                    {column({-1}), column({7})}))
          .ValueOrDie());
  EXPECT_TRUE(single.IsKey(0));
  EXPECT_TRUE(single.IsKey(1));
}

TEST(EncodedRelationTest, CodesAreOrderPreservingOnNumericColumns) {
  Relation rel = Synthetic50(21);
  EncodedRelation encoded = EncodedRelation::Encode(rel);
  for (size_t c = 0; c < rel.num_columns(); ++c) {
    for (size_t r = 0; r < rel.num_rows(); ++r) {
      for (size_t s = 0; s < rel.num_rows(); ++s) {
        const Value& a = rel.at(r, c);
        const Value& b = rel.at(s, c);
        if (a.is_null() || b.is_null()) continue;
        uint32_t ca = encoded.code_at(r, c);
        uint32_t cb = encoded.code_at(s, c);
        EXPECT_EQ(a < b, ca < cb);
        EXPECT_EQ(a == b, ca == cb);
      }
    }
  }
}

TEST(EncodedRelationTest, DictionaryMatchesFrequencyTable) {
  Relation rel = datasets::Employee();
  EncodedRelation encoded = EncodedRelation::Encode(rel);
  for (size_t c = 0; c < rel.num_columns(); ++c) {
    auto table = reference::BuildFrequencyTable(rel, c);
    ASSERT_TRUE(table.ok());
    const ColumnDictionary& dict = encoded.dictionary(c);
    ASSERT_EQ(table->values.size(), dict.num_distinct());
    EXPECT_EQ(table->values, dict.DistinctValues());
    for (uint32_t code = 1; code < dict.num_codes(); ++code) {
      EXPECT_EQ(table->counts[code - 1], dict.count(code));
    }
  }
}

TEST(EncodedRelationTest, DomainsMatchExtractDomain) {
  for (const Relation& rel :
       {datasets::Employee(), datasets::Echocardiogram(), Synthetic50(3)}) {
    EncodedRelation encoded = EncodedRelation::Encode(rel);
    for (size_t c = 0; c < rel.num_columns(); ++c) {
      auto expected = ExtractDomain(rel, c);
      auto actual = encoded.DomainOf(c);
      ASSERT_EQ(expected.ok(), actual.ok());
      if (expected.ok()) EXPECT_EQ(*expected, *actual);
    }
  }
}

TEST(EncodedRelationTest, FingerprintIsStableAndContentSensitive) {
  Relation a = Synthetic50(5);
  Relation b = Synthetic50(5);
  Relation c = Synthetic50(6);
  EXPECT_EQ(EncodedRelation::Encode(a).Fingerprint(),
            EncodedRelation::Encode(b).Fingerprint());
  EXPECT_NE(EncodedRelation::Encode(a).Fingerprint(),
            EncodedRelation::Encode(c).Fingerprint());
}

TEST(EncodedRelationTest, DistributionsMatchValuePath) {
  Relation rel = Synthetic50(11);
  EncodedRelation encoded = EncodedRelation::Encode(rel);
  for (size_t c = 0; c < rel.num_columns(); ++c) {
    auto value_path = reference::DistributionFromColumn(rel, c, 8);
    auto code_path = ValueDistribution::FromEncoded(encoded, c, 8);
    ASSERT_TRUE(value_path.ok());
    ASSERT_TRUE(code_path.ok());
    EXPECT_TRUE(*value_path == *code_path);
  }
}

// --- Value-path vs code-path agreement ---------------------------------------

TEST(EncodingAgreementTest, SingleColumnPlisAgree) {
  for (const Relation& rel :
       {TestRelation(), datasets::Employee(), datasets::Echocardiogram(),
        Synthetic50(13)}) {
    EncodedRelation encoded = EncodedRelation::Encode(rel);
    for (size_t c = 0; c < rel.num_columns(); ++c) {
      PositionListIndex value_path = reference::PliFromColumn(rel.column(c));
      PositionListIndex code_path = PositionListIndex::FromCodes(
          encoded.column(c).ToU32(), encoded.dictionary(c).num_codes());
      EXPECT_EQ(Canonical(value_path), Canonical(code_path));
      EXPECT_EQ(value_path.num_rows(), code_path.num_rows());
    }
  }
}

TEST(EncodingAgreementTest, MultiColumnPlisAgree) {
  for (const Relation& rel :
       {TestRelation(), datasets::Employee(), Synthetic50(17)}) {
    EncodedRelation encoded = EncodedRelation::Encode(rel);
    for (size_t a = 0; a < rel.num_columns(); ++a) {
      for (size_t b = a + 1; b < rel.num_columns(); ++b) {
        PositionListIndex value_path =
            reference::PliFromColumns(rel, {a, b});
        PositionListIndex code_path =
            PositionListIndex::FromEncoded(encoded, {a, b});
        EXPECT_EQ(Canonical(value_path), Canonical(code_path));
      }
    }
  }
}

TEST(EncodingAgreementTest, OdAndOfdValidationAgrees) {
  for (const Relation& rel :
       {TestRelation(), datasets::Employee(), datasets::Echocardiogram(),
        Synthetic50(19)}) {
    EncodedRelation encoded = EncodedRelation::Encode(rel);
    for (size_t x = 0; x < rel.num_columns(); ++x) {
      for (size_t y = 0; y < rel.num_columns(); ++y) {
        if (x == y) continue;
        EXPECT_EQ(reference::ValidateOd(rel, x, y),
                  ValidateOd(encoded, x, y))
            << "OD " << x << " -> " << y;
        EXPECT_EQ(reference::ValidateOfd(rel, x, y),
                  ValidateOfd(encoded, x, y))
            << "OFD " << x << " -> " << y;
      }
    }
  }
}

TEST(EncodingAgreementTest, MinimalDeltaAgrees) {
  Relation rel = datasets::Echocardiogram();
  EncodedRelation encoded = EncodedRelation::Encode(rel);
  std::vector<size_t> continuous =
      rel.schema().IndicesOf(SemanticType::kContinuous);
  ASSERT_GE(continuous.size(), 2u);
  for (size_t x : continuous) {
    for (size_t y : continuous) {
      if (x == y) continue;
      auto value_path = ComputeMinimalDelta(rel, x, y, 2.0);
      auto code_path = ComputeMinimalDelta(encoded, x, y, 2.0);
      ASSERT_EQ(value_path.ok(), code_path.ok());
      if (value_path.ok()) EXPECT_DOUBLE_EQ(*value_path, *code_path);
    }
  }
}

TEST(EncodingAgreementTest, DiscoveryOutputIsIdentical) {
  for (const Relation& rel :
       {datasets::Employee(), datasets::Echocardiogram(),
        Synthetic50(23)}) {
    EncodedRelation encoded = EncodedRelation::Encode(rel);
    DiscoveryOptions options;
    options.discover_afds = true;
    auto from_relation = ProfileRelation(rel, options);
    auto from_encoded = ProfileRelation(encoded, options);
    ASSERT_TRUE(from_relation.ok());
    ASSERT_TRUE(from_encoded.ok());
    EXPECT_EQ(DependencyStrings(from_relation->metadata.dependencies,
                                rel.schema()),
              DependencyStrings(from_encoded->metadata.dependencies,
                                rel.schema()));
    EXPECT_EQ(from_relation->metadata.domains.size(),
              from_encoded->metadata.domains.size());
    ASSERT_EQ(from_relation->search_stats.size(),
              from_encoded->search_stats.size());
    for (size_t i = 0; i < from_relation->search_stats.size(); ++i) {
      EXPECT_EQ(from_relation->search_stats[i].search,
                from_encoded->search_stats[i].search);
      EXPECT_EQ(from_relation->search_stats[i].stats.nodes_visited,
                from_encoded->search_stats[i].stats.nodes_visited);
      EXPECT_EQ(
          from_relation->search_stats[i].stats.validator_invocations,
          from_encoded->search_stats[i].stats.validator_invocations);
    }
  }
}

TEST(EncodingAgreementTest, UniqueRowsAgreesWithRelationOverload) {
  Relation rel = datasets::Employee();
  EncodedRelation encoded = EncodedRelation::Encode(rel);
  for (size_t c = 0; c < rel.num_columns(); ++c) {
    auto value_path = UniqueRows(rel, AttributeSet::Single(c));
    auto code_path = UniqueRows(encoded, AttributeSet::Single(c));
    ASSERT_TRUE(value_path.ok());
    ASSERT_TRUE(code_path.ok());
    EXPECT_EQ(*value_path, *code_path);
  }
}

// --- PliCache keying ---------------------------------------------------------

TEST(PliCacheKeyTest, KeyedByAttributeSet) {
  Relation rel = Synthetic50(29);
  EncodedRelation encoded = EncodedRelation::Encode(rel);
  PliCache cache(&encoded);
  EXPECT_EQ(cache.fingerprint(), encoded.Fingerprint());
  const PositionListIndex* a = cache.Get(AttributeSet::Of({0, 1}));
  const PositionListIndex* b = cache.Get(AttributeSet::Of({0, 1}));
  EXPECT_EQ(a, b);  // cached, not rebuilt
  EXPECT_NE(cache.Get(AttributeSet::Of({0, 2})), a);
  EXPECT_EQ(Canonical(*a),
            Canonical(PositionListIndex::FromEncoded(encoded, {0, 1})));
}

// --- Encode vs the sort + lower_bound reference -----------------------------

// Dictionaries, counts, widths, codes and fingerprint all agree.
void ExpectIdenticalEncodings(const EncodedRelation& actual,
                              const EncodedRelation& expected) {
  ASSERT_EQ(actual.num_rows(), expected.num_rows());
  ASSERT_EQ(actual.num_columns(), expected.num_columns());
  for (size_t c = 0; c < actual.num_columns(); ++c) {
    const ColumnDictionary& a = actual.dictionary(c);
    const ColumnDictionary& b = expected.dictionary(c);
    ASSERT_EQ(a.num_codes(), b.num_codes()) << "column " << c;
    EXPECT_EQ(a.DistinctValues(), b.DistinctValues()) << "column " << c;
    // Value == cannot see the sign of a zero; the bits can.
    for (uint32_t code = 1; code < a.num_codes(); ++code) {
      if (a.decode(code).is_double() && b.decode(code).is_double()) {
        EXPECT_EQ(std::bit_cast<uint64_t>(a.decode(code).AsDouble()),
                  std::bit_cast<uint64_t>(b.decode(code).AsDouble()))
            << "column " << c << " code " << code;
      }
    }
    std::vector<size_t> counts_a;
    std::vector<size_t> counts_b;
    for (uint32_t code = 0; code < a.num_codes(); ++code) {
      counts_a.push_back(a.count(code));
      counts_b.push_back(b.count(code));
    }
    EXPECT_EQ(counts_a, counts_b) << "column " << c;
    EXPECT_EQ(a.null_count(), b.null_count()) << "column " << c;
    EXPECT_EQ(actual.column_width(c), expected.column_width(c))
        << "column " << c;
    EXPECT_TRUE(actual.column(c) == expected.column(c)) << "column " << c;
  }
  EXPECT_EQ(actual.Fingerprint(), expected.Fingerprint());
}

void ExpectMatchesReference(const Relation& relation) {
  ExpectIdenticalEncodings(EncodedRelation::Encode(relation),
                           reference::Encode(relation));
}

// Sets a code-width floor for one scope.
class ScopedWidthFloor {
 public:
  explicit ScopedWidthFloor(CodeWidth floor) {
    SetCodeWidthFloorOverride(floor);
  }
  ~ScopedWidthFloor() { ClearCodeWidthFloorOverride(); }
};

Schema OneOfEachType() {
  return Schema({
      {"i", DataType::kInt64, SemanticType::kCategorical},
      {"d", DataType::kDouble, SemanticType::kContinuous},
      {"s", DataType::kString, SemanticType::kCategorical},
  });
}

// One int64, one double and one string column. Each column draws from a
// pool of `pool` random values (so duplicates occur) that includes the
// awkward cases: int64 extremes and ints above 2^53, signed zeros and
// infinities, empty strings and bytes >= 0x80.
Relation RandomTypedRelation(size_t rows, double null_rate, size_t pool,
                             uint64_t seed) {
  Rng rng(seed);
  const int64_t k53 = int64_t{1} << 53;
  std::vector<Value> ints = {Value::Int(std::numeric_limits<int64_t>::min()),
                             Value::Int(std::numeric_limits<int64_t>::max()),
                             Value::Int(k53), Value::Int(k53 + 1)};
  std::vector<Value> doubles = {
      Value::Real(-0.0), Value::Real(0.0),
      Value::Real(std::numeric_limits<double>::infinity()),
      Value::Real(-std::numeric_limits<double>::infinity()),
      Value::Real(std::numeric_limits<double>::denorm_min())};
  std::vector<Value> strings = {Value::Str(""), Value::Str("\xff"),
                                Value::Str("a\x80")};
  while (ints.size() < pool) {
    ints.push_back(Value::Int(
        rng.Bernoulli(0.5)
            ? rng.UniformInt(std::numeric_limits<int64_t>::min(),
                             std::numeric_limits<int64_t>::max())
            : rng.UniformInt(-50, 50)));
  }
  while (doubles.size() < pool) {
    doubles.push_back(Value::Real(rng.Bernoulli(0.5)
                                      ? rng.Normal(0.0, 1e6)
                                      : std::round(rng.Normal(0.0, 8.0))));
  }
  while (strings.size() < pool) {
    std::string s(rng.UniformIndex(6), ' ');
    for (char& ch : s) ch = static_cast<char>(rng.UniformInt(0x20, 0xFF));
    strings.push_back(Value::Str(std::move(s)));
  }
  std::vector<std::vector<Value>> columns(3);
  const std::vector<Value>* pools[] = {&ints, &doubles, &strings};
  for (size_t c = 0; c < 3; ++c) {
    const std::vector<Value>& from = *pools[c];
    const size_t span = std::min(pool, from.size());
    columns[c].reserve(rows);
    for (size_t r = 0; r < rows; ++r) {
      columns[c].push_back(rng.Bernoulli(null_rate)
                               ? Value::Null()
                               : from[rng.UniformIndex(span)]);
    }
  }
  return std::move(Relation::Make(OneOfEachType(), std::move(columns)))
      .ValueOrDie();
}

TEST(EncodeOracleTest, RandomTypedColumnsMatchReference) {
  for (double null_rate : {0.0, 0.3, 1.0}) {
    for (size_t pool : {1u, 7u, 300u, 5000u}) {
      for (uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(testing::Message() << "null_rate " << null_rate
                                        << " pool " << pool << " seed "
                                        << seed);
        ExpectMatchesReference(
            RandomTypedRelation(3000, null_rate, pool, seed));
      }
    }
  }
}

TEST(EncodeOracleTest, WidthBoundaryCardinalitiesMatchReferenceUnderFloors) {
  Schema schema({{"i", DataType::kInt64, SemanticType::kCategorical},
                 {"s", DataType::kString, SemanticType::kCategorical}});
  // num_codes = distinct + 1 lands on 254/255/256 and 65534/65535/65536.
  for (size_t distinct : {253u, 254u, 255u, 65533u, 65534u, 65535u}) {
    Rng rng(distinct);
    const size_t rows = distinct + 64;
    std::vector<std::vector<Value>> columns(2);
    for (size_t r = 0; r < rows; ++r) {
      // Every value occurs at least once; the tail repeats some, and a
      // few of its cells are NULL.
      const size_t k = r < distinct ? r : rng.UniformIndex(distinct);
      const bool null = r >= distinct && rng.Bernoulli(0.25);
      columns[0].push_back(
          null ? Value::Null()
               : Value::Int(static_cast<int64_t>(k) * 7919 - 100000));
      columns[1].push_back(null ? Value::Null()
                                : Value::Str("v" + std::to_string(k)));
    }
    for (std::vector<Value>& column : columns) {
      for (size_t r = rows - 1; r > 0; --r) {
        std::swap(column[r], column[rng.UniformIndex(r + 1)]);
      }
    }
    Relation rel =
        std::move(Relation::Make(schema, std::move(columns))).ValueOrDie();
    for (CodeWidth floor : {CodeWidth::kU8, CodeWidth::kU16, CodeWidth::kU32}) {
      SCOPED_TRACE(testing::Message() << "distinct " << distinct
                                      << " floor " << CodeWidthName(floor));
      ScopedWidthFloor scoped(floor);
      EncodedRelation encoded = EncodedRelation::Encode(rel);
      for (size_t c = 0; c < rel.num_columns(); ++c) {
        EXPECT_EQ(encoded.dictionary(c).num_distinct(), distinct);
        EXPECT_EQ(encoded.column_width(c),
                  std::max(floor, CodeWidthForNumCodes(distinct + 1)));
      }
      ExpectIdenticalEncodings(encoded, reference::Encode(rel));
    }
  }
}

TEST(EncodeOracleTest, DatasetsMatchReference) {
  ExpectMatchesReference(datasets::Employee());
  ExpectMatchesReference(datasets::Echocardiogram());
  ExpectMatchesReference(
      std::move(datasets::SyntheticZipfScale(200000, /*seed=*/21))
          .ValueOrDie());
}

// --- Boundary values: int64 above 2^53, signed zeros, NaN -------------------

TEST(EncodeBoundaryTest, Int64ExtremesGetDistinctOrderPreservingCodes) {
  const int64_t k53 = int64_t{1} << 53;
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  EXPECT_TRUE(Value::Int(k53) < Value::Int(k53 + 1));
  EXPECT_FALSE(Value::Int(k53 + 1) < Value::Int(k53));

  const std::vector<int64_t> ints = {k53 + 1, kMax, k53, kMin, k53 + 1,
                                     -k53 - 1, -k53, 0};
  Schema schema({{"x", DataType::kInt64, SemanticType::kCategorical}});
  std::vector<Value> column;
  for (int64_t i : ints) column.push_back(Value::Int(i));
  Relation rel =
      std::move(Relation::Make(schema, {column})).ValueOrDie();
  EncodedRelation encoded = EncodedRelation::Encode(rel);
  EXPECT_EQ(encoded.dictionary(0).num_distinct(), 7u);
  for (size_t r = 0; r < ints.size(); ++r) {
    for (size_t s = 0; s < ints.size(); ++s) {
      EXPECT_EQ(ints[r] < ints[s], encoded.code_at(r, 0) < encoded.code_at(s, 0));
      EXPECT_EQ(ints[r] == ints[s],
                encoded.code_at(r, 0) == encoded.code_at(s, 0));
    }
  }
  Result<Relation> decoded = encoded.Decode();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, rel);
  ExpectIdenticalEncodings(encoded, reference::Encode(rel));

  // Inserting the same values through the delta layer publishes exactly
  // what a rebuild encodes.
  Relation base = std::move(Relation::Make(schema, {{Value::Int(0),
                                                     Value::Int(k53)}}))
                      .ValueOrDie();
  DeltaRelation delta(EncodedRelation::Encode(base));
  RowBatch batch;
  for (int64_t i : ints) batch.insert_rows.push_back({Value::Int(i)});
  ASSERT_TRUE(delta.ApplyBatch(batch).ok());
  PublishResult publish = delta.PublishCanonical();
  for (const std::vector<Value>& row : batch.insert_rows) {
    ASSERT_TRUE(base.AppendRow(row).ok());
  }
  ExpectIdenticalEncodings(publish.encoded, EncodedRelation::Encode(base));
}

// -0.0 and +0.0 share one code, represented by +0.0 whichever sign comes
// first, so a publish that deletes a zero's first occurrence still equals
// a rebuild of the rows left.
TEST(EncodeBoundaryTest, SignedZerosShareOneCodeRepresentedByPositiveZero) {
  Schema schema({{"d", DataType::kDouble, SemanticType::kContinuous}});
  for (bool negative_first : {true, false}) {
    SCOPED_TRACE(negative_first ? "-0.0 first" : "+0.0 first");
    const double first = negative_first ? -0.0 : 0.0;
    const double second = negative_first ? 0.0 : -0.0;
    Relation rel =
        std::move(Relation::Make(
                      schema, {{Value::Real(first), Value::Real(1.0),
                                Value::Real(second), Value::Null(),
                                Value::Real(-1.0), Value::Real(first)}}))
            .ValueOrDie();
    EncodedRelation encoded = EncodedRelation::Encode(rel);
    const ColumnDictionary& dict = encoded.dictionary(0);
    EXPECT_EQ(dict.num_distinct(), 3u);  // -1.0, 0.0, 1.0
    const uint32_t zero = encoded.code_at(0, 0);
    EXPECT_EQ(encoded.code_at(2, 0), zero);
    EXPECT_EQ(encoded.code_at(5, 0), zero);
    EXPECT_EQ(zero, 2u);
    EXPECT_EQ(dict.count(zero), 3u);
    EXPECT_FALSE(std::signbit(dict.decode(zero).AsDouble()));
    ExpectIdenticalEncodings(encoded, reference::Encode(rel));

    // Deleting every zero, then inserting zeros of both signs into the
    // column that has none left, publishes what a rebuild encodes.
    DeltaRelation delta(encoded);
    RowBatch deletes;
    deletes.delete_rows = {0, 2, 5};
    ASSERT_TRUE(delta.ApplyBatch(deletes).ok());
    Relation rest = std::move(Relation::Make(schema, {{Value::Real(1.0),
                                                       Value::Null(),
                                                       Value::Real(-1.0)}}))
                        .ValueOrDie();
    ExpectIdenticalEncodings(delta.PublishCanonical().encoded,
                             EncodedRelation::Encode(rest));
    RowBatch inserts;
    inserts.insert_rows = {{Value::Real(second)}, {Value::Real(first)}};
    ASSERT_TRUE(delta.ApplyBatch(inserts).ok());
    for (const std::vector<Value>& row : inserts.insert_rows) {
      ASSERT_TRUE(rest.AppendRow(row).ok());
    }
    ExpectIdenticalEncodings(delta.PublishCanonical().encoded,
                             EncodedRelation::Encode(rest));
  }
}

TEST(EncodeBoundaryTest, NaNIsRejectedAtEveryEntryPoint) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Schema schema({{"k", DataType::kInt64, SemanticType::kCategorical},
                 {"score", DataType::kDouble, SemanticType::kContinuous}});
  auto expect_rejected = [](const Status& status) {
    EXPECT_TRUE(status.IsInvalid()) << status.ToString();
    EXPECT_NE(status.message().find("'score'"), std::string::npos)
        << status.ToString();
  };

  expect_rejected(
      Relation::Make(schema, {{Value::Int(1)}, {Value::Real(nan)}}).status());

  Relation appended = Relation::Empty(schema);
  expect_rejected(appended.AppendRow({Value::Int(1), Value::Real(nan)}));
  EXPECT_EQ(appended.num_rows(), 0u);

  RelationBuilder builder(schema);
  builder.AddRow({Value::Int(1), Value::Real(0.5)})
      .AddRow({Value::Int(2), Value::Real(nan)});
  expect_rejected(builder.Finish().status());

  Relation base = std::move(Relation::Make(
                                schema, {{Value::Int(1)}, {Value::Real(0.5)}}))
                      .ValueOrDie();
  EncodedRelation encoded = EncodedRelation::Encode(base);
  DeltaRelation delta(encoded);
  RowBatch batch;
  batch.insert_rows = {{Value::Int(2), Value::Real(1.5)},
                       {Value::Int(3), Value::Real(nan)}};
  expect_rejected(delta.ApplyBatch(batch).status());
  EXPECT_EQ(delta.num_rows(), 1u);  // validated before any mutation
  EXPECT_EQ(delta.PublishCanonical().encoded.Fingerprint(),
            encoded.Fingerprint());

  expect_rejected(LoadCsvRelation("k,score\n1,0.5\n2,nan\n").status());
}

}  // namespace
}  // namespace metaleak
