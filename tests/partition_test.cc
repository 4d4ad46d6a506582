// Unit tests for src/partition: AttributeSet, PLI, PliCache.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "data/encoded_relation.h"
#include "data/relation.h"
#include "partition/attribute_set.h"
#include "partition/pli_cache.h"
#include "partition/position_list_index.h"
#include "reference/pli_reference.h"

namespace metaleak {
namespace {

// --- AttributeSet ------------------------------------------------------------

TEST(AttributeSetTest, BasicOps) {
  AttributeSet s = AttributeSet::Of({1, 3, 5});
  EXPECT_EQ(s.size(), 3u);
  EXPECT_TRUE(s.Contains(3));
  EXPECT_FALSE(s.Contains(2));
  EXPECT_EQ(s.ToIndices(), (std::vector<size_t>{1, 3, 5}));
  EXPECT_EQ(s.ToString(), "{1,3,5}");
}

TEST(AttributeSetTest, SetAlgebra) {
  AttributeSet a = AttributeSet::Of({0, 1, 2});
  AttributeSet b = AttributeSet::Of({2, 3});
  EXPECT_EQ(a.Union(b), AttributeSet::Of({0, 1, 2, 3}));
  EXPECT_EQ(a.Intersect(b), AttributeSet::Of({2}));
  EXPECT_EQ(a.Minus(b), AttributeSet::Of({0, 1}));
  EXPECT_TRUE(a.ContainsAll(AttributeSet::Of({0, 2})));
  EXPECT_FALSE(a.ContainsAll(b));
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(AttributeSet::Of({0}).Intersects(AttributeSet::Of({1})));
}

TEST(AttributeSetTest, WithWithout) {
  AttributeSet s;
  EXPECT_TRUE(s.empty());
  s = s.With(7).With(2);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.Without(7) == AttributeSet::Single(2));
  EXPECT_EQ(s.Without(9), s);  // removing absent index is a no-op
}

TEST(AttributeSetTest, FullSet) {
  EXPECT_EQ(AttributeSet::FullSet(3).ToIndices(),
            (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(AttributeSet::FullSet(64).size(), 64u);
  EXPECT_TRUE(AttributeSet::FullSet(0).empty());
}

// --- PositionListIndex ----------------------------------------------------------

std::vector<Value> Ints(std::initializer_list<int64_t> xs) {
  std::vector<Value> out;
  for (int64_t x : xs) out.push_back(Value::Int(x));
  return out;
}

// The PLI the library builds for one column: encode it, then group the
// codes.
PositionListIndex Pli(const std::vector<Value>& column) {
  DataType type = DataType::kInt64;
  for (const Value& v : column) {
    if (v.is_string()) type = DataType::kString;
  }
  Relation r = std::move(Relation::Make(
                             Schema({{"x", type, SemanticType::kCategorical}}),
                             {column}))
                   .ValueOrDie();
  return PositionListIndex::FromEncoded(EncodedRelation::Encode(r), {0});
}

TEST(PliTest, StripsSingletons) {
  // Values: 1 1 2 3 3 3 -> clusters {0,1}, {3,4,5}; 2 is stripped.
  PositionListIndex pli = Pli(Ints({1, 1, 2, 3, 3, 3}));
  EXPECT_EQ(pli.num_clusters(), 2u);
  EXPECT_EQ(pli.num_stripped_rows(), 5u);
  EXPECT_EQ(pli.num_rows(), 6u);
  EXPECT_EQ(pli.num_classes(), 3u);
}

TEST(PliTest, NullsClusterTogether) {
  std::vector<Value> col = {Value::Null(), Value::Int(1), Value::Null()};
  PositionListIndex pli = Pli(col);
  ASSERT_EQ(pli.num_clusters(), 1u);
  EXPECT_EQ(pli.clusters()[0].size(), 2u);
}

TEST(PliTest, AllUniqueYieldsNoClusters) {
  PositionListIndex pli = Pli(Ints({1, 2, 3}));
  EXPECT_EQ(pli.num_clusters(), 0u);
  EXPECT_EQ(pli.num_classes(), 3u);
}

TEST(PliTest, IdentityHasOneCluster) {
  PositionListIndex pli = PositionListIndex::Identity(4);
  EXPECT_EQ(pli.num_clusters(), 1u);
  EXPECT_EQ(pli.num_stripped_rows(), 4u);
  EXPECT_EQ(PositionListIndex::Identity(1).num_clusters(), 0u);
  EXPECT_EQ(PositionListIndex::Identity(0).num_rows(), 0u);
}

TEST(PliTest, ProbeTableMarksSingletons) {
  PositionListIndex pli = Pli(Ints({1, 1, 2}));
  const std::vector<int32_t>& probe = pli.probe_table();
  EXPECT_EQ(probe[0], probe[1]);
  EXPECT_EQ(probe[2], PositionListIndex::kUnique);
}

TEST(PliTest, IntersectMatchesProductPartition) {
  // X: a a b b ; Y: 1 2 1 1  -> XY classes: (a,1) (a,2) (b,1) (b,1)
  PositionListIndex x = Pli(
      {Value::Str("a"), Value::Str("a"), Value::Str("b"), Value::Str("b")});
  PositionListIndex y = Pli(Ints({1, 2, 1, 1}));
  PositionListIndex xy = x.Intersect(y);
  ASSERT_EQ(xy.num_clusters(), 1u);
  EXPECT_EQ(xy.cluster(0).ToVector(), (std::vector<size_t>{2, 3}));
}

TEST(PliTest, RefinesDetectsFd) {
  // X -> Y holds: equal X implies equal Y.
  PositionListIndex x = Pli(Ints({1, 1, 2, 2, 3}));
  PositionListIndex y_good = Pli(Ints({5, 5, 6, 6, 5}));
  PositionListIndex y_bad = Pli(Ints({5, 6, 6, 6, 5}));
  EXPECT_TRUE(x.Refines(y_good));
  EXPECT_FALSE(x.Refines(y_bad));
}

TEST(PliTest, RefinesFailsWhenRhsSingletonSplitsCluster) {
  // X has cluster {0,1}; Y values 7, 8 are both unique -> violation.
  PositionListIndex x = Pli(Ints({1, 1, 2}));
  PositionListIndex y = Pli(Ints({7, 8, 9}));
  EXPECT_FALSE(x.Refines(y));
}

TEST(PliTest, G3ErrorCountsMinimumRemovals) {
  // X cluster {0,1,2} with Y values 5,5,6: one removal of three rows.
  PositionListIndex x = Pli(Ints({1, 1, 1}));
  PositionListIndex y = Pli(Ints({5, 5, 6}));
  EXPECT_NEAR(x.G3Error(y), 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(x.G3Error(x), 0.0);
}

TEST(PliTest, G3ErrorZeroIffRefines) {
  PositionListIndex x = Pli(Ints({1, 1, 2, 2}));
  PositionListIndex y = Pli(Ints({3, 3, 4, 4}));
  EXPECT_TRUE(x.Refines(y));
  EXPECT_DOUBLE_EQ(x.G3Error(y), 0.0);
}

TEST(PliTest, G3ErrorWithAllUniqueRhs) {
  // Cluster of 3, every Y unique: keep one row, remove two.
  PositionListIndex x = Pli(Ints({1, 1, 1}));
  PositionListIndex y = Pli(Ints({7, 8, 9}));
  EXPECT_NEAR(x.G3Error(y), 2.0 / 3.0, 1e-12);
}

TEST(PliTest, MaxFanoutCountsDistinctRhsPerCluster) {
  // X=1 maps to {5,6,7}; X=2 maps to {5}; max fan-out 3.
  PositionListIndex x = Pli(Ints({1, 1, 1, 2, 2}));
  PositionListIndex y = Pli(Ints({5, 6, 7, 5, 5}));
  EXPECT_EQ(x.MaxFanout(y), 3u);
}

TEST(PliTest, MaxFanoutOneForFd) {
  PositionListIndex x = Pli(Ints({1, 1, 2, 2}));
  PositionListIndex y = Pli(Ints({5, 5, 6, 6}));
  EXPECT_EQ(x.MaxFanout(y), 1u);
}

TEST(PliTest, FromColumnsProjectsTuples) {
  Schema schema({{"a", DataType::kInt64, SemanticType::kCategorical},
                 {"b", DataType::kInt64, SemanticType::kCategorical}});
  RelationBuilder builder(schema);
  builder.AddRow({Value::Int(1), Value::Int(1)})
      .AddRow({Value::Int(1), Value::Int(1)})
      .AddRow({Value::Int(1), Value::Int(2)});
  Relation r = std::move(builder.Finish()).ValueOrDie();
  PositionListIndex ab =
      PositionListIndex::FromEncoded(EncodedRelation::Encode(r), {0, 1});
  ASSERT_EQ(ab.num_clusters(), 1u);
  EXPECT_EQ(ab.cluster(0).ToVector(), (std::vector<size_t>{0, 1}));
}

// --- PliCache -------------------------------------------------------------------

TEST(PliCacheTest, CachesAndComposes) {
  Schema schema({{"a", DataType::kInt64, SemanticType::kCategorical},
                 {"b", DataType::kInt64, SemanticType::kCategorical},
                 {"c", DataType::kInt64, SemanticType::kCategorical}});
  RelationBuilder builder(schema);
  builder.AddRow({Value::Int(1), Value::Int(1), Value::Int(1)})
      .AddRow({Value::Int(1), Value::Int(1), Value::Int(2)})
      .AddRow({Value::Int(1), Value::Int(2), Value::Int(2)})
      .AddRow({Value::Int(2), Value::Int(2), Value::Int(2)});
  Relation r = std::move(builder.Finish()).ValueOrDie();
  const EncodedRelation encoded = EncodedRelation::Encode(r);
  PliCache cache(&encoded);
  size_t base = cache.size();  // empty set + singletons

  const PositionListIndex* ab = cache.Get(AttributeSet::Of({0, 1}));
  ASSERT_EQ(ab->num_clusters(), 1u);
  EXPECT_EQ(cache.size(), base + 1);
  // Second lookup hits the cache.
  EXPECT_EQ(cache.Get(AttributeSet::Of({0, 1})), ab);

  // Composite of three builds intermediates.
  const PositionListIndex* abc = cache.Get(AttributeSet::Of({0, 1, 2}));
  EXPECT_EQ(abc->num_rows(), 4u);
  // The product of all three attributes has all-unique tuples... rows 0/1
  // differ in c, rows 1/2 differ in b: every pair differs somewhere.
  EXPECT_EQ(abc->num_clusters(), 0u);
}

TEST(PliCacheTest, EmptySetIsIdentity) {
  Relation r = std::move(Relation::Make(
      Schema({{"a", DataType::kInt64, SemanticType::kCategorical}}),
      {{Value::Int(1), Value::Int(2), Value::Int(3)}})).ValueOrDie();
  const EncodedRelation encoded = EncodedRelation::Encode(r);
  PliCache cache(&encoded);
  const PositionListIndex* empty = cache.Get(AttributeSet());
  EXPECT_EQ(empty->num_clusters(), 1u);
  EXPECT_EQ(empty->num_stripped_rows(), 3u);
}

// Property: for random relations, Intersect(pli(X), pli(Y)) equals the
// boxed oracle's partition of X ∪ Y.
class PliPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PliPropertyTest, IntersectEqualsDirectConstruction) {
  Rng rng(GetParam());
  const size_t rows = 60;
  Schema schema({{"a", DataType::kInt64, SemanticType::kCategorical},
                 {"b", DataType::kInt64, SemanticType::kCategorical}});
  std::vector<std::vector<Value>> cols(2);
  for (size_t r = 0; r < rows; ++r) {
    cols[0].push_back(Value::Int(rng.UniformInt(0, 4)));
    cols[1].push_back(Value::Int(rng.UniformInt(0, 4)));
  }
  Relation rel = std::move(Relation::Make(schema, cols)).ValueOrDie();
  PositionListIndex a = Pli(rel.column(0));
  PositionListIndex b = Pli(rel.column(1));
  PositionListIndex via_intersect = a.Intersect(b);
  PositionListIndex direct = reference::PliFromColumns(rel, {0, 1});
  EXPECT_EQ(via_intersect.num_clusters(), direct.num_clusters());
  EXPECT_EQ(via_intersect.num_stripped_rows(), direct.num_stripped_rows());
  // Same partition as sets: compare sorted cluster contents.
  auto canonical = [](const PositionListIndex& pli) {
    std::vector<std::vector<size_t>> cs = pli.ToNestedClusters();
    for (auto& c : cs) std::sort(c.begin(), c.end());
    std::sort(cs.begin(), cs.end());
    return cs;
  };
  EXPECT_EQ(canonical(via_intersect), canonical(direct));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PliPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace metaleak
