// Unit tests for src/data: Value, Schema, Relation, Domain, CSV loading.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "data/csv_loader.h"
#include "data/domain.h"
#include "data/relation.h"
#include "data/schema.h"
#include "data/value.h"

namespace metaleak {
namespace {

// --- Value -------------------------------------------------------------------

TEST(ValueTest, NullSemantics) {
  Value n;
  EXPECT_TRUE(n.is_null());
  EXPECT_EQ(n, Value::Null());
  EXPECT_EQ(n.ToString(), "?");
}

TEST(ValueTest, TypedAccessors) {
  EXPECT_EQ(Value::Int(7).AsInt(), 7);
  EXPECT_DOUBLE_EQ(Value::Real(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::Str("hi").AsString(), "hi");
}

TEST(ValueTest, CrossTypeNumericValuesAreNotEqual) {
  EXPECT_NE(Value::Int(1), Value::Real(1.0));
  EXPECT_DOUBLE_EQ(Value::Int(1).AsNumeric(), Value::Real(1.0).AsNumeric());
}

TEST(ValueTest, OrderingNullNumericString) {
  EXPECT_LT(Value::Null(), Value::Int(0));
  EXPECT_LT(Value::Int(5), Value::Str("a"));
  EXPECT_LT(Value::Int(1), Value::Int(2));
  EXPECT_LT(Value::Real(1.5), Value::Int(2));  // numeric interleaving
  EXPECT_LT(Value::Str("a"), Value::Str("b"));
  EXPECT_FALSE(Value::Null() < Value::Null());
}

TEST(ValueTest, OrderingIsStrictWeak) {
  // Irreflexive + asymmetric on a mixed sample.
  std::vector<Value> vals = {Value::Null(),    Value::Int(1),
                             Value::Real(1.0), Value::Real(2.5),
                             Value::Str("x"),  Value::Int(-3)};
  for (const Value& a : vals) {
    EXPECT_FALSE(a < a);
    for (const Value& b : vals) {
      if (a < b) EXPECT_FALSE(b < a);
    }
  }
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(5).Hash(), Value::Int(5).Hash());
  EXPECT_EQ(Value::Str("ab").Hash(), Value::Str("ab").Hash());
  std::unordered_set<Value> set;
  set.insert(Value::Int(1));
  set.insert(Value::Int(1));
  set.insert(Value::Null());
  set.insert(Value::Null());
  EXPECT_EQ(set.size(), 2u);
}

// --- Schema --------------------------------------------------------------------

Schema TestSchema() {
  return Schema({
      {"id", DataType::kInt64, SemanticType::kCategorical},
      {"score", DataType::kDouble, SemanticType::kContinuous},
      {"label", DataType::kString, SemanticType::kCategorical},
  });
}

TEST(SchemaTest, IndexLookup) {
  Schema s = TestSchema();
  EXPECT_EQ(s.IndexOf("score"), 1u);
  EXPECT_FALSE(s.IndexOf("nope").has_value());
  EXPECT_TRUE(s.RequireIndex("label").ok());
  EXPECT_TRUE(s.RequireIndex("nope").status().IsKeyError());
}

TEST(SchemaTest, IndicesOfSemantic) {
  Schema s = TestSchema();
  EXPECT_EQ(s.IndicesOf(SemanticType::kContinuous),
            (std::vector<size_t>{1}));
  EXPECT_EQ(s.IndicesOf(SemanticType::kCategorical),
            (std::vector<size_t>{0, 2}));
}

TEST(SchemaTest, ProjectReorders) {
  Schema p = TestSchema().Project({2, 0});
  ASSERT_EQ(p.num_attributes(), 2u);
  EXPECT_EQ(p.attribute(0).name, "label");
  EXPECT_EQ(p.attribute(1).name, "id");
}

// --- Relation --------------------------------------------------------------------

Relation TestRelation() {
  RelationBuilder b(TestSchema());
  b.AddRow({Value::Int(1), Value::Real(0.5), Value::Str("a")})
      .AddRow({Value::Int(2), Value::Real(1.5), Value::Str("b")})
      .AddRow({Value::Int(3), Value::Null(), Value::Str("a")});
  return std::move(b.Finish()).ValueOrDie();
}

TEST(RelationTest, BasicAccessors) {
  Relation r = TestRelation();
  EXPECT_EQ(r.num_rows(), 3u);
  EXPECT_EQ(r.num_columns(), 3u);
  EXPECT_EQ(r.at(1, 0), Value::Int(2));
  EXPECT_TRUE(r.at(2, 1).is_null());
  EXPECT_EQ(r.Row(0),
            (std::vector<Value>{Value::Int(1), Value::Real(0.5),
                                Value::Str("a")}));
}

TEST(RelationTest, MakeRejectsRaggedColumns) {
  auto r = Relation::Make(
      TestSchema(),
      {{Value::Int(1)}, {Value::Real(1.0), Value::Real(2.0)}, {}});
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalid());
}

TEST(RelationTest, MakeRejectsArityMismatch) {
  auto r = Relation::Make(TestSchema(), {{}, {}});
  EXPECT_FALSE(r.ok());
}

TEST(RelationTest, MakeRejectsTypeMismatch) {
  auto r = Relation::Make(TestSchema(), {{Value::Str("oops")},
                                         {Value::Real(1.0)},
                                         {Value::Str("x")}});
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTypeError());
}

TEST(RelationTest, NullAllowedInAnyColumn) {
  auto r = Relation::Make(TestSchema(), {{Value::Null()},
                                         {Value::Null()},
                                         {Value::Null()}});
  EXPECT_TRUE(r.ok());
}

TEST(RelationTest, AppendRowValidates) {
  Relation r = Relation::Empty(TestSchema());
  EXPECT_TRUE(
      r.AppendRow({Value::Int(1), Value::Real(2.0), Value::Str("x")}).ok());
  EXPECT_TRUE(r.AppendRow({Value::Int(1)}).IsInvalid());
  EXPECT_TRUE(r.AppendRow({Value::Real(1.0), Value::Real(2.0),
                           Value::Str("x")})
                  .IsTypeError());
  EXPECT_EQ(r.num_rows(), 1u);
}

TEST(RelationTest, ProjectAndSelectRows) {
  Relation r = TestRelation();
  Relation p = r.Project({2});
  EXPECT_EQ(p.num_columns(), 1u);
  EXPECT_EQ(p.at(1, 0), Value::Str("b"));

  Relation s = r.SelectRows({2, 0});
  EXPECT_EQ(s.num_rows(), 2u);
  EXPECT_EQ(s.at(0, 0), Value::Int(3));
  EXPECT_EQ(s.at(1, 0), Value::Int(1));
}

TEST(RelationTest, BuilderDefersErrors) {
  RelationBuilder b(TestSchema());
  b.AddRow({Value::Int(1)});  // wrong arity, reported at Finish
  auto r = b.Finish();
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalid());
}

TEST(RelationTest, EqualityIsStructural) {
  EXPECT_EQ(TestRelation(), TestRelation());
  Relation other = TestRelation().SelectRows({0, 1});
  EXPECT_FALSE(TestRelation() == other);
}

TEST(RelationTest, ZeroColumnSchemaCountsAppendedRows) {
  // A zero-column relation cannot express its row count through its
  // columns, so Relation tracks it explicitly: Empty()/Make(schema, {})
  // start at 0 rows and AppendRow of the empty row still counts.
  Schema empty_schema((std::vector<Attribute>()));
  Relation r = Relation::Empty(empty_schema);
  EXPECT_EQ(r.num_columns(), 0u);
  EXPECT_EQ(r.num_rows(), 0u);
  ASSERT_TRUE(r.AppendRow({}).ok());
  ASSERT_TRUE(r.AppendRow({}).ok());
  EXPECT_EQ(r.num_rows(), 2u);

  auto made = Relation::Make(empty_schema, {});
  ASSERT_TRUE(made.ok());
  EXPECT_EQ(made->num_rows(), 0u);
  // Row count participates in equality: two zero-column relations with
  // different counts are different relations.
  EXPECT_FALSE(*made == r);
  // Projection onto no columns keeps the row count.
  EXPECT_EQ(TestRelation().Project({}).num_rows(),
            TestRelation().num_rows());
}

// --- Domain --------------------------------------------------------------------

TEST(DomainTest, CategoricalDedupsAndSorts) {
  Domain d = Domain::Categorical(
      {Value::Str("b"), Value::Str("a"), Value::Str("b")});
  ASSERT_EQ(d.values().size(), 2u);
  EXPECT_EQ(d.values()[0], Value::Str("a"));
  EXPECT_DOUBLE_EQ(d.Size(), 2.0);
  EXPECT_TRUE(d.Contains(Value::Str("a")));
  EXPECT_FALSE(d.Contains(Value::Str("z")));
}

// Categorical sorts and deduplicates only input that is not already
// strictly ascending; either way its values must be exactly what sorting
// and deduplicating would give, down to the type and sign of each entry.
TEST(DomainTest, CategoricalEqualsSortAndUniqueOnEveryInputOrder) {
  const std::vector<Value> pool = {
      Value::Null(),          Value::Int(-2),
      Value::Int(0),          Value::Real(-0.0),
      Value::Real(0.0),       Value::Int(3),
      Value::Real(3.0),       Value::Real(0.5),
      Value::Int(int64_t{1} << 53),
      Value::Int((int64_t{1} << 53) + 1),
      Value::Real(9007199254740992.0),
      Value::Str(""),         Value::Str("a"),
      Value::Str("ab"),       Value::Str("B")};
  auto sorted_unique = [](std::vector<Value> v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    return v;
  };
  auto same = [](const std::vector<Value>& a, const std::vector<Value>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i] != b[i] || a[i].is_int() != b[i].is_int()) return false;
      if (a[i].is_double() &&
          std::signbit(a[i].AsDouble()) != std::signbit(b[i].AsDouble())) {
        return false;
      }
    }
    return true;
  };
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE(trial);
    std::vector<Value> values;
    const size_t len = rng.UniformIndex(12);
    for (size_t i = 0; i < len; ++i) values.push_back(rng.Choice(pool));
    const std::vector<Value> want = sorted_unique(values);
    EXPECT_TRUE(same(Domain::Categorical(values).values(), want));
    // Already strictly ascending: kept as given.
    EXPECT_TRUE(same(Domain::Categorical(want).values(), want));
    // Ascending with a repeat: still deduplicated.
    if (!want.empty()) {
      std::vector<Value> repeated = want;
      const size_t at = rng.UniformIndex(want.size());
      repeated.insert(repeated.begin() + at, want[at]);
      EXPECT_TRUE(same(Domain::Categorical(repeated).values(),
                       sorted_unique(repeated)));
    }
  }
}

TEST(DomainTest, ContinuousRangeAndContains) {
  Domain d = Domain::Continuous(1.0, 5.0);
  EXPECT_DOUBLE_EQ(d.range(), 4.0);
  EXPECT_TRUE(d.Contains(Value::Real(1.0)));
  EXPECT_TRUE(d.Contains(Value::Int(3)));
  EXPECT_FALSE(d.Contains(Value::Real(5.001)));
  EXPECT_FALSE(d.Contains(Value::Str("3")));
}

TEST(DomainTest, SampleStaysInDomain) {
  Rng rng(3);
  Domain cat = Domain::Categorical({Value::Int(1), Value::Int(2)});
  Domain cont = Domain::Continuous(-2.0, 2.0);
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(cat.Contains(cat.Sample(&rng)));
    EXPECT_TRUE(cont.Contains(cont.Sample(&rng)));
  }
}

TEST(DomainTest, ExtractCategoricalSkipsNulls) {
  RelationBuilder b(Schema({{"c", DataType::kString,
                             SemanticType::kCategorical}}));
  b.AddRow({Value::Str("x")})
      .AddRow({Value::Null()})
      .AddRow({Value::Str("y")});
  Relation r = std::move(b.Finish()).ValueOrDie();
  auto d = ExtractDomain(r, 0);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->values().size(), 2u);
}

TEST(DomainTest, ExtractContinuousMinMax) {
  RelationBuilder b(Schema({{"c", DataType::kDouble,
                             SemanticType::kContinuous}}));
  b.AddRow({Value::Real(3.0)})
      .AddRow({Value::Real(-1.0)})
      .AddRow({Value::Null()})
      .AddRow({Value::Real(7.5)});
  Relation r = std::move(b.Finish()).ValueOrDie();
  auto d = ExtractDomain(r, 0);
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(d->lo(), -1.0);
  EXPECT_DOUBLE_EQ(d->hi(), 7.5);
}

TEST(DomainTest, ExtractFailsOnAllNullColumn) {
  RelationBuilder b(Schema({{"c", DataType::kDouble,
                             SemanticType::kContinuous}}));
  b.AddRow({Value::Null()});
  Relation r = std::move(b.Finish()).ValueOrDie();
  EXPECT_FALSE(ExtractDomain(r, 0).ok());
}

TEST(DomainTest, ExtractFailsOutOfRange) {
  Relation r = TestRelation();
  EXPECT_TRUE(ExtractDomain(r, 99).status().IsOutOfRange());
}

// --- CSV loader -------------------------------------------------------------------

TEST(CsvLoaderTest, InfersTypes) {
  auto r = LoadCsvRelation("id,score,label\n1,0.5,a\n2,1.5,b\n3,?,a\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->schema().attribute(0).type, DataType::kInt64);
  EXPECT_EQ(r->schema().attribute(1).type, DataType::kDouble);
  EXPECT_EQ(r->schema().attribute(2).type, DataType::kString);
  EXPECT_TRUE(r->at(2, 1).is_null());
}

TEST(CsvLoaderTest, SemanticInferenceByDistinctCount) {
  // 2 distinct ints -> categorical; 20 distinct doubles -> continuous.
  std::string text = "flag,measure\n";
  for (int i = 0; i < 20; ++i) {
    text += std::to_string(i % 2) + "," + std::to_string(i) + ".5\n";
  }
  auto r = LoadCsvRelation(text);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->schema().attribute(0).semantic, SemanticType::kCategorical);
  EXPECT_EQ(r->schema().attribute(1).semantic, SemanticType::kContinuous);
}

TEST(CsvLoaderTest, NoHeaderNamesAttributes) {
  CsvLoadOptions options;
  options.has_header = false;
  auto r = LoadCsvRelation("1,2\n3,4\n", options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->schema().attribute(0).name, "attr0");
  EXPECT_EQ(r->num_rows(), 2u);
}

TEST(CsvLoaderTest, EmptyInputFails) {
  EXPECT_FALSE(LoadCsvRelation("").ok());
}

TEST(CsvLoaderTest, RoundTripThroughCsv) {
  auto r = LoadCsvRelation("a,b\n1,x\n2,y\n");
  ASSERT_TRUE(r.ok());
  std::string text = RelationToCsv(*r);
  auto r2 = LoadCsvRelation(text);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r, *r2);
}

TEST(CsvLoaderTest, MixedIntDoubleColumnBecomesDouble) {
  auto r = LoadCsvRelation("v\n1\n2.5\n3\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->schema().attribute(0).type, DataType::kDouble);
  EXPECT_DOUBLE_EQ(r->at(0, 0).AsDouble(), 1.0);
}

}  // namespace
}  // namespace metaleak
