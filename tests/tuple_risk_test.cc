// Tests for per-tuple reconstruction risk (privacy/tuple_risk).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "common/parallel.h"
#include "common/random.h"
#include "data/datasets/echocardiogram.h"
#include "data/datasets/employee.h"
#include "data/domain.h"
#include "data/encoded_relation.h"
#include "discovery/discovery_engine.h"
#include "generation/generation_engine.h"
#include "privacy/leakage.h"
#include "privacy/tuple_risk.h"
#include "reference/tuple_risk_reference.h"

namespace metaleak {
namespace {

TEST(TupleRiskTest, RejectsBadInput) {
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  TupleRiskOptions options;
  options.rounds = 0;
  EXPECT_FALSE(AnalyzeTupleRisk(employee, report->metadata, options).ok());
}

TEST(TupleRiskTest, CoversEveryRowOnce) {
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  TupleRiskOptions options;
  options.rounds = 50;
  auto risk = AnalyzeTupleRisk(employee, report->metadata, options);
  ASSERT_TRUE(risk.ok());
  ASSERT_EQ(risk->tuples.size(), employee.num_rows());
  std::vector<bool> seen(employee.num_rows(), false);
  for (const TupleRisk& t : risk->tuples) {
    EXPECT_FALSE(seen[t.row]);
    seen[t.row] = true;
    EXPECT_GE(t.mean_matched_attributes, 0.0);
    EXPECT_LE(t.mean_matched_attributes,
              static_cast<double>(employee.num_columns()));
    EXPECT_LE(t.max_matched_attributes, employee.num_columns());
    EXPECT_GE(t.half_reconstructed_rate, 0.0);
    EXPECT_LE(t.half_reconstructed_rate, 1.0);
  }
}

TEST(TupleRiskTest, SortedByDescendingRisk) {
  Relation echo = datasets::Echocardiogram();
  auto report = ProfileRelation(echo);
  ASSERT_TRUE(report.ok());
  TupleRiskOptions options;
  options.rounds = 30;
  auto risk = AnalyzeTupleRisk(echo, report->metadata, options);
  ASSERT_TRUE(risk.ok());
  for (size_t i = 1; i < risk->tuples.size(); ++i) {
    EXPECT_GE(risk->tuples[i - 1].mean_matched_attributes,
              risk->tuples[i].mean_matched_attributes);
  }
}

TEST(TupleRiskTest, EmployeeAllIdentifiable) {
  // Name is a key, so every tuple is identifiable at width 1.
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  TupleRiskOptions options;
  options.rounds = 20;
  options.identifiability_max_width = 1;
  auto risk = AnalyzeTupleRisk(employee, report->metadata, options);
  ASSERT_TRUE(risk.ok());
  for (const TupleRisk& t : risk->tuples) {
    EXPECT_TRUE(t.identifiable);
  }
  EXPECT_EQ(risk->TopIdentifiable(2).size(), 2u);
}

TEST(TupleRiskTest, DeterministicGivenSeed) {
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  TupleRiskOptions options;
  options.rounds = 40;
  auto a = AnalyzeTupleRisk(employee, report->metadata, options);
  auto b = AnalyzeTupleRisk(employee, report->metadata, options);
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t i = 0; i < a->tuples.size(); ++i) {
    EXPECT_EQ(a->tuples[i].row, b->tuples[i].row);
    EXPECT_DOUBLE_EQ(a->tuples[i].mean_matched_attributes,
                     b->tuples[i].mean_matched_attributes);
  }
}

TEST(TupleRiskTest, SkewedRowIsRiskier) {
  // Two-column relation where one row's values sit in tiny domains and
  // another's in huge ones: the small-domain row must rank higher.
  Schema schema({{"a", DataType::kString, SemanticType::kCategorical},
                 {"b", DataType::kString, SemanticType::kCategorical}});
  RelationBuilder builder(schema);
  // Rows 0..9 share value "common" (domain mass), row 10+ are unique.
  for (int i = 0; i < 10; ++i) {
    builder.AddRow({Value::Str("common"), Value::Str("alsocommon")});
  }
  for (int i = 0; i < 10; ++i) {
    builder.AddRow({Value::Str("rare" + std::to_string(i)),
                    Value::Str("alsorare" + std::to_string(i))});
  }
  Relation real = std::move(builder.Finish()).ValueOrDie();
  DiscoveryOptions discovery;
  discovery.profile_distributions = true;  // adversary samples the skew
  auto report = ProfileRelation(real, discovery);
  ASSERT_TRUE(report.ok());
  TupleRiskOptions options;
  options.rounds = 300;
  auto risk = AnalyzeTupleRisk(real, report->metadata, options);
  ASSERT_TRUE(risk.ok());
  // The top tuples are all "common" rows (< index 10).
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_LT(risk->tuples[i].row, 10u) << "rank " << i;
  }
}

TEST(TupleRiskTest, RenderingShowsRequestedCount) {
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  TupleRiskOptions options;
  options.rounds = 10;
  auto risk = AnalyzeTupleRisk(employee, report->metadata, options);
  ASSERT_TRUE(risk.ok());
  std::string text = risk->ToString(2);
  EXPECT_NE(text.find("Highest-risk tuples"), std::string::npos);
  EXPECT_NE(text.find("Identifiable"), std::string::npos);
}

struct BranchFixture {
  Relation real;
  MetadataPackage metadata;
};

// One column per branch of the code path's column loop, each with about
// 10% real NULLs: string labels (codes x categorical), readings over a
// range (reals x continuous), integer grades disclosed as the degenerate
// range [2, 2], so every generated cell is 2.0 and real 2s match across
// types (reals x categorical), and levels disclosed as a value set with
// some real cells jittered off it (codes x continuous).
BranchFixture FourBranchFixture(size_t n) {
  Schema schema({{"label", DataType::kString, SemanticType::kCategorical},
                 {"reading", DataType::kDouble, SemanticType::kContinuous},
                 {"grade", DataType::kInt64, SemanticType::kCategorical},
                 {"level", DataType::kDouble, SemanticType::kContinuous}});
  const std::vector<double> levels = {1.0, 2.5, 4.0, 7.5};
  const std::vector<double> jitters = {0.0, 0.05, 0.2};
  RelationBuilder builder(schema);
  Rng rng(2024);
  auto or_null = [&](Value v) {
    return rng.Bernoulli(0.1) ? Value::Null() : std::move(v);
  };
  for (size_t r = 0; r < n; ++r) {
    builder.AddRow(
        {or_null(Value::Str(std::string(1, "abc"[rng.UniformIndex(3)]))),
         or_null(Value::Real(rng.UniformDouble(0.0, 10.0))),
         or_null(Value::Int(rng.UniformInt(0, 3))),
         or_null(Value::Real(levels[rng.UniformIndex(levels.size())] +
                             jitters[rng.UniformIndex(jitters.size())]))});
  }
  BranchFixture f{std::move(builder.Finish()).ValueOrDie(), {}};
  f.metadata.schema = schema;
  f.metadata.num_rows = n;
  std::vector<Value> level_values;
  for (double x : levels) level_values.push_back(Value::Real(x));
  f.metadata.domains = {
      Domain::Categorical({Value::Str("a"), Value::Str("b"), Value::Str("c")}),
      Domain::Continuous(0.0, 10.0), Domain::Continuous(2.0, 2.0),
      Domain::Categorical(level_values)};
  return f;
}

TEST(TupleRiskOracleTest, CodePathMatchesPerCellOracle) {
  const size_t n = 2000;
  const BranchFixture f = FourBranchFixture(n);
  TupleRiskOptions options;
  options.rounds = 20;
  options.seed = 5;

  // The fixture's columns cover all four (storage, semantic) branches of
  // the scoring loop.
  Result<GenerationContext> gen = GenerationContext::Build(f.metadata);
  ASSERT_TRUE(gen.ok());
  ASSERT_TRUE(gen->encodable()) << gen->fallback_reason();
  const EncodedRelation encoded = EncodedRelation::Encode(f.real);
  Result<EncodedLeakageContext> leak = EncodedLeakageContext::Build(
      encoded, gen->schema(), gen->domains(), options.leakage);
  ASSERT_TRUE(leak.ok()) << leak.status().ToString();
  std::set<std::pair<int, int>> branches;
  for (size_t c = 0; c < f.real.num_columns(); ++c) {
    const EncodedLeakageContext::AttributeView v = leak->ViewAttribute(c);
    branches.insert({static_cast<int>(v.kind), static_cast<int>(v.semantic)});
  }
  EXPECT_EQ(branches.size(), 4u);

  // Not vacuous: the first round already matches cells of every column.
  Rng rng(options.seed);
  Rng first_round = rng.Fork();
  Result<GenerationOutcome> first =
      GenerateSynthetic(f.metadata, n, &first_round);
  ASSERT_TRUE(first.ok());
  Result<LeakageReport> leakage =
      EvaluateLeakage(f.real, first->relation, options.leakage);
  ASSERT_TRUE(leakage.ok());
  for (const AttributeLeakage& a : leakage->attributes) {
    EXPECT_GT(a.matches, 0u) << a.name;
  }

  Result<std::vector<TupleRisk>> expect =
      reference::TupleRiskByCell(f.real, f.metadata, options);
  ASSERT_TRUE(expect.ok());
  for (size_t threads : {size_t{1}, size_t{8}}) {
    SetGlobalThreadCount(threads);
    Result<TupleRiskReport> risk =
        AnalyzeTupleRisk(f.real, f.metadata, options);
    ASSERT_TRUE(risk.ok());
    ASSERT_EQ(risk->tuples.size(), expect->size());
    for (size_t i = 0; i < expect->size(); ++i) {
      const TupleRisk& got = risk->tuples[i];
      const TupleRisk& want = (*expect)[i];
      ASSERT_EQ(got.row, want.row) << "rank " << i << " threads " << threads;
      EXPECT_EQ(got.mean_matched_attributes, want.mean_matched_attributes)
          << "row " << got.row;
      EXPECT_EQ(got.max_matched_attributes, want.max_matched_attributes)
          << "row " << got.row;
      EXPECT_EQ(got.half_reconstructed_rate, want.half_reconstructed_rate)
          << "row " << got.row;
    }
  }
  SetGlobalThreadCount(0);
}

}  // namespace
}  // namespace metaleak
