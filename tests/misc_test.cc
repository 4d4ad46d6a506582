// Coverage for the corners: logging, scenario failure modes, generator
// boundary behaviour, and umbrella-header compilation.
#include <gtest/gtest.h>

#include <sstream>

#include "metaleak.h"  // umbrella header must compile standalone

namespace metaleak {
namespace {

// --- Logging ---------------------------------------------------------------

TEST(LoggingTest, LevelGate) {
  LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Below-threshold messages must not crash and must be cheap.
  METALEAK_LOG(kDebug) << "dropped " << 1;
  METALEAK_LOG(kInfo) << "dropped " << 2;
  SetLogLevel(LogLevel::kOff);
  METALEAK_LOG(kError) << "also dropped";
  SetLogLevel(before);
}

// --- Scenario failure modes ---------------------------------------------------

TEST(ScenarioFailureTest, MissingLabelAttribute) {
  datasets::FintechScenario s = datasets::Fintech();
  Party bank("bank", s.bank, "customer_id");
  Party ecom("ecom", s.ecommerce, "customer_id");
  ScenarioOptions options;
  options.label_attribute = "no_such_label";
  auto outcome = RunScenario(bank, ecom, options);
  EXPECT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsKeyError());
}

TEST(ScenarioFailureTest, EmptyIntersection) {
  // Disjoint id spaces: PSI finds nothing and the scenario reports it.
  Schema schema({{"customer_id", DataType::kInt64,
                  SemanticType::kCategorical},
                 {"x", DataType::kDouble, SemanticType::kContinuous},
                 {"loan_default", DataType::kInt64,
                  SemanticType::kCategorical}});
  RelationBuilder a_builder(schema);
  RelationBuilder b_builder(schema);
  for (int i = 0; i < 20; ++i) {
    a_builder.AddRow({Value::Int(i), Value::Real(i), Value::Int(i % 2)});
    b_builder.AddRow(
        {Value::Int(1000 + i), Value::Real(i), Value::Int(i % 2)});
  }
  Party a("a", std::move(a_builder.Finish()).ValueOrDie(), "customer_id");
  Party b("b", std::move(b_builder.Finish()).ValueOrDie(), "customer_id");
  auto outcome = RunScenario(a, b);
  EXPECT_FALSE(outcome.ok());
}

// --- Generator boundaries --------------------------------------------------------

TEST(GeneratorBoundaryTest, ZeroRowsProducesEmptyRelation) {
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  Rng rng(1);
  auto outcome = GenerateSynthetic(report->metadata, 0, &rng);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->relation.num_rows(), 0u);
  EXPECT_EQ(outcome->relation.num_columns(), 4u);
}

TEST(GeneratorBoundaryTest, NullRngRejected) {
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(GenerateSynthetic(report->metadata, 4, nullptr).ok());
}

TEST(GeneratorBoundaryTest, DdBallClampsToDomain) {
  // Tiny domain, large delta: all samples stay in the domain.
  Rng rng(9);
  const std::vector<Domain> domains = {Domain::Continuous(0, 1),
                                       Domain::Continuous(10, 11)};
  EncodedBatch batch;
  batch.Configure(ColumnKindsForDomains(domains));
  batch.ResetRows(200);
  GenerateRootColumnEncoded(domains[0], 200, &rng, &batch, 0);
  ASSERT_TRUE(GenerateDdColumnEncoded(0, domains[1], {}, 200, 0.5, 100.0,
                                      &rng, &batch, 1)
                  .ok());
  for (double y : batch.reals(1)) {
    EXPECT_GE(y, 10.0);
    EXPECT_LE(y, 11.0);
  }
}

TEST(GeneratorBoundaryTest, SingleValueDomains) {
  // |D| = 1 for every attribute: generation is fully determined and the
  // adversary matches everything — the degenerate leakage maximum.
  Schema schema({{"c", DataType::kString, SemanticType::kCategorical}});
  RelationBuilder builder(schema);
  for (int i = 0; i < 10; ++i) builder.AddRow({Value::Str("only")});
  Relation real = std::move(builder.Finish()).ValueOrDie();
  auto report = ProfileRelation(real);
  ASSERT_TRUE(report.ok());
  Rng rng(3);
  auto outcome = GenerateSynthetic(report->metadata, 10, &rng);
  ASSERT_TRUE(outcome.ok());
  auto leak = EvaluateLeakage(real, outcome->relation);
  ASSERT_TRUE(leak.ok());
  EXPECT_EQ(leak->attributes[0].matches, 10u);
}

// --- Metadata corner cases --------------------------------------------------------

TEST(MetadataCornerTest, EmptyPackageSerializesAndParses) {
  MetadataPackage empty;
  std::string wire = empty.Serialize();
  auto parsed = MetadataPackage::Deserialize(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->schema.num_attributes(), 0u);
  EXPECT_EQ(parsed->num_rows, 0u);
}

TEST(MetadataCornerTest, RestrictIsIdempotent) {
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  for (DisclosureLevel level :
       {DisclosureLevel::kNames, DisclosureLevel::kNamesAndDomains,
        DisclosureLevel::kWithFds, DisclosureLevel::kWithRfds}) {
    MetadataPackage once = report->metadata.Restrict(level);
    MetadataPackage twice = once.Restrict(level);
    EXPECT_EQ(once.num_rows, twice.num_rows);
    EXPECT_EQ(once.dependencies.size(), twice.dependencies.size());
    EXPECT_EQ(once.HasAllDomains(), twice.HasAllDomains());
  }
}

TEST(MetadataCornerTest, RestrictNeverGainsInformation) {
  Relation employee = datasets::Employee();
  DiscoveryOptions options;
  options.discover_afds = true;
  options.profile_distributions = true;
  auto report = ProfileRelation(employee, options);
  ASSERT_TRUE(report.ok());
  size_t prev_deps = 0;
  bool prev_domains = false;
  for (DisclosureLevel level :
       {DisclosureLevel::kNames, DisclosureLevel::kNamesAndDomains,
        DisclosureLevel::kWithFds, DisclosureLevel::kWithRfds,
        DisclosureLevel::kWithDistributions}) {
    MetadataPackage pkg = report->metadata.Restrict(level);
    EXPECT_GE(pkg.dependencies.size(), prev_deps);
    EXPECT_GE(pkg.HasAllDomains(), prev_domains);
    prev_deps = pkg.dependencies.size();
    prev_domains = pkg.HasAllDomains();
  }
}

// --- Rendering stability -------------------------------------------------------------

TEST(RenderingTest, RelationToStringTruncates) {
  Relation echo = datasets::Echocardiogram();
  std::string text = echo.ToString(5);
  EXPECT_NE(text.find("127 more rows"), std::string::npos);
  EXPECT_NE(text.find("survival"), std::string::npos);
}

TEST(RenderingTest, EnumNamesAreStable) {
  // These strings appear in serialized metadata and reports; changing
  // them is a compatibility break.
  EXPECT_EQ(DataTypeToString(DataType::kInt64), "int64");
  EXPECT_EQ(DataTypeToString(DataType::kDouble), "double");
  EXPECT_EQ(DataTypeToString(DataType::kString), "string");
  EXPECT_EQ(SemanticTypeToString(SemanticType::kCategorical),
            "categorical");
  EXPECT_EQ(SemanticTypeToString(SemanticType::kContinuous), "continuous");
  EXPECT_EQ(DisclosureLevelToString(DisclosureLevel::kNames), "names");
  EXPECT_EQ(DisclosureLevelToString(DisclosureLevel::kWithRfds),
            "names+domains+FDs+RFDs");
  EXPECT_EQ(DependencyKindCode(DependencyKind::kFunctional), "FD");
  EXPECT_EQ(DependencyKindCode(DependencyKind::kOrderedFunctional), "OFD");
  EXPECT_EQ(GenerationMethodToString(GenerationMethod::kRandom),
            "Random Generation");
}

TEST(RenderingTest, StatusStreamInsertion) {
  std::ostringstream os;
  os << Status::Invalid("boom");
  EXPECT_EQ(os.str(), "Invalid argument: boom");
}

// --- Analytical sanity across the employee example ---------------------------------

TEST(AnalyticalCornerTest, DegenerateDomains) {
  Domain single = Domain::Categorical({Value::Int(1)});
  EXPECT_DOUBLE_EQ(ExpectedRandomCategoricalMatches(10, single), 10.0);
  Domain point = Domain::Continuous(5.0, 5.0);
  EXPECT_DOUBLE_EQ(ExpectedRandomContinuousMatches(10, point, 0.1), 10.0);
  EXPECT_DOUBLE_EQ(ExpectedRandomContinuousMse(point), 0.0);
}

}  // namespace
}  // namespace metaleak
