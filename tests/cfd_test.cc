// Tests for conditional functional dependencies: model, validation (by
// the boxed oracle in tests/reference/cfd_reference.h), discovery,
// serialization, CFD-aware generation, and the privacy conclusion
// (CFD-informed generation ~= random).
#include <gtest/gtest.h>

#include <algorithm>

#include "common/macros.h"
#include "common/random.h"
#include "data/domain.h"
#include "data/encoded_batch.h"
#include "data/encoded_relation.h"
#include "discovery/cfd_discovery.h"
#include "discovery/discovery_engine.h"
#include "generation/cfd_generator.h"
#include "generation/generation_engine.h"
#include "metadata/metadata_package.h"
#include "partition/pli_cache.h"
#include "privacy/experiment.h"
#include "reference/cfd_reference.h"
#include "reference/generation_reference.h"

namespace metaleak {
namespace {

Relation MakeRelation(std::vector<Attribute> attrs,
                      std::vector<std::vector<Value>> cols) {
  return std::move(Relation::Make(Schema(std::move(attrs)), std::move(cols)))
      .ValueOrDie();
}

Attribute Cat(const char* name) {
  return {name, DataType::kString, SemanticType::kCategorical};
}

// The library's CFD discovery over `r`'s dictionary encoding.
Result<std::vector<ConditionalFd>> Discover(
    const Relation& r, const CfdDiscoveryOptions& options) {
  const EncodedRelation encoded = EncodedRelation::Encode(r);
  PliCache cache(&encoded);
  return DiscoverCfds(&cache, options);
}

// A relation where region="eu" scopes the FD dept -> manager, but the FD
// fails globally (the "us" scope disagrees); and every "us" row has
// currency "usd" (a constant CFD) while "eu" rows vary.
Relation CfdRelation() {
  std::vector<Value> region;
  std::vector<Value> dept;
  std::vector<Value> manager;
  std::vector<Value> currency;
  auto add = [&](const char* r, const char* d, const char* m,
                 const char* c) {
    region.push_back(Value::Str(r));
    dept.push_back(Value::Str(d));
    manager.push_back(Value::Str(m));
    currency.push_back(Value::Str(c));
  };
  for (int i = 0; i < 10; ++i) {
    add("eu", "sales", "anna", i % 2 == 0 ? "eur" : "sek");
    add("eu", "dev", "bert", "eur");
  }
  for (int i = 0; i < 10; ++i) {
    // Same dept maps to different managers in "us": global FD fails.
    add("us", "sales", i % 2 == 0 ? "carl" : "dora", "usd");
  }
  return MakeRelation(
      {Cat("region"), Cat("dept"), Cat("manager"), Cat("currency")},
      {region, dept, manager, currency});
}

// --- Model / validation -----------------------------------------------------

TEST(CfdTest, RenderingUsesSchemaNames) {
  Relation r = CfdRelation();
  ConditionalFd variable = ConditionalFd::Variable(
      0, Value::Str("eu"), AttributeSet::Single(1), 2, 20);
  EXPECT_EQ(variable.ToString(r.schema()),
            "CFD [region=eu] => {dept} -> manager (support=20)");
  ConditionalFd constant = ConditionalFd::Constant(
      0, Value::Str("us"), 3, Value::Str("usd"), 10);
  EXPECT_EQ(constant.ToString(r.schema()),
            "CFD [region=us] => currency = usd (support=10)");
}

TEST(CfdTest, ValidateVariableCfd) {
  Relation r = CfdRelation();
  ConditionalFd holds = ConditionalFd::Variable(
      0, Value::Str("eu"), AttributeSet::Single(1), 2, 20);
  EXPECT_TRUE(*reference::ValidateCfd(r, holds));
  ConditionalFd fails = ConditionalFd::Variable(
      0, Value::Str("us"), AttributeSet::Single(1), 2, 10);
  EXPECT_FALSE(*reference::ValidateCfd(r, fails));
}

TEST(CfdTest, ValidateConstantCfd) {
  Relation r = CfdRelation();
  ConditionalFd holds = ConditionalFd::Constant(
      0, Value::Str("us"), 3, Value::Str("usd"), 10);
  EXPECT_TRUE(*reference::ValidateCfd(r, holds));
  ConditionalFd fails = ConditionalFd::Constant(
      0, Value::Str("eu"), 3, Value::Str("eur"), 20);
  EXPECT_FALSE(*reference::ValidateCfd(r, fails));
}

TEST(CfdTest, ValidateVacuousAndBadInput) {
  Relation r = CfdRelation();
  ConditionalFd vacuous = ConditionalFd::Variable(
      0, Value::Str("asia"), AttributeSet::Single(1), 2, 0);
  EXPECT_TRUE(*reference::ValidateCfd(r, vacuous));
  ConditionalFd bad = ConditionalFd::Variable(
      9, Value::Str("eu"), AttributeSet::Single(1), 2, 0);
  EXPECT_FALSE(reference::ValidateCfd(r, bad).ok());
  ConditionalFd empty_lhs;
  empty_lhs.rhs_is_constant = false;
  EXPECT_FALSE(reference::ValidateCfd(r, empty_lhs).ok());
}

// --- Discovery -----------------------------------------------------------------

TEST(CfdTest, DiscoversPlantedVariableCfd) {
  Relation r = CfdRelation();
  CfdDiscoveryOptions options;
  options.min_support = 5;
  auto cfds = Discover(r, options);
  ASSERT_TRUE(cfds.ok());
  ConditionalFd expected = ConditionalFd::Variable(
      0, Value::Str("eu"), AttributeSet::Single(1), 2, 20);
  EXPECT_NE(std::find(cfds->begin(), cfds->end(), expected), cfds->end());
  // The failing us-scope must not appear.
  ConditionalFd wrong = ConditionalFd::Variable(
      0, Value::Str("us"), AttributeSet::Single(1), 2, 10);
  EXPECT_EQ(std::find(cfds->begin(), cfds->end(), wrong), cfds->end());
}

TEST(CfdTest, DiscoversPlantedConstantCfd) {
  Relation r = CfdRelation();
  CfdDiscoveryOptions options;
  options.min_support = 5;
  auto cfds = Discover(r, options);
  ASSERT_TRUE(cfds.ok());
  ConditionalFd expected = ConditionalFd::Constant(
      0, Value::Str("us"), 3, Value::Str("usd"), 10);
  EXPECT_NE(std::find(cfds->begin(), cfds->end(), expected), cfds->end());
}

TEST(CfdTest, EveryDiscoveredCfdValidates) {
  Relation r = CfdRelation();
  CfdDiscoveryOptions options;
  options.min_support = 4;
  auto cfds = Discover(r, options);
  ASSERT_TRUE(cfds.ok());
  EXPECT_GT(cfds->size(), 0u);
  for (const ConditionalFd& cfd : *cfds) {
    auto valid = reference::ValidateCfd(r, cfd);
    ASSERT_TRUE(valid.ok());
    EXPECT_TRUE(*valid) << cfd.ToString(r.schema());
    EXPECT_GE(cfd.support, options.min_support);
  }
}

TEST(CfdTest, MinSupportFilters) {
  Relation r = CfdRelation();
  CfdDiscoveryOptions strict;
  strict.min_support = 1000;
  auto cfds = Discover(r, strict);
  ASSERT_TRUE(cfds.ok());
  EXPECT_TRUE(cfds->empty());
}

// CFD discovery runs on the codes and dictionaries, so profiling an
// encoding without a source relation discloses the same package.
TEST(CfdTest, ProfilingAnEncodingWithoutSourceFindsTheSameCfds) {
  Relation r = CfdRelation();
  DiscoveryOptions options;
  options.discover_cfds = true;
  options.cfd.min_support = 5;
  options.profile_distributions = true;
  EncodedRelation with_source = EncodedRelation::Encode(r);
  EncodedRelation without_source = EncodedRelation::Encode(r);
  without_source.set_source(nullptr);
  auto want = ProfileRelation(with_source, options);
  auto got = ProfileRelation(without_source, options);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_FALSE(want->metadata.conditional_fds.empty());
  EXPECT_EQ(want->metadata.conditional_fds, got->metadata.conditional_fds);
  EXPECT_EQ(want->metadata.Serialize(), got->metadata.Serialize());
}

// --- Packaging / serialization -----------------------------------------------------

TEST(CfdTest, ProfileAndSerializeRoundTrip) {
  Relation r = CfdRelation();
  DiscoveryOptions options;
  options.discover_cfds = true;
  options.cfd.min_support = 5;
  auto report = ProfileRelation(r, options);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->metadata.conditional_fds.size(), 0u);

  std::string wire = report->metadata.Serialize();
  auto parsed = MetadataPackage::Deserialize(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->conditional_fds.size(),
            report->metadata.conditional_fds.size());
  for (size_t i = 0; i < parsed->conditional_fds.size(); ++i) {
    EXPECT_EQ(parsed->conditional_fds[i],
              report->metadata.conditional_fds[i]);
  }
}

TEST(CfdTest, RestrictKeepsCfdsOnlyAtRfdLevel) {
  Relation r = CfdRelation();
  DiscoveryOptions options;
  options.discover_cfds = true;
  options.cfd.min_support = 5;
  auto report = ProfileRelation(r, options);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->metadata.Restrict(DisclosureLevel::kWithFds)
                  .conditional_fds.empty());
  EXPECT_FALSE(report->metadata.Restrict(DisclosureLevel::kWithRfds)
                   .conditional_fds.empty());
}

// --- Generation ---------------------------------------------------------------------

// Root-only R_syn for `pkg`, drawn on the code path into `batch`; returns
// the context it was drawn under.
GenerationContext DrawRoots(const MetadataPackage& pkg, size_t rows, Rng* rng,
                            EncodedBatch* batch) {
  GenerationOptions gen;
  gen.ignore_dependencies = true;
  GenerationContext ctx =
      std::move(GenerationContext::Build(pkg, gen)).ValueOrDie();
  EXPECT_TRUE(GenerateEncoded(ctx, rows, rng, batch).ok());
  return ctx;
}

// A copy of `batch` repaired by `rules` (BuildEncodedCfdPlan, then
// ApplyCfdsEncoded), decoded.
Result<Relation> Repair(const GenerationContext& ctx, EncodedBatch batch,
                        const std::vector<ConditionalFd>& rules, Rng* rng) {
  METALEAK_ASSIGN_OR_RETURN(
      EncodedCfdPlan plan,
      BuildEncodedCfdPlan(rules, ctx.domains(), ctx.kinds()));
  METALEAK_RETURN_NOT_OK(ApplyCfdsEncoded(plan, &batch, rng));
  return MaterializeRelation(ctx.schema(), ctx.domains(), batch);
}

TEST(CfdTest, ApplyCfdsEnforcesEachCfdAppliedAlone) {
  // Guarantee: a single CFD (no rule interaction) is enforced exactly.
  Relation r = CfdRelation();
  DiscoveryOptions options;
  options.discover_cfds = true;
  options.cfd.min_support = 5;
  auto report = ProfileRelation(r, options);
  ASSERT_TRUE(report.ok());
  ASSERT_GT(report->metadata.conditional_fds.size(), 0u);

  Rng rng(3);
  EncodedBatch roots;
  GenerationContext ctx = DrawRoots(report->metadata, 200, &rng, &roots);
  for (const ConditionalFd& cfd : report->metadata.conditional_fds) {
    auto repaired = Repair(ctx, roots, {cfd}, &rng);
    ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
    auto valid = reference::ValidateCfd(*repaired, cfd);
    ASSERT_TRUE(valid.ok());
    EXPECT_TRUE(*valid) << cfd.ToString(r.schema());
  }
}

TEST(CfdTest, ApplyCfdsReducesViolationsUnderInteraction) {
  // Dense mined rule sets can be jointly unsatisfiable on synthetic rows
  // (value co-occurrences that never appear in the real data), so repair
  // is best-effort there — but it must strictly help.
  Relation r = CfdRelation();
  DiscoveryOptions options;
  options.discover_cfds = true;
  options.cfd.min_support = 5;
  auto report = ProfileRelation(r, options);
  ASSERT_TRUE(report.ok());

  Rng rng(4);
  EncodedBatch roots;
  GenerationContext ctx = DrawRoots(report->metadata, 200, &rng, &roots);
  auto count_violations = [&](const Relation& rel) {
    size_t violations = 0;
    for (const ConditionalFd& cfd : report->metadata.conditional_fds) {
      auto valid = reference::ValidateCfd(rel, cfd);
      if (valid.ok() && !*valid) ++violations;
    }
    return violations;
  };
  auto unrepaired = MaterializeRelation(ctx.schema(), ctx.domains(), roots);
  ASSERT_TRUE(unrepaired.ok());
  size_t before = count_violations(*unrepaired);
  auto repaired =
      Repair(ctx, roots, report->metadata.conditional_fds, &rng);
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  size_t after = count_violations(*repaired);
  EXPECT_LT(after, before);
  EXPECT_LT(static_cast<double>(after),
            0.5 * static_cast<double>(
                      report->metadata.conditional_fds.size()));
}

TEST(CfdTest, ApplyCfdsDisjointRulesAllHold) {
  // Rules writing disjoint attributes with disjoint condition columns
  // cannot interact: all must hold after one chase.
  Relation r = CfdRelation();
  auto domains_result =
      ExtractDomains(r);
  ASSERT_TRUE(domains_result.ok());
  std::vector<ConditionalFd> rules = {
      ConditionalFd::Variable(0, Value::Str("eu"), AttributeSet::Single(1),
                              2, 20),
      ConditionalFd::Constant(0, Value::Str("us"), 3, Value::Str("usd"),
                              10),
  };
  Rng rng(5);
  // Random relation over the same schema.
  MetadataPackage pkg;
  pkg.schema = r.schema();
  for (auto& d : *domains_result) pkg.domains.emplace_back(d);
  EncodedBatch roots;
  GenerationContext ctx = DrawRoots(pkg, 300, &rng, &roots);
  auto repaired = Repair(ctx, roots, rules, &rng);
  ASSERT_TRUE(repaired.ok());
  for (const ConditionalFd& cfd : rules) {
    auto valid = reference::ValidateCfd(*repaired, cfd);
    ASSERT_TRUE(valid.ok());
    EXPECT_TRUE(*valid) << cfd.ToString(r.schema());
  }
}

// CFD discovery emits Int64 constants and conditions for an int-typed
// continuous attribute, whose generated cells are doubles. The chase
// writes and compares them as doubles, which is what the boxed chase's
// type relaxation leaves: the code path runs the package and equals the
// reference bit for bit.
TEST(CfdTest, Int64ConstantOnIntContinuousAttributeRunsOnCodePath) {
  std::vector<Value> region, age, tier;
  for (int i = 0; i < 60; ++i) {
    region.push_back(Value::Str(i % 3 == 0 ? "eu" : "us"));
    age.push_back(Value::Int(i % 3 == 0 ? 42 : 20 + i % 40));
    tier.push_back(Value::Str(i % 2 == 0 ? "gold" : "basic"));
  }
  Relation r = MakeRelation(
      {Cat("region"), {"age", DataType::kInt64, SemanticType::kContinuous},
       Cat("tier")},
      {region, age, tier});
  auto domains = ExtractDomains(r);
  ASSERT_TRUE(domains.ok());
  ASSERT_TRUE((*domains)[1].is_continuous());
  MetadataPackage pkg;
  pkg.schema = r.schema();
  for (const Domain& d : *domains) pkg.domains.emplace_back(d);
  // The constant lands in the real-stored age column, and the variable
  // rule's condition reads it back.
  pkg.conditional_fds = {
      ConditionalFd::Constant(0, Value::Str("eu"), 1, Value::Int(42), 20),
      ConditionalFd::Variable(1, Value::Int(42), AttributeSet::Single(0), 2,
                              20),
  };

  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    Rng code_rng(seed);
    EncodedBatch roots;
    GenerationContext ctx = DrawRoots(pkg, 60, &code_rng, &roots);
    auto got = Repair(ctx, roots, pkg.conditional_fds, &code_rng);
    ASSERT_TRUE(got.ok()) << got.status().ToString();

    Rng value_rng(seed);
    GenerationOptions gen;
    gen.ignore_dependencies = true;
    auto generated =
        reference::GenerateSyntheticValuePath(pkg, 60, &value_rng, gen);
    ASSERT_TRUE(generated.ok());
    auto want = reference::ApplyCfds(generated->relation,
                                     pkg.conditional_fds, *domains,
                                     &value_rng);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(*got, *want);
    EXPECT_EQ(code_rng.engine()(), value_rng.engine()());

    size_t eu_rows = 0;
    for (size_t row = 0; row < 60; ++row) {
      if (got->at(row, 0) != Value::Str("eu")) continue;
      ++eu_rows;
      EXPECT_EQ(got->at(row, 1), Value::Real(42.0));
    }
    EXPECT_GT(eu_rows, 0u);
  }

  // The engine runs the CFD method, scored by the fused scan.
  ExperimentConfig config;
  config.rounds = 4;
  config.estimators = &RiskEstimatorRegistry::All();
  auto result = RunMethod(r, pkg, GenerationMethod::kCfd, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->measures.back().active);
}

TEST(CfdTest, VariableCfdMethodLeaksNoMoreThanRandom) {
  // The paper's FD argument extends to *variable* CFDs: a scoped
  // one-shot mapping keeps the per-row hit probability at 1/|D|.
  // (Constant CFDs are excluded — their pattern constants embed data
  // values and DO leak more; see ConstantCfdLeaksMore.)
  Relation r = CfdRelation();
  DiscoveryOptions options;
  options.discover_cfds = true;
  options.cfd.min_support = 5;
  auto report = ProfileRelation(r, options);
  ASSERT_TRUE(report.ok());
  MetadataPackage pkg = report->metadata;
  std::vector<ConditionalFd> variable_only;
  for (const ConditionalFd& cfd : pkg.conditional_fds) {
    if (!cfd.rhs_is_constant) variable_only.push_back(cfd);
  }
  ASSERT_FALSE(variable_only.empty());
  pkg.conditional_fds = variable_only;

  ExperimentConfig config;
  config.rounds = 800;
  auto results = RunExperiment(
      r, pkg, {GenerationMethod::kRandom, GenerationMethod::kCfd},
      config);
  ASSERT_TRUE(results.ok());
  const MethodResult& random = (*results)[0];
  const MethodResult& cfd = (*results)[1];
  for (size_t c = 0; c < r.num_columns(); ++c) {
    if (!cfd.attributes[c].covered) continue;
    double slack =
        4.0 * std::max(1.0, random.attributes[c].stddev_matches);
    EXPECT_LE(cfd.attributes[c].mean_matches,
              random.attributes[c].mean_matches + slack)
        << r.schema().attribute(c).name;
  }
}

TEST(CfdTest, ConstantCfdLeaksMoreOnSkewedData) {
  // A constant CFD ships a real data value inside the metadata. When the
  // constant marks an over-represented value (here "usd" covers 2/3 of
  // the rows), applying it beats the uniform-domain baseline — the same
  // mechanism as distribution disclosure. On balanced data the effect
  // vanishes (the adversary does not know which rows are in scope).
  std::vector<Value> region;
  std::vector<Value> currency;
  for (int i = 0; i < 30; ++i) {
    region.push_back(Value::Str("eu"));
    currency.push_back(Value::Str(i % 2 == 0 ? "eur" : "sek"));
  }
  for (int i = 0; i < 60; ++i) {
    region.push_back(Value::Str("us"));
    currency.push_back(Value::Str("usd"));
  }
  Relation r = MakeRelation({Cat("region"), Cat("currency")},
                            {region, currency});
  DiscoveryOptions options;
  options.discover_cfds = true;
  options.cfd.min_support = 5;
  auto report = ProfileRelation(r, options);
  ASSERT_TRUE(report.ok());
  MetadataPackage pkg = report->metadata;
  ConditionalFd target = ConditionalFd::Constant(
      0, Value::Str("us"), 1, Value::Str("usd"), 60);
  bool discovered = false;
  for (const ConditionalFd& cfd : pkg.conditional_fds) {
    if (cfd == target) discovered = true;
  }
  EXPECT_TRUE(discovered);
  pkg.conditional_fds = {target};

  ExperimentConfig config;
  config.rounds = 800;
  auto results = RunExperiment(
      r, pkg, {GenerationMethod::kRandom, GenerationMethod::kCfd},
      config);
  ASSERT_TRUE(results.ok());
  // Analytical: baseline = 90/3 = 30; CFD = 0.5*60 + 45/3 = 45.
  EXPECT_NEAR((*results)[0].attributes[1].mean_matches, 30.0, 3.0);
  EXPECT_NEAR((*results)[1].attributes[1].mean_matches, 45.0, 4.0);
  EXPECT_GT((*results)[1].attributes[1].mean_matches,
            (*results)[0].attributes[1].mean_matches + 5.0);
}

TEST(CfdTest, CfdCoverageMarksRhsOnly) {
  Relation r = CfdRelation();
  DiscoveryOptions options;
  options.discover_cfds = true;
  options.cfd.min_support = 5;
  auto report = ProfileRelation(r, options);
  ASSERT_TRUE(report.ok());
  MetadataPackage pkg = report->metadata;
  // Keep a single CFD so coverage is predictable.
  ConditionalFd keep = pkg.conditional_fds.front();
  pkg.conditional_fds = {keep};
  ExperimentConfig config;
  config.rounds = 3;
  auto result = RunMethod(r, pkg, GenerationMethod::kCfd, config);
  ASSERT_TRUE(result.ok());
  for (const MethodAttributeResult& a : result->attributes) {
    EXPECT_EQ(a.covered, a.attribute == keep.rhs) << a.name;
  }
}

}  // namespace
}  // namespace metaleak
