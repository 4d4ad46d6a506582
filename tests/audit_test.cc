// Tests for the one-call audit pipeline (privacy/audit).
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "data/datasets/echocardiogram.h"
#include "data/datasets/employee.h"
#include "data/encoded_relation.h"
#include "discovery/discovery_engine.h"
#include "discovery/rfd_discovery.h"
#include "discovery/tane.h"
#include "discovery/validators.h"
#include "partition/pli_cache.h"
#include "privacy/audit.h"
#include "privacy/identifiability.h"
#include "service/audit_service.h"
#include "service/relation_snapshot.h"

namespace metaleak {
namespace {

TEST(AuditTest, RejectsEmptyRelation) {
  Relation empty = Relation::Empty(Schema(std::vector<Attribute>{}));
  EXPECT_FALSE(RunAudit(empty).ok());
}

// A relation wider than an AttributeSet is Invalid before any PliCache
// is built, whose singleton build would otherwise index attributes 64
// and up (a Debug build aborts on its DCHECK). 70 attributes, 8 rows.
TEST(AuditTest, WiderThan64AttributesIsInvalidAtEveryEntryPoint) {
  std::vector<Attribute> attributes;
  std::vector<std::vector<Value>> columns;
  for (size_t c = 0; c < 70; ++c) {
    attributes.push_back({"a" + std::to_string(c), DataType::kInt64,
                          SemanticType::kCategorical});
    std::vector<Value> column;
    for (size_t r = 0; r < 8; ++r) {
      column.push_back(Value::Int(static_cast<int64_t>((r + c) % 3)));
    }
    columns.push_back(std::move(column));
  }
  Result<Relation> relation =
      Relation::Make(Schema(attributes), std::move(columns));
  ASSERT_TRUE(relation.ok()) << relation.status().ToString();
  const EncodedRelation encoded = EncodedRelation::Encode(*relation);
  auto expect_invalid = [](const Status& status, const std::string& entry) {
    EXPECT_TRUE(status.IsInvalid()) << entry << ": " << status.ToString();
    EXPECT_EQ(status.message(), "relation exceeds 64 attributes") << entry;
  };
  expect_invalid(RunAudit(*relation).status(), "RunAudit");
  expect_invalid(ProfileRelation(encoded).status(), "ProfileRelation");
  expect_invalid(RelationSnapshot::FromRelation(*relation, DiscoveryOptions{},
                                                LeakageOptions{}, nullptr)
                     .status(),
                 "RelationSnapshot::FromRelation");
  AuditService service;
  expect_invalid(service.Register(*relation).status(),
                 "AuditService::Register");
  expect_invalid(DiscoverFds(encoded).status(), "DiscoverFds");
  expect_invalid(DiscoverNds(encoded).status(), "DiscoverNds");
  const Dependency fd = Dependency::Fd(AttributeSet::Single(0), 1);
  expect_invalid(ValidateDependency(encoded, fd).status(),
                 "ValidateDependency");
  expect_invalid(ValidateDependencies(encoded, DependencySet({fd})).status(),
                 "ValidateDependencies");
  expect_invalid(IdentifiableRows(encoded, 2).status(), "IdentifiableRows");
  expect_invalid(DiscoverUniqueColumnCombinations(encoded, 2).status(),
                 "DiscoverUniqueColumnCombinations");
}

TEST(AuditTest, RejectsNonFiniteContinuousDomain) {
  // An infinite cell makes the disclosed domain [lo, inf) or (-inf, hi]:
  // epsilon scales with an infinite range and generation draws from it,
  // so the audit must refuse rather than report meaningless numbers.
  for (double bad : {std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(bad);
    Schema schema({{"k", DataType::kInt64, SemanticType::kCategorical},
                   {"x", DataType::kDouble, SemanticType::kContinuous}});
    std::vector<Value> k, x;
    for (int r = 0; r < 200; ++r) {
      k.push_back(Value::Int(r % 7));
      x.push_back(Value::Real(r == 17 ? bad : r * 0.5));
    }
    auto relation = Relation::Make(schema, {std::move(k), std::move(x)});
    ASSERT_TRUE(relation.ok()) << relation.status().ToString();
    auto audit = RunAudit(*relation);
    ASSERT_FALSE(audit.ok());
    EXPECT_TRUE(audit.status().IsInvalid()) << audit.status().ToString();
    EXPECT_NE(audit.status().message().find("'x'"), std::string::npos)
        << audit.status().ToString();
  }
}

TEST(AuditTest, EmployeeAuditFlagsSmallDomains) {
  AuditOptions options;
  options.experiment.rounds = 200;
  auto audit = RunAudit(datasets::Employee(), options);
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  ASSERT_EQ(audit->attributes.size(), 4u);
  // Name is a key: 100% identifiable.
  EXPECT_DOUBLE_EQ(audit->identifiable_fraction, 1.0);
  // Department (|D| = 3, N = 4): E = 4/3 >= 1 — domain leaks.
  const AttributeAudit& dept = audit->attributes[2];
  EXPECT_TRUE(dept.domain_leaks);
  EXPECT_NEAR(dept.expected_random_matches, 4.0 / 3.0, 1e-9);
  // No dependency method exceeds random on the employee table.
  for (const AttributeAudit& a : audit->attributes) {
    EXPECT_FALSE(a.dependency_adds_leakage) << a.name;
  }
}

TEST(AuditTest, BaselineIsAlwaysFirstMethod) {
  AuditOptions options;
  options.experiment.rounds = 10;
  options.methods = {GenerationMethod::kFd};
  auto audit = RunAudit(datasets::Employee(), options);
  ASSERT_TRUE(audit.ok());
  ASSERT_EQ(audit->method_results.size(), 2u);
  EXPECT_EQ(audit->method_results[0].method, GenerationMethod::kRandom);
  EXPECT_EQ(audit->method_results[1].method, GenerationMethod::kFd);
}

TEST(AuditTest, MarkdownReportContainsAllSections) {
  AuditOptions options;
  options.experiment.rounds = 20;
  auto audit = RunAudit(datasets::Employee(), options);
  ASSERT_TRUE(audit.ok());
  std::string md = audit->ToMarkdown();
  EXPECT_NE(md.find("# MetaLeak privacy audit"), std::string::npos);
  EXPECT_NE(md.find("## Identifiability"), std::string::npos);
  EXPECT_NE(md.find("## Discovered dependencies"), std::string::npos);
  EXPECT_NE(md.find("## Per-attribute verdicts"), std::string::npos);
  EXPECT_NE(md.find("## Recommendation"), std::string::npos);
  EXPECT_NE(md.find("Department"), std::string::npos);
}

TEST(AuditTest, EchocardiogramAuditRecommendsWithholdingDomains) {
  AuditOptions options;
  options.experiment.rounds = 60;
  options.experiment.threads = 4;
  auto audit = RunAudit(datasets::Echocardiogram(), options);
  ASSERT_TRUE(audit.ok());
  // Binary categorical attributes leak from domains alone (E = N/2).
  bool any_domain_leak = false;
  for (const AttributeAudit& a : audit->attributes) {
    any_domain_leak |= a.domain_leaks;
  }
  EXPECT_TRUE(any_domain_leak);
  std::string md = audit->ToMarkdown();
  EXPECT_NE(md.find("withhold domains"), std::string::npos);
}

TEST(AuditTest, ConstantCfdTriggersDependencyLeakVerdict) {
  // Skewed relation + constant CFD: the audit must flag the dependency.
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
  Schema schema({{"region", DataType::kString, SemanticType::kCategorical},
                 {"currency", DataType::kString,
                  SemanticType::kCategorical}});
  Relation r = std::move(Relation::Make(schema, {region, currency}))
                   .ValueOrDie();
  AuditOptions options;
  options.discovery.discover_cfds = true;
  options.discovery.cfd.min_support = 10;
  options.experiment.rounds = 400;
  options.methods = {GenerationMethod::kCfd};
  auto audit = RunAudit(r, options);
  ASSERT_TRUE(audit.ok());
  const AttributeAudit& currency_audit = audit->attributes[1];
  EXPECT_TRUE(currency_audit.dependency_adds_leakage);
  EXPECT_NE(audit->ToMarkdown().find("DEPENDENCY LEAKS"),
            std::string::npos);
}

// Profiling (CFDs included) and the profiled audit read only the
// encoding's codes and dictionaries, so an encoding without a source
// relation audits exactly like one with it.
TEST(AuditTest, ProfiledAuditRunsOnAnEncodingWithoutSource) {
  const Relation employee = datasets::Employee();
  AuditOptions options;
  options.discovery.discover_cfds = true;
  options.discovery.cfd.min_support = 2;
  options.experiment.rounds = 6;
  options.methods = {GenerationMethod::kFd, GenerationMethod::kCfd};
  auto audit_of = [&](bool with_source) -> std::string {
    EncodedRelation encoded = EncodedRelation::Encode(employee);
    if (!with_source) encoded.set_source(nullptr);
    PliCache cache(&encoded);
    Result<DiscoveryReport> profile =
        ProfileRelation(&cache, options.discovery);
    EXPECT_TRUE(profile.ok()) << profile.status().ToString();
    if (!profile.ok()) return "";
    EXPECT_FALSE(profile->metadata.conditional_fds.empty());
    Result<AuditResult> audit = RunAuditProfiled(cache, *profile, options);
    EXPECT_TRUE(audit.ok()) << audit.status().ToString();
    return audit.ok() ? audit->ToMarkdown() : "";
  };
  const std::string with_source = audit_of(true);
  EXPECT_FALSE(with_source.empty());
  EXPECT_EQ(with_source, audit_of(false));
}

}  // namespace
}  // namespace metaleak
