// Tests for src/generation: each generator must produce columns that
// satisfy the dependency class that drove them — the core soundness
// property of the adversary model — plus engine-level behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "common/random.h"
#include "data/datasets/employee.h"
#include "data/domain.h"
#include "data/encoded_batch.h"
#include "discovery/discovery_engine.h"
#include "discovery/validators.h"
#include "generation/column_generators.h"
#include "generation/generation_engine.h"
#include "privacy/experiment.h"

namespace metaleak {
namespace {

Domain SmallCatDomain() {
  return Domain::Categorical({Value::Str("a"), Value::Str("b"),
                              Value::Str("c"), Value::Str("d"),
                              Value::Str("e")});
}

// An EncodedBatch over `domains`, every column `rows` long, for the
// encoded generators to fill column by column.
class Columns {
 public:
  Columns(std::vector<Domain> domains, size_t rows)
      : domains_(std::move(domains)) {
    batch_.Configure(ColumnKindsForDomains(domains_),
                     CodeWidthsForDomains(domains_));
    batch_.ResetRows(rows);
  }

  EncodedBatch* batch() { return &batch_; }
  const Domain& domain(size_t c) const { return domains_[c]; }

  // Column c as Values: code i+1 is domain value i, a double is boxed.
  std::vector<Value> Decode(size_t c) const {
    std::vector<Value> out;
    for (size_t r = 0; r < batch_.num_rows(); ++r) {
      if (batch_.kind(c) == EncodedBatch::ColumnKind::kCodes) {
        out.push_back(domains_[c].values()[batch_.code_at(c, r) - 1]);
      } else {
        out.push_back(Value::Real(batch_.reals(c)[r]));
      }
    }
    return out;
  }

  // Fills column c with root draws.
  void Root(size_t c, Rng* rng) {
    GenerateRootColumnEncoded(domains_[c], batch_.num_rows(), rng, &batch_,
                              c);
  }

 private:
  std::vector<Domain> domains_;
  EncodedBatch batch_;
};

// --- Root generation -----------------------------------------------------------

TEST(ColumnGeneratorsTest, RootStaysInDomain) {
  Rng rng(1);
  Columns cols({SmallCatDomain()}, 500);
  cols.Root(0, &rng);
  std::vector<Value> col = cols.Decode(0);
  ASSERT_EQ(col.size(), 500u);
  for (const Value& v : col) EXPECT_TRUE(cols.domain(0).Contains(v));
}

TEST(ColumnGeneratorsTest, RootIsRoughlyUniform) {
  Rng rng(2);
  Columns cols({SmallCatDomain()}, 20000);
  cols.Root(0, &rng);
  std::unordered_map<Value, size_t> counts;
  for (const Value& v : cols.Decode(0)) counts[v]++;
  for (const Value& v : cols.domain(0).values()) {
    EXPECT_NEAR(static_cast<double>(counts[v]) / 20000.0, 0.2, 0.02);
  }
}

// --- FD generation ----------------------------------------------------------------

TEST(ColumnGeneratorsTest, FdColumnIsFunctionOfLhs) {
  Rng rng(3);
  Domain rhs_domain = Domain::Categorical({Value::Int(1), Value::Int(2),
                                           Value::Int(3)});
  Columns cols({SmallCatDomain(), rhs_domain}, 300);
  cols.Root(0, &rng);
  GenerateFdColumnEncoded({0}, rhs_domain, 300, &rng, cols.batch(), 1);
  std::vector<Value> lhs = cols.Decode(0);
  std::vector<Value> rhs = cols.Decode(1);
  std::unordered_map<Value, Value> mapping;
  for (size_t r = 0; r < lhs.size(); ++r) {
    auto it = mapping.find(lhs[r]);
    if (it == mapping.end()) {
      mapping.emplace(lhs[r], rhs[r]);
    } else {
      EXPECT_EQ(it->second, rhs[r]) << "FD violated at row " << r;
    }
    EXPECT_TRUE(rhs_domain.Contains(rhs[r]));
  }
}

TEST(ColumnGeneratorsTest, FdEmptyLhsIsConstantColumn) {
  Rng rng(4);
  Columns cols({SmallCatDomain()}, 50);
  GenerateFdColumnEncoded({}, cols.domain(0), 50, &rng, cols.batch(), 0);
  std::vector<Value> col = cols.Decode(0);
  for (const Value& v : col) EXPECT_EQ(v, col[0]);
}

TEST(ColumnGeneratorsTest, FdCompositeLhsMapping) {
  Rng rng(5);
  Domain d = Domain::Categorical({Value::Int(0), Value::Int(1)});
  Columns cols({d, d, SmallCatDomain()}, 200);
  cols.Root(0, &rng);
  cols.Root(1, &rng);
  GenerateFdColumnEncoded({0, 1}, cols.domain(2), 200, &rng, cols.batch(),
                          2);
  std::vector<Value> a = cols.Decode(0);
  std::vector<Value> b = cols.Decode(1);
  std::vector<Value> y = cols.Decode(2);
  std::map<std::pair<std::string, std::string>, Value> mapping;
  for (size_t r = 0; r < y.size(); ++r) {
    auto key = std::make_pair(a[r].ToString(), b[r].ToString());
    auto it = mapping.find(key);
    if (it == mapping.end()) {
      mapping.emplace(key, y[r]);
    } else {
      EXPECT_EQ(it->second, y[r]);
    }
  }
}

// --- AFD generation ----------------------------------------------------------------

TEST(ColumnGeneratorsTest, AfdViolationRateNearG3) {
  Rng rng(6);
  const size_t n = 20000;
  Columns cols({Domain::Categorical({Value::Int(0), Value::Int(1)}),
                SmallCatDomain()},
               n);
  cols.Root(0, &rng);
  GenerateAfdColumnEncoded({0}, cols.domain(1), n, 0.2, &rng, cols.batch(),
                           1);
  std::vector<Value> lhs = cols.Decode(0);
  std::vector<Value> rhs = cols.Decode(1);
  // Majority class per LHS value approximates the mapping; deviations
  // approximate the violation rate: 0.2 redraws, 4/5 of which differ.
  std::unordered_map<Value, std::unordered_map<Value, size_t>> counts;
  for (size_t r = 0; r < n; ++r) counts[lhs[r]][rhs[r]]++;
  size_t majority_total = 0;
  for (auto& [x, ys] : counts) {
    size_t best = 0;
    for (auto& [y, c] : ys) best = std::max(best, c);
    majority_total += best;
  }
  double violation_rate =
      1.0 - static_cast<double>(majority_total) / static_cast<double>(n);
  EXPECT_NEAR(violation_rate, 0.2 * 0.8, 0.02);
}

TEST(ColumnGeneratorsTest, AfdZeroErrorIsExactFd) {
  Rng rng(7);
  Columns cols({SmallCatDomain(), SmallCatDomain()}, 200);
  cols.Root(0, &rng);
  GenerateAfdColumnEncoded({0}, cols.domain(1), 200, 0.0, &rng,
                           cols.batch(), 1);
  std::vector<Value> lhs = cols.Decode(0);
  std::vector<Value> rhs = cols.Decode(1);
  std::unordered_map<Value, Value> mapping;
  for (size_t r = 0; r < 200; ++r) {
    auto [it, inserted] = mapping.emplace(lhs[r], rhs[r]);
    if (!inserted) EXPECT_EQ(it->second, rhs[r]);
  }
}

// --- ND generation -----------------------------------------------------------------

TEST(ColumnGeneratorsTest, NdRespectsFanoutBound) {
  Rng rng(8);
  Domain rhs_domain = Domain::Categorical(
      {Value::Int(10), Value::Int(11), Value::Int(12), Value::Int(13),
       Value::Int(14), Value::Int(15), Value::Int(16), Value::Int(17)});
  const size_t k = 3;
  Columns cols({Domain::Categorical({Value::Int(0), Value::Int(1),
                                     Value::Int(2)}),
                rhs_domain},
               2000);
  cols.Root(0, &rng);
  GenerateNdColumnEncoded(0, rhs_domain, 2000, k, &rng, cols.batch(), 1);
  std::vector<Value> lhs = cols.Decode(0);
  std::vector<Value> rhs = cols.Decode(1);
  std::unordered_map<Value, std::unordered_set<Value>> fanout;
  for (size_t r = 0; r < lhs.size(); ++r) {
    fanout[lhs[r]].insert(rhs[r]);
    EXPECT_TRUE(rhs_domain.Contains(rhs[r]));
  }
  for (auto& [x, ys] : fanout) EXPECT_LE(ys.size(), k);
}

TEST(ColumnGeneratorsTest, NdPoolIsDistinctForCategoricalDomain) {
  Rng rng(9);
  Columns cols({Domain::Categorical({Value::Int(0)}), SmallCatDomain()},
               5000);
  cols.Root(0, &rng);
  GenerateNdColumnEncoded(0, cols.domain(1), 5000, 3, &rng, cols.batch(),
                          1);
  std::vector<Value> rhs = cols.Decode(1);
  std::unordered_set<Value> seen(rhs.begin(), rhs.end());
  // Pool drawn without replacement: exactly min(3, 5) values appear.
  EXPECT_EQ(seen.size(), 3u);
}

TEST(ColumnGeneratorsTest, NdFanoutLargerThanDomainClamps) {
  Rng rng(10);
  Domain rhs_domain = Domain::Categorical({Value::Int(1), Value::Int(2)});
  Columns cols({Domain::Categorical({Value::Int(0)}), rhs_domain}, 100);
  cols.Root(0, &rng);
  GenerateNdColumnEncoded(0, rhs_domain, 100, 10, &rng, cols.batch(), 1);
  for (const Value& v : cols.Decode(1)) EXPECT_TRUE(rhs_domain.Contains(v));
}

// --- OD / OFD generation --------------------------------------------------------------

TEST(ColumnGeneratorsTest, OdOutputSatisfiesOrderDependency) {
  Rng rng(11);
  Columns cols({Domain::Continuous(0, 100), Domain::Continuous(-50, 50)},
               200);
  cols.Root(0, &rng);
  GenerateOdColumnEncoded(0, cols.domain(1), 200, &rng, cols.batch(), 1);
  // Build a relation and validate with the discovery-side validator:
  // generation and validation must agree on the OD semantics.
  Schema schema({{"x", DataType::kDouble, SemanticType::kContinuous},
                 {"y", DataType::kDouble, SemanticType::kContinuous}});
  Relation r = std::move(Relation::Make(schema, {cols.Decode(0),
                                                 cols.Decode(1)}))
                   .ValueOrDie();
  EXPECT_TRUE(ValidateOd(r, 0, 1));
}

TEST(ColumnGeneratorsTest, OdWorksOntoCategoricalDomain) {
  Rng rng(12);
  Columns cols({Domain::Continuous(0, 10), SmallCatDomain()}, 100);
  cols.Root(0, &rng);
  GenerateOdColumnEncoded(0, cols.domain(1), 100, &rng, cols.batch(), 1);
  Schema schema({{"x", DataType::kDouble, SemanticType::kContinuous},
                 {"y", DataType::kString, SemanticType::kCategorical}});
  Relation r = std::move(Relation::Make(schema, {cols.Decode(0),
                                                 cols.Decode(1)}))
                   .ValueOrDie();
  EXPECT_TRUE(ValidateOd(r, 0, 1));
}

TEST(ColumnGeneratorsTest, OfdOutputSatisfiesStrictOrder) {
  Rng rng(13);
  Columns cols({Domain::Continuous(0, 100), Domain::Continuous(0, 1)}, 150);
  cols.Root(0, &rng);
  GenerateOfdColumnEncoded(0, cols.domain(1), 150, &rng, cols.batch(), 1);
  Schema schema({{"x", DataType::kDouble, SemanticType::kContinuous},
                 {"y", DataType::kDouble, SemanticType::kContinuous}});
  Relation r = std::move(Relation::Make(schema, {cols.Decode(0),
                                                 cols.Decode(1)}))
                   .ValueOrDie();
  EXPECT_TRUE(ValidateOfd(r, 0, 1));
}

TEST(ColumnGeneratorsTest, OfdCategoricalUsesDistinctValuesWhenPossible) {
  Rng rng(14);
  // 3 distinct LHS values, 5-value RHS domain: strict walk possible.
  // Codes 1..3 are Int(1..3), so the LHS reads 1, 2, 3, 1, 2.
  Columns cols({Domain::Categorical({Value::Int(1), Value::Int(2),
                                     Value::Int(3)}),
                SmallCatDomain()},
               5);
  const uint32_t lhs_codes[] = {1, 2, 3, 1, 2};
  for (size_t r = 0; r < 5; ++r) cols.batch()->set_code(0, r, lhs_codes[r]);
  GenerateOfdColumnEncoded(0, cols.domain(1), 5, &rng, cols.batch(), 1);
  Schema schema({{"x", DataType::kInt64, SemanticType::kCategorical},
                 {"y", DataType::kString, SemanticType::kCategorical}});
  Relation r = std::move(Relation::Make(schema, {cols.Decode(0),
                                                 cols.Decode(1)}))
                   .ValueOrDie();
  EXPECT_TRUE(ValidateOfd(r, 0, 1));
}

// --- DD generation -----------------------------------------------------------------

TEST(ColumnGeneratorsTest, DdChainedStepsStayWithinDelta) {
  Rng rng(15);
  Columns cols({Domain::Continuous(0, 10), Domain::Continuous(0, 100)}, 300);
  cols.Root(0, &rng);
  const double eps = 5.0;
  const double delta = 3.0;
  ASSERT_TRUE(GenerateDdColumnEncoded(0, cols.domain(1), {}, 300, eps, delta,
                                      &rng, cols.batch(), 1)
                  .ok());
  std::vector<Value> lhs = cols.Decode(0);
  std::vector<Value> rhs = cols.Decode(1);
  // Consecutive rows in LHS order with gap <= eps differ by <= delta.
  std::vector<size_t> order(300);
  for (size_t i = 0; i < 300; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return lhs[a].AsDouble() < lhs[b].AsDouble();
  });
  for (size_t i = 1; i < order.size(); ++i) {
    double dx = lhs[order[i]].AsDouble() - lhs[order[i - 1]].AsDouble();
    if (dx <= eps) {
      double dy = std::abs(rhs[order[i]].AsDouble() -
                           rhs[order[i - 1]].AsDouble());
      EXPECT_LE(dy, delta + 1e-9);
    }
  }
}

TEST(ColumnGeneratorsTest, DdRejectsCategoricalTarget) {
  Rng rng(16);
  Columns cols({Domain::Continuous(1, 1), SmallCatDomain()}, 1);
  cols.Root(0, &rng);
  EXPECT_FALSE(GenerateDdColumnEncoded(0, cols.domain(1), {}, 1, 1, 1, &rng,
                                       cols.batch(), 1)
                   .ok());
}

// --- GenerationEngine --------------------------------------------------------------

TEST(GenerationEngineTest, RequiresDomains) {
  Relation employee = datasets::Employee();
  MetadataPackage pkg;
  pkg.schema = employee.schema();
  pkg.domains.assign(4, std::nullopt);
  Rng rng(1);
  EXPECT_FALSE(GenerateSynthetic(pkg, 4, &rng).ok());
}

// The plan tracks placed attributes in a 64-bit AttributeSet, so a
// wider package could never be fully placed: every entry point that
// plans refuses it up front instead of appending root steps forever.
TEST(GenerationEngineTest, PackageWiderThan64AttributesIsInvalid) {
  constexpr size_t kAttrs = 70;
  constexpr size_t kRows = 8;
  std::vector<Attribute> attrs;
  std::vector<std::vector<Value>> columns(kAttrs);
  for (size_t c = 0; c < kAttrs; ++c) {
    attrs.push_back({"a" + std::to_string(c), DataType::kInt64,
                     SemanticType::kCategorical});
    for (size_t r = 0; r < kRows; ++r) {
      columns[c].push_back(Value::Int(static_cast<int64_t>(r % 2)));
    }
  }
  Relation relation =
      std::move(Relation::Make(Schema(attrs), std::move(columns)))
          .ValueOrDie();
  MetadataPackage pkg;
  pkg.schema = relation.schema();
  pkg.num_rows = kRows;
  pkg.domains.assign(kAttrs,
                     Domain::Categorical({Value::Int(0), Value::Int(1)}));
  pkg.dependencies.Add(Dependency::Fd(AttributeSet::Single(0), kAttrs - 1));

  auto expect_invalid = [](const Status& status) {
    EXPECT_TRUE(status.IsInvalid()) << status.ToString();
    EXPECT_EQ(status.message(), "package exceeds 64 attributes");
  };
  expect_invalid(GenerationContext::Build(pkg).status());
  Rng rng(3);
  expect_invalid(GenerateSynthetic(pkg, kRows, &rng).status());
  ExperimentEngine engine(relation, pkg);
  ExperimentConfig config;
  config.rounds = 2;
  expect_invalid(engine.Run(GenerationMethod::kFd, config).status());
}

TEST(GenerationEngineTest, ProducesAlignedRelation) {
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  Rng rng(2);
  auto outcome = GenerateSynthetic(report->metadata, 4, &rng);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->relation.num_rows(), 4u);
  EXPECT_EQ(outcome->relation.num_columns(), 4u);
  for (size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(outcome->relation.schema().attribute(c).name,
              employee.schema().attribute(c).name);
  }
}

TEST(GenerationEngineTest, RandomModeUsesNoDependencies) {
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  Rng rng(3);
  GenerationOptions options;
  options.ignore_dependencies = true;
  auto outcome =
      GenerateSynthetic(report->metadata, 10, &rng, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->plan.num_derived(), 0u);
}

TEST(GenerationEngineTest, GeneratedValuesLieInDisclosedDomains) {
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  Rng rng(4);
  auto outcome = GenerateSynthetic(report->metadata, 100, &rng);
  ASSERT_TRUE(outcome.ok());
  auto domains = report->metadata.RequireDomains();
  ASSERT_TRUE(domains.ok());
  for (size_t c = 0; c < outcome->relation.num_columns(); ++c) {
    for (size_t r = 0; r < outcome->relation.num_rows(); ++r) {
      EXPECT_TRUE((*domains)[c].Contains(outcome->relation.at(r, c)))
          << "col " << c << " row " << r;
    }
  }
}

TEST(GenerationEngineTest, DeterministicGivenSeed) {
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  Rng rng_a(42);
  Rng rng_b(42);
  auto a = GenerateSynthetic(report->metadata, 20, &rng_a);
  auto b = GenerateSynthetic(report->metadata, 20, &rng_b);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->relation, b->relation);
}

// Property: generation restricted to one dependency class produces output
// that *satisfies* every dependency of that class used in the plan.
class GenerationSoundnessTest
    : public ::testing::TestWithParam<DependencyKind> {};

TEST_P(GenerationSoundnessTest, PlanDependenciesHoldOnOutput) {
  Relation employee = datasets::Employee();
  DiscoveryOptions discovery;
  discovery.discover_afds = true;
  auto report = ProfileRelation(employee, discovery);
  ASSERT_TRUE(report.ok());
  Rng rng(77);
  GenerationOptions options;
  options.allowed_kinds = {GetParam()};
  auto outcome =
      GenerateSynthetic(report->metadata, 200, &rng, options);
  ASSERT_TRUE(outcome.ok());
  // Encode the generated relation once; the per-step validations below
  // run against the shared encoding instead of re-encoding each time.
  EncodedRelation generated = EncodedRelation::Encode(outcome->relation);
  for (const GenerationStep& step : outcome->plan.steps()) {
    if (!step.via.has_value()) continue;
    Dependency dep = *step.via;
    EXPECT_EQ(dep.kind, GetParam());
    // DD generation is a chain process: it guarantees consecutive-pair
    // proximity, not the full pairwise property; skip exact validation.
    if (dep.kind == DependencyKind::kDifferential) continue;
    // AFD redraws are Bernoulli: validate against a slack bound instead
    // of the recorded g3.
    if (dep.kind == DependencyKind::kApproximateFunctional) {
      dep.g3_error = std::min(1.0, dep.g3_error * 3 + 0.05);
    }
    auto valid = ValidateDependency(generated, dep);
    ASSERT_TRUE(valid.ok());
    EXPECT_TRUE(*valid) << dep.ToString(employee.schema());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, GenerationSoundnessTest,
    ::testing::Values(DependencyKind::kFunctional,
                      DependencyKind::kApproximateFunctional,
                      DependencyKind::kNumerical, DependencyKind::kOrder,
                      DependencyKind::kOrderedFunctional,
                      DependencyKind::kDifferential));

}  // namespace
}  // namespace metaleak
