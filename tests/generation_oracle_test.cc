// The code-path generator against its boxed-Value oracle.
//
// GenerateEncoded (then ApplyCfdsEncoded for the CFD method) is the
// library's only way to draw R_syn. tests/reference/ keeps the boxed
// generator it replaced: seven column generators, the relation builder
// and the CFD chase over `Value` columns. This suite holds the decoded
// batches to it bit for bit, and the RNG to the same end point, on the
// employee, echocardiogram, planted-synthetic (with CFDs and disclosed
// distributions) and attack fixtures, for every generation method, at
// the round seeds RunAll records. The rounds are generated on pools of
// 1 and 8 threads, since the generators keep thread-local scratch; CI
// runs the suite under TSan.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "data/datasets/echocardiogram.h"
#include "data/datasets/employee.h"
#include "data/datasets/synthetic.h"
#include "data/encoded_batch.h"
#include "discovery/discovery_engine.h"
#include "generation/cfd_generator.h"
#include "generation/generation_engine.h"
#include "privacy/experiment.h"
#include "reference/generation_reference.h"

namespace metaleak {
namespace {

const std::vector<GenerationMethod> kAllMethods = {
    GenerationMethod::kRandom, GenerationMethod::kFd,
    GenerationMethod::kAfd,    GenerationMethod::kNd,
    GenerationMethod::kOd,     GenerationMethod::kDd,
    GenerationMethod::kOfd,    GenerationMethod::kCfd,
    GenerationMethod::kFull,
};

// The generation options ExperimentEngine runs each method under.
GenerationOptions OptionsFor(GenerationMethod method) {
  GenerationOptions out;
  switch (method) {
    case GenerationMethod::kRandom:
    case GenerationMethod::kCfd:
      out.ignore_dependencies = true;
      break;
    case GenerationMethod::kFd:
      out.allowed_kinds = {DependencyKind::kFunctional};
      break;
    case GenerationMethod::kAfd:
      out.allowed_kinds = {DependencyKind::kApproximateFunctional};
      break;
    case GenerationMethod::kNd:
      out.allowed_kinds = {DependencyKind::kNumerical};
      break;
    case GenerationMethod::kOd:
      out.allowed_kinds = {DependencyKind::kOrder};
      break;
    case GenerationMethod::kDd:
      out.allowed_kinds = {DependencyKind::kDifferential};
      break;
    case GenerationMethod::kOfd:
      out.allowed_kinds = {DependencyKind::kOrderedFunctional};
      break;
    case GenerationMethod::kFull:
      break;
  }
  return out;
}

// One generated round: the relation, and the RNG's next output after it.
struct Round {
  Status status;
  std::optional<Relation> relation;
  uint64_t next_draw = 0;
};

// The library's round: GenerateEncoded, ApplyCfdsEncoded when a chase
// plan is given, then MaterializeRelation.
Round CodeRound(const GenerationContext& ctx, const EncodedCfdPlan* cfd_plan,
                size_t rows, uint64_t seed) {
  thread_local EncodedBatch batch;
  Round out;
  Rng rng(seed);
  out.status = GenerateEncoded(ctx, rows, &rng, &batch);
  if (out.status.ok() && cfd_plan != nullptr) {
    out.status = ApplyCfdsEncoded(*cfd_plan, &batch, &rng);
  }
  if (!out.status.ok()) return out;
  Result<Relation> rel =
      MaterializeRelation(ctx.schema(), ctx.domains(), batch);
  out.status = rel.status();
  if (rel.ok()) out.relation.emplace(std::move(*rel));
  out.next_draw = rng.engine()();
  return out;
}

// The oracle's round: reference::GenerateSyntheticValuePath, then
// reference::ApplyCfds for the CFD method.
Round OracleRound(const MetadataPackage& metadata, GenerationMethod method,
                  size_t rows, uint64_t seed) {
  Round out;
  Rng rng(seed);
  Result<GenerationOutcome> generated = reference::GenerateSyntheticValuePath(
      metadata, rows, &rng, OptionsFor(method));
  out.status = generated.status();
  if (!generated.ok()) return out;
  Relation rel = std::move(generated->relation);
  if (method == GenerationMethod::kCfd) {
    Result<Relation> repaired =
        reference::ApplyCfds(rel, metadata.conditional_fds,
                             metadata.RequireDomains().ValueOrDie(), &rng);
    out.status = repaired.status();
    if (!repaired.ok()) return out;
    rel = std::move(*repaired);
  }
  out.relation.emplace(std::move(rel));
  out.next_draw = rng.engine()();
  return out;
}

// Equal schemas, and every cell equal: doubles by their bits, other
// Values by ==.
void ExpectSameBits(const Relation& got, const Relation& want) {
  ASSERT_EQ(got.schema(), want.schema());
  ASSERT_EQ(got.num_rows(), want.num_rows());
  for (size_t c = 0; c < got.num_columns(); ++c) {
    for (size_t r = 0; r < got.num_rows(); ++r) {
      const Value& a = got.at(r, c);
      const Value& b = want.at(r, c);
      const bool same =
          a.is_double() && b.is_double()
              ? std::bit_cast<uint64_t>(a.AsDouble()) ==
                    std::bit_cast<uint64_t>(b.AsDouble())
              : a == b;
      ASSERT_TRUE(same) << got.schema().attribute(c).name << " row " << r
                        << ": " << a.ToString() << " vs " << b.ToString();
    }
  }
}

class GenerationOracleTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override { SetGlobalThreadCount(GetParam()); }
  void TearDown() override { SetGlobalThreadCount(0); }

  // Every method's rounds at RunAll's recorded seeds, generated on the
  // pool, against the oracle's.
  void ExpectMatchesOracle(const Relation& relation,
                           const MetadataPackage& metadata, size_t rounds) {
    ExperimentConfig config;
    config.rounds = rounds;
    Result<std::vector<MethodResult>> results =
        RunExperiment(relation, metadata, kAllMethods, config);
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    const size_t rows = relation.num_rows();
    for (size_t i = 0; i < kAllMethods.size(); ++i) {
      const GenerationMethod method = kAllMethods[i];
      SCOPED_TRACE(GenerationMethodToString(method));
      Result<GenerationContext> ctx =
          GenerationContext::Build(metadata, OptionsFor(method));
      ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
      std::optional<EncodedCfdPlan> cfd_plan;
      if (method == GenerationMethod::kCfd) {
        Result<EncodedCfdPlan> plan = BuildEncodedCfdPlan(
            metadata.conditional_fds, ctx->domains(), ctx->kinds());
        ASSERT_TRUE(plan.ok()) << plan.status().ToString();
        cfd_plan.emplace(std::move(*plan));
      }
      const std::vector<uint64_t>& seeds = (*results)[i].round_seeds;
      ASSERT_EQ(seeds.size(), rounds);
      std::vector<Round> got(seeds.size());
      ParallelFor(0, seeds.size(), 1, [&](size_t k) {
        got[k] = CodeRound(*ctx, cfd_plan ? &*cfd_plan : nullptr, rows,
                           seeds[k]);
      });
      for (size_t k = 0; k < seeds.size(); ++k) {
        SCOPED_TRACE(testing::Message() << "round " << k);
        const Round want = OracleRound(metadata, method, rows, seeds[k]);
        ASSERT_TRUE(got[k].status.ok()) << got[k].status.ToString();
        ASSERT_TRUE(want.status.ok()) << want.status.ToString();
        ExpectSameBits(*got[k].relation, *want.relation);
        EXPECT_EQ(got[k].next_draw, want.next_draw);
      }
    }
  }
};

TEST_P(GenerationOracleTest, Employee) {
  Relation employee = datasets::Employee();
  DiscoveryOptions options;
  options.discover_cfds = true;
  options.cfd.min_support = 2;
  options.profile_distributions = true;
  auto report = ProfileRelation(employee, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_FALSE(report->metadata.conditional_fds.empty());
  ExpectMatchesOracle(employee, report->metadata, 16);
}

TEST_P(GenerationOracleTest, Echocardiogram) {
  Relation echo = datasets::Echocardiogram();
  DiscoveryOptions options;
  options.discover_afds = true;
  options.discover_cfds = true;
  auto report = ProfileRelation(echo, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectMatchesOracle(echo, report->metadata, 8);
}

TEST_P(GenerationOracleTest, PlantedSynthetic) {
  using Kind = datasets::SyntheticAttribute::Kind;
  datasets::SyntheticConfig config;
  config.num_rows = 400;
  config.seed = 7;
  config.attributes = {
      {.name = "a", .kind = Kind::kCategoricalBase, .domain_size = 16},
      {.name = "b", .kind = Kind::kContinuousBase, .lo = 0.0, .hi = 1000.0},
      {.name = "c", .kind = Kind::kDerivedMonotone, .source = 1},
      {.name = "d",
       .kind = Kind::kDerivedBoundedFanout,
       .domain_size = 24,
       .source = 0,
       .fanout = 3},
      {.name = "e",
       .kind = Kind::kDerivedApproximate,
       .domain_size = 12,
       .source = 0,
       .violation_rate = 0.1},
  };
  auto relation = datasets::Synthetic(config);
  ASSERT_TRUE(relation.ok());
  DiscoveryOptions options;
  options.discover_afds = true;
  options.discover_cfds = true;
  options.profile_distributions = true;
  auto report = ProfileRelation(*relation, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_FALSE(report->metadata.conditional_fds.empty());
  bool has_distribution = false;
  for (const auto& dist : report->metadata.distributions) {
    has_distribution |= dist.has_value();
  }
  ASSERT_TRUE(has_distribution);
  ExpectMatchesOracle(*relation, report->metadata, 8);
}

// The attack_rounds workload's fixture at 5k rows: its FD/OD/ND/DD plans
// key on the continuous column b.
TEST_P(GenerationOracleTest, AttackFixture) {
  using Kind = datasets::SyntheticAttribute::Kind;
  datasets::SyntheticConfig config;
  config.num_rows = 5000;
  config.seed = 21;
  config.attributes = {
      {.name = "a", .kind = Kind::kCategoricalBase, .domain_size = 16},
      {.name = "b", .kind = Kind::kContinuousBase, .lo = 0.0, .hi = 1000.0},
      {.name = "c",
       .kind = Kind::kDerivedMonotone,
       .domain_size = 0,
       .source = 1},
      {.name = "d",
       .kind = Kind::kDerivedBoundedFanout,
       .domain_size = 24,
       .source = 0,
       .fanout = 3},
  };
  auto relation = datasets::Synthetic(config);
  ASSERT_TRUE(relation.ok());
  auto report = ProfileRelation(*relation);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_FALSE(report->metadata.dependencies
                   .OfKind(DependencyKind::kDifferential)
                   .empty());
  ExpectMatchesOracle(*relation, report->metadata, 3);
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, GenerationOracleTest,
                         ::testing::Values(size_t{1}, size_t{8}));

}  // namespace
}  // namespace metaleak
