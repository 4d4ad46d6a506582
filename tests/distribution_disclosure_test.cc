// Tests for the distribution-disclosure extension: packaging, wire
// round-trip, restriction, and the leakage increase it causes — the
// reason the paper's model keeps distributions private. The sampling
// oracle suite holds the binary-searched draws and the hashed
// value-to-code mapping to the linear scans in
// tests/reference/distribution_reference on fixed seeds.
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/datasets/echocardiogram.h"
#include "data/encoded_batch.h"
#include "discovery/discovery_engine.h"
#include "generation/generation_engine.h"
#include "metadata/metadata_package.h"
#include "privacy/experiment.h"
#include "privacy/leakage.h"
#include "reference/distribution_reference.h"

namespace metaleak {
namespace {

Relation SkewedRelation(size_t rows) {
  // 90% of rows carry value "hot", the rest spread over 9 cold values.
  Schema schema({{"c", DataType::kString, SemanticType::kCategorical}});
  RelationBuilder b(schema);
  Rng rng(5);
  for (size_t r = 0; r < rows; ++r) {
    if (rng.Bernoulli(0.9)) {
      b.AddRow({Value::Str("hot")});
    } else {
      b.AddRow({Value::Str("cold" + std::to_string(rng.UniformIndex(9)))});
    }
  }
  return std::move(b.Finish()).ValueOrDie();
}

TEST(DistributionDisclosureTest, ProfileFillsDistributionsWhenEnabled) {
  Relation r = datasets::Echocardiogram();
  DiscoveryOptions options;
  options.profile_distributions = true;
  auto report = ProfileRelation(r, options);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->metadata.distributions.size(), r.num_columns());
  for (const auto& d : report->metadata.distributions) {
    EXPECT_TRUE(d.has_value());
  }

  DiscoveryOptions off;
  auto without = ProfileRelation(r, off);
  ASSERT_TRUE(without.ok());
  for (const auto& d : without->metadata.distributions) {
    EXPECT_FALSE(d.has_value());
  }
}

TEST(DistributionDisclosureTest, RestrictStripsBelowTopLevel) {
  Relation r = datasets::Echocardiogram();
  DiscoveryOptions options;
  options.profile_distributions = true;
  auto report = ProfileRelation(r, options);
  ASSERT_TRUE(report.ok());

  MetadataPackage rfds =
      report->metadata.Restrict(DisclosureLevel::kWithRfds);
  for (const auto& d : rfds.distributions) EXPECT_FALSE(d.has_value());

  MetadataPackage full =
      report->metadata.Restrict(DisclosureLevel::kWithDistributions);
  for (const auto& d : full.distributions) EXPECT_TRUE(d.has_value());
}

TEST(DistributionDisclosureTest, SerializationRoundTrip) {
  Relation r = datasets::Echocardiogram();
  DiscoveryOptions options;
  options.profile_distributions = true;
  options.distribution_buckets = 8;
  auto report = ProfileRelation(r, options);
  ASSERT_TRUE(report.ok());
  std::string wire = report->metadata.Serialize();
  auto parsed = MetadataPackage::Deserialize(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->distributions.size(),
            report->metadata.distributions.size());
  for (size_t c = 0; c < parsed->distributions.size(); ++c) {
    ASSERT_TRUE(parsed->distributions[c].has_value()) << "attr " << c;
    EXPECT_EQ(*parsed->distributions[c],
              *report->metadata.distributions[c])
        << "attr " << c;
  }
}

TEST(DistributionDisclosureTest, SkewedDistributionRaisesLeakage) {
  // On skewed data the distribution-aware adversary matches far more
  // often than the uniform-domain adversary: sum p_i^2 vs 1/|D|.
  Relation real = SkewedRelation(400);
  DiscoveryOptions options;
  options.profile_distributions = true;
  auto report = ProfileRelation(real, options);
  ASSERT_TRUE(report.ok());

  ExperimentConfig config;
  config.rounds = 300;

  // Uniform adversary: distributions stripped.
  MetadataPackage uniform =
      report->metadata.Restrict(DisclosureLevel::kWithRfds);
  auto uniform_result =
      RunMethod(real, uniform, GenerationMethod::kRandom, config);
  ASSERT_TRUE(uniform_result.ok());

  // Distribution-aware adversary.
  auto aware_result = RunMethod(real, report->metadata,
                                GenerationMethod::kRandom, config);
  ASSERT_TRUE(aware_result.ok());

  double uniform_matches = uniform_result->attributes[0].mean_matches;
  double aware_matches = aware_result->attributes[0].mean_matches;
  // Analytically: uniform ~ N/10 = 40; aware ~ N * sum p^2 ~ 325.
  EXPECT_GT(aware_matches, 2.0 * uniform_matches);
}

TEST(DistributionDisclosureTest, UseDistributionsFlagControlsBehaviour) {
  Relation real = SkewedRelation(400);
  DiscoveryOptions options;
  options.profile_distributions = true;
  auto report = ProfileRelation(real, options);
  ASSERT_TRUE(report.ok());

  // The package is the switch: a copy with its distributions cleared
  // samples every root attribute uniformly from its domain.
  MetadataPackage uniform = report->metadata;
  uniform.distributions.clear();
  Rng rng_a(1);
  Rng rng_b(1);
  GenerationOptions random_only;
  random_only.ignore_dependencies = true;

  auto gen_with =
      GenerateSynthetic(report->metadata, 400, &rng_a, random_only);
  auto gen_without = GenerateSynthetic(uniform, 400, &rng_b, random_only);
  ASSERT_TRUE(gen_with.ok() && gen_without.ok());

  auto leak_with = EvaluateLeakage(real, gen_with->relation);
  auto leak_without = EvaluateLeakage(real, gen_without->relation);
  ASSERT_TRUE(leak_with.ok() && leak_without.ok());
  EXPECT_GT(leak_with->attributes[0].matches,
            leak_without->attributes[0].matches);
}

// A frequency table over `values` distinct strings (v00000, v00001, ...)
// listed in shuffled order, with skewed counts and every seventh count
// zero.
FrequencyTable WideTable(size_t values, uint64_t seed) {
  FrequencyTable table;
  for (size_t k = 0; k < values; ++k) {
    std::string name = std::to_string(k);
    table.values.push_back(
        Value::Str("v" + std::string(5 - name.size(), '0') + name));
    table.counts.push_back(k % 7 == 3 ? 0 : 1 + 5000 / (k + 1));
  }
  Rng rng(seed);
  for (size_t k = values; k > 1; --k) {
    size_t j = rng.UniformIndex(k);
    std::swap(table.values[k - 1], table.values[j]);
    std::swap(table.counts[k - 1], table.counts[j]);
  }
  return table;
}

// Zero-count buckets at both ends and in the middle.
Histogram SparseHistogram() {
  Histogram h;
  h.lo = -5.0;
  h.hi = 17.0;
  h.counts = {0, 3, 0, 0, 12, 1, 0, 7, 0};
  return h;
}

const uint64_t kOracleSeeds[] = {1, 21, 7777};

TEST(DistributionSamplingOracleTest, SampleMatchesTheCountWalk) {
  Result<ValueDistribution> categorical =
      ValueDistribution::Categorical(WideTable(20000, 3));
  Result<ValueDistribution> continuous =
      ValueDistribution::Continuous(SparseHistogram());
  ASSERT_TRUE(categorical.ok() && continuous.ok());
  for (const ValueDistribution* dist : {&*categorical, &*continuous}) {
    for (uint64_t seed : kOracleSeeds) {
      Rng fast(seed);
      Rng walk(seed);
      for (int draw = 0; draw < 2000; ++draw) {
        const Value got = dist->Sample(&fast);
        const Value want = reference::Sample(*dist, &walk);
        ASSERT_EQ(got, want) << "seed " << seed << " draw " << draw;
        if (got.is_double()) {
          ASSERT_EQ(std::bit_cast<uint64_t>(got.AsDouble()),
                    std::bit_cast<uint64_t>(want.AsDouble()));
        }
      }
      EXPECT_EQ(fast.UniformIndex(1u << 30), walk.UniformIndex(1u << 30));
    }
  }
}

// A one-attribute package whose root column samples from `dist`.
MetadataPackage OneColumnPackage(Attribute attribute, Domain domain,
                                 ValueDistribution dist) {
  MetadataPackage package;
  package.schema = Schema({attribute});
  package.num_rows = 100;
  package.domains = {std::move(domain)};
  package.distributions = {std::move(dist)};
  return package;
}

TEST(DistributionSamplingOracleTest, EncodedSamplerMatchesTheCountWalk) {
  // Categorical: a 20000-value frequency table in shuffled order over the
  // sorted domain, so every value maps to a different code.
  FrequencyTable table = WideTable(20000, 9);
  Result<ValueDistribution> categorical = ValueDistribution::Categorical(table);
  ASSERT_TRUE(categorical.ok());
  const Domain domain = Domain::Categorical(table.values);
  MetadataPackage package = OneColumnPackage(
      {"c", DataType::kString, SemanticType::kCategorical}, domain,
      *categorical);
  GenerationOptions random;
  random.ignore_dependencies = true;
  Result<GenerationContext> ctx = GenerationContext::Build(package, random);
  ASSERT_TRUE(ctx.ok() && ctx->encodable()) << ctx->fallback_reason();
  for (uint64_t seed : kOracleSeeds) {
    Rng fast(seed);
    Rng walk(seed);
    EncodedBatch batch;
    ASSERT_TRUE(GenerateEncoded(*ctx, 1000, &fast, &batch).ok());
    for (size_t r = 0; r < 1000; ++r) {
      uint32_t code = 0;
      ASSERT_TRUE(reference::MapDistValueToCode(
          table.values[reference::WalkCounts(table.counts, &walk)],
          domain.values(), &code));
      ASSERT_EQ(batch.code_at(0, r), code) << "seed " << seed << " row " << r;
    }
    EXPECT_EQ(fast.UniformIndex(1u << 30), walk.UniformIndex(1u << 30));
  }

  // Continuous: bucket by the walk, then a uniform double in the bucket.
  Result<ValueDistribution> continuous =
      ValueDistribution::Continuous(SparseHistogram());
  ASSERT_TRUE(continuous.ok());
  MetadataPackage reals = OneColumnPackage(
      {"x", DataType::kDouble, SemanticType::kContinuous},
      Domain::Continuous(-5.0, 17.0), *continuous);
  Result<GenerationContext> real_ctx = GenerationContext::Build(reals, random);
  ASSERT_TRUE(real_ctx.ok() && real_ctx->encodable());
  for (uint64_t seed : kOracleSeeds) {
    Rng fast(seed);
    Rng walk(seed);
    EncodedBatch batch;
    ASSERT_TRUE(GenerateEncoded(*real_ctx, 3000, &fast, &batch).ok());
    for (size_t r = 0; r < 3000; ++r) {
      const Value want = reference::Sample(*continuous, &walk);
      ASSERT_EQ(std::bit_cast<uint64_t>(batch.reals(0)[r]),
                std::bit_cast<uint64_t>(want.AsDouble()))
          << "seed " << seed << " row " << r;
    }
  }
}

TEST(DistributionSamplingOracleTest, UnmappedSupportIsInvalidLikeTheScan) {
  // A frequency value outside the domain, and one equal only across
  // types (Int(1) is not Real(1.0)): the scan finds no entry, and the
  // hashed mapping must not either. Such a package contradicts itself,
  // so generation and the engine return the not-encodable Invalid.
  const Domain domain = Domain::Categorical(
      {Value::Real(1.0), Value::Real(2.0), Value::Real(3.0)});
  Schema schema({{"c", DataType::kDouble, SemanticType::kCategorical}});
  auto real = Relation::Make(
      schema, {{Value::Real(1.0), Value::Real(2.0), Value::Real(3.0)}});
  ASSERT_TRUE(real.ok());
  const std::string kReason =
      "package is not encodable: "
      "distribution support does not map into the domain";
  for (const Value& stray : {Value::Real(4.0), Value::Int(1)}) {
    SCOPED_TRACE(stray.ToString());
    FrequencyTable table;
    table.values = {Value::Real(2.0), stray};
    table.counts = {3, 1};
    uint32_t code = 0;
    EXPECT_FALSE(reference::MapDistValueToCode(stray, domain.values(), &code));
    Result<ValueDistribution> dist = ValueDistribution::Categorical(table);
    ASSERT_TRUE(dist.ok());
    MetadataPackage package = OneColumnPackage(
        {"c", DataType::kDouble, SemanticType::kCategorical}, domain, *dist);
    Result<GenerationContext> ctx = GenerationContext::Build(package);
    ASSERT_TRUE(ctx.ok());
    EXPECT_FALSE(ctx->encodable());
    EXPECT_EQ(ctx->fallback_reason(),
              "distribution support does not map into the domain");

    Rng rng(1);
    auto generated = GenerateSynthetic(package, 3, &rng);
    ASSERT_FALSE(generated.ok());
    EXPECT_TRUE(generated.status().IsInvalid());
    EXPECT_EQ(generated.status().message(), kReason);
    ExperimentConfig config;
    config.rounds = 2;
    auto run = ExperimentEngine(*real, package)
                   .Run(GenerationMethod::kRandom, config);
    ASSERT_FALSE(run.ok());
    EXPECT_TRUE(run.status().IsInvalid());
    EXPECT_EQ(run.status().message(), kReason);
  }
}

}  // namespace
}  // namespace metaleak
