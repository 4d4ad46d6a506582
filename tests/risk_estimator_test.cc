// Risk estimator layer tests.
//
// Pins the tentpole contract of the estimator refactor: (1) the
// Def 2.2/2.3 results streamed through MatchRateEstimator are
// bit-identical to the pre-refactor fused scan on every method, on both
// execution paths, at 1 and 8 threads, and regardless of which registry
// runs alongside; (2) the info-theoretic estimator reproduces
// closed-form entropy / conditional-entropy / mutual-information
// answers on planted fixtures; (3) the NN-linkage adversary scores
// known-answer batches exactly; (4) the measure columns flow through
// replay and the profile diff; (5) the conditional-entropy and MI cells
// are bit-identical to the same formulas over the ordered std::map joint
// counts of tests/reference, at every code width and on joints far
// larger than the row count; (6) every estimator rejects a batch whose
// row count differs from the bound relation's; (7) RunAll binds each
// estimator once for all its methods, Run and ReplayRoundMeasures once
// per call and ReplayRound only the match-rate estimator, and the
// shared bind scores every method exactly as a per-method bind does.
// Runs under TSan in CI next to the leakage_codepath suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/math_util.h"
#include "common/random.h"
#include "data/code_column.h"
#include "data/datasets/echocardiogram.h"
#include "data/datasets/employee.h"
#include "data/datasets/synthetic.h"
#include "data/domain.h"
#include "data/encoded_batch.h"
#include "data/encoded_relation.h"
#include "data/relation.h"
#include "discovery/discovery_engine.h"
#include "metadata/conditional_fd.h"
#include "metadata/metadata_package.h"
#include "metadata/value_distribution.h"
#include "privacy/experiment.h"
#include "privacy/leakage_delta.h"
#include "privacy/risk_estimator.h"
#include "reference/joint_count_reference.h"

namespace metaleak {
namespace {

const std::vector<GenerationMethod> kAllMethods = {
    GenerationMethod::kRandom, GenerationMethod::kFd,
    GenerationMethod::kAfd,    GenerationMethod::kNd,
    GenerationMethod::kOd,     GenerationMethod::kDd,
    GenerationMethod::kOfd,    GenerationMethod::kCfd,
};

// EXPECT_EQ on doubles is exact equality — the bit-identity contract.
void ExpectLegacyFieldsIdentical(const std::vector<MethodResult>& a,
                                 const std::vector<MethodResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t m = 0; m < a.size(); ++m) {
    SCOPED_TRACE(GenerationMethodToString(a[m].method));
    EXPECT_EQ(a[m].method, b[m].method);
    EXPECT_EQ(a[m].round_seeds, b[m].round_seeds);
    ASSERT_EQ(a[m].attributes.size(), b[m].attributes.size());
    for (size_t c = 0; c < a[m].attributes.size(); ++c) {
      const MethodAttributeResult& x = a[m].attributes[c];
      const MethodAttributeResult& y = b[m].attributes[c];
      SCOPED_TRACE(x.name);
      EXPECT_EQ(x.covered, y.covered);
      EXPECT_EQ(x.mean_matches, y.mean_matches);
      EXPECT_EQ(x.stddev_matches, y.stddev_matches);
      ASSERT_EQ(x.mean_mse.has_value(), y.mean_mse.has_value());
      if (x.mean_mse.has_value()) {
        EXPECT_EQ(*x.mean_mse, *y.mean_mse);
      }
    }
  }
}

// --- Golden parity: MatchRateEstimator == pre-refactor fused scan ------------

TEST(RiskEstimatorTest, MatchRateGoldenParityAcrossPathsThreadsRegistries) {
  Relation employee = datasets::Employee();
  DiscoveryOptions options;
  options.discover_cfds = true;  // exercise the encoded CFD repair pass
  auto report = ProfileRelation(employee, options);
  ASSERT_TRUE(report.ok());

  ExperimentConfig config;
  config.rounds = 12;
  std::vector<std::vector<MethodResult>> sweeps;
  for (const RiskEstimatorRegistry* registry :
       {&RiskEstimatorRegistry::Default(), &RiskEstimatorRegistry::All()}) {
    for (bool value_path : {false, true}) {
      for (size_t threads : {1u, 8u}) {
        config.estimators = registry;
        config.use_value_path = value_path;
        config.threads = threads;
        auto result =
            RunExperiment(employee, report->metadata, kAllMethods, config);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        sweeps.push_back(std::move(*result));
      }
    }
  }
  // All 8 sweeps (2 registries x 2 paths x 2 thread counts) agree on
  // the legacy Def 2.2/2.3 fields bit for bit.
  for (size_t i = 1; i < sweeps.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectLegacyFieldsIdentical(sweeps[0], sweeps[i]);
  }
  // And inside every sweep, the match-rate measure columns ARE the
  // legacy fields — one assembly of the same Welford fold.
  for (const std::vector<MethodResult>& sweep : sweeps) {
    for (const MethodResult& result : sweep) {
      SCOPED_TRACE(GenerationMethodToString(result.method));
      ASSERT_GE(result.measures.size(), 2u);
      const RiskMeasureStats& matches =
          result.measures[MatchRateEstimator::kMatchesIndex];
      const RiskMeasureStats& mse =
          result.measures[MatchRateEstimator::kMseIndex];
      EXPECT_EQ(matches.estimator, "match_rate");
      EXPECT_EQ(matches.measure, "matches");
      EXPECT_TRUE(matches.active);
      ASSERT_EQ(matches.mean.size(), result.attributes.size());
      for (size_t c = 0; c < result.attributes.size(); ++c) {
        EXPECT_EQ(matches.mean[c], result.attributes[c].mean_matches);
        EXPECT_EQ(matches.stddev[c], result.attributes[c].stddev_matches);
        EXPECT_EQ(matches.rounds[c], config.rounds);
        ASSERT_EQ(mse.rounds[c] > 0,
                  result.attributes[c].mean_mse.has_value());
        if (mse.rounds[c] > 0) {
          EXPECT_EQ(mse.mean[c], *result.attributes[c].mean_mse);
        }
      }
    }
  }
}

TEST(RiskEstimatorTest, BeyondMatchRateEstimatorsInactiveOnValuePath) {
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());

  ExperimentConfig config;
  config.rounds = 4;
  config.estimators = &RiskEstimatorRegistry::All();
  auto code = RunMethod(employee, report->metadata, GenerationMethod::kFd,
                        config);
  config.use_value_path = true;
  auto value = RunMethod(employee, report->metadata, GenerationMethod::kFd,
                         config);
  ASSERT_TRUE(code.ok() && value.ok());
  ASSERT_EQ(code->measures.size(), RiskEstimatorRegistry::All().total_measures());
  ASSERT_EQ(value->measures.size(), code->measures.size());
  for (size_t j = 2; j < code->measures.size(); ++j) {
    SCOPED_TRACE(code->measures[j].estimator + "/" +
                 code->measures[j].measure);
    EXPECT_TRUE(code->measures[j].active);
    EXPECT_FALSE(value->measures[j].active);
  }
  // Scoring the decoded batch still fills the match-rate columns.
  EXPECT_TRUE(value->measures[0].active);
  EXPECT_TRUE(value->measures[1].active);
}

TEST(RiskEstimatorTest, RegistryMustLeadWithMatchRate) {
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  RiskEstimatorRegistry bad({&InfoTheoreticEstimator::Instance()});
  ExperimentConfig config;
  config.rounds = 1;
  config.estimators = &bad;
  auto result =
      RunMethod(employee, report->metadata, GenerationMethod::kRandom, config);
  EXPECT_FALSE(result.ok());
}

// --- Closed-form fixtures ----------------------------------------------------

// One categorical column: 8 values, 2 rows each -> H = 3 bits exactly.
Relation UniformEight() {
  Schema schema({{"x", DataType::kInt64, SemanticType::kCategorical}});
  std::vector<Value> col;
  for (int v = 0; v < 8; ++v) {
    col.push_back(Value::Int(v));
    col.push_back(Value::Int(v));
  }
  return std::move(Relation::Make(schema, {std::move(col)})).ValueOrDie();
}

MetadataPackage PackageFor(const Relation& relation) {
  MetadataPackage metadata;
  metadata.schema = relation.schema();
  metadata.num_rows = relation.num_rows();
  auto domains = ExtractDomains(relation);
  for (Domain& d : *domains) metadata.domains.push_back(std::move(d));
  return metadata;
}

TEST(RiskEstimatorTest, EntropyMatchesClosedFormAndValueDistribution) {
  Relation relation = UniformEight();
  EncodedRelation encoded = EncodedRelation::Encode(relation);
  MetadataPackage metadata = PackageFor(relation);

  auto measures = ComputeProfileMeasures(encoded, metadata);
  ASSERT_TRUE(measures.ok());
  ASSERT_EQ(measures->size(), 2u);
  EXPECT_EQ((*measures)[0].measure, "entropy_bits");
  ASSERT_EQ((*measures)[0].cells.size(), 1u);
  ASSERT_TRUE((*measures)[0].cells[0].present);
  EXPECT_DOUBLE_EQ((*measures)[0].cells[0].value, 3.0);
  // No disclosed dependency covers x: no conditional-entropy bound.
  EXPECT_EQ((*measures)[1].measure, "cond_entropy_bits");
  EXPECT_FALSE((*measures)[1].cells[0].present);

  // Satellite: the disclosed-distribution accessor shares the same
  // ShannonEntropyBits definition, so the numbers agree exactly.
  auto dist = ValueDistribution::FromEncoded(encoded, 0);
  ASSERT_TRUE(dist.ok());
  EXPECT_DOUBLE_EQ(dist->EntropyBits(), 3.0);
  EXPECT_EQ(dist->EntropyBits(), (*measures)[0].cells[0].value);
}

TEST(RiskEstimatorTest, ConditionalEntropyClosedForm) {
  // a has 2 values; b = 2*a + coin with balanced counts:
  // H(b) = 2 bits, H(b | a) = 1 bit. c = f(a): H(c | a) = 0.
  Schema schema({{"a", DataType::kInt64, SemanticType::kCategorical},
                 {"b", DataType::kInt64, SemanticType::kCategorical},
                 {"c", DataType::kInt64, SemanticType::kCategorical}});
  std::vector<Value> a, b, c;
  for (int i = 0; i < 8; ++i) {
    const int av = i / 4;        // 0,0,0,0,1,1,1,1
    const int coin = i % 2;      // alternating
    a.push_back(Value::Int(av));
    b.push_back(Value::Int(2 * av + coin));
    c.push_back(Value::Int(10 + av));
  }
  auto relation = Relation::Make(
      schema, {std::move(a), std::move(b), std::move(c)});
  ASSERT_TRUE(relation.ok());
  EncodedRelation encoded = EncodedRelation::Encode(*relation);
  MetadataPackage metadata = PackageFor(*relation);
  Dependency a_to_b;
  a_to_b.lhs = AttributeSet::Single(0);
  a_to_b.rhs = 1;
  metadata.dependencies.Add(a_to_b);
  Dependency a_to_c;
  a_to_c.lhs = AttributeSet::Single(0);
  a_to_c.rhs = 2;
  metadata.dependencies.Add(a_to_c);

  auto measures = ComputeProfileMeasures(encoded, metadata);
  ASSERT_TRUE(measures.ok());
  const RiskProfileMeasure& cond = (*measures)[1];
  ASSERT_EQ(cond.cells.size(), 3u);
  EXPECT_FALSE(cond.cells[0].present);  // nothing determines a
  ASSERT_TRUE(cond.cells[1].present);
  EXPECT_NEAR(cond.cells[1].value, 1.0, 1e-12);
  ASSERT_TRUE(cond.cells[2].present);
  EXPECT_NEAR(cond.cells[2].value, 0.0, 1e-12);
}

// Builds a one-code-column batch whose row r carries the domain code of
// `values[r]` (codes are 1 + index into the sorted domain).
EncodedBatch BatchOfCodes(const Domain& domain,
                          const std::vector<Value>& values) {
  EncodedBatch batch;
  batch.Configure({EncodedBatch::ColumnKind::kCodes},
                  CodeWidthsForDomains({domain}));
  batch.ResetRows(values.size());
  for (size_t r = 0; r < values.size(); ++r) {
    uint32_t code = 0;
    for (size_t i = 0; i < domain.values().size(); ++i) {
      if (domain.values()[i] == values[r]) {
        code = static_cast<uint32_t>(i + 1);
        break;
      }
    }
    batch.set_code(0, r, code);  // 0 (= NULL) only if the value is foreign
  }
  return batch;
}

TEST(RiskEstimatorTest, MutualInformationIdentityAndIndependence) {
  Relation relation = UniformEight();
  EncodedRelation encoded = EncodedRelation::Encode(relation);
  MetadataPackage metadata = PackageFor(relation);

  RiskContext ctx;
  ctx.real = &encoded;
  ctx.syn_schema = &relation.schema();
  std::vector<Domain> domains = {*metadata.domains[0]};
  ctx.domains = &domains;
  ctx.metadata = &metadata;
  auto bound = InfoTheoreticEstimator::Instance().Bind(ctx);
  ASSERT_TRUE(bound.ok());

  const size_t m = 1;
  std::vector<RiskMeasureCell> cells(3 * m);

  // Generated == real, row for row: MI(X; X) = H(X) = 3 bits.
  EncodedBatch copy = BatchOfCodes(domains[0], relation.column(0));
  ASSERT_TRUE((*bound)->Evaluate(copy, cells.data()).ok());
  ASSERT_TRUE(cells[InfoTheoreticEstimator::kMiIndex].present);
  EXPECT_NEAR(cells[InfoTheoreticEstimator::kMiIndex].value, 3.0, 1e-9);
  ASSERT_TRUE(cells[InfoTheoreticEstimator::kEntropyIndex].present);
  EXPECT_DOUBLE_EQ(cells[InfoTheoreticEstimator::kEntropyIndex].value, 3.0);

  // Generated constant: MI(X; const) = 0 exactly.
  std::vector<Value> constant(relation.num_rows(), Value::Int(3));
  EncodedBatch flat = BatchOfCodes(domains[0], constant);
  ASSERT_TRUE((*bound)->Evaluate(flat, cells.data()).ok());
  EXPECT_NEAR(cells[InfoTheoreticEstimator::kMiIndex].value, 0.0, 1e-12);
}

TEST(RiskEstimatorTest, NnLinkageKnownAnswers) {
  Schema schema({{"num", DataType::kDouble, SemanticType::kContinuous},
                 {"cat", DataType::kInt64, SemanticType::kCategorical}});
  std::vector<Value> num, cat;
  const size_t n = 10;
  for (size_t r = 0; r < n; ++r) {
    num.push_back(Value::Real(static_cast<double>(r) * 10.0));
    cat.push_back(Value::Int(static_cast<int64_t>(r % 2)));
  }
  auto relation = Relation::Make(schema, {std::move(num), std::move(cat)});
  ASSERT_TRUE(relation.ok());
  EncodedRelation encoded = EncodedRelation::Encode(*relation);
  MetadataPackage metadata = PackageFor(*relation);

  RiskContext ctx;
  ctx.real = &encoded;
  ctx.syn_schema = &relation->schema();
  std::vector<Domain> domains = {*metadata.domains[0], *metadata.domains[1]};
  ctx.domains = &domains;
  ctx.metadata = &metadata;
  ctx.leakage.absolute_epsilon = 0.5;
  auto bound = NnLinkageEstimator::Instance().Bind(ctx);
  ASSERT_TRUE(bound.ok());

  const size_t m = 2;
  std::vector<RiskMeasureCell> cells(2 * m);
  EncodedBatch batch;
  batch.Configure(ColumnKindsForDomains(domains),
                  CodeWidthsForDomains(domains));
  batch.ResetRows(n);

  // Generated == real: every epsilon ball hits and every aligned draw
  // ties the nearest neighbor.
  for (size_t r = 0; r < n; ++r) {
    batch.reals(0)[r] = static_cast<double>(r) * 10.0;
    batch.set_code(1, r, 1 + static_cast<uint32_t>(r % 2));
  }
  ASSERT_TRUE((*bound)->Evaluate(batch, cells.data()).ok());
  const RiskMeasureCell& eps0 =
      cells[NnLinkageEstimator::kEpsMatchesIndex * m + 0];
  const RiskMeasureCell& top0 =
      cells[NnLinkageEstimator::kTop1HitsIndex * m + 0];
  ASSERT_TRUE(eps0.present && top0.present);
  EXPECT_DOUBLE_EQ(eps0.value, static_cast<double>(n));
  EXPECT_DOUBLE_EQ(top0.value, static_cast<double>(n));
  // Categorical attribute: the adversary does not apply.
  EXPECT_FALSE(cells[NnLinkageEstimator::kEpsMatchesIndex * m + 1].present);
  EXPECT_FALSE(cells[NnLinkageEstimator::kTop1HitsIndex * m + 1].present);

  // Generated shifted far outside every epsilon ball: zero links, and
  // only row 0's aligned draw still ties the (distant) nearest
  // neighbor.
  for (size_t r = 0; r < n; ++r) {
    batch.reals(0)[r] = static_cast<double>(r) * 10.0 + 1000.0;
  }
  ASSERT_TRUE((*bound)->Evaluate(batch, cells.data()).ok());
  EXPECT_DOUBLE_EQ(eps0.value, 0.0);
  EXPECT_DOUBLE_EQ(top0.value, 1.0);
}

// --- Joint-count oracle parity -----------------------------------------------

// Two narrow and two wide categorical columns over kOracleRows rows: the
// narrow pairs' code products sit below the row count, the wide pair's
// (~3000^2 codes with NULLs, ~4000^2 without) far above 2^22. Three
// shuffled-id columns follow (kKeyColumn on): a key, the same key with
// one NULL (still a key: every code, NULL included, occurs once), and
// the same column with a second NULL, which is not a key.
constexpr size_t kOracleRows = 8000;
const std::vector<size_t> kOracleCardinalities = {5, 40, 4000, 4000};
constexpr size_t kKeyColumn = 4;
constexpr size_t kOneNullKeyColumn = 5;
constexpr size_t kTwoNullColumn = 6;

// Random categorical columns with the given distinct-value bounds, each
// cell NULL with probability null_rate, then the three id columns.
Relation RandomCategorical(double null_rate, uint64_t seed) {
  Rng rng(seed);
  std::vector<Attribute> attributes;
  std::vector<std::vector<Value>> columns;
  for (size_t c = 0; c < kOracleCardinalities.size(); ++c) {
    attributes.push_back({"c" + std::to_string(c), DataType::kInt64,
                          SemanticType::kCategorical});
    std::vector<Value> column;
    column.reserve(kOracleRows);
    for (size_t r = 0; r < kOracleRows; ++r) {
      column.push_back(rng.Bernoulli(null_rate)
                           ? Value::Null()
                           : Value::Int(static_cast<int64_t>(
                                 rng.UniformIndex(kOracleCardinalities[c]))));
    }
    columns.push_back(std::move(column));
  }
  std::vector<int64_t> ids(kOracleRows);
  for (size_t r = 0; r < kOracleRows; ++r) ids[r] = static_cast<int64_t>(r);
  rng.Shuffle(&ids);
  std::vector<Value> key;
  for (int64_t id : ids) key.push_back(Value::Int(id));
  std::vector<Value> one_null = key;
  one_null[kOracleRows / 3] = Value::Null();
  std::vector<Value> two_nulls = one_null;
  two_nulls[kOracleRows / 2] = Value::Null();
  for (const char* name : {"key", "key_one_null", "two_nulls"}) {
    attributes.push_back(
        {name, DataType::kInt64, SemanticType::kCategorical});
  }
  columns.push_back(std::move(key));
  columns.push_back(std::move(one_null));
  columns.push_back(std::move(two_nulls));
  return std::move(Relation::Make(Schema(std::move(attributes)),
                                  std::move(columns)))
      .ValueOrDie();
}

// Exact equality of the bits: EXPECT_EQ on doubles lets -0.0 pass for
// +0.0, which a cell read off a key must not.
uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// The natural widths (u8 narrow, u16 wide columns), then u16 and u32
// forced everywhere.
const std::vector<std::optional<CodeWidth>> kWidthFloors = {
    std::nullopt, CodeWidth::kU16, CodeWidth::kU32};

void SetWidthFloor(std::optional<CodeWidth> floor) {
  if (floor) {
    SetCodeWidthFloorOverride(*floor);
  } else {
    ClearCodeWidthFloorOverride();
  }
}

class RiskEstimatorOracleTest : public ::testing::Test {
 protected:
  void TearDown() override { ClearCodeWidthFloorOverride(); }
};

TEST_F(RiskEstimatorOracleTest, ConditionalEntropyBitIdenticalToOracle) {
  std::set<CodeWidth> widths_seen;
  for (double null_rate : {0.0, 0.3}) {
    Relation relation = RandomCategorical(null_rate, 11);
    for (std::optional<CodeWidth> floor : kWidthFloors) {
      SetWidthFloor(floor);
      EncodedRelation encoded = EncodedRelation::Encode(relation);
      const size_t m = encoded.num_columns();
      ASSERT_TRUE(encoded.IsKey(kKeyColumn));
      ASSERT_TRUE(encoded.IsKey(kOneNullKeyColumn));
      ASSERT_FALSE(encoded.IsKey(kTwoNullColumn));
      for (size_t rhs = 0; rhs < m; ++rhs) {
        widths_seen.insert(encoded.column_view(rhs).width);
        for (size_t lhs = 0; lhs < m; ++lhs) {
          if (lhs == rhs) continue;
          SCOPED_TRACE(testing::Message()
                       << "null " << null_rate << " lhs " << lhs << " rhs "
                       << rhs << " width "
                       << CodeWidthName(encoded.column_view(rhs).width));
          MetadataPackage metadata;
          metadata.schema = relation.schema();
          metadata.num_rows = relation.num_rows();
          metadata.dependencies.Add(
              Dependency::Fd(AttributeSet::Single(lhs), rhs));
          auto measures = ComputeProfileMeasures(encoded, metadata);
          ASSERT_TRUE(measures.ok());
          const RiskMeasureCell& cell = (*measures)[1].cells[rhs];
          ASSERT_TRUE(cell.present);
          EXPECT_EQ(Bits(cell.value),
                    Bits(reference::ConditionalEntropyBits(
                        encoded.column_view(lhs), encoded.column_view(rhs))));
          if (encoded.IsKey(lhs)) {
            EXPECT_EQ(Bits(cell.value), Bits(0.0));
          } else if (lhs == kTwoNullColumn && rhs >= kKeyColumn) {
            // Its two NULL rows differ on both key columns.
            EXPECT_GT(cell.value, 0.0);
          }
        }
      }
    }
  }
  EXPECT_EQ(widths_seen.size(), 3u);
}

TEST_F(RiskEstimatorOracleTest, MutualInformationBitIdenticalToOracle) {
  for (double null_rate : {0.0, 0.3}) {
    Relation relation = RandomCategorical(null_rate, 12);
    MetadataPackage metadata = PackageFor(relation);
    const std::vector<Domain> domains = metadata.RequireDomains().ValueOrDie();
    for (std::optional<CodeWidth> floor : kWidthFloors) {
      SetWidthFloor(floor);
      EncodedRelation encoded = EncodedRelation::Encode(relation);
      const size_t m = encoded.num_columns();
      RiskContext ctx;
      ctx.real = &encoded;
      ctx.syn_schema = &relation.schema();
      ctx.domains = &domains;
      ctx.metadata = &metadata;
      auto bound = InfoTheoreticEstimator::Instance().Bind(ctx);
      ASSERT_TRUE(bound.ok());

      // Each generated cell copies the real code (domain codes and
      // dictionary codes coincide: both number the sorted distinct
      // values from 1) with probability `copy`, else draws uniformly
      // over the domain plus NULL.
      Rng rng(13);
      for (double copy : {0.0, 0.5}) {
        EncodedBatch batch;
        batch.Configure(ColumnKindsForDomains(domains),
                        CodeWidthsForDomains(domains));
        batch.ResetRows(kOracleRows);
        for (size_t c = 0; c < m; ++c) {
          const CodeColumnView real = encoded.column_view(c);
          for (size_t r = 0; r < kOracleRows; ++r) {
            batch.set_code(
                c, r,
                rng.Bernoulli(copy)
                    ? real.at(r)
                    : static_cast<uint32_t>(
                          rng.UniformIndex(domains[c].values().size() + 1)));
          }
        }
        std::vector<RiskMeasureCell> cells(3 * m);
        ASSERT_TRUE((*bound)->Evaluate(batch, cells.data()).ok());
        for (size_t c = 0; c < m; ++c) {
          SCOPED_TRACE(testing::Message()
                       << "null " << null_rate << " copy " << copy
                       << " attr " << c << " width "
                       << CodeWidthName(encoded.column_view(c).width));
          const RiskMeasureCell& mi =
              cells[InfoTheoreticEstimator::kMiIndex * m + c];
          ASSERT_TRUE(mi.present);
          EXPECT_EQ(Bits(mi.value),
                    Bits(reference::MutualInformationBits(
                        encoded.column_view(c), batch.code_view(c))));
        }
      }
    }
  }
}

TEST(RiskEstimatorTest, RepeatedDisclosureOfOnePairScoresLikeOneFd) {
  Relation relation = RandomCategorical(0.3, 14);
  EncodedRelation encoded = EncodedRelation::Encode(relation);
  auto package = [&](const std::vector<Dependency>& deps) {
    MetadataPackage metadata;
    metadata.schema = relation.schema();
    metadata.num_rows = relation.num_rows();
    for (const Dependency& d : deps) metadata.dependencies.Add(d);
    return metadata;
  };
  // One wide and one narrow LHS for attribute 3, so the cell is a min.
  const MetadataPackage fd_only =
      package({Dependency::Fd(AttributeSet::Single(2), 3),
               Dependency::Fd(AttributeSet::Single(1), 3)});
  const MetadataPackage fd_od_nd =
      package({Dependency::Fd(AttributeSet::Single(2), 3),
               Dependency::Od(2, 3), Dependency::Nd(2, 3, 7),
               Dependency::Fd(AttributeSet::Single(1), 3),
               Dependency::Od(1, 3)});
  ASSERT_EQ(fd_od_nd.dependencies.size(), 5u);
  auto once = ComputeProfileMeasures(encoded, fd_only);
  auto repeated = ComputeProfileMeasures(encoded, fd_od_nd);
  ASSERT_TRUE(once.ok() && repeated.ok());
  const RiskMeasureCell& a = (*once)[1].cells[3];
  const RiskMeasureCell& b = (*repeated)[1].cells[3];
  ASSERT_TRUE(a.present && b.present);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.value, std::min(reference::ConditionalEntropyBits(
                                  encoded.column_view(2),
                                  encoded.column_view(3)),
                              reference::ConditionalEntropyBits(
                                  encoded.column_view(1),
                                  encoded.column_view(3))));
}

TEST(RiskEstimatorTest, EngineMeasuresThreadInvariantOnWideJoints) {
  Relation relation = RandomCategorical(0.3, 15);
  MetadataPackage metadata = PackageFor(relation);
  metadata.dependencies.Add(Dependency::Fd(AttributeSet::Single(2), 3));
  metadata.dependencies.Add(Dependency::Fd(AttributeSet::Single(0), 1));
  ExperimentEngine engine(relation, metadata);
  ExperimentConfig config;
  config.rounds = 6;
  config.estimators = &RiskEstimatorRegistry::All();
  config.threads = 1;
  auto one = engine.Run(GenerationMethod::kRandom, config);
  config.threads = 8;
  auto eight = engine.Run(GenerationMethod::kRandom, config);
  ASSERT_TRUE(one.ok() && eight.ok());
  ASSERT_EQ(one->measures.size(), eight->measures.size());
  for (size_t j = 0; j < one->measures.size(); ++j) {
    const RiskMeasureStats& x = one->measures[j];
    const RiskMeasureStats& y = eight->measures[j];
    SCOPED_TRACE(x.estimator + "/" + x.measure);
    EXPECT_TRUE(x.active);
    EXPECT_EQ(x.active, y.active);
    EXPECT_EQ(x.mean, y.mean);
    EXPECT_EQ(x.stddev, y.stddev);
    EXPECT_EQ(x.rounds, y.rounds);
  }
}

// --- Row-count guard ---------------------------------------------------------

TEST(RiskEstimatorTest, EveryEstimatorRejectsRowCountMismatch) {
  // One real-stored continuous column and one coded categorical column,
  // so every estimator's per-row path is live.
  Schema schema({{"num", DataType::kDouble, SemanticType::kContinuous},
                 {"cat", DataType::kInt64, SemanticType::kCategorical}});
  std::vector<Value> num, cat;
  const size_t n = 64;
  for (size_t r = 0; r < n; ++r) {
    num.push_back(Value::Real(static_cast<double>(r)));
    cat.push_back(Value::Int(static_cast<int64_t>(r % 5)));
  }
  auto relation = Relation::Make(schema, {std::move(num), std::move(cat)});
  ASSERT_TRUE(relation.ok());
  EncodedRelation encoded = EncodedRelation::Encode(*relation);
  MetadataPackage metadata = PackageFor(*relation);
  const std::vector<Domain> domains = metadata.RequireDomains().ValueOrDie();
  RiskContext ctx;
  ctx.real = &encoded;
  ctx.syn_schema = &relation->schema();
  ctx.domains = &domains;
  ctx.metadata = &metadata;

  const size_t m = 2;
  for (const RiskEstimator* est : RiskEstimatorRegistry::All().estimators()) {
    SCOPED_TRACE(est->name());
    auto bound = est->Bind(ctx);
    ASSERT_TRUE(bound.ok());
    std::vector<RiskMeasureCell> cells(est->measures().size() * m);
    for (size_t rows : {n - 1, n + 1, n}) {
      SCOPED_TRACE(rows);
      EncodedBatch batch;
      batch.Configure(ColumnKindsForDomains(domains),
                      CodeWidthsForDomains(domains));
      batch.ResetRows(rows);
      for (size_t r = 0; r < rows; ++r) {
        batch.reals(0)[r] = static_cast<double>(r % n);
        batch.set_code(1, r, 1 + static_cast<uint32_t>(r % 5));
      }
      const Status status = (*bound)->Evaluate(batch, cells.data());
      if (rows == n) {
        EXPECT_TRUE(status.ok()) << status.ToString();
      } else {
        EXPECT_TRUE(status.IsInvalid()) << status.ToString();
      }
    }
  }
}

// --- One bind per call ------------------------------------------------------

// A test-only estimator that counts its binds. Its one column is never
// present, so it leaves every other measure untouched.
class BindCountingEstimator : public RiskEstimator {
 public:
  const std::string& name() const override {
    static const std::string name = "bind_counter";
    return name;
  }
  const std::vector<RiskMeasureSpec>& measures() const override {
    static const std::vector<RiskMeasureSpec> specs = {{"none", "none"}};
    return specs;
  }
  Result<std::unique_ptr<BoundRiskEstimator>> Bind(
      const RiskContext& ctx) const override {
    binds_.fetch_add(1);
    return std::unique_ptr<BoundRiskEstimator>(
        new Bound(ctx.real->num_columns()));
  }

  size_t TakeBinds() const { return binds_.exchange(0); }

 private:
  class Bound : public BoundRiskEstimator {
   public:
    explicit Bound(size_t num_attributes) : m_(num_attributes) {}
    Status Evaluate(const EncodedBatch&,
                    RiskMeasureCell* cells) const override {
      std::fill(cells, cells + m_, RiskMeasureCell{});
      return Status::OK();
    }

   private:
    size_t m_;
  };

  mutable std::atomic<size_t> binds_{0};
};

TEST(RiskEstimatorTest, EachCallBindsEveryEstimatorOnce) {
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  ExperimentEngine engine(employee, report->metadata);
  BindCountingEstimator counter;
  RiskEstimatorRegistry registry({&MatchRateEstimator::Instance(), &counter});
  ExperimentConfig config;
  config.rounds = 3;
  config.estimators = &registry;

  const std::vector<GenerationMethod> methods = {
      GenerationMethod::kRandom, GenerationMethod::kFd,
      GenerationMethod::kOd, GenerationMethod::kNd};
  auto all = engine.RunAll(methods, config);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->size(), methods.size());
  EXPECT_EQ(counter.TakeBinds(), 1u);

  auto one = engine.Run(GenerationMethod::kFd, config);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_EQ(counter.TakeBinds(), 1u);
  ASSERT_EQ(one->measures.size(), registry.total_measures());

  auto cells = engine.ReplayRoundMeasures(GenerationMethod::kFd,
                                          one->round_seeds[0], config);
  ASSERT_TRUE(cells.ok()) << cells.status().ToString();
  EXPECT_EQ(counter.TakeBinds(), 1u);

  // The report reads only the match-rate scan.
  auto round = engine.ReplayRound(GenerationMethod::kFd,
                                  one->round_seeds[0], config);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(counter.TakeBinds(), 0u);
}

TEST(RiskEstimatorTest, SharedBindKeepsTheStatusOrder) {
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  MetadataPackage no_domains = report->metadata;
  no_domains.domains.clear();
  RiskEstimatorRegistry bad({&InfoTheoreticEstimator::Instance()});
  const std::vector<GenerationMethod> methods = {GenerationMethod::kRandom,
                                                 GenerationMethod::kFd};
  const std::string kRounds = "experiment needs at least one round";
  const std::string kDomains =
      "metadata package does not disclose every attribute domain";
  const std::string kRegistry =
      "risk estimator registry must lead with match_rate";

  ExperimentConfig config;
  config.estimators = &bad;
  config.rounds = 0;
  ExperimentEngine missing(employee, no_domains);
  EXPECT_EQ(missing.RunAll(methods, config).status().message(), kRounds);
  EXPECT_EQ(missing.Run(GenerationMethod::kFd, config).status().message(),
            kRounds);
  config.rounds = 1;
  EXPECT_EQ(missing.RunAll(methods, config).status().message(), kDomains);
  EXPECT_EQ(missing.Run(GenerationMethod::kFd, config).status().message(),
            kDomains);
  EXPECT_EQ(missing.ReplayRound(GenerationMethod::kFd, 1, config)
                .status()
                .message(),
            kDomains);

  ExperimentEngine engine(employee, report->metadata);
  EXPECT_EQ(engine.RunAll(methods, config).status().message(), kRegistry);
  EXPECT_EQ(engine.Run(GenerationMethod::kFd, config).status().message(),
            kRegistry);
  EXPECT_EQ(engine.ReplayRound(GenerationMethod::kFd, 1, config)
                .status()
                .message(),
            kRegistry);
  EXPECT_EQ(engine.ReplayRoundMeasures(GenerationMethod::kFd, 1, config)
                .status()
                .message(),
            kRegistry);
  // No method, nothing to check: the empty run succeeds.
  config.rounds = 0;
  auto none = engine.RunAll({}, config);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

void ExpectMeasuresIdentical(const MethodResult& a, const MethodResult& b) {
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.round_seeds, b.round_seeds);
  ASSERT_EQ(a.measures.size(), b.measures.size());
  for (size_t j = 0; j < a.measures.size(); ++j) {
    const RiskMeasureStats& x = a.measures[j];
    const RiskMeasureStats& y = b.measures[j];
    SCOPED_TRACE(x.estimator + "/" + x.measure);
    EXPECT_EQ(x.estimator, y.estimator);
    EXPECT_EQ(x.measure, y.measure);
    EXPECT_EQ(x.active, y.active);
    EXPECT_EQ(x.mean, y.mean);
    EXPECT_EQ(x.stddev, y.stddev);
    EXPECT_EQ(x.rounds, y.rounds);
  }
}

TEST(RiskEstimatorTest, SharedBindMatchesPerMethodBind) {
  struct Case {
    std::string name;
    Relation relation;
    MetadataPackage metadata;
  };
  std::vector<Case> cases;
  auto add = [&](std::string name, Relation relation,
                 const DiscoveryOptions& discovery) {
    auto report = ProfileRelation(relation, discovery);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    cases.push_back({std::move(name), std::move(relation),
                     std::move(report->metadata)});
  };
  DiscoveryOptions with_cfds;
  with_cfds.discover_cfds = true;
  with_cfds.cfd.min_support = 2;
  add("employee", datasets::Employee(), with_cfds);
  add("echocardiogram", datasets::Echocardiogram(), {});
  add("zipf5k",
      std::move(datasets::SyntheticZipfScale(5000, /*seed=*/21)).ValueOrDie(),
      {});
  ASSERT_EQ(cases.size(), 3u);
  ASSERT_FALSE(cases[0].metadata.conditional_fds.empty());

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ExperimentEngine engine(c.relation, c.metadata);
    // RunAll runs every (method, round) pair in one pool pass: 8 methods
    // x 4 rounds = 32 pairs, which a pool of 3 cannot split evenly.
    for (size_t threads : {1u, 3u, 8u}) {
      SCOPED_TRACE(threads);
      ExperimentConfig config;
      config.rounds = 4;
      config.estimators = &RiskEstimatorRegistry::All();
      config.threads = threads;
      ASSERT_NE(kAllMethods.size() * config.rounds % 3, 0u);
      auto shared = engine.RunAll(kAllMethods, config);
      ASSERT_TRUE(shared.ok()) << shared.status().ToString();
      ASSERT_EQ(shared->size(), kAllMethods.size());
      // RunAll's per-method seed derivation, one Run (one bind) each.
      Rng seeder(config.seed);
      for (size_t i = 0; i < kAllMethods.size(); ++i) {
        SCOPED_TRACE(GenerationMethodToString(kAllMethods[i]));
        ExperimentConfig method_config = config;
        method_config.seed = seeder.Fork().engine()();
        auto alone = engine.Run(kAllMethods[i], method_config);
        ASSERT_TRUE(alone.ok()) << alone.status().ToString();
        ExpectMeasuresIdentical((*shared)[i], *alone);
        // Every column is scored by the bound estimators.
        EXPECT_TRUE((*shared)[i].measures.back().active);
      }
    }
  }

  // A constant outside the Name domain has no code to write, so the CFD
  // method returns the chase plan's Invalid, alone and inside RunAll,
  // while every other method still runs.
  MetadataPackage stray = cases[0].metadata;
  stray.conditional_fds.push_back(ConditionalFd::Constant(
      2, Value::Str("Sales"), 0, Value::Str("Zed"), 2));
  ExperimentEngine engine(cases[0].relation, stray);
  ExperimentConfig config;
  config.rounds = 4;
  config.estimators = &RiskEstimatorRegistry::All();
  auto cfd = engine.Run(GenerationMethod::kCfd, config);
  ASSERT_FALSE(cfd.ok());
  EXPECT_TRUE(cfd.status().IsInvalid()) << cfd.status().ToString();
  EXPECT_NE(cfd.status().message().find("Zed"), std::string::npos)
      << cfd.status().ToString();
  auto all = engine.RunAll(kAllMethods, config);
  ASSERT_FALSE(all.ok());
  EXPECT_EQ(all.status().ToString(), cfd.status().ToString());
  EXPECT_TRUE(engine.Run(GenerationMethod::kFd, config).ok());
}

// When several methods fail, RunAll returns what Run on each method in
// list order returns first, although it plans every method before any
// round runs: a later method's plan error must not displace an earlier
// method's round error.
TEST(RiskEstimatorTest, SharedBindReturnsTheFirstFailingMethodsStatus) {
  Relation employee = datasets::Employee();
  DiscoveryOptions with_cfds;
  with_cfds.discover_cfds = true;
  with_cfds.cfd.min_support = 2;
  auto report = ProfileRelation(employee, with_cfds);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  MetadataPackage broken = report->metadata;
  // The CFD chase has no code for "Zed": the CFD method's plan fails.
  broken.conditional_fds.push_back(ConditionalFd::Constant(
      2, Value::Str("Sales"), 0, Value::Str("Zed"), 2));
  // A Department distribution outside its domain: every round of the
  // Random method, which draws Department as a root, fails.
  FrequencyTable table;
  table.values = {Value::Str("Nowhere")};
  table.counts = {1};
  Result<ValueDistribution> stray = ValueDistribution::Categorical(table);
  ASSERT_TRUE(stray.ok());
  broken.distributions.assign(employee.num_columns(), std::nullopt);
  broken.distributions[2] = *stray;

  ExperimentEngine engine(employee, broken);
  for (size_t threads : {1u, 3u, 8u}) {
    SCOPED_TRACE(threads);
    ExperimentConfig config;
    config.rounds = 4;
    config.threads = threads;
    auto fd = engine.Run(GenerationMethod::kFd, config);
    auto random = engine.Run(GenerationMethod::kRandom, config);
    auto cfd = engine.Run(GenerationMethod::kCfd, config);
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    ASSERT_FALSE(random.ok());
    ASSERT_FALSE(cfd.ok());
    EXPECT_EQ(random.status().message(),
              "package is not encodable: "
              "distribution support does not map into the domain");
    EXPECT_NE(cfd.status().message().find("Zed"), std::string::npos)
        << cfd.status().ToString();

    EXPECT_EQ(engine
                  .RunAll({GenerationMethod::kFd, GenerationMethod::kRandom,
                           GenerationMethod::kCfd},
                          config)
                  .status()
                  .ToString(),
              random.status().ToString());
    EXPECT_EQ(engine
                  .RunAll({GenerationMethod::kFd, GenerationMethod::kCfd,
                           GenerationMethod::kRandom},
                          config)
                  .status()
                  .ToString(),
              cfd.status().ToString());
  }
}

// --- Replay and profile diff -------------------------------------------------

TEST(RiskEstimatorTest, ReplayRoundMeasuresReconstructsAggregates) {
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  ExperimentEngine engine(employee, report->metadata);

  ExperimentConfig config;
  config.rounds = 8;
  config.estimators = &RiskEstimatorRegistry::All();
  auto result = engine.Run(GenerationMethod::kFd, config);
  ASSERT_TRUE(result.ok());
  const size_t m = result->attributes.size();
  const size_t total = result->measures.size();

  std::vector<std::vector<WelfordAccumulator>> acc(
      total, std::vector<WelfordAccumulator>(m));
  for (uint64_t seed : result->round_seeds) {
    auto round = engine.ReplayRoundMeasures(GenerationMethod::kFd, seed,
                                            config);
    ASSERT_TRUE(round.ok());
    ASSERT_EQ(round->size(), total);
    for (size_t j = 0; j < total; ++j) {
      EXPECT_EQ((*round)[j].estimator, result->measures[j].estimator);
      EXPECT_EQ((*round)[j].measure, result->measures[j].measure);
      ASSERT_EQ((*round)[j].cells.size(), m);
      for (size_t c = 0; c < m; ++c) {
        if ((*round)[j].cells[c].present) {
          acc[j][c].Add((*round)[j].cells[c].value);
        }
      }
    }
  }
  for (size_t j = 0; j < total; ++j) {
    SCOPED_TRACE(result->measures[j].estimator + "/" +
                 result->measures[j].measure);
    for (size_t c = 0; c < m; ++c) {
      EXPECT_EQ(acc[j][c].count(), result->measures[j].rounds[c]);
      if (acc[j][c].count() > 0) {
        EXPECT_EQ(acc[j][c].mean(), result->measures[j].mean[c]);
        EXPECT_EQ(acc[j][c].stddev(), result->measures[j].stddev[c]);
      }
    }
  }
}

TEST(RiskEstimatorTest, ProfileDiffTracksMeasureDrift) {
  Relation before_rel = UniformEight();
  // After: collapse the column to 2 values — entropy drops 3 -> 1.
  Schema schema = before_rel.schema();
  std::vector<Value> col;
  for (int i = 0; i < 16; ++i) col.push_back(Value::Int(i % 2));
  auto after_rel = Relation::Make(schema, {std::move(col)});
  ASSERT_TRUE(after_rel.ok());

  EncodedRelation before_enc = EncodedRelation::Encode(before_rel);
  EncodedRelation after_enc = EncodedRelation::Encode(*after_rel);
  MetadataPackage before_meta = PackageFor(before_rel);
  MetadataPackage after_meta = PackageFor(*after_rel);

  LeakageOptions leakage;
  auto before = ComputeLeakageProfile(before_enc, before_meta, leakage);
  auto after = ComputeLeakageProfile(after_enc, after_meta, leakage);
  ASSERT_TRUE(before.ok() && after.ok());
  ASSERT_EQ(before->risk_measures.size(), 2u);

  auto delta = DiffLeakageProfiles(*before, *after);
  ASSERT_TRUE(delta.ok());
  EXPECT_FALSE(delta->empty());
  bool entropy_drifted = false;
  for (const MeasureDrift& drift : delta->measure_drifts) {
    if (drift.measure == "entropy_bits" && drift.attribute == 0) {
      entropy_drifted = true;
      EXPECT_DOUBLE_EQ(drift.before.value, 3.0);
      EXPECT_DOUBLE_EQ(drift.after.value, 1.0);
    }
  }
  EXPECT_TRUE(entropy_drifted);
  const std::string text = delta->ToString(before->schema);
  EXPECT_NE(text.find("entropy_bits"), std::string::npos);

  // Identical profiles produce no measure drift.
  auto self = DiffLeakageProfiles(*before, *before);
  ASSERT_TRUE(self.ok());
  EXPECT_TRUE(self->measure_drifts.empty());
}

TEST(RiskEstimatorTest, RegistryShapes) {
  EXPECT_EQ(RiskEstimatorRegistry::Default().estimators().size(), 1u);
  EXPECT_EQ(RiskEstimatorRegistry::Default().total_measures(), 2u);
  EXPECT_EQ(RiskEstimatorRegistry::All().estimators().size(), 3u);
  EXPECT_EQ(RiskEstimatorRegistry::All().total_measures(), 7u);
  EXPECT_EQ(RiskEstimatorRegistry::All().estimators()[0]->name(),
            "match_rate");
}

}  // namespace
}  // namespace metaleak
