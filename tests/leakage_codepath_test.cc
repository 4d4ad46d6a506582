// Golden-parity suite for the dictionary-encoded attack pipeline.
//
// The experiment runner generates every Monte-Carlo round on the dense
// code path (GenerateEncoded into an EncodedBatch arena, then
// ApplyCfdsEncoded for the CFD method) and scores it either with the
// fused scan over translated codes or, when use_value_path is set, with
// EvaluateLeakage on the decoded batch. Both are claimed bit-identical:
// same per-round seeds, same match counts, same MSEs, same Welford
// aggregates, at any thread count. This suite pins that claim on the
// employee and echocardiogram datasets and a planted synthetic relation
// — including the CFD repair pass and disclosed value distributions —
// and exercises the satellite APIs (ForAttribute index lookups, recorded
// round seeds + ReplayRound, synthetic-NULL non-match semantics, an
// encoding without a source relation, a package the scan refuses). Runs under TSan in CI alongside
// csr_agreement_test: any divergence means a change altered observable
// results, not just performance. tests/generation_oracle_test.cc holds
// the generated batches themselves to the boxed-Value oracle, and
// LeakageCodepathTranslationTest below holds the scan's translation of
// real cells into domain codes to the brute-force oracle in
// tests/reference/leakage_reference.{h,cc}.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/math_util.h"
#include "common/parallel.h"
#include "common/random.h"
#include "data/code_column.h"
#include "data/datasets/echocardiogram.h"
#include "data/datasets/employee.h"
#include "data/datasets/synthetic.h"
#include "data/encoded_relation.h"
#include "data/relation.h"
#include "discovery/discovery_engine.h"
#include "generation/generation_engine.h"
#include "privacy/experiment.h"
#include "privacy/leakage.h"
#include "privacy/tuple_risk.h"
#include "reference/generation_reference.h"
#include "reference/leakage_reference.h"
#include "vfl/attack.h"

namespace metaleak {
namespace {

// Every method, including the Full package the coalition attacks run:
// its plan mixes classes, so one round can fold an FD over a column that
// an ND derived (a real column full of ties).
const std::vector<GenerationMethod> kAllMethods = {
    GenerationMethod::kRandom, GenerationMethod::kFd,
    GenerationMethod::kAfd,    GenerationMethod::kNd,
    GenerationMethod::kOd,     GenerationMethod::kDd,
    GenerationMethod::kOfd,    GenerationMethod::kCfd,
    GenerationMethod::kFull,
};

// Asserts two experiment sweeps are bit-identical: EXPECT_EQ on doubles
// is exact equality, which is the contract (not EXPECT_DOUBLE_EQ's ULP
// tolerance).
void ExpectBitIdentical(const std::vector<MethodResult>& a,
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
      EXPECT_EQ(x.name, y.name);
      EXPECT_EQ(x.covered, y.covered);
      EXPECT_EQ(x.mean_matches, y.mean_matches);
      EXPECT_EQ(x.stddev_matches, y.stddev_matches);
      ASSERT_EQ(x.mean_mse.has_value(), y.mean_mse.has_value());
      if (x.mean_mse.has_value()) EXPECT_EQ(*x.mean_mse, *y.mean_mse);
    }
  }
}

// Runs the full method sweep under both scorers at 1 and 8 threads and
// asserts all four sweeps agree bit-for-bit. Also asserts the package is
// encodable, so every method generates.
void CheckGoldenParity(const Relation& relation,
                       const MetadataPackage& metadata, size_t rounds) {
  auto ctx = GenerationContext::Build(metadata);
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
  ASSERT_TRUE(ctx->encodable()) << ctx->fallback_reason();

  ExperimentConfig config;
  config.rounds = rounds;
  std::vector<std::vector<MethodResult>> sweeps;
  for (bool value_path : {false, true}) {
    for (size_t threads : {1u, 8u}) {
      config.use_value_path = value_path;
      config.threads = threads;
      auto result = RunExperiment(relation, metadata, kAllMethods, config);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      sweeps.push_back(std::move(*result));
    }
  }
  for (size_t i = 1; i < sweeps.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectBitIdentical(sweeps[0], sweeps[i]);
  }
}

TEST(LeakageCodepathTest, GoldenParityEmployee) {
  Relation employee = datasets::Employee();
  DiscoveryOptions options;
  options.discover_cfds = true;  // exercise the encoded CFD repair pass
  auto report = ProfileRelation(employee, options);
  ASSERT_TRUE(report.ok());
  CheckGoldenParity(employee, report->metadata, 24);
}

TEST(LeakageCodepathTest, GoldenParityEchocardiogram) {
  Relation echo = datasets::Echocardiogram();
  auto report = ProfileRelation(echo);
  ASSERT_TRUE(report.ok());
  CheckGoldenParity(echo, report->metadata, 16);
}

TEST(LeakageCodepathTest, GoldenParityPlantedSynthetic) {
  datasets::SyntheticConfig config;
  config.num_rows = 400;
  config.seed = 7;
  config.attributes = {
      {.name = "a",
       .kind = datasets::SyntheticAttribute::Kind::kCategoricalBase,
       .domain_size = 16},
      {.name = "b",
       .kind = datasets::SyntheticAttribute::Kind::kContinuousBase,
       .lo = 0.0,
       .hi = 1000.0},
      {.name = "c",
       .kind = datasets::SyntheticAttribute::Kind::kDerivedMonotone,
       .source = 1},
      {.name = "d",
       .kind = datasets::SyntheticAttribute::Kind::kDerivedBoundedFanout,
       .domain_size = 24,
       .source = 0,
       .fanout = 3},
      {.name = "e",
       .kind = datasets::SyntheticAttribute::Kind::kDerivedApproximate,
       .domain_size = 12,
       .source = 0,
       .violation_rate = 0.1},
  };
  auto relation = datasets::Synthetic(config);
  ASSERT_TRUE(relation.ok());
  DiscoveryOptions options;
  options.discover_afds = true;
  options.discover_cfds = true;
  // Disclosed distributions exercise the code-mapped samplers.
  options.profile_distributions = true;
  auto report = ProfileRelation(*relation, options);
  ASSERT_TRUE(report.ok());
  CheckGoldenParity(*relation, report->metadata, 12);
}

// The e2e attack workload's fixture (bench_generation_perf's planted
// relation) at 5k rows: a 16-value categorical base, a continuous base
// on [0, 1000], a continuous monotone derivation of it and a
// bounded-fanout derivation of the categorical one. Profiled with the
// default options, its FD/OD/ND/DD plans key on the continuous column, so
// the real-column fold, radix rank and DD chain run on a 5k-value key
// every round.
TEST(LeakageCodepathTest, GoldenParityAttackFixture) {
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
  ASSERT_TRUE(report.ok());
  bool keyed_on_b = false;
  for (const Dependency& dep : report->metadata.dependencies) {
    keyed_on_b |= dep.lhs.Contains(1);
  }
  ASSERT_TRUE(keyed_on_b) << "no disclosed dependency keys on b";
  ASSERT_FALSE(report->metadata.dependencies
                   .OfKind(DependencyKind::kDifferential)
                   .empty())
      << "no disclosed DD";
  CheckGoldenParity(*relation, report->metadata, 6);
}

// A continuous column holding an infinity discloses a non-finite domain.
// The engine under both scorers, GenerateSynthetic and the boxed-Value
// oracle all refuse it with the same Status.
TEST(LeakageCodepathTest, NonFiniteDomainRejectedOnBothPaths) {
  for (double bad : {std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(bad);
    Schema schema({{"k", DataType::kInt64, SemanticType::kCategorical},
                   {"x", DataType::kDouble, SemanticType::kContinuous}});
    std::vector<Value> k, x;
    for (int r = 0; r < 200; ++r) {
      k.push_back(Value::Int(r % 7));
      x.push_back(Value::Real(r == 3 ? bad : r * 0.5));
    }
    auto relation = Relation::Make(schema, {std::move(k), std::move(x)});
    ASSERT_TRUE(relation.ok());
    // Encoding an infinity stays legal; only the disclosed domain is bad.
    EXPECT_EQ(EncodedRelation::Encode(*relation).num_rows(), 200u);
    auto report = ProfileRelation(*relation);
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    ExperimentConfig config;
    config.rounds = 2;
    std::vector<Status> statuses;
    for (bool value_path : {false, true}) {
      config.use_value_path = value_path;
      statuses.push_back(
          RunExperiment(*relation, report->metadata, kAllMethods, config)
              .status());
    }
    Rng code_rng(1);
    Rng value_rng(1);
    statuses.push_back(
        GenerateSynthetic(report->metadata, 200, &code_rng).status());
    statuses.push_back(
        reference::GenerateSyntheticValuePath(report->metadata, 200,
                                              &value_rng)
            .status());
    for (const Status& st : statuses) {
      EXPECT_TRUE(st.IsInvalid()) << st.ToString();
      EXPECT_EQ(st.ToString(), statuses[0].ToString());
    }
    EXPECT_NE(statuses[0].message().find("'x'"), std::string::npos)
        << statuses[0].ToString();
  }
}

// --- Synthetic-NULL non-match semantics --------------------------------------

TEST(LeakageCodepathTest, SyntheticNullNeverMatches) {
  Schema schema({{"x", DataType::kString, SemanticType::kCategorical}});
  // Real column: a, NULL, b, a.
  auto real = Relation::Make(
      schema, {{Value::Str("a"), Value::Null(), Value::Str("b"),
                Value::Str("a")}});
  ASSERT_TRUE(real.ok());
  // Synthetic column: a, NULL, NULL, NULL — one true match; the NULL
  // guesses (rows 1-3) must not count, even against a real NULL.
  auto syn = Relation::Make(
      schema,
      {{Value::Str("a"), Value::Null(), Value::Null(), Value::Null()}});
  ASSERT_TRUE(syn.ok());
  auto matches = CountCategoricalMatches(*real, *syn, 0);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(*matches, 1u);
}

TEST(LeakageCodepathTest, CodePathAgreesOnRealNulls) {
  // A relation with NULL holes: the encoded translation maps NULL to the
  // no-match sentinel, so both scorers must report identical counts and
  // rows_compared excludes the NULLs.
  Schema schema({{"cat", DataType::kString, SemanticType::kCategorical},
                 {"num", DataType::kDouble, SemanticType::kContinuous}});
  auto real = Relation::Make(
      schema, {{Value::Str("a"), Value::Null(), Value::Str("b"),
                Value::Str("c"), Value::Null()},
               {Value::Real(1.0), Value::Real(2.0), Value::Null(),
                Value::Real(4.0), Value::Real(5.0)}});
  ASSERT_TRUE(real.ok());
  auto report = ProfileRelation(*real);
  ASSERT_TRUE(report.ok());

  ExperimentConfig config;
  config.rounds = 32;
  auto code = RunMethod(*real, report->metadata, GenerationMethod::kRandom,
                        config);
  config.use_value_path = true;
  auto value = RunMethod(*real, report->metadata, GenerationMethod::kRandom,
                         config);
  ASSERT_TRUE(code.ok() && value.ok());
  ASSERT_FALSE(code->round_seeds.empty());
  const uint64_t first_round_seed = code->round_seeds[0];
  std::vector<MethodResult> code_sweep, value_sweep;
  code_sweep.push_back(std::move(*code));
  value_sweep.push_back(std::move(*value));
  ExpectBitIdentical(code_sweep, value_sweep);

  // rows_compared (via a single replayed round) skips the real NULLs.
  ExperimentConfig replay_config;
  auto round = ExperimentEngine(*real, report->metadata)
                   .ReplayRound(GenerationMethod::kRandom,
                                first_round_seed, replay_config);
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->attributes[0].rows_compared, 3u);
  EXPECT_EQ(round->attributes[1].rows_compared, 4u);
}

// --- ForAttribute index lookups ----------------------------------------------

TEST(LeakageCodepathTest, ReportForAttributeUsesIndex) {
  LeakageReport report;
  for (size_t c = 0; c < 4; ++c) {
    AttributeLeakage a;
    a.attribute = c;
    a.matches = 10 + c;
    report.attributes.push_back(a);
  }
  auto hit = report.ForAttribute(2);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->matches, 12u);
  EXPECT_FALSE(report.ForAttribute(4).ok());

  // Hand-assembled (non-index-aligned) reports still resolve by scan.
  LeakageReport shuffled;
  AttributeLeakage only;
  only.attribute = 7;
  only.matches = 99;
  shuffled.attributes.push_back(only);
  auto scanned = shuffled.ForAttribute(7);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(scanned->matches, 99u);
}

TEST(LeakageCodepathTest, MethodResultForAttributeUsesIndex) {
  MethodResult result;
  for (size_t c = 0; c < 3; ++c) {
    MethodAttributeResult a;
    a.attribute = c;
    a.mean_matches = static_cast<double>(c) + 0.5;
    result.attributes.push_back(a);
  }
  auto hit = result.ForAttribute(1);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->mean_matches, 1.5);
  EXPECT_FALSE(result.ForAttribute(3).ok());
}

// --- Recorded round seeds + replay -------------------------------------------

TEST(LeakageCodepathTest, ReplayRoundReconstructsRecordedAggregates) {
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  ExperimentEngine engine(employee, report->metadata);

  ExperimentConfig config;
  config.rounds = 16;
  auto result = engine.Run(GenerationMethod::kFd, config);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->round_seeds.size(), config.rounds);

  // Replaying every recorded round and folding the per-round numbers
  // through the same Welford accumulator reproduces the recorded
  // aggregates bit-for-bit — so round_seeds[k] really is round k.
  const size_t m = result->attributes.size();
  std::vector<WelfordAccumulator> match_acc(m);
  std::vector<WelfordAccumulator> mse_acc(m);
  for (uint64_t seed : result->round_seeds) {
    auto round = engine.ReplayRound(GenerationMethod::kFd, seed, config);
    ASSERT_TRUE(round.ok());
    ASSERT_EQ(round->attributes.size(), m);
    for (size_t c = 0; c < m; ++c) {
      match_acc[c].Add(static_cast<double>(round->attributes[c].matches));
      if (round->attributes[c].mse.has_value()) {
        mse_acc[c].Add(*round->attributes[c].mse);
      }
    }
  }
  for (size_t c = 0; c < m; ++c) {
    SCOPED_TRACE(result->attributes[c].name);
    EXPECT_EQ(match_acc[c].mean(), result->attributes[c].mean_matches);
    EXPECT_EQ(match_acc[c].stddev(), result->attributes[c].stddev_matches);
    if (result->attributes[c].mean_mse.has_value()) {
      EXPECT_EQ(mse_acc[c].mean(), *result->attributes[c].mean_mse);
    }
  }
}

TEST(LeakageCodepathTest, ReplayRoundPathsAgree) {
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  ExperimentEngine engine(employee, report->metadata);

  ExperimentConfig config;
  config.rounds = 4;
  auto result = engine.Run(GenerationMethod::kOd, config);
  ASSERT_TRUE(result.ok());

  ExperimentConfig value_config = config;
  value_config.use_value_path = true;
  for (uint64_t seed : result->round_seeds) {
    auto code = engine.ReplayRound(GenerationMethod::kOd, seed, config);
    auto value =
        engine.ReplayRound(GenerationMethod::kOd, seed, value_config);
    ASSERT_TRUE(code.ok() && value.ok());
    ASSERT_EQ(code->attributes.size(), value->attributes.size());
    for (size_t c = 0; c < code->attributes.size(); ++c) {
      EXPECT_EQ(code->attributes[c].matches, value->attributes[c].matches);
      EXPECT_EQ(code->attributes[c].rows_compared,
                value->attributes[c].rows_compared);
      ASSERT_EQ(code->attributes[c].mse.has_value(),
                value->attributes[c].mse.has_value());
      if (code->attributes[c].mse.has_value()) {
        EXPECT_EQ(*code->attributes[c].mse, *value->attributes[c].mse);
      }
    }
  }
}

// --- A package of another arity ----------------------------------------------

// A package wider than the relation plans steps past the relation's
// columns. Every method returns the binds' arity Invalid before the
// engine marks any attribute covered.
TEST(LeakageCodepathTest, PackageOfAnotherArityIsInvalid) {
  Relation employee = datasets::Employee();
  MetadataPackage wide;
  std::vector<Attribute> attrs;
  for (size_t c = 0; c < 8; ++c) {
    attrs.push_back({"a" + std::to_string(c), DataType::kInt64,
                     SemanticType::kCategorical});
    wide.domains.emplace_back(
        Domain::Categorical({Value::Int(0), Value::Int(1)}));
  }
  wide.schema = Schema(std::move(attrs));
  wide.dependencies.Add(Dependency::Fd(AttributeSet::Single(0), 7));
  ExperimentConfig config;
  config.rounds = 2;
  for (GenerationMethod method : kAllMethods) {
    SCOPED_TRACE(GenerationMethodToString(method));
    auto result = RunMethod(employee, wide, method, config);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsInvalid()) << result.status().ToString();
  }
}

// --- A package the scan cannot score -------------------------------------------

// The package discloses Int(3) and Real(3.0) for column g: a real 3 would
// match both synthetic codes, which one translated code cannot express.
// The scan's Build refuses it, and every entry point that scores rounds
// returns that Invalid instead of scoring a decoded batch.
TEST(LeakageCodepathTest, CrossTypeDomainIsInvalidOnEveryScorer) {
  Schema schema({{"label", DataType::kString, SemanticType::kCategorical},
                 {"g", DataType::kInt64, SemanticType::kCategorical}});
  std::vector<std::vector<Value>> columns(2);
  for (int64_t r = 0; r < 12; ++r) {
    columns[0].push_back(Value::Str(r % 2 == 0 ? "x" : "y"));
    columns[1].push_back(Value::Int(1 + r % 3));
  }
  Relation real =
      std::move(Relation::Make(schema, std::move(columns))).ValueOrDie();
  MetadataPackage pkg;
  pkg.schema = schema;
  pkg.num_rows = real.num_rows();
  pkg.domains = {
      Domain::Categorical({Value::Str("x"), Value::Str("y")}),
      Domain::Categorical(
          {Value::Int(1), Value::Int(2), Value::Int(3), Value::Real(3.0)})};

  const std::string want =
      "leakage scan cannot score attribute 'g' (column 1): real value "
      "matches several domain entries cross-type";
  auto expect_refused = [&](const Status& status) {
    EXPECT_TRUE(status.IsInvalid()) << status.ToString();
    EXPECT_EQ(status.message(), want);
  };
  TupleRiskOptions risk;
  risk.rounds = 3;
  expect_refused(AnalyzeTupleRisk(real, pkg, risk).status());
  expect_refused(SimulateReconstruction(pkg, real, 11).status());
  ExperimentConfig config;
  config.rounds = 2;
  expect_refused(
      RunMethod(real, pkg, GenerationMethod::kRandom, config).status());
}

// A NaN has no place in Value order, so a categorical domain holding one
// cannot be walked in order. Build refuses it with the reason it gives a
// NaN in a coded continuous domain; MetadataPackage::Deserialize turns
// such a domain away at its own boundary.
TEST(LeakageCodepathTest, NanInCategoricalDomainIsInvalid) {
  Schema schema({{"g", DataType::kInt64, SemanticType::kCategorical}});
  std::vector<Value> cells;
  for (int64_t r = 0; r < 8; ++r) cells.push_back(Value::Int(1 + r % 2));
  Relation real =
      std::move(Relation::Make(schema, {std::move(cells)})).ValueOrDie();
  const std::vector<Domain> domains = {Domain::Categorical(
      {Value::Int(1), Value::Real(std::numeric_limits<double>::quiet_NaN()),
       Value::Int(2)})};
  Result<EncodedLeakageContext> ctx = EncodedLeakageContext::Build(
      EncodedRelation::Encode(real), schema, domains);
  ASSERT_FALSE(ctx.ok());
  EXPECT_TRUE(ctx.status().IsInvalid()) << ctx.status().ToString();
  EXPECT_EQ(ctx.status().message(),
            "leakage scan cannot score attribute 'g' (column 0): NaN value "
            "in a generation domain");
}

// --- Def 2.2 translation against the brute-force oracle ----------------------

// Build translates a categorical coded column with one merge walk over
// the dictionary and the sorted domain. These cases hold that walk to
// reference::TranslateCategorical, which compares every cell with every
// domain entry, on random relations whose disclosed domains differ from
// their data: subsets and supersets of a column's values, entries of the
// other physical types and strings, a NULL entry, -0.0 beside 0.0,
// Int(v) beside Real(v), and int64 pairs above 2^53 that round to one
// double. Build runs one pool task per column, so the cases run at pool
// sizes 1, 3 and 8.
class LeakageCodepathTranslationTest
    : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override { SetGlobalThreadCount(GetParam()); }
  void TearDown() override { SetGlobalThreadCount(0); }
};

constexpr int64_t kTwo53 = int64_t{1} << 53;
constexpr int64_t kTwo62 = int64_t{1} << 62;

// The values a column of `type` draws its cells from. 2^53 + 1 rounds to
// the double 2^53, and 2^62 + 1 to 2^62.
std::vector<Value> CellPool(DataType type) {
  std::vector<Value> out;
  switch (type) {
    case DataType::kInt64:
      for (int64_t v : {int64_t{-5}, int64_t{-1}, int64_t{0}, int64_t{1},
                        int64_t{3}, int64_t{7}, int64_t{100}, kTwo53,
                        kTwo53 + 1, kTwo53 + 2, kTwo62, kTwo62 + 1,
                        -kTwo53 - 1}) {
        out.push_back(Value::Int(v));
      }
      break;
    case DataType::kDouble:
      for (double v : {-0.0, 0.0, 0.5, 1.0, 3.0, -7.25, 9007199254740992.0,
                       1e300}) {
        out.push_back(Value::Real(v));
      }
      break;
    case DataType::kString:
      for (const char* v : {"", "3", "a", "ab", "b", "B", "zz"}) {
        out.push_back(Value::Str(v));
      }
      break;
  }
  return out;
}

// Entries a disclosure may add beside a column's own values: the same
// number under the other physical type, a neighbour above 2^53 with the
// same double, and values no column holds.
std::vector<Value> DecoyPool() {
  return {Value::Null(),
          Value::Int(0),
          Value::Real(-0.0),
          Value::Real(0.0),
          Value::Int(3),
          Value::Real(3.0),
          Value::Int(1),
          Value::Real(1.0),
          Value::Int(kTwo53),
          Value::Int(kTwo53 + 1),
          Value::Real(9007199254740992.0),
          Value::Int(kTwo62 + 1),
          Value::Real(static_cast<double>(kTwo62)),
          Value::Int(42),
          Value::Real(2.5),
          Value::Str("3"),
          Value::Str("c"),
          Value::Str("")};
}

TEST_P(LeakageCodepathTranslationTest, MergeWalkMatchesOracle) {
  const std::vector<DataType> types = {DataType::kInt64, DataType::kDouble,
                                       DataType::kString, DataType::kInt64};
  const std::vector<Value> decoys = DecoyPool();
  size_t refused = 0;
  size_t accepted = 0;
  size_t matched_cells = 0;
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const size_t n = 20 + rng.UniformIndex(100);
    const double null_rate = rng.Bernoulli(0.5) ? 0.0 : 0.1;
    // Each column keeps a random share of its own values in the domain,
    // drops the rest and adds decoys; both rates vary by case.
    const double keep = rng.UniformDouble(0.2, 1.0);
    const double decoy_rate = rng.UniformDouble(0.0, 0.2);
    std::vector<Attribute> attrs;
    std::vector<std::vector<Value>> columns(types.size());
    std::vector<Domain> domains;
    for (size_t c = 0; c < types.size(); ++c) {
      attrs.push_back({"a" + std::to_string(c), types[c],
                       SemanticType::kCategorical});
      const std::vector<Value> pool = CellPool(types[c]);
      std::vector<Value> held;
      for (const Value& v : pool) {
        if (rng.Bernoulli(0.6)) held.push_back(v);
      }
      if (held.empty()) held.push_back(pool[rng.UniformIndex(pool.size())]);
      for (size_t r = 0; r < n; ++r) {
        columns[c].push_back(rng.Bernoulli(null_rate) ? Value::Null()
                                                      : rng.Choice(held));
      }
      std::vector<Value> entries;
      for (const Value& v : pool) {
        if (rng.Bernoulli(keep)) entries.push_back(v);
      }
      for (const Value& v : decoys) {
        if (rng.Bernoulli(decoy_rate)) entries.push_back(v);
      }
      rng.Shuffle(&entries);
      domains.push_back(Domain::Categorical(std::move(entries)));
    }
    Schema schema(attrs);
    Result<Relation> real = Relation::Make(schema, std::move(columns));
    ASSERT_TRUE(real.ok()) << real.status().ToString();

    std::string want_refusal;
    std::vector<std::vector<uint32_t>> want(types.size());
    for (size_t c = 0; c < types.size(); ++c) {
      Result<std::vector<uint32_t>> translated =
          reference::TranslateCategorical(*real, c, domains[c]);
      if (translated.ok()) {
        want[c] = std::move(*translated);
      } else if (want_refusal.empty()) {
        want_refusal = "leakage scan cannot score attribute '" +
                       attrs[c].name + "' (column " + std::to_string(c) +
                       "): " + translated.status().message();
      }
    }

    const EncodedRelation encoded = EncodedRelation::Encode(*real);
    Result<EncodedLeakageContext> ctx =
        EncodedLeakageContext::Build(encoded, schema, domains);
    if (!want_refusal.empty()) {
      ++refused;
      ASSERT_FALSE(ctx.ok());
      EXPECT_TRUE(ctx.status().IsInvalid()) << ctx.status().ToString();
      EXPECT_EQ(ctx.status().message(), want_refusal);
      continue;
    }
    ++accepted;
    ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
    for (size_t c = 0; c < types.size(); ++c) {
      SCOPED_TRACE(attrs[c].name);
      const CodeColumnView got = ctx->ViewAttribute(c).real_codes;
      ASSERT_EQ(got.size, n);
      const uint32_t sentinel = CodeWidthSentinel(got.width);
      for (size_t r = 0; r < n; ++r) {
        const uint32_t code = got.at(r) == sentinel
                                  ? EncodedLeakageContext::kNoMatchCode
                                  : got.at(r);
        ASSERT_EQ(code, want[c][r]) << "row " << r;
        if (code != EncodedLeakageContext::kNoMatchCode) ++matched_cells;
      }
    }
  }
  // The generator must reach both outcomes, and accepted cases must
  // translate cells, or the comparison above proves little.
  EXPECT_GE(refused, 20u);
  EXPECT_GE(accepted, 20u);
  EXPECT_GT(matched_cells, 0u);
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, LeakageCodepathTranslationTest,
                         ::testing::Values(1, 3, 8));

// --- An encoding without a source relation -----------------------------------

// EncodedRelation::FromDictionaries allows a null source. The engine reads
// rows, columns and names from the encoding, so the fused rounds and
// their replays run; only a round scored on the decoded batch needs the
// relation, and it returns Invalid.
TEST(LeakageCodepathTest, EngineRunsOnAnEncodingWithoutSource) {
  Relation employee = datasets::Employee();
  auto report = ProfileRelation(employee);
  ASSERT_TRUE(report.ok());
  EncodedRelation encoded = EncodedRelation::Encode(employee);
  ExperimentConfig config;
  config.rounds = 6;
  auto want = RunExperiment(employee, report->metadata, kAllMethods, config);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  encoded.set_source(nullptr);
  ExperimentEngine engine(encoded, report->metadata);
  auto got = engine.RunAll(kAllMethods, config);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectBitIdentical(*want, *got);
  for (size_t c = 0; c < employee.num_columns(); ++c) {
    EXPECT_EQ((*got)[0].attributes[c].name,
              employee.schema().attribute(c).name);
  }
  auto replay = engine.ReplayRound(GenerationMethod::kFd,
                                   (*got)[1].round_seeds[0], config);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();

  config.use_value_path = true;
  auto decoded = engine.Run(GenerationMethod::kFd, config);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsInvalid()) << decoded.status().ToString();
  EXPECT_FALSE(engine.ReplayRound(GenerationMethod::kFd,
                                  (*got)[1].round_seeds[0], config)
                   .ok());
}

}  // namespace
}  // namespace metaleak
