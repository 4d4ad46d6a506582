// Golden parity across the adaptive-code-width matrix: the same dataset
// run with the code-width floor forced to {natural, u16, u32}, the SIMD
// dispatch forced to {scalar, best}, and {1, 8} worker threads must
// produce identical results at every layer an attacker or auditor can
// observe — encoding fingerprints, width-2 identifiability verdicts,
// discovered metadata (at the default max_lhs = 1 and with OD/OFD and
// DD searched up to two LHS attributes), the analytical leakage profile,
// and a seeded Def 2.2/2.3 Monte-Carlo experiment (matches exactly, MSE
// bitwise).
//
// Width only changes how codes are STORED; the reference cell is the
// natural-width / scalar / single-threaded run and every other cell in
// the cube must reproduce it byte for byte. This is the suite the TSan
// and simd-parity CI jobs run to pin the kernels' value-path parity.
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/simd.h"
#include "data/code_column.h"
#include "data/datasets/echocardiogram.h"
#include "data/datasets/employee.h"
#include "data/datasets/synthetic.h"
#include "data/encoded_relation.h"
#include "discovery/discovery_engine.h"
#include "partition/pli_cache.h"
#include "privacy/experiment.h"
#include "privacy/identifiability.h"
#include "privacy/leakage.h"
#include "privacy/leakage_delta.h"

namespace metaleak {
namespace {

// Everything one pipeline run exposes, flattened for exact comparison.
struct PipelineObservation {
  uint64_t fingerprint = 0;
  std::vector<CodeWidth> widths;
  std::vector<bool> identifiable;
  std::string metadata;
  std::string metadata_lhs2;  // OD/OFD and DD searched up to |LHS| = 2
  std::vector<double> leakage_numbers;  // compared bitwise below
  std::vector<uint64_t> experiment_bits;
};

::testing::AssertionResult BitwiseEqual(const std::vector<double>& a,
                                        const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "size " << a.size() << " vs "
                                         << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t ua, ub;
    std::memcpy(&ua, &a[i], sizeof(ua));
    std::memcpy(&ub, &b[i], sizeof(ub));
    if (ua != ub) {
      return ::testing::AssertionFailure()
             << "entry " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

uint64_t DoubleBits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

PipelineObservation RunPipeline(const Relation& relation) {
  PipelineObservation out;
  EncodedRelation encoded = EncodedRelation::Encode(relation);
  out.fingerprint = encoded.Fingerprint();
  for (size_t c = 0; c < encoded.num_columns(); ++c) {
    out.widths.push_back(encoded.column_width(c));
  }

  PliCache cache(&encoded);
  Result<std::vector<bool>> ident = IdentifiableRows(cache, 2);
  EXPECT_TRUE(ident.ok());
  if (ident.ok()) out.identifiable = *ident;

  DiscoveryOptions discovery;
  Result<DiscoveryReport> report = ProfileRelation(encoded, discovery);
  EXPECT_TRUE(report.ok());
  if (!report.ok()) return out;
  out.metadata = report->metadata.Serialize();

  // The multi-attribute OD/OFD tuple scan and the conjunctive DD delta
  // only run above the default max_lhs = 1.
  DiscoveryOptions wide_lhs;
  wide_lhs.od.max_lhs = 2;
  wide_lhs.dd.max_lhs = 2;
  Result<DiscoveryReport> wide_report = ProfileRelation(encoded, wide_lhs);
  EXPECT_TRUE(wide_report.ok());
  if (wide_report.ok()) {
    out.metadata_lhs2 = wide_report->metadata.Serialize();
  }

  LeakageOptions leakage_options;
  Result<LeakageProfile> profile =
      ComputeLeakageProfile(encoded, report->metadata, leakage_options);
  EXPECT_TRUE(profile.ok());
  if (profile.ok()) {
    for (const auto& attr : profile->attributes) {
      out.leakage_numbers.push_back(attr.expected_random_matches);
      out.leakage_numbers.push_back(static_cast<double>(attr.compared));
    }
  }

  ExperimentConfig config;
  config.rounds = 4;
  ExperimentEngine engine(encoded, report->metadata);
  Result<MethodResult> run = engine.Run(GenerationMethod::kFd, config);
  EXPECT_TRUE(run.ok());
  if (run.ok()) {
    for (const auto& attr : run->attributes) {
      out.experiment_bits.push_back(attr.covered ? 1 : 0);
      out.experiment_bits.push_back(DoubleBits(attr.mean_matches));
      out.experiment_bits.push_back(DoubleBits(attr.stddev_matches));
      out.experiment_bits.push_back(
          attr.mean_mse.has_value() ? DoubleBits(*attr.mean_mse) : 0);
    }
  }
  return out;
}

struct MatrixCell {
  std::optional<CodeWidth> floor;  // nullopt: natural widths
  SimdLevel simd = SimdLevel::kScalar;
  size_t threads = 1;
};

std::vector<MatrixCell> Matrix() {
  std::vector<MatrixCell> cells;
  const std::vector<std::optional<CodeWidth>> floors = {
      std::nullopt, CodeWidth::kU16, CodeWidth::kU32};
  for (const auto& floor : floors) {
    for (SimdLevel simd : {SimdLevel::kScalar, SupportedSimdLevel()}) {
      for (size_t threads : {size_t{1}, size_t{8}}) {
        cells.push_back({floor, simd, threads});
      }
    }
  }
  return cells;
}

std::string CellName(const MatrixCell& cell) {
  std::string name = "floor=";
  name += !cell.floor                        ? "natural"
          : *cell.floor == CodeWidth::kU16 ? "u16"
                                             : "u32";
  name += std::string(" simd=") + SimdLevelName(cell.simd);
  name += " threads=" + std::to_string(cell.threads);
  return name;
}

void RunMatrix(const Relation& relation) {
  // Reference cell: natural widths, scalar kernels, one thread.
  SetSimdLevelOverride(SimdLevel::kScalar);
  SetGlobalThreadCount(1);
  const PipelineObservation ref = RunPipeline(relation);
  ASSERT_FALSE(ref.metadata.empty());
  ASSERT_FALSE(ref.metadata_lhs2.empty());

  for (const MatrixCell& cell : Matrix()) {
    if (cell.floor) {
      SetCodeWidthFloorOverride(*cell.floor);
    } else {
      ClearCodeWidthFloorOverride();
    }
    SetSimdLevelOverride(cell.simd);
    SetGlobalThreadCount(cell.threads);
    const PipelineObservation got = RunPipeline(relation);
    const std::string name = CellName(cell);

    EXPECT_EQ(got.fingerprint, ref.fingerprint) << name;
    if (cell.floor == CodeWidth::kU32) {
      for (size_t c = 0; c < got.widths.size(); ++c) {
        EXPECT_EQ(got.widths[c], CodeWidth::kU32) << name << " col " << c;
      }
    }
    EXPECT_EQ(got.identifiable, ref.identifiable) << name;
    EXPECT_EQ(got.metadata, ref.metadata) << name;
    EXPECT_EQ(got.metadata_lhs2, ref.metadata_lhs2) << name;
    EXPECT_TRUE(BitwiseEqual(got.leakage_numbers, ref.leakage_numbers))
        << name;
    EXPECT_EQ(got.experiment_bits, ref.experiment_bits) << name;
  }

  ClearCodeWidthFloorOverride();
  ClearSimdLevelOverride();
  SetGlobalThreadCount(0);
}

class WidthParityTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ClearCodeWidthFloorOverride();
    ClearSimdLevelOverride();
    SetGlobalThreadCount(0);
  }
};

TEST_F(WidthParityTest, Employee) { RunMatrix(datasets::Employee()); }

TEST_F(WidthParityTest, Echocardiogram) {
  RunMatrix(datasets::Echocardiogram());
}

TEST_F(WidthParityTest, PlantedSynthetic) {
  datasets::SyntheticConfig config;
  config.num_rows = 1200;
  config.seed = 7;
  datasets::SyntheticAttribute a;
  a.name = "a";
  a.kind = datasets::SyntheticAttribute::Kind::kCategoricalBase;
  a.domain_size = 12;
  datasets::SyntheticAttribute b;
  b.name = "b";
  b.kind = datasets::SyntheticAttribute::Kind::kContinuousBase;
  datasets::SyntheticAttribute c;
  c.name = "c";
  c.kind = datasets::SyntheticAttribute::Kind::kDerivedMonotone;
  c.source = 1;
  c.domain_size = 0;
  datasets::SyntheticAttribute d;
  d.name = "d";
  d.kind = datasets::SyntheticAttribute::Kind::kCategoricalBase;
  d.domain_size = 500;  // u16-wide naturally, u32 only under the floor
  config.attributes = {a, b, c, d};
  Result<Relation> relation = datasets::Synthetic(config);
  ASSERT_TRUE(relation.ok());
  RunMatrix(*relation);
}

}  // namespace
}  // namespace metaleak
