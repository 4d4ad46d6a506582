// Pool-size parity for the per-column set-up stages.
//
// Encode, the PLI cache's singleton build, the Def 2.2/2.3
// leakage-context build, the three estimator binds and the
// batch-independent profile measures each run one pool task per column.
// Every task writes only its own column's slot (the leakage fallback
// reasons then fold in column order), so the outputs must be
// bit-identical at every global pool size. Pool size 1 is the
// reference: ParallelFor runs inline there, exactly the serial loop.
// The parity cases run each stage once at size 1 and once at pool size
// 3 or 8.
//
// Datasets: SyntheticZipfScale (u8 and u16 columns at natural width,
// u32 under the width floor), the echocardiogram replica (NULLs, int
// and double columns) and a relation with string columns.
//
// The last case pins the leakage fold: when several columns are
// unsupported, the lowest one's fallback reason wins at pool sizes 1, 3
// and 8. Runs under TSan in CI, since the stages run on pool threads.
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/random.h"
#include "data/code_column.h"
#include "data/datasets/echocardiogram.h"
#include "data/datasets/synthetic.h"
#include "data/domain.h"
#include "data/encoded_batch.h"
#include "data/encoded_relation.h"
#include "data/relation.h"
#include "discovery/discovery_engine.h"
#include "generation/generation_engine.h"
#include "partition/pli_cache.h"
#include "privacy/audit.h"
#include "privacy/leakage.h"
#include "privacy/risk_estimator.h"
#include "reference/encode_reference.h"

namespace metaleak {
namespace {

// A relation with string columns: an FD from a NULL-sprinkled city label
// onto its region label, plus an int and a NULL-sprinkled double column.
Relation StringRelation() {
  Schema schema({{"city", DataType::kString, SemanticType::kCategorical},
                 {"region", DataType::kString, SemanticType::kCategorical},
                 {"age", DataType::kInt64, SemanticType::kContinuous},
                 {"score", DataType::kDouble, SemanticType::kContinuous}});
  constexpr size_t kRows = 3000;
  std::vector<std::vector<Value>> columns(4);
  for (size_t r = 0; r < kRows; ++r) {
    const size_t city = (r * 7) % 97;
    columns[0].push_back(r % 50 == 0 ? Value::Null()
                                     : Value::Str("city_" +
                                                  std::to_string(city)));
    columns[1].push_back(Value::Str("region_" + std::to_string(city % 9)));
    columns[2].push_back(Value::Int(18 + static_cast<int64_t>(r % 60)));
    columns[3].push_back(
        r % 40 == 0 ? Value::Null()
                    : Value::Real(static_cast<double>((r * 37) % 1000) /
                                  10.0));
  }
  return std::move(Relation::Make(std::move(schema), std::move(columns)))
      .ValueOrDie();
}

struct Dataset {
  std::string name;
  Relation relation;
};

std::vector<Dataset> Datasets() {
  std::vector<Dataset> out;
  out.push_back({"zipf_20k",
                 std::move(datasets::SyntheticZipfScale(20000, /*seed=*/21))
                     .ValueOrDie()});
  out.push_back({"echocardiogram", datasets::Echocardiogram()});
  out.push_back({"strings", StringRelation()});
  return out;
}

uint64_t Bits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// Everything an encoding exposes, flattened for exact comparison.
struct EncodingImage {
  uint64_t fingerprint = 0;
  std::vector<CodeWidth> widths;
  std::vector<std::vector<uint32_t>> codes;
  std::vector<std::vector<Value>> values;
  std::vector<std::vector<size_t>> counts;

  bool operator==(const EncodingImage&) const = default;
};

EncodingImage ImageOf(const EncodedRelation& encoded) {
  EncodingImage out;
  out.fingerprint = encoded.Fingerprint();
  for (size_t c = 0; c < encoded.num_columns(); ++c) {
    const ColumnDictionary& dict = encoded.dictionary(c);
    out.widths.push_back(encoded.column_width(c));
    out.codes.push_back(encoded.column(c).ToU32());
    std::vector<Value> values;
    for (uint32_t code = 0; code < dict.num_codes(); ++code) {
      values.push_back(dict.decode(code));
    }
    out.values.push_back(std::move(values));
    out.counts.push_back(dict.counts());
  }
  return out;
}

// Cells as (value bits, present) pairs: bit-exact comparison.
std::vector<std::pair<uint64_t, bool>> CellBits(
    const std::vector<RiskMeasureCell>& cells) {
  std::vector<std::pair<uint64_t, bool>> out;
  out.reserve(cells.size());
  for (const RiskMeasureCell& cell : cells) {
    out.emplace_back(Bits(cell.value), cell.present);
  }
  return out;
}

// Runs each test with the global pool at the parametrized size.
class PoolSizeTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override { SetGlobalThreadCount(GetParam()); }
  void TearDown() override {
    ClearCodeWidthFloorOverride();
    SetGlobalThreadCount(0);
  }
};

class ColumnParallelTest : public PoolSizeTest {
 protected:
  // fn() at pool size 1, then at the parametrized size.
  template <typename Fn>
  auto SerialThenPooled(Fn&& fn) {
    SetGlobalThreadCount(1);
    auto serial = fn();
    SetGlobalThreadCount(GetParam());
    auto pooled = fn();
    return std::make_pair(std::move(serial), std::move(pooled));
  }
};

TEST_P(ColumnParallelTest, EncodeMatchesSerialAndReference) {
  std::set<CodeWidth> widths_seen;
  for (const Dataset& data : Datasets()) {
    SCOPED_TRACE(data.name);
    // The u32 floor puts every column at the widest storage; natural
    // width leaves the Zipf relation's small and large dictionaries at
    // u8 and u16.
    for (bool force_u32 : {false, true}) {
      SCOPED_TRACE(force_u32 ? "u32 floor" : "natural width");
      if (force_u32) SetCodeWidthFloorOverride(CodeWidth::kU32);
      auto [serial, pooled] = SerialThenPooled(
          [&] { return ImageOf(EncodedRelation::Encode(data.relation)); });
      EXPECT_EQ(serial, pooled);
      EXPECT_EQ(ImageOf(reference::Encode(data.relation)), pooled);
      ClearCodeWidthFloorOverride();
      widths_seen.insert(pooled.widths.begin(), pooled.widths.end());
    }
  }
  EXPECT_EQ(widths_seen.size(), 3u);
}

TEST_P(ColumnParallelTest, SingletonPlisMatchSerial) {
  for (const Dataset& data : Datasets()) {
    SCOPED_TRACE(data.name);
    const EncodedRelation encoded = EncodedRelation::Encode(data.relation);
    using Csr = std::pair<std::vector<PositionListIndex::Row>,
                          std::vector<uint32_t>>;
    auto [serial, pooled] = SerialThenPooled([&] {
      PliCache cache(&encoded);
      // The eager build does not count as Get traffic.
      EXPECT_EQ(cache.hits(), 0u);
      EXPECT_EQ(cache.misses(), 0u);
      EXPECT_EQ(cache.size(), encoded.num_columns() + 1);
      std::vector<Csr> out;
      for (size_t c = 0; c < encoded.num_columns(); ++c) {
        const PositionListIndex* pli = cache.Get(AttributeSet::Single(c));
        out.emplace_back(pli->rows(), pli->cluster_offsets());
      }
      return out;
    });
    EXPECT_EQ(serial, pooled);
    for (size_t c = 0; c < encoded.num_columns(); ++c) {
      const PositionListIndex direct = PositionListIndex::FromCodes(
          encoded.column_view(c), encoded.dictionary(c).num_codes());
      EXPECT_EQ(pooled[c].first, direct.rows()) << "column " << c;
      EXPECT_EQ(pooled[c].second, direct.cluster_offsets()) << "column " << c;
    }
  }
}

TEST_P(ColumnParallelTest, ProfileMatchesSerial) {
  for (const Dataset& data : Datasets()) {
    SCOPED_TRACE(data.name);
    const EncodedRelation encoded = EncodedRelation::Encode(data.relation);
    auto [serial, pooled] = SerialThenPooled([&] {
      Result<DiscoveryReport> report = ProfileRelation(encoded);
      EXPECT_TRUE(report.ok()) << report.status().ToString();
      return report.ok() ? report->metadata.Serialize() : std::string();
    });
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, pooled);
  }
}

TEST_P(ColumnParallelTest, EstimatorBindsAndProfileMeasuresMatchSerial) {
  for (const Dataset& data : Datasets()) {
    SCOPED_TRACE(data.name);
    const EncodedRelation encoded = EncodedRelation::Encode(data.relation);
    Result<DiscoveryReport> report = ProfileRelation(encoded);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const MetadataPackage& metadata = report->metadata;
    Result<GenerationContext> gen = GenerationContext::Build(metadata);
    ASSERT_TRUE(gen.ok()) << gen.status().ToString();
    ASSERT_TRUE(gen->encodable()) << gen->fallback_reason();

    // One fixed batch, scored by every bind.
    EncodedBatch batch;
    Rng rng(97);
    ASSERT_TRUE(
        GenerateEncoded(*gen, encoded.num_rows(), &rng, &batch).ok());
    RiskContext ctx;
    ctx.real = &encoded;
    ctx.syn_schema = &gen->schema();
    ctx.domains = &gen->domains();
    ctx.metadata = &metadata;
    const size_t m = encoded.num_columns();
    for (const RiskEstimator* est :
         RiskEstimatorRegistry::All().estimators()) {
      SCOPED_TRACE(est->name());
      auto [serial, pooled] = SerialThenPooled([&] {
        std::vector<RiskMeasureCell> cells(est->measures().size() * m);
        Result<std::unique_ptr<BoundRiskEstimator>> bound = est->Bind(ctx);
        EXPECT_TRUE(bound.ok()) << bound.status().ToString();
        if (bound.ok()) {
          EXPECT_TRUE((*bound)->Evaluate(batch, cells.data()).ok());
        }
        return CellBits(cells);
      });
      EXPECT_EQ(serial, pooled);
    }

    auto [serial, pooled] = SerialThenPooled([&] {
      Result<std::vector<RiskProfileMeasure>> measures =
          ComputeProfileMeasures(encoded, metadata);
      EXPECT_TRUE(measures.ok()) << measures.status().ToString();
      std::vector<std::vector<std::pair<uint64_t, bool>>> out;
      if (measures.ok()) {
        for (const RiskProfileMeasure& measure : *measures) {
          out.push_back(CellBits(measure.cells));
        }
      }
      return out;
    });
    ASSERT_EQ(serial.size(), 2u);
    EXPECT_EQ(serial, pooled);
  }
}

TEST_P(ColumnParallelTest, AuditMarkdownMatchesSerial) {
  for (const Dataset& data : Datasets()) {
    SCOPED_TRACE(data.name);
    AuditOptions options;
    options.experiment.rounds = 4;
    options.experiment.threads = 0;  // the global pool
    auto [serial, pooled] = SerialThenPooled([&] {
      Result<AuditResult> audit = RunAudit(data.relation, options);
      EXPECT_TRUE(audit.ok()) << audit.status().ToString();
      return audit.ok() ? audit->ToMarkdown() : std::string();
    });
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, pooled);
  }
}

// Column 1's categorical domain discloses Int(3) and Real(3.0), which one
// translated code cannot express; column 3's coded continuous domain
// holds a NaN. Build refuses both, and its Invalid must name column 1.
// The order is then swapped to show the fold follows the column index,
// not the reason.
class ColumnParallelFoldTest : public PoolSizeTest {};

TEST_P(ColumnParallelFoldTest, LowestUnsupportedColumnNamesTheFallback) {
  constexpr const char* kCrossType =
      "real value matches several domain entries cross-type";
  constexpr const char* kNanDomain = "NaN value in a generation domain";
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Domain cross_type = Domain::Categorical(
      {Value::Int(1), Value::Int(2), Value::Int(3), Value::Real(3.0)});
  const Domain nan_coded =
      Domain::Categorical({Value::Real(0.5), Value::Real(nan)});

  for (bool cross_type_first : {true, false}) {
    SCOPED_TRACE(cross_type_first ? "cross-type first" : "NaN first");
    // Columns: [plain, first trip, plain, second trip, plain].
    const size_t cross_col = cross_type_first ? 1 : 3;
    const size_t nan_col = cross_type_first ? 3 : 1;
    std::vector<Attribute> attrs;
    std::vector<std::vector<Value>> columns(5);
    std::vector<Domain> domains(5);
    constexpr size_t kRows = 32;
    for (size_t c = 0; c < 5; ++c) {
      const std::string name = "a" + std::to_string(c);
      if (c == cross_col) {
        attrs.push_back({name, DataType::kInt64, SemanticType::kCategorical});
        for (size_t r = 0; r < kRows; ++r) {
          columns[c].push_back(Value::Int(1 + static_cast<int64_t>(r % 3)));
        }
        domains[c] = cross_type;
      } else if (c == nan_col) {
        attrs.push_back({name, DataType::kDouble, SemanticType::kContinuous});
        for (size_t r = 0; r < kRows; ++r) {
          columns[c].push_back(Value::Real(0.5 * static_cast<double>(r)));
        }
        domains[c] = nan_coded;
      } else {
        attrs.push_back(
            {name, DataType::kString, SemanticType::kCategorical});
        for (size_t r = 0; r < kRows; ++r) {
          columns[c].push_back(Value::Str("v" + std::to_string(r % 4)));
        }
        domains[c] = Domain::Categorical(
            {Value::Str("v0"), Value::Str("v1"), Value::Str("v2"),
             Value::Str("v3")});
      }
    }
    Schema schema(attrs);
    Result<Relation> relation = Relation::Make(schema, std::move(columns));
    ASSERT_TRUE(relation.ok()) << relation.status().ToString();
    const EncodedRelation encoded = EncodedRelation::Encode(*relation);

    Result<EncodedLeakageContext> ctx =
        EncodedLeakageContext::Build(encoded, schema, domains);
    ASSERT_FALSE(ctx.ok());
    EXPECT_TRUE(ctx.status().IsInvalid());
    EXPECT_EQ(ctx.status().message(),
              std::string("leakage scan cannot score attribute 'a1' "
                          "(column 1): ") +
                  (cross_type_first ? kCrossType : kNanDomain));
  }
}

// Size 1 is the parity cases' reference, so they run only above it.
INSTANTIATE_TEST_SUITE_P(PoolSizes, ColumnParallelTest,
                         ::testing::Values(3, 8));
INSTANTIATE_TEST_SUITE_P(PoolSizes, ColumnParallelFoldTest,
                         ::testing::Values(1, 3, 8));

}  // namespace
}  // namespace metaleak
