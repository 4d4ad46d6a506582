// Golden parity for the snapshot/delta split: randomized insert/delete
// batches applied incrementally must be indistinguishable — bit for bit —
// from rebuilding everything from scratch on the post-batch rows.
//
// Per batch the test asserts four layers of the exactness chain:
//   1. DeltaRelation::PublishCanonical vs EncodedRelation::Encode —
//      dictionaries, code vectors, fingerprints.
//   2. PliMaintenance::ToPli vs PositionListIndex::FromCodes — the flat
//      CSR arrays.
//   3. ProfileRelationIncremental (verdict-memo reuse) vs ProfileRelation
//      from scratch — the serialized MetadataPackage.
//   4. Def 2.2/2.3 leakage: the analytical profile and a Monte-Carlo
//      experiment run over both encodings.
// The whole suite is parameterized over thread counts {1, 8}: targeted
// revalidation and the sweeps must be thread-count invariant.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/random.h"
#include "data/code_column.h"
#include "data/delta_relation.h"
#include "data/datasets/echocardiogram.h"
#include "data/datasets/employee.h"
#include "data/datasets/synthetic.h"
#include "data/encoded_relation.h"
#include "discovery/discovery_engine.h"
#include "discovery/revalidate.h"
#include "partition/pli_cache.h"
#include "partition/pli_maintenance.h"
#include "partition/position_list_index.h"
#include "privacy/experiment.h"
#include "privacy/leakage_delta.h"

namespace metaleak {
namespace {

// Applies `batch` at the Value level: the ground truth the incremental
// path must reproduce exactly.
Relation ApplyBatchReference(const Relation& base, const RowBatch& batch) {
  std::vector<size_t> deletes = batch.delete_rows;
  std::sort(deletes.begin(), deletes.end());
  Relation out = Relation::Empty(base.schema());
  size_t d = 0;
  for (size_t r = 0; r < base.num_rows(); ++r) {
    if (d < deletes.size() && deletes[d] == r) {
      ++d;
      continue;
    }
    EXPECT_TRUE(out.AppendRow(base.Row(r)).ok());
  }
  for (const std::vector<Value>& row : batch.insert_rows) {
    EXPECT_TRUE(out.AppendRow(row).ok());
  }
  return out;
}

// A random cell: biased toward existing values (so inserts land in >= 2
// clusters and revive tombstones), with fresh values and NULLs mixed in.
Value RandomCell(const Relation& current, size_t c, Rng& rng) {
  if (rng.Bernoulli(0.1)) return Value::Null();
  const std::vector<Value>& column = current.column(c);
  if (!column.empty() && rng.Bernoulli(0.6)) {
    return column[rng.UniformIndex(column.size())];
  }
  switch (current.schema().attribute(c).type) {
    case DataType::kInt64:
      return Value::Int(rng.UniformInt(-50, 5000));
    case DataType::kDouble:
      return Value::Real(rng.UniformDouble(-10.0, 500.0));
    case DataType::kString:
      return Value::Str("fresh_" + std::to_string(rng.UniformInt(0, 999)));
  }
  return Value::Null();
}

RowBatch RandomBatch(const Relation& current, Rng& rng, bool with_deletes,
                     bool with_inserts) {
  RowBatch batch;
  if (with_deletes && current.num_rows() > 4) {
    size_t max_deletes = std::max<size_t>(1, current.num_rows() / 5);
    size_t k = 1 + rng.UniformIndex(max_deletes);
    k = std::min(k, current.num_rows() - 2);
    batch.delete_rows = rng.SampleWithoutReplacement(current.num_rows(), k);
  }
  if (with_inserts) {
    size_t k = 1 + rng.UniformIndex(
                       std::max<size_t>(1, current.num_rows() / 5));
    for (size_t i = 0; i < k; ++i) {
      std::vector<Value> row;
      for (size_t c = 0; c < current.num_columns(); ++c) {
        row.push_back(RandomCell(current, c, rng));
      }
      batch.insert_rows.push_back(std::move(row));
    }
  }
  return batch;
}

void ExpectEncodingsIdentical(const EncodedRelation& incremental,
                              const EncodedRelation& scratch) {
  ASSERT_EQ(incremental.num_rows(), scratch.num_rows());
  ASSERT_EQ(incremental.num_columns(), scratch.num_columns());
  EXPECT_EQ(incremental.Fingerprint(), scratch.Fingerprint());
  for (size_t c = 0; c < scratch.num_columns(); ++c) {
    EXPECT_EQ(incremental.column(c).ToU32(), scratch.column(c).ToU32())
        << "column " << c;
    const ColumnDictionary& a = incremental.dictionary(c);
    const ColumnDictionary& b = scratch.dictionary(c);
    ASSERT_EQ(a.num_codes(), b.num_codes()) << "column " << c;
    EXPECT_EQ(a.null_count(), b.null_count()) << "column " << c;
    for (uint32_t code = 0; code < b.num_codes(); ++code) {
      EXPECT_EQ(a.decode(code), b.decode(code))
          << "column " << c << " code " << code;
      EXPECT_EQ(a.count(code), b.count(code))
          << "column " << c << " code " << code;
    }
  }
}

void ExpectPlisIdentical(const PliMaintenance& maintained,
                         const EncodedRelation& scratch) {
  for (size_t c = 0; c < scratch.num_columns(); ++c) {
    PositionListIndex incremental = maintained.ToPli(c);
    PositionListIndex rebuilt = PositionListIndex::FromCodes(
        scratch.column(c).ToU32(), scratch.dictionary(c).num_codes());
    EXPECT_EQ(incremental.rows(), rebuilt.rows()) << "column " << c;
    EXPECT_EQ(incremental.cluster_offsets(), rebuilt.cluster_offsets())
        << "column " << c;
    EXPECT_EQ(incremental.num_rows(), rebuilt.num_rows()) << "column " << c;
  }
}

void ExpectMethodResultsIdentical(const MethodResult& a,
                                  const MethodResult& b) {
  ASSERT_EQ(a.attributes.size(), b.attributes.size());
  EXPECT_EQ(a.round_seeds, b.round_seeds);
  for (size_t i = 0; i < a.attributes.size(); ++i) {
    EXPECT_EQ(a.attributes[i].covered, b.attributes[i].covered);
    EXPECT_EQ(a.attributes[i].mean_matches, b.attributes[i].mean_matches)
        << "attribute " << i;
    EXPECT_EQ(a.attributes[i].stddev_matches,
              b.attributes[i].stddev_matches)
        << "attribute " << i;
    EXPECT_EQ(a.attributes[i].mean_mse.has_value(),
              b.attributes[i].mean_mse.has_value());
    if (a.attributes[i].mean_mse.has_value()) {
      EXPECT_EQ(*a.attributes[i].mean_mse, *b.attributes[i].mean_mse);
    }
  }
}

class IncrementalGoldenTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override { SetGlobalThreadCount(GetParam()); }
  void TearDown() override { SetGlobalThreadCount(0); }

  // Drives `batches` rounds of the full incremental pipeline against the
  // from-scratch rebuild. Batch kinds rotate: mixed, insert-only,
  // delete-only, mixed...
  void RunGolden(Relation relation, uint64_t seed, size_t batches) {
    ASSERT_GT(relation.num_rows(), 0u);
    Rng rng(seed);
    DiscoveryOptions discovery;  // default classes: FD/OD/OFD/ND/DD

    EncodedRelation initial = EncodedRelation::Encode(relation);
    DeltaRelation delta(initial);
    PliMaintenance plis(initial);
    DiscoveryMemo memo;

    // Seed the memo so reuse kicks in from the first batch.
    {
      PliCache cache(&initial);
      Result<DiscoveryReport> warm = ProfileRelationIncremental(
          &cache, discovery, DeltaTouch::None(initial.num_columns()),
          &memo);
      ASSERT_TRUE(warm.ok()) << warm.status().ToString();
      ASSERT_TRUE(memo.valid);
    }

    for (size_t round = 0; round < batches; ++round) {
      const bool with_deletes = round % 3 != 1;
      const bool with_inserts = round % 3 != 2;
      RowBatch batch = RandomBatch(relation, rng, with_deletes,
                                   with_inserts);
      if (batch.empty()) continue;

      // Incremental path.
      Result<BatchEffects> effects = delta.ApplyBatch(batch);
      ASSERT_TRUE(effects.ok()) << effects.status().ToString();
      DeltaTouch touch = DeltaTouch::None(relation.num_columns());
      touch.Merge(*effects);
      plis.ApplyBatch(*effects);
      PublishResult publish = delta.PublishCanonical();
      plis.RenumberCodes(publish.code_remap);

      // Reference path.
      relation = ApplyBatchReference(relation, batch);
      EncodedRelation scratch = EncodedRelation::Encode(relation);

      // 1. Encoding parity (dictionaries, codes, fingerprint).
      ExpectEncodingsIdentical(publish.encoded, scratch);

      // 2. CSR PLI parity.
      ExpectPlisIdentical(plis, scratch);

      // 3. Discovery parity: targeted revalidation vs full profile.
      publish.encoded.set_source(&relation);
      std::vector<PositionListIndex> singles;
      for (size_t c = 0; c < relation.num_columns(); ++c) {
        singles.push_back(plis.ToPli(c));
      }
      PliCache warm_cache(&publish.encoded, std::move(singles));
      Result<DiscoveryReport> incremental = ProfileRelationIncremental(
          &warm_cache, discovery, touch, &memo);
      ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
      Result<DiscoveryReport> full = ProfileRelation(scratch, discovery);
      ASSERT_TRUE(full.ok()) << full.status().ToString();
      EXPECT_EQ(incremental->metadata.Serialize(),
                full->metadata.Serialize())
          << "round " << round;

      // 4. Leakage parity: analytical profile + Def 2.2/2.3 experiment.
      LeakageOptions leakage_options;
      Result<LeakageProfile> inc_profile = ComputeLeakageProfile(
          publish.encoded, incremental->metadata, leakage_options);
      Result<LeakageProfile> full_profile = ComputeLeakageProfile(
          scratch, full->metadata, leakage_options);
      ASSERT_TRUE(inc_profile.ok() && full_profile.ok());
      ASSERT_EQ(inc_profile->attributes.size(),
                full_profile->attributes.size());
      for (size_t c = 0; c < inc_profile->attributes.size(); ++c) {
        EXPECT_EQ(inc_profile->attributes[c].expected_random_matches,
                  full_profile->attributes[c].expected_random_matches);
        EXPECT_EQ(inc_profile->attributes[c].compared,
                  full_profile->attributes[c].compared);
      }

      ExperimentConfig config;
      config.rounds = 8;
      ExperimentEngine inc_engine(publish.encoded, incremental->metadata);
      ExperimentEngine full_engine(scratch, full->metadata);
      Result<MethodResult> inc_run =
          inc_engine.Run(GenerationMethod::kFd, config);
      Result<MethodResult> full_run =
          full_engine.Run(GenerationMethod::kFd, config);
      ASSERT_TRUE(inc_run.ok() && full_run.ok());
      ExpectMethodResultsIdentical(*inc_run, *full_run);
    }
  }
};

TEST_P(IncrementalGoldenTest, Employee) {
  RunGolden(datasets::Employee(), 0xE1u + GetParam(), 6);
}

TEST_P(IncrementalGoldenTest, Echocardiogram) {
  RunGolden(datasets::Echocardiogram(), 0xECu + GetParam(), 3);
}

TEST_P(IncrementalGoldenTest, Synthetic) {
  Result<Relation> synthetic =
      datasets::SyntheticUniform(300, 3, 2, 6, 20240777);
  ASSERT_TRUE(synthetic.ok());
  RunGolden(std::move(*synthetic), 0x5Eu + GetParam(), 4);
}

INSTANTIATE_TEST_SUITE_P(Threads, IncrementalGoldenTest,
                         ::testing::Values(1, 8));

// A delta batch whose inserts blow past a u8 column's 255-code budget
// must widen the delta storage mid-batch and still publish
// bit-identically to a from-scratch encode. The mirror direction is
// checked too: deleting the fresh rows again must narrow the published
// width back, because PublishCanonical re-picks the width from the
// post-publish dictionary rather than keeping the widened one.
TEST(DeltaWidenTest, BatchOverflowingU8DictionaryPublishesExactly) {
  Result<Relation> base =
      datasets::SyntheticUniform(400, /*num_categorical=*/1,
                                 /*num_continuous=*/1, /*domain_size=*/120,
                                 /*seed=*/99);
  ASSERT_TRUE(base.ok());
  Relation relation = std::move(*base);

  EncodedRelation initial = EncodedRelation::Encode(relation);
  ASSERT_EQ(initial.column_width(0), CodeWidth::kU8);

  DeltaRelation delta(initial);
  RowBatch batch;
  for (int i = 0; i < 300; ++i) {
    batch.insert_rows.push_back({Value::Str("fresh_" + std::to_string(i)),
                                 Value::Real(static_cast<double>(i))});
  }
  Result<BatchEffects> effects = delta.ApplyBatch(batch);
  ASSERT_TRUE(effects.ok()) << effects.status().ToString();
  PublishResult widened = delta.PublishCanonical();

  relation = ApplyBatchReference(relation, batch);
  EncodedRelation scratch = EncodedRelation::Encode(relation);
  ExpectEncodingsIdentical(widened.encoded, scratch);
  EXPECT_EQ(scratch.column_width(0), CodeWidth::kU16);
  EXPECT_EQ(widened.encoded.column_width(0), CodeWidth::kU16);

  DeltaRelation shrink(widened.encoded);
  RowBatch undo;
  for (size_t r = 400; r < 700; ++r) undo.delete_rows.push_back(r);
  ASSERT_TRUE(shrink.ApplyBatch(undo).ok());
  PublishResult narrowed = shrink.PublishCanonical();

  relation = ApplyBatchReference(relation, undo);
  EncodedRelation rescratch = EncodedRelation::Encode(relation);
  ExpectEncodingsIdentical(narrowed.encoded, rescratch);
  EXPECT_EQ(narrowed.encoded.column_width(0), CodeWidth::kU8);
}

// Verdict reuse must actually happen (not just stay correct): a batch
// touching one column leaves most candidate verdicts reusable.
TEST(IncrementalReuseTest, ReusesVerdictsAcrossBatches) {
  Relation relation = datasets::Echocardiogram();
  DiscoveryOptions discovery;
  EncodedRelation initial = EncodedRelation::Encode(relation);
  DeltaRelation delta(initial);
  PliMaintenance plis(initial);
  DiscoveryMemo memo;
  {
    PliCache cache(&initial);
    ASSERT_TRUE(ProfileRelationIncremental(
                    &cache, discovery,
                    DeltaTouch::None(initial.num_columns()), &memo)
                    .ok());
  }
  ASSERT_GT(memo.size(), 0u);

  // Delete-only batch: OD/OFD `holds` verdicts survive, FD verdicts with
  // untouched LHS clusters survive.
  RowBatch batch;
  batch.delete_rows = {3, 17, 55};
  Result<BatchEffects> effects = delta.ApplyBatch(batch);
  ASSERT_TRUE(effects.ok());
  DeltaTouch touch = DeltaTouch::None(initial.num_columns());
  touch.Merge(*effects);
  plis.ApplyBatch(*effects);
  PublishResult publish = delta.PublishCanonical();
  plis.RenumberCodes(publish.code_remap);

  Result<Relation> decoded = publish.encoded.Decode();
  ASSERT_TRUE(decoded.ok());
  publish.encoded.set_source(&*decoded);
  std::vector<PositionListIndex> singles;
  for (size_t c = 0; c < initial.num_columns(); ++c) {
    singles.push_back(plis.ToPli(c));
  }
  PliCache cache(&publish.encoded, std::move(singles));
  Result<DiscoveryReport> report =
      ProfileRelationIncremental(&cache, discovery, touch, &memo);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  size_t reused = 0;
  for (const ClassSearchStats& s : report->search_stats) {
    reused += s.stats.verdicts_reused;
  }
  EXPECT_GT(reused, 0u);
}

}  // namespace
}  // namespace metaleak
