// Golden parity for the snapshot/delta split: randomized insert/delete
// batches applied incrementally must be indistinguishable — bit for bit —
// from rebuilding everything from scratch on the post-batch rows.
//
// Per batch the test asserts four layers of the exactness chain:
//   1. DeltaRelation::PublishCanonical vs EncodedRelation::Encode —
//      dictionaries, code vectors, fingerprints.
//   2. PliMaintenance::ToPli vs PositionListIndex::FromCodes — the flat
//      CSR arrays.
//   3. ProfileRelationIncremental (witness reuse) vs ProfileRelation
//      from scratch — the serialized MetadataPackage.
//   4. Def 2.2/2.3 leakage: the analytical profile and a Monte-Carlo
//      experiment run over both encodings.
// The whole suite is parameterized over thread counts {1, 8}:
// revalidation and the sweeps must be thread-count invariant.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/macros.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/simd.h"
#include "data/code_column.h"
#include "data/delta_relation.h"
#include "data/datasets/echocardiogram.h"
#include "data/datasets/employee.h"
#include "data/datasets/synthetic.h"
#include "data/encoded_relation.h"
#include "discovery/discovery_engine.h"
#include "discovery/revalidate.h"
#include "discovery/rfd_discovery.h"
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
      // Value == cannot see the sign of a zero; the bits can.
      if (a.decode(code).is_double() && b.decode(code).is_double()) {
        EXPECT_EQ(std::bit_cast<uint64_t>(a.decode(code).AsDouble()),
                  std::bit_cast<uint64_t>(b.decode(code).AsDouble()))
            << "column " << c << " code " << code;
      }
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

      // 3. Discovery parity: witness revalidation vs full profile.
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

// Three-value columns: nearly every FD fails with a witness that most
// small batches leave alive, so the memo carries witnesses across
// rounds; the two continuous columns do the same for DD.
TEST_P(IncrementalGoldenTest, LowCardinalityWitnesses) {
  Result<Relation> synthetic =
      datasets::SyntheticUniform(3000, 4, 2, 3, 20261018);
  ASSERT_TRUE(synthetic.ok());
  RunGolden(std::move(*synthetic), 0x3Cu + GetParam(), 4);
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
// deleting three rows leaves both witness rows of most FD and DD
// failures alive, so those failures are reused.
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

// --- Witness reuse --------------------------------------------------------

// One relation carried through the incremental pipeline: its delta, its
// maintained PLIs, the verdict memo, and the rows a from-scratch rebuild
// sees. Step() applies a window of batches (one publish, one profile).
class WindowRun {
 public:
  WindowRun(Relation relation, DiscoveryOptions options)
      : relation_(std::move(relation)),
        options_(std::move(options)),
        encoded_(std::make_unique<EncodedRelation>(
            EncodedRelation::Encode(relation_))),
        delta_(*encoded_),
        plis_(*encoded_) {
    PliCache cache(encoded_.get());
    Result<DiscoveryReport> warm = ProfileRelationIncremental(
        &cache, options_, DeltaTouch::None(relation_.num_columns()), &memo_);
    EXPECT_TRUE(warm.ok()) << warm.status().ToString();
  }

  // Applies `batches` in order, publishes once and profiles the window
  // through the memo. Returns the incremental report; full() is the
  // from-scratch profile of the same rows.
  Result<DiscoveryReport> Step(const std::vector<RowBatch>& batches) {
    touch_ = DeltaTouch::None(relation_.num_columns());
    for (const RowBatch& batch : batches) {
      METALEAK_ASSIGN_OR_RETURN(BatchEffects effects,
                                delta_.ApplyBatch(batch));
      touch_.Merge(effects);
      plis_.ApplyBatch(effects);
      relation_ = ApplyBatchReference(relation_, batch);
    }
    PublishResult publish = delta_.PublishCanonical();
    plis_.RenumberCodes(publish.code_remap);
    encoded_ = std::make_unique<EncodedRelation>(std::move(publish.encoded));
    encoded_->set_source(&relation_);
    std::vector<PositionListIndex> singles;
    for (size_t c = 0; c < relation_.num_columns(); ++c) {
      singles.push_back(plis_.ToPli(c));
    }
    PliCache cache(encoded_.get(), std::move(singles));
    return ProfileRelationIncremental(&cache, options_, touch_, &memo_);
  }

  Result<DiscoveryReport> Full() const {
    return ProfileRelation(relation_, options_);
  }

  const Relation& relation() const { return relation_; }
  const EncodedRelation& encoded() const { return *encoded_; }
  const DeltaTouch& touch() const { return touch_; }
  DiscoveryMemo& memo() { return memo_; }

 private:
  Relation relation_;
  DiscoveryOptions options_;
  std::unique_ptr<EncodedRelation> encoded_;
  DeltaRelation delta_;
  PliMaintenance plis_;
  DiscoveryMemo memo_;
  DeltaTouch touch_;
};

const LatticeSearchStats& SearchStats(const DiscoveryReport& report,
                                      const std::string& search) {
  for (const ClassSearchStats& s : report.search_stats) {
    if (s.search == search) return s.stats;
  }
  ADD_FAILURE() << "no " << search << " search";
  static const LatticeSearchStats kNone;
  return kNone;
}

bool HasDependency(const DependencySet& deps, DependencyKind kind,
                   AttributeSet lhs, size_t rhs) {
  for (const Dependency& d : deps) {
    if (d.kind == kind && d.lhs == lhs && d.rhs == rhs) return true;
  }
  return false;
}

// Steps `run` and expects the incremental report to serialize like the
// from-scratch profile; returns both.
std::pair<DiscoveryReport, DiscoveryReport> StepAndCompare(
    WindowRun* run, const std::vector<RowBatch>& batches) {
  Result<DiscoveryReport> incremental = run->Step(batches);
  EXPECT_TRUE(incremental.ok()) << incremental.status().ToString();
  Result<DiscoveryReport> full = run->Full();
  EXPECT_TRUE(full.ok()) << full.status().ToString();
  if (!incremental.ok() || !full.ok()) return {};
  EXPECT_EQ(incremental->metadata.Serialize(), full->metadata.Serialize());
  return {std::move(*incremental), std::move(*full)};
}

// Every (LHS, RHS) candidate key up to `max_lhs` LHS attributes.
std::vector<std::pair<AttributeSet, size_t>> CandidateKeys(size_t m,
                                                           size_t max_lhs) {
  std::vector<std::pair<AttributeSet, size_t>> keys;
  for (uint64_t mask = 0; mask < (uint64_t{1} << m); ++mask) {
    AttributeSet lhs;
    for (size_t a = 0; a < m; ++a) {
      if ((mask >> a) & 1) lhs = lhs.With(a);
    }
    if (lhs.size() > max_lhs) continue;
    for (size_t rhs = 0; rhs < m; ++rhs) {
      if (!lhs.Contains(rhs)) keys.emplace_back(lhs, rhs);
    }
  }
  return keys;
}

Relation IntRelation(const std::vector<std::string>& names,
                     const std::vector<std::vector<int64_t>>& rows) {
  std::vector<Attribute> attributes;
  for (const std::string& name : names) {
    attributes.push_back({name, DataType::kInt64, SemanticType::kCategorical});
  }
  Relation relation = Relation::Empty(Schema(attributes));
  for (const std::vector<int64_t>& row : rows) {
    std::vector<Value> cells;
    for (int64_t v : row) cells.push_back(Value::Int(v));
    EXPECT_TRUE(relation.AppendRow(cells).ok());
  }
  return relation;
}

Relation RealRelation(const std::vector<std::pair<double, double>>& rows) {
  Relation relation = Relation::Empty(
      Schema({{"x", DataType::kDouble, SemanticType::kContinuous},
              {"y", DataType::kDouble, SemanticType::kContinuous}}));
  for (auto [x, y] : rows) {
    EXPECT_TRUE(relation.AppendRow({Value::Real(x), Value::Real(y)}).ok());
  }
  return relation;
}

DiscoveryOptions FdOnly() {
  DiscoveryOptions options;
  options.discover_ods = false;
  options.discover_ofds = false;
  options.discover_nds = false;
  options.discover_dds = false;
  return options;
}

DiscoveryOptions DdOnly() {
  DiscoveryOptions options;
  options.discover_fds = false;
  options.discover_ods = false;
  options.discover_ofds = false;
  options.discover_nds = false;
  return options;
}

// x -> a fails only through row 12 (x = 2, a = 99 where every other x = 2
// row has a = 20), so x -> a's witness is (2, 12). Deleting row 12 makes
// the FD hold; every other failure keeps its witness and is reused.
TEST(WitnessReuseTest, DeletingTheLastViolatingRowRevealsTheFd) {
  std::vector<std::vector<int64_t>> rows;
  for (int64_t r = 0; r < 30; ++r) {
    rows.push_back({r % 5, r == 12 ? 99 : 10 * (r % 5), (r * 7) % 4});
  }
  WindowRun run(IntRelation({"x", "a", "n"}, rows), FdOnly());
  const CandidateValidator::Verdict* before =
      run.memo().fd.Find(AttributeSet::Single(0), 1);
  ASSERT_NE(before, nullptr);
  ASSERT_FALSE(before->holds);
  ASSERT_TRUE(before->witness.has_value());
  EXPECT_EQ(before->witness->first, 2u);
  EXPECT_EQ(before->witness->second, 12u);

  RowBatch batch;
  batch.delete_rows = {12};
  auto [incremental, full] = StepAndCompare(&run, {batch});
  EXPECT_TRUE(HasDependency(full.metadata.dependencies,
                            DependencyKind::kFunctional,
                            AttributeSet::Single(0), 1));
  EXPECT_TRUE(HasDependency(incremental.metadata.dependencies,
                            DependencyKind::kFunctional,
                            AttributeSet::Single(0), 1));
  EXPECT_GT(SearchStats(incremental, "FD/AFD").verdicts_reused, 0u);
}

// x -> y fails at first because two x = 5 rows differ by 10 on y, over
// the bound 0.5 * range(y) = 5. Inserting a row far out on both axes
// widens range(y) to 25, so the bound 12.5 clears the witness's gap and
// the DD must be validated again, where it now holds.
TEST(WitnessReuseTest, WideningTheRhsRangeRevalidatesTheDd) {
  std::vector<std::pair<double, double>> rows;
  for (int x = 0; x < 10; ++x) rows.emplace_back(x, 0.0);
  rows.emplace_back(5.0, 10.0);
  WindowRun run(RealRelation(rows), DdOnly());
  const CandidateValidator::Verdict* before =
      run.memo().dd.Find(AttributeSet::Single(0), 1);
  ASSERT_NE(before, nullptr);
  ASSERT_FALSE(before->holds);
  ASSERT_TRUE(before->witness.has_value());
  EXPECT_EQ(before->witness->first, 5u);
  EXPECT_EQ(before->witness->second, 10u);

  RowBatch batch;
  batch.insert_rows.push_back({Value::Real(-50.0), Value::Real(25.0)});
  auto [incremental, full] = StepAndCompare(&run, {batch});
  EXPECT_TRUE(HasDependency(full.metadata.dependencies,
                            DependencyKind::kDifferential,
                            AttributeSet::Single(0), 1));
}

// x -> y fails at first: epsilon is 0.05 * range(x) = 15 (an outlier at
// x = 300 stretches the range), and the x = 3 and x = 6 rows differ by
// 100 on y. Deleting the outlier shrinks epsilon to 1.5, below the
// witness's lhs gap of 3, so the DD must be validated again; with rows
// 3 apart on x it now holds.
TEST(WitnessReuseTest, NarrowingTheLhsRangeRevalidatesTheDd) {
  std::vector<std::pair<double, double>> rows;
  for (int k = 0; k <= 10; ++k) rows.emplace_back(3.0 * k, k == 2 ? 100.0 : 0.0);
  rows.emplace_back(300.0, 0.0);
  WindowRun run(RealRelation(rows), DdOnly());
  const CandidateValidator::Verdict* before =
      run.memo().dd.Find(AttributeSet::Single(0), 1);
  ASSERT_NE(before, nullptr);
  ASSERT_FALSE(before->holds);
  ASSERT_TRUE(before->witness.has_value());
  EXPECT_EQ(before->witness->first, 1u);
  EXPECT_EQ(before->witness->second, 2u);

  RowBatch batch;
  batch.delete_rows = {11};
  auto [incremental, full] = StepAndCompare(&run, {batch});
  EXPECT_TRUE(HasDependency(full.metadata.dependencies,
                            DependencyKind::kDifferential,
                            AttributeSet::Single(0), 1));
}

// AFD mode: x -> a fails with g3 = 3/40 (three a = 77 rows in the x = 1
// cluster) and its witness (1, 13). Deleting rows 5 and 9 leaves the
// witness alive but drops g3 to 1/38, under the 0.05 threshold, so the
// failure turns into an AFD. A failure is never reused in this mode.
TEST(WitnessReuseTest, AfdModeNeverReusesAFailure) {
  std::vector<std::vector<int64_t>> rows;
  for (int64_t r = 0; r < 40; ++r) {
    const bool odd_one = r == 1 || r == 5 || r == 9;
    rows.push_back({r % 4, odd_one ? 77 : 10 * (r % 4), r % 3});
  }
  DiscoveryOptions options = FdOnly();
  options.discover_afds = true;
  WindowRun run(IntRelation({"x", "a", "n"}, rows), options);
  const CandidateValidator::Verdict* before =
      run.memo().fd.Find(AttributeSet::Single(0), 1);
  ASSERT_NE(before, nullptr);
  ASSERT_FALSE(before->holds);
  ASSERT_FALSE(before->emit.has_value());
  ASSERT_TRUE(before->witness.has_value());

  RowBatch batch;
  batch.delete_rows = {5, 9};
  auto [incremental, full] = StepAndCompare(&run, {batch});
  EXPECT_TRUE(HasDependency(full.metadata.dependencies,
                            DependencyKind::kApproximateFunctional,
                            AttributeSet::Single(0), 1));
  EXPECT_EQ(SearchStats(incremental, "FD/AFD").verdicts_reused, 0u);
}

// `base` with its row number prepended as a unique int64 column "id".
Relation WithIdColumn(const Relation& base) {
  std::vector<Attribute> attributes = {
      {"id", DataType::kInt64, SemanticType::kCategorical}};
  for (size_t c = 0; c < base.num_columns(); ++c) {
    attributes.push_back(base.schema().attribute(c));
  }
  Relation relation = Relation::Empty(Schema(attributes));
  for (size_t r = 0; r < base.num_rows(); ++r) {
    std::vector<Value> row = {Value::Int(static_cast<int64_t>(r))};
    for (const Value& v : base.Row(r)) row.push_back(v);
    EXPECT_TRUE(relation.AppendRow(row).ok());
  }
  return relation;
}

// Two batches in one window: RemapRow must follow each surviving row to
// its final id (rows carry a unique id in column 0), and every witness
// the memo records afterwards must still prove its failure on the new
// rows.
TEST(WitnessReuseTest, TwoBatchWindowRemapsRows) {
  Result<Relation> base = datasets::SyntheticUniform(2000, 4, 2, 6, 4242);
  ASSERT_TRUE(base.ok());
  Relation relation = WithIdColumn(*base);
  DiscoveryOptions options;
  options.tane.max_lhs_size = 2;
  WindowRun run(relation, options);

  Rng rng(77);
  std::vector<RowBatch> window(2);
  window[0].delete_rows = rng.SampleWithoutReplacement(2000, 40);
  for (size_t k = 0; k < 25; ++k) {
    std::vector<Value> row = relation.Row(rng.UniformIndex(2000));
    row[0] = Value::Int(static_cast<int64_t>(5000 + k));
    window[0].insert_rows.push_back(row);
  }
  // 1960 rows survive the first batch; its inserts follow them.
  window[1].delete_rows = rng.SampleWithoutReplacement(1960, 29);
  window[1].delete_rows.push_back(1970);  // a row the first batch inserted
  auto [incremental, full] = StepAndCompare(&run, window);

  // Row ids against the id column of the rows a rebuild sees.
  std::vector<std::optional<size_t>> final_id(2000);
  const std::vector<Value>& ids = run.relation().column(0);
  for (size_t r = 0; r < ids.size(); ++r) {
    if (ids[r].AsInt() < 2000) final_id[ids[r].AsInt()] = r;
  }
  size_t survivors = 0;
  for (uint32_t r = 0; r < 2000; ++r) {
    std::optional<PositionListIndex::Row> mapped = run.touch().RemapRow(r);
    ASSERT_EQ(mapped.has_value(), final_id[r].has_value()) << "row " << r;
    if (!mapped.has_value()) continue;
    EXPECT_EQ(*mapped, *final_id[r]) << "row " << r;
    ++survivors;
  }
  EXPECT_EQ(survivors, 2000u - 40u - 29u);

  const EncodedRelation& now = run.encoded();
  size_t witnesses = 0;
  for (auto [lhs, rhs] : CandidateKeys(now.num_columns(), 2)) {
    const CandidateValidator::Verdict* v = run.memo().fd.Find(lhs, rhs);
    if (v == nullptr || !v->witness.has_value()) continue;
    ++witnesses;
    const auto [a, b] = *v->witness;
    for (size_t c : lhs.ToIndices()) {
      EXPECT_EQ(now.code_at(a, c), now.code_at(b, c));
    }
    EXPECT_NE(now.code_at(a, rhs), now.code_at(b, rhs));
  }
  EXPECT_GT(witnesses, 0u);
  EXPECT_GT(SearchStats(incremental, "FD/AFD").verdicts_reused, 0u);
}

// One window's witness-reuse counts against the prior verdicts.
struct WitnessCounts {
  size_t fd_failures = 0;  // prior FD failures naming a witness
  size_t fd_expected = 0;  // those whose two witness rows survive
  size_t dd_expected = 0;  // prior DD failures whose rows survive and
                           // still violate at the new ranges
};

// Steps `run` (whose FD search reaches two LHS attributes) through
// `batches` and expects revalidation to reuse exactly the prior FD and DD
// failures whose witness rows survive the window and still violate, to
// validate every other FD and DD candidate again, and to reuse no OD, OFD
// or ND verdict. The report must serialize like a rebuild and visit the
// same lattice nodes.
WitnessCounts ExpectOnlySurvivingWitnessesReused(
    WindowRun* run, const std::vector<RowBatch>& batches) {
  const std::vector<std::pair<AttributeSet, size_t>> keys =
      CandidateKeys(run->relation().num_columns(), 2);
  // Snapshot the prior verdicts before the step swaps the memo.
  std::vector<std::optional<CandidateValidator::Verdict>> prior_fd;
  std::vector<std::optional<CandidateValidator::Verdict>> prior_dd;
  for (auto [lhs, rhs] : keys) {
    const CandidateValidator::Verdict* fd = run->memo().fd.Find(lhs, rhs);
    const CandidateValidator::Verdict* dd = run->memo().dd.Find(lhs, rhs);
    prior_fd.push_back(fd != nullptr ? std::optional(*fd) : std::nullopt);
    prior_dd.push_back(dd != nullptr ? std::optional(*dd) : std::nullopt);
  }
  auto [incremental, full] = StepAndCompare(run, batches);

  const EncodedRelation& now = run->encoded();
  auto numeric = [&](size_t c, uint32_t row) {
    return now.dictionary(c).decode(now.code_at(row, c)).AsNumeric();
  };
  auto range = [&](size_t c) {
    Result<Domain> d = now.DomainOf(c);
    EXPECT_TRUE(d.ok());
    return d->range();
  };
  WitnessCounts counts;
  size_t fd_candidates = 0;
  size_t dd_candidates = 0;
  for (size_t k = 0; k < keys.size(); ++k) {
    auto [lhs, rhs] = keys[k];
    if (run->memo().fd.Find(lhs, rhs) != nullptr) {
      ++fd_candidates;
      const std::optional<CandidateValidator::Verdict>& p = prior_fd[k];
      if (p.has_value() && !p->holds && p->witness.has_value()) {
        ++counts.fd_failures;
        if (run->touch().RemapRow(p->witness->first).has_value() &&
            run->touch().RemapRow(p->witness->second).has_value()) {
          ++counts.fd_expected;
        }
      }
    }
    if (run->memo().dd.Find(lhs, rhs) != nullptr) {
      ++dd_candidates;
      const std::optional<CandidateValidator::Verdict>& p = prior_dd[k];
      if (!p.has_value() || p->holds || !p->witness.has_value()) continue;
      std::optional<uint32_t> a = run->touch().RemapRow(p->witness->first);
      std::optional<uint32_t> b = run->touch().RemapRow(p->witness->second);
      if (!a.has_value() || !b.has_value()) continue;
      const size_t x = lhs.ToIndices()[0];
      const double eps = DdDiscoveryOptions{}.epsilon_fraction * range(x);
      const double bound = DdDiscoveryOptions{}.max_delta_fraction * range(rhs);
      if (!(std::fabs(numeric(x, *b) - numeric(x, *a)) > eps) &&
          std::fabs(numeric(rhs, *b) - numeric(rhs, *a)) > bound) {
        ++counts.dd_expected;
      }
    }
  }
  const LatticeSearchStats& fd = SearchStats(incremental, "FD/AFD");
  const LatticeSearchStats& dd = SearchStats(incremental, "DD");
  EXPECT_EQ(fd.verdicts_reused, counts.fd_expected);
  EXPECT_EQ(fd.validator_invocations, fd_candidates - counts.fd_expected);
  EXPECT_EQ(dd.verdicts_reused, counts.dd_expected);
  EXPECT_EQ(dd.validator_invocations, dd_candidates - counts.dd_expected);
  for (const char* search : {"OD", "OFD", "ND"}) {
    EXPECT_EQ(SearchStats(incremental, search).verdicts_reused, 0u)
        << search;
  }
  EXPECT_EQ(incremental.TotalSearchStats().nodes_visited,
            full.TotalSearchStats().nodes_visited);
  return counts;
}

// The churn shape at 1/10 size: a 16-delete/16-insert batch. The only FD
// verdicts reused are failures whose witness rows both survived, and the
// only DD verdicts reused are failures whose surviving witness still
// violates at the new ranges. One delete hits a witness on purpose.
TEST(WitnessReuseTest, ChurnBatchReusesExactlyTheSurvivingWitnesses) {
  Result<Relation> relation = datasets::SyntheticUniform(20000, 10, 2, 48, 21);
  Result<Relation> fresh = datasets::SyntheticUniform(16, 10, 2, 48, 22);
  ASSERT_TRUE(relation.ok() && fresh.ok());
  DiscoveryOptions options;
  options.tane.max_lhs_size = 2;
  WindowRun run(*relation, options);
  const CandidateValidator::Verdict* hit =
      run.memo().fd.Find(AttributeSet::Single(1), 0);
  ASSERT_NE(hit, nullptr);
  ASSERT_TRUE(hit->witness.has_value());

  RowBatch batch;
  Rng rng(16);
  batch.delete_rows = {hit->witness->second};
  while (batch.delete_rows.size() < 16) {
    size_t r = rng.UniformIndex(20000);
    if (std::find(batch.delete_rows.begin(), batch.delete_rows.end(), r) ==
        batch.delete_rows.end()) {
      batch.delete_rows.push_back(r);
    }
  }
  for (size_t r = 0; r < 16; ++r) batch.insert_rows.push_back(fresh->Row(r));
  const WitnessCounts counts =
      ExpectOnlySurvivingWitnessesReused(&run, {batch});
  EXPECT_GT(counts.fd_expected, 0u);
  EXPECT_LT(counts.fd_expected, counts.fd_failures);  // the deleted witness
}

// Batch shapes that leave whole classes of verdicts unchanged: an
// insert-only batch keeps every order violation among the old rows, a
// delete-only batch keeps every order that held, and a mixed batch
// leaves the unique id column's clusters untouched (it has none), so
// every FD and ND with LHS {id} holds on the same partition. Even so,
// only witnessed FD and DD failures carry over.
TEST(WitnessReuseTest, EveryBatchShapeReusesOnlyWitnessedFailures) {
  Result<Relation> base = datasets::SyntheticUniform(2000, 4, 2, 6, 2929);
  ASSERT_TRUE(base.ok());
  Relation relation = WithIdColumn(*base);
  DiscoveryOptions options;
  options.tane.max_lhs_size = 2;
  WindowRun run(relation, options);

  Rng rng(31);
  int64_t next_id = 2000;
  // Copies of existing rows under fresh ids: every other column's
  // clusters grow.
  auto inserts = [&](RowBatch* batch, size_t count) {
    for (size_t k = 0; k < count; ++k) {
      std::vector<Value> row =
          run.relation().Row(rng.UniformIndex(run.relation().num_rows()));
      row[0] = Value::Int(next_id++);
      batch->insert_rows.push_back(std::move(row));
    }
  };
  RowBatch insert_only;
  inserts(&insert_only, 16);
  RowBatch delete_only;
  delete_only.delete_rows = rng.SampleWithoutReplacement(2016, 16);
  RowBatch mixed;
  mixed.delete_rows = rng.SampleWithoutReplacement(2000, 16);
  inserts(&mixed, 16);
  for (const RowBatch* batch : {&insert_only, &delete_only, &mixed}) {
    SCOPED_TRACE(testing::Message()
                 << batch->delete_rows.size() << " deletes, "
                 << batch->insert_rows.size() << " inserts");
    const WitnessCounts counts =
        ExpectOnlySurvivingWitnessesReused(&run, {*batch});
    EXPECT_GT(counts.fd_expected, 0u);
    // The id column stays unique: no batch touches its clusters.
    EXPECT_EQ(run.encoded().dictionary(0).num_distinct(),
              run.encoded().num_rows());
  }
}

// The FD and DD verdicts of every candidate up to two LHS attributes, as
// text: holds, and the witness rows of a failure.
std::vector<std::string> WitnessDump(const Relation& relation) {
  DiscoveryOptions options;
  options.discover_ods = false;
  options.discover_ofds = false;
  options.discover_nds = false;
  options.tane.max_lhs_size = 2;
  options.dd.max_lhs = 2;
  EncodedRelation encoded = EncodedRelation::Encode(relation);
  PliCache cache(&encoded);
  DiscoveryMemo memo;
  EXPECT_TRUE(ProfileRelationIncremental(
                  &cache, options, DeltaTouch::None(relation.num_columns()),
                  &memo)
                  .ok());
  std::vector<std::string> dump;
  for (auto [lhs, rhs] : CandidateKeys(relation.num_columns(), 2)) {
    for (const VerdictMemo* m : {&memo.fd, &memo.dd}) {
      const CandidateValidator::Verdict* v = m->Find(lhs, rhs);
      if (v == nullptr) continue;
      std::string line = (m == &memo.fd ? "fd " : "dd ") +
                         std::to_string(lhs.mask()) + "->" +
                         std::to_string(rhs) + (v->holds ? " holds" : " fails");
      if (v->witness.has_value()) {
        line += " " + std::to_string(v->witness->first) + "," +
                std::to_string(v->witness->second);
      }
      dump.push_back(line);
    }
  }
  return dump;
}

// The witness is canonical: the same rows at the scalar and the best SIMD
// dispatch level (Refines reads its probe table with plain loads, so the
// level must not matter), at pool sizes 1, 3 and 8, and at u8, u16 and
// u32 code widths.
TEST(WitnessParityTest, SameWitnessAtEveryDispatchPoolAndWidth) {
  Result<Relation> few = datasets::SyntheticUniform(12000, 5, 2, 3, 7);
  Result<Relation> wide = datasets::SyntheticUniform(4000, 4, 2, 300, 8);
  ASSERT_TRUE(few.ok() && wide.ok());
  Relation nulls = datasets::Echocardiogram();
  for (const Relation* relation : {&*few, &*wide, &nulls}) {
    SetSimdLevelOverride(SimdLevel::kScalar);
    SetGlobalThreadCount(1);
    const std::vector<std::string> ref = WitnessDump(*relation);
    size_t witnesses = 0;
    for (const std::string& line : ref) {
      witnesses += line.find(',') != std::string::npos ? 1 : 0;
    }
    EXPECT_GT(witnesses, 0u);
    for (SimdLevel simd : {SimdLevel::kScalar, SupportedSimdLevel()}) {
      for (size_t threads : {size_t{1}, size_t{3}, size_t{8}}) {
        for (std::optional<CodeWidth> floor :
             {std::optional<CodeWidth>{}, std::optional<CodeWidth>{CodeWidth::kU16},
              std::optional<CodeWidth>{CodeWidth::kU32}}) {
          if (floor.has_value()) {
            SetCodeWidthFloorOverride(*floor);
          } else {
            ClearCodeWidthFloorOverride();
          }
          SetSimdLevelOverride(simd);
          SetGlobalThreadCount(threads);
          EXPECT_EQ(WitnessDump(*relation), ref)
              << SimdLevelName(simd) << " threads " << threads << " floor "
              << (floor.has_value() ? static_cast<int>(*floor) : -1);
        }
      }
    }
  }
  ClearCodeWidthFloorOverride();
  ClearSimdLevelOverride();
  SetGlobalThreadCount(0);
}

// A failed Refines names the first violating cluster's first row and the
// first later row of that cluster whose class differs: the pair agrees on
// this partition and splits on the other.
TEST(RefinesWitnessTest, NamesTheFirstSplitPair) {
  Rng rng(64);
  size_t failures = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const size_t n = 2 + rng.UniformIndex(6000);
    const uint32_t ka = 1 + static_cast<uint32_t>(rng.UniformIndex(5));
    const uint32_t kb = 1 + static_cast<uint32_t>(rng.UniformIndex(5));
    std::vector<uint32_t> a(n);
    std::vector<uint32_t> b(n);
    const double noise = rng.UniformDouble(0.0, 0.01);
    for (size_t r = 0; r < n; ++r) {
      a[r] = static_cast<uint32_t>(rng.UniformIndex(ka));
      // b is mostly a function of a, so violations are rare and late.
      b[r] = rng.Bernoulli(noise) ? static_cast<uint32_t>(rng.UniformIndex(kb))
                                  : a[r] % kb;
    }
    const PositionListIndex pa = PositionListIndex::FromCodes(a, ka);
    const PositionListIndex pb = PositionListIndex::FromCodes(b, kb);
    // Rows share a class of pb iff their b codes are equal.
    std::optional<PositionListIndex::RowPair> expect;
    for (const auto cl : pa.clusters()) {
      for (size_t i = 1; i < cl.size() && !expect.has_value(); ++i) {
        if (b[cl[i]] != b[cl[0]]) {
          expect = PositionListIndex::RowPair{
              static_cast<PositionListIndex::Row>(cl[0]),
              static_cast<PositionListIndex::Row>(cl[i])};
        }
      }
      if (expect.has_value()) break;
    }
    PositionListIndex::RowPair witness;
    const bool refines = pa.Refines(pb, &witness);
    ASSERT_EQ(refines, !expect.has_value()) << "trial " << trial;
    if (refines) continue;
    ++failures;
    EXPECT_EQ(witness, *expect) << "trial " << trial;
    EXPECT_EQ(a[witness.first], a[witness.second]);
    EXPECT_NE(b[witness.first], b[witness.second]);
  }
  EXPECT_GT(failures, 30u);
}

}  // namespace
}  // namespace metaleak
