// Tests for src/vfl: PSI, Party, vertical logistic regression, the
// adversary simulator and the end-to-end scenario.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "data/datasets/echocardiogram.h"
#include "data/datasets/fintech.h"
#include "vfl/attack.h"
#include "vfl/logistic_regression.h"
#include "vfl/party.h"
#include "vfl/psi.h"
#include "vfl/scenario.h"
#include "vfl/vertical_split.h"

namespace metaleak {
namespace {

std::vector<Value> Ids(std::initializer_list<int64_t> xs) {
  std::vector<Value> out;
  for (int64_t x : xs) out.push_back(Value::Int(x));
  return out;
}

// --- PSI ----------------------------------------------------------------------

TEST(PsiTest, TokensAreDeterministicPerSalt) {
  std::vector<Value> ids = Ids({1, 2, 3});
  EXPECT_EQ(DerivePsiTokens(ids, 7), DerivePsiTokens(ids, 7));
  EXPECT_NE(DerivePsiTokens(ids, 7), DerivePsiTokens(ids, 8));
}

TEST(PsiTest, IntersectionFindsCommonIds) {
  auto psi = ComputePsi(Ids({1, 2, 3, 4}), Ids({3, 4, 5, 6}), 42);
  ASSERT_TRUE(psi.ok());
  ASSERT_EQ(psi->size(), 2u);
  // rows_a/rows_b point at the same entity pairwise.
  std::vector<Value> a = Ids({1, 2, 3, 4});
  std::vector<Value> b = Ids({3, 4, 5, 6});
  for (size_t i = 0; i < psi->size(); ++i) {
    EXPECT_EQ(a[psi->rows_a[i]], b[psi->rows_b[i]]);
  }
}

TEST(PsiTest, EmptyIntersection) {
  auto psi = ComputePsi(Ids({1, 2}), Ids({3, 4}), 42);
  ASSERT_TRUE(psi.ok());
  EXPECT_EQ(psi->size(), 0u);
}

TEST(PsiTest, DuplicatesKeepFirstOccurrence) {
  auto psi = ComputePsi(Ids({7, 7, 8}), Ids({7, 9, 7}), 42);
  ASSERT_TRUE(psi.ok());
  ASSERT_EQ(psi->size(), 1u);
  EXPECT_EQ(psi->rows_a[0], 0u);
  EXPECT_EQ(psi->rows_b[0], 0u);
}

TEST(PsiTest, OrderIsCanonicalAcrossPermutations) {
  // The intersection must come out in the same entity order regardless of
  // each party's row order (token order is derived data, not row order).
  auto psi1 = ComputePsi(Ids({1, 2, 3}), Ids({3, 2, 1}), 42);
  auto psi2 = ComputePsi(Ids({3, 1, 2}), Ids({2, 1, 3}), 42);
  ASSERT_TRUE(psi1.ok() && psi2.ok());
  std::vector<Value> a1 = Ids({1, 2, 3});
  std::vector<Value> a2 = Ids({3, 1, 2});
  std::vector<Value> order1;
  std::vector<Value> order2;
  for (size_t i = 0; i < psi1->size(); ++i) {
    order1.push_back(a1[psi1->rows_a[i]]);
  }
  for (size_t i = 0; i < psi2->size(); ++i) {
    order2.push_back(a2[psi2->rows_a[i]]);
  }
  EXPECT_EQ(order1, order2);
}

// --- Party ---------------------------------------------------------------------

TEST(PartyTest, KeyLookupAndMetadataExcludesKey) {
  datasets::FintechScenario s = datasets::Fintech();
  Party bank("bank", s.bank, "customer_id");
  ASSERT_TRUE(bank.KeyIndex().ok());
  auto metadata = bank.ShareMetadata(DisclosureLevel::kWithRfds);
  ASSERT_TRUE(metadata.ok());
  EXPECT_FALSE(metadata->schema.IndexOf("customer_id").has_value());
  EXPECT_TRUE(metadata->HasAllDomains());
  EXPECT_GT(metadata->dependencies.size(), 0u);
}

TEST(PartyTest, MissingKeyAttributeFails) {
  datasets::FintechScenario s = datasets::Fintech();
  Party broken("bank", s.bank, "no_such_column");
  EXPECT_FALSE(broken.KeyIndex().ok());
  EXPECT_FALSE(broken.ShareMetadata(DisclosureLevel::kNames).ok());
}

TEST(PartyTest, AlignedFeaturesSelectsAndDropsKey) {
  datasets::FintechScenario s = datasets::Fintech();
  Party bank("bank", s.bank, "customer_id");
  auto aligned = bank.AlignedFeatures({2, 0, 1});
  ASSERT_TRUE(aligned.ok());
  EXPECT_EQ(aligned->num_rows(), 3u);
  EXPECT_FALSE(aligned->schema().IndexOf("customer_id").has_value());
  EXPECT_FALSE(bank.AlignedFeatures({9999999}).ok());
}

// --- Feature encoding / logistic regression ------------------------------------

TEST(FeatureEncoderTest, OneHotAndStandardize) {
  Schema schema({{"cat", DataType::kString, SemanticType::kCategorical},
                 {"num", DataType::kDouble, SemanticType::kContinuous}});
  RelationBuilder b(schema);
  b.AddRow({Value::Str("a"), Value::Real(1.0)})
      .AddRow({Value::Str("b"), Value::Real(3.0)})
      .AddRow({Value::Str("a"), Value::Null()});
  Relation r = std::move(b.Finish()).ValueOrDie();
  auto encoder = FeatureEncoder::Fit(r);
  ASSERT_TRUE(encoder.ok());
  EXPECT_EQ(encoder->num_features(), 3u);  // 2 categories + 1 numeric
  auto x = encoder->Transform(r);
  ASSERT_TRUE(x.ok());
  EXPECT_EQ(x->num_rows, 3u);
  // Row 0: one-hot "a" -> (1, 0); numeric standardized.
  EXPECT_DOUBLE_EQ(x->At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(x->At(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(x->At(1, 1), 1.0);
  // Null numeric imputes to the mean -> standardized 0.
  EXPECT_DOUBLE_EQ(x->At(2, 2), 0.0);
}

TEST(FeatureEncoderTest, UnseenCategoryEncodesAllZero) {
  Schema schema({{"cat", DataType::kString, SemanticType::kCategorical}});
  RelationBuilder b(schema);
  b.AddRow({Value::Str("a")}).AddRow({Value::Str("b")});
  Relation train = std::move(b.Finish()).ValueOrDie();
  auto encoder = FeatureEncoder::Fit(train);
  ASSERT_TRUE(encoder.ok());

  RelationBuilder b2(schema);
  b2.AddRow({Value::Str("zzz")});
  Relation test = std::move(b2.Finish()).ValueOrDie();
  auto x = encoder->Transform(test);
  ASSERT_TRUE(x.ok());
  EXPECT_DOUBLE_EQ(x->At(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(x->At(0, 1), 0.0);
}

TEST(VflTrainingTest, LearnsSeparableData) {
  // y = 1 iff a-feature > 0; b contributes noise.
  Schema sa({{"x", DataType::kDouble, SemanticType::kContinuous}});
  Schema sb({{"z", DataType::kDouble, SemanticType::kContinuous}});
  RelationBuilder ba(sa);
  RelationBuilder bb(sb);
  std::vector<int> labels;
  for (int i = -20; i < 20; ++i) {
    double x = static_cast<double>(i) + 0.5;
    ba.AddRow({Value::Real(x)});
    bb.AddRow({Value::Real(static_cast<double>((i * 7) % 5))});
    labels.push_back(x > 0 ? 1 : 0);
  }
  Relation fa = std::move(ba.Finish()).ValueOrDie();
  Relation fb = std::move(bb.Finish()).ValueOrDie();
  VflTrainOptions options;
  options.epochs = 500;
  options.learning_rate = 0.5;
  auto model = TrainVerticalLogisticRegression(fa, fb, labels, options);
  ASSERT_TRUE(model.ok());
  auto acc = Accuracy(*model, fa, fb, labels);
  ASSERT_TRUE(acc.ok());
  EXPECT_GT(*acc, 0.95);
  // Loss decreases.
  ASSERT_GE(model->loss_history.size(), 2u);
  EXPECT_LT(model->loss_history.back(), model->loss_history.front());
}

TEST(VflTrainingTest, RejectsBadInput) {
  Schema s({{"x", DataType::kDouble, SemanticType::kContinuous}});
  RelationBuilder b1(s);
  b1.AddRow({Value::Real(1.0)});
  Relation fa = std::move(b1.Finish()).ValueOrDie();
  RelationBuilder b2(s);
  b2.AddRow({Value::Real(1.0)}).AddRow({Value::Real(2.0)});
  Relation fb = std::move(b2.Finish()).ValueOrDie();
  EXPECT_FALSE(
      TrainVerticalLogisticRegression(fa, fb, {1}).ok());  // row mismatch
  EXPECT_FALSE(TrainVerticalLogisticRegression(fa, fa, {2}).ok());  // label
  EXPECT_FALSE(TrainVerticalLogisticRegression(fa, fa, {}).ok());
}

// --- Attack simulator --------------------------------------------------------------

TEST(AttackTest, ReconstructionRequiresDomains) {
  datasets::FintechScenario s = datasets::Fintech();
  Party ecom("ecom", s.ecommerce, "customer_id");
  auto metadata = ecom.ShareMetadata(DisclosureLevel::kNames);
  ASSERT_TRUE(metadata.ok());
  auto aligned = ecom.AlignedFeatures({0, 1, 2});
  ASSERT_TRUE(aligned.ok());
  EXPECT_FALSE(SimulateReconstruction(*metadata, *aligned, 1).ok());
}

TEST(AttackTest, SweepCoversAllLevels) {
  datasets::FintechScenario s = datasets::Fintech();
  Party ecom("ecom", s.ecommerce, "customer_id");
  auto metadata = ecom.ShareMetadata(DisclosureLevel::kWithRfds);
  ASSERT_TRUE(metadata.ok());
  std::vector<size_t> rows;
  for (size_t r = 0; r < 50; ++r) rows.push_back(r);
  auto aligned = ecom.AlignedFeatures(rows);
  ASSERT_TRUE(aligned.ok());
  auto sweep = SweepDisclosureLevels(*metadata, *aligned, 3);
  ASSERT_TRUE(sweep.ok());
  ASSERT_EQ(sweep->size(), 4u);
  EXPECT_FALSE((*sweep)[0].reconstructed);  // names only
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_TRUE((*sweep)[i].reconstructed);
    EXPECT_EQ((*sweep)[i].leakage.attributes.size(),
              aligned->num_columns());
  }
}

// --- Vertical split ---------------------------------------------------------------

TEST(VerticalSplitTest, SplitsWithExistingKey) {
  datasets::FintechScenario s = datasets::Fintech();
  VerticalSplitOptions options;
  options.key_attribute = "customer_id";
  options.party_a_attributes = {"income", "credit_band"};
  auto split = SplitVertically(s.bank, options);
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  EXPECT_EQ(split->party_a.num_columns(), 3u);  // key + 2
  EXPECT_TRUE(split->party_a.schema().IndexOf("income").has_value());
  EXPECT_TRUE(split->party_b.schema().IndexOf("loan_default").has_value());
  EXPECT_FALSE(split->party_b.schema().IndexOf("income").has_value());
  // Both carry the key.
  EXPECT_TRUE(split->party_a.schema().IndexOf("customer_id").has_value());
  EXPECT_TRUE(split->party_b.schema().IndexOf("customer_id").has_value());
}

TEST(VerticalSplitTest, SynthesizesKeyWhenMissing) {
  Relation echo = datasets::Echocardiogram();
  VerticalSplitOptions options;
  options.party_a_attributes = {"survival", "still_alive", "alive_at_1"};
  auto split = SplitVertically(echo, options);
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  EXPECT_EQ(split->key_attribute, "row_id");
  EXPECT_TRUE(split->party_a.schema().IndexOf("row_id").has_value());
  EXPECT_EQ(split->party_a.num_rows(), echo.num_rows());
}

TEST(VerticalSplitTest, CoverageSubsamplesRows) {
  Relation echo = datasets::Echocardiogram();
  VerticalSplitOptions options;
  options.party_a_attributes = {"survival"};
  options.party_a_coverage = 0.5;
  options.party_b_coverage = 0.5;
  auto split = SplitVertically(echo, options);
  ASSERT_TRUE(split.ok());
  EXPECT_LT(split->party_a.num_rows(), echo.num_rows());
  EXPECT_GT(split->party_a.num_rows(), echo.num_rows() / 4);
}

TEST(VerticalSplitTest, RejectsBadConfigs) {
  Relation echo = datasets::Echocardiogram();
  VerticalSplitOptions key_listed;
  key_listed.key_attribute = "name";
  key_listed.party_a_attributes = {"name"};
  EXPECT_FALSE(SplitVertically(echo, key_listed).ok());

  VerticalSplitOptions unknown;
  unknown.party_a_attributes = {"no_such_attribute"};
  EXPECT_FALSE(SplitVertically(echo, unknown).ok());

  VerticalSplitOptions empty_side;
  empty_side.party_a_attributes = {};
  EXPECT_FALSE(SplitVertically(echo, empty_side).ok());
}

TEST(VerticalSplitTest, SplitEchocardiogramRunsFullScenario) {
  // Any dataset can become a VFL scenario: split the echocardiogram
  // replica and run the complete pipeline with alive_at_1 as the label.
  Relation echo = datasets::Echocardiogram();
  VerticalSplitOptions options;
  options.party_a_attributes = {"survival", "still_alive", "alive_at_1",
                                "age_at_heart_attack"};
  options.party_a_coverage = 0.95;
  options.party_b_coverage = 0.9;
  auto split = SplitVertically(echo, options);
  ASSERT_TRUE(split.ok());
  Party a("hospital_a", split->party_a, split->key_attribute);
  Party b("hospital_b", split->party_b, split->key_attribute);
  ScenarioOptions scenario;
  scenario.label_attribute = "alive_at_1";
  scenario.train.epochs = 60;
  auto outcome = RunScenario(a, b, scenario);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_GT(outcome->intersection_size, 80u);
  EXPECT_GT(outcome->joint_accuracy, 0.5);
  EXPECT_EQ(outcome->leakage_by_level.size(), 4u);
}

// --- End-to-end scenario --------------------------------------------------------------

TEST(ScenarioTest, FintechEndToEnd) {
  datasets::FintechScenario s = datasets::Fintech();
  Party bank("bank", s.bank, "customer_id");
  Party ecom("ecom", s.ecommerce, "customer_id");
  ScenarioOptions options;
  options.train.epochs = 120;
  auto outcome = RunScenario(bank, ecom, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_GT(outcome->intersection_size, 200u);
  EXPECT_GT(outcome->joint_accuracy, 0.5);
  // Federation helps: the joint model should beat (or match) solo A.
  EXPECT_GE(outcome->joint_accuracy,
            outcome->party_a_only_accuracy - 0.02);
  ASSERT_EQ(outcome->leakage_by_level.size(), 4u);
}

TEST(ScenarioTest, FdLevelLeaksNoMoreThanDomains) {
  // The paper's conclusion at scenario level: disclosing FDs/RFDs on top
  // of domains does not increase categorical exact-match leakage beyond
  // noise.
  datasets::FintechScenario s = datasets::Fintech();
  Party bank("bank", s.bank, "customer_id");
  Party ecom("ecom", s.ecommerce, "customer_id");
  auto outcome = RunScenario(bank, ecom);
  ASSERT_TRUE(outcome.ok());
  const auto& levels = outcome->leakage_by_level;
  double domains_matches =
      static_cast<double>(levels[1].leakage.TotalCategoricalMatches());
  double rfds_matches =
      static_cast<double>(levels[3].leakage.TotalCategoricalMatches());
  // Binomial noise bound: a few standard deviations of sqrt(N).
  double slack =
      4.0 * std::sqrt(static_cast<double>(outcome->intersection_size));
  EXPECT_LE(rfds_matches, domains_matches + slack);
}

}  // namespace
}  // namespace metaleak
