// Agreement of the OD/OFD validators with the sorted Value oracle
// (tests/reference/order_reference).
//
// The validators run one linear pass over the codes and rely on codes
// being order-preserving; the oracle sorts decoded Values. The suite
// compares them on seeded random relations that cover NULL rates 0, 0.2
// and 0.9, cardinalities on both sides of the u8/u16 and u16/u32 width
// boundaries, lhs ties, single-code and all-NULL columns, and planted
// strictly increasing, non-decreasing, plateau and decreasing maps, so
// both verdicts occur for both classes. LHSes of two and three
// attributes, which the validators fold into an order-preserving rank,
// are compared with the oracle's lexicographic tuple sort on planted
// lexicographic maps at every code-width floor. It also checks a
// snapshot published after an insert+delete batch against the replayed
// rows, and OD/OFD discovery on pool threads against the oracle's
// verdicts.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/random.h"
#include "data/code_column.h"
#include "data/datasets/synthetic.h"
#include "data/delta_relation.h"
#include "data/encoded_relation.h"
#include "data/relation.h"
#include "discovery/rfd_discovery.h"
#include "discovery/validators.h"
#include "metadata/dependency.h"
#include "reference/order_reference.h"
#include "service/audit_service.h"

namespace metaleak {
namespace {

// Columns of RandomOrderRelation. Each row draws one latent rank in
// [0, cardinality); every mapped column is a function of that rank.
enum Column : size_t {
  kBase,           // int64, increasing in the rank
  kStrict,         // string, zero-padded so it sorts like the rank
  kNonDecreasing,  // int64, random steps of 0 or 1 between ranks
  kPlateau,        // double, rank / 8: runs of equal values, signed zeros
  kDecreasing,     // double, -1.5 * rank: a function, order reversed
  kNoise,          // int64, independent, 1-6 values: lhs ties
  kWide,           // string, independent, `cardinality` values
  kConstant,       // int64, one value: a single-code column
  kAllNull,        // every cell NULL
  kNumColumns,
};

struct Shape {
  size_t rows;
  size_t cardinality;
  double null_rate;
};

std::string Padded(size_t v) {
  char buf[32];  // "v" and up to 20 digits fit: no truncation warning
  std::snprintf(buf, sizeof(buf), "v%07zu", v);
  return buf;
}

// A relation of `shape.rows` rows whose latent ranks cover all
// `shape.cardinality` values, with every cell except the all-NULL
// column's nulled independently at `shape.null_rate`.
Relation RandomOrderRelation(const Shape& shape, uint64_t seed) {
  Rng rng(seed);
  const size_t card = shape.cardinality;
  std::vector<size_t> rank(shape.rows);
  for (size_t r = 0; r < shape.rows; ++r) {
    rank[r] = r < card ? r : rng.UniformIndex(card);
  }
  rng.Shuffle(&rank);
  std::vector<int64_t> steps(card, 0);
  for (size_t k = 1; k < card; ++k) {
    steps[k] = steps[k - 1] + (rng.Bernoulli(0.5) ? 1 : 0);
  }
  const int64_t noise_values = 1 + static_cast<int64_t>(rng.UniformIndex(6));

  std::vector<std::vector<Value>> columns(kNumColumns);
  for (size_t r = 0; r < shape.rows; ++r) {
    const size_t k = rank[r];
    double plateau = static_cast<double>(k / 8) - 2.0;
    // -0.0 and +0.0 are one value: both must land on one code.
    if (plateau == 0.0 && r % 2 == 1) plateau = -0.0;
    std::vector<Value> row(kNumColumns);
    row[kBase] = Value::Int(3 * static_cast<int64_t>(k) - 1000);
    row[kStrict] = Value::Str(Padded(k));
    row[kNonDecreasing] = Value::Int(steps[k]);
    row[kPlateau] = Value::Real(plateau);
    row[kDecreasing] = Value::Real(-1.5 * static_cast<double>(k));
    row[kNoise] = Value::Int(rng.UniformInt(0, noise_values - 1));
    row[kWide] = Value::Str(Padded(rng.UniformIndex(card)));
    row[kConstant] = Value::Int(7);
    for (size_t c = 0; c < kNumColumns; ++c) {
      if (c == kAllNull || rng.Bernoulli(shape.null_rate)) {
        row[c] = Value::Null();
      }
      columns[c].push_back(std::move(row[c]));
    }
  }
  Schema schema({{"base", DataType::kInt64, SemanticType::kContinuous},
                 {"strict", DataType::kString, SemanticType::kCategorical},
                 {"nondecreasing", DataType::kInt64,
                  SemanticType::kContinuous},
                 {"plateau", DataType::kDouble, SemanticType::kContinuous},
                 {"decreasing", DataType::kDouble,
                  SemanticType::kContinuous},
                 {"noise", DataType::kInt64, SemanticType::kCategorical},
                 {"wide", DataType::kString, SemanticType::kCategorical},
                 {"constant", DataType::kInt64, SemanticType::kCategorical},
                 {"all_null", DataType::kInt64,
                  SemanticType::kCategorical}});
  return std::move(Relation::Make(schema, std::move(columns))).ValueOrDie();
}

// Verdicts seen so far, so the suite can require both outcomes.
struct Tally {
  size_t od_holds = 0;
  size_t od_fails = 0;
  size_t ofd_holds = 0;
  size_t ofd_fails = 0;
};

// Compares the encoded validators on one (lhs, rhs) pair with the oracle
// on `truth` (the same rows, as an encoding or as a Relation) and returns
// the (OD, OFD) verdicts.
template <typename Truth>
std::pair<bool, bool> ExpectAgrees(const EncodedRelation& encoded,
                                   const Truth& truth, size_t lhs,
                                   size_t rhs, Tally* tally) {
  const bool od = reference::ValidateOd(truth, lhs, rhs);
  const bool ofd = reference::ValidateOfd(truth, lhs, rhs);
  EXPECT_EQ(ValidateOd(encoded, lhs, rhs), od)
      << "OD " << lhs << " -> " << rhs;
  EXPECT_EQ(ValidateOfd(encoded, lhs, rhs), ofd)
      << "OFD " << lhs << " -> " << rhs;
  ++(od ? tally->od_holds : tally->od_fails);
  ++(ofd ? tally->ofd_holds : tally->ofd_fails);
  return {od, ofd};
}

TEST(OrderValidatorTest, RandomRelationsAgreeWithOracle) {
  std::vector<Shape> shapes;
  for (size_t card : {1, 2, 17, 254, 255, 256}) {
    for (double null_rate : {0.0, 0.2, 0.9}) {
      shapes.push_back({600, card, null_rate});
    }
  }
  uint64_t seed = 1;
  Tally tally;
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(testing::Message()
                 << "cardinality " << shape.cardinality << " null rate "
                 << shape.null_rate);
    const Relation relation = RandomOrderRelation(shape, seed++);
    const EncodedRelation encoded = EncodedRelation::Encode(relation);
    for (size_t x = 0; x < kNumColumns; ++x) {
      for (size_t y = 0; y < kNumColumns; ++y) {
        if (x == y) continue;
        const auto [od, ofd] = ExpectAgrees(encoded, encoded, x, y, &tally);
        if (x != kBase && y != kBase) continue;
        // The Relation overloads encode and run the same kernel; the
        // oracle's Relation overloads read the raw Values.
        EXPECT_EQ(ValidateOd(relation, x, y), od);
        EXPECT_EQ(ValidateOfd(relation, x, y), ofd);
        EXPECT_EQ(reference::ValidateOd(relation, x, y), od);
        EXPECT_EQ(reference::ValidateOfd(relation, x, y), ofd);
      }
    }
    // Planted maps hold whatever the NULL rate; the empty and
    // single-code columns hold vacuously or trivially.
    EXPECT_TRUE(ValidateOfd(encoded, kBase, kStrict));
    EXPECT_TRUE(ValidateOfd(encoded, kStrict, kBase));
    EXPECT_TRUE(ValidateOd(encoded, kBase, kNonDecreasing));
    EXPECT_TRUE(ValidateOd(encoded, kBase, kPlateau));
    EXPECT_TRUE(ValidateOd(encoded, kBase, kConstant));
    EXPECT_TRUE(ValidateOfd(encoded, kAllNull, kBase));
    EXPECT_TRUE(ValidateOfd(encoded, kBase, kAllNull));
    if (shape.null_rate == 0.0 && shape.cardinality >= 17) {
      // Every rank is present, so each rule is actually exercised.
      EXPECT_FALSE(ValidateOfd(encoded, kBase, kPlateau));
      EXPECT_FALSE(ValidateOfd(encoded, kBase, kConstant));
      EXPECT_FALSE(ValidateOd(encoded, kBase, kDecreasing));
      EXPECT_FALSE(ValidateOd(encoded, kPlateau, kBase));
      EXPECT_FALSE(ValidateOd(encoded, kNoise, kBase));
    }
  }
  EXPECT_GT(tally.od_holds, 0u);
  EXPECT_GT(tally.od_fails, 0u);
  EXPECT_GT(tally.ofd_holds, 0u);
  EXPECT_GT(tally.ofd_fails, 0u);
}

// Cardinalities on both sides of the u16/u32 boundary, so lhs and rhs
// widths pair up as u8 noise, u16 plateau and u16/u32 base and strict.
// Four pairs per relation keep the oracle's O(n log n) boxed sorts
// affordable under the sanitizers.
TEST(OrderValidatorTest, WideDictionariesAgreeWithOracle) {
  const std::vector<Shape> shapes = {{66000, 65534, 0.0},
                                     {66000, 65535, 0.0}};
  uint64_t seed = 100;
  Tally tally;
  std::set<CodeWidth> widths;
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(testing::Message()
                 << "cardinality " << shape.cardinality << " null rate "
                 << shape.null_rate);
    const EncodedRelation encoded =
        EncodedRelation::Encode(RandomOrderRelation(shape, seed++));
    for (size_t c = 0; c < kNumColumns; ++c) {
      widths.insert(encoded.column_width(c));
    }
    ExpectAgrees(encoded, encoded, kBase, kStrict, &tally);
    ExpectAgrees(encoded, encoded, kBase, kPlateau, &tally);
    ExpectAgrees(encoded, encoded, kBase, kNoise, &tally);
    ExpectAgrees(encoded, encoded, kNoise, kBase, &tally);
  }
  EXPECT_EQ(widths, (std::set<CodeWidth>{CodeWidth::kU8, CodeWidth::kU16,
                                         CodeWidth::kU32}));
  EXPECT_GT(tally.od_holds, 0u);
  EXPECT_GT(tally.od_fails, 0u);
  EXPECT_GT(tally.ofd_holds, 0u);
  EXPECT_GT(tally.ofd_fails, 0u);
}

// Columns of RandomTupleRelation: three LHS candidates of different
// types, then rhs columns defined on the (a, b) or (a, b, c) tuple.
enum TupleColumn : size_t {
  kA,            // int64 in [0, A): the most significant LHS attribute
  kB,            // string, zero-padded in [0, B)
  kC,            // double 0.75 * (k - 1) for k in [0, C), signed zeros
  kLex2,         // int64 a * B + b: strictly increasing in (a, b)
  kLex2Steps,    // int64, random steps of 0 or 1 over (a, b): ties
  kLex3,         // double, strictly increasing in (a, b, c)
  kMajor,        // int64 a: constant on (a, b) runs with equal a
  kReversed,     // int64 -(a * B + b): a function, order reversed
  kSwapped,      // int64 b * A + a: a function, the wrong significance
  kTupleNoise,   // int64, independent, 3 values
  kNumTupleColumns,
};

struct TupleShape {
  size_t rows;
  size_t a;
  size_t b;
  size_t c;
  double null_rate;
};

// A relation whose (a, b, c) tuples cover every combination once before
// repeating, shuffled, with every cell nulled at `shape.null_rate`.
Relation RandomTupleRelation(const TupleShape& shape, uint64_t seed) {
  Rng rng(seed);
  const size_t combos = shape.a * shape.b * shape.c;
  std::vector<size_t> combo(shape.rows);
  for (size_t r = 0; r < shape.rows; ++r) {
    combo[r] = r < combos ? r : rng.UniformIndex(combos);
  }
  rng.Shuffle(&combo);
  std::vector<int64_t> steps(shape.a * shape.b, 0);
  for (size_t k = 1; k < steps.size(); ++k) {
    steps[k] = steps[k - 1] + (rng.Bernoulli(0.5) ? 1 : 0);
  }
  std::vector<std::vector<Value>> columns(kNumTupleColumns);
  for (size_t r = 0; r < shape.rows; ++r) {
    const size_t a = combo[r] / (shape.b * shape.c);
    const size_t b = combo[r] / shape.c % shape.b;
    const size_t c = combo[r] % shape.c;
    const size_t ab = a * shape.b + b;
    double cv = 0.75 * (static_cast<double>(c) - 1.0);
    // -0.0 and +0.0 are one value: both must land on one code.
    if (cv == 0.0 && r % 2 == 1) cv = -0.0;
    std::vector<Value> row(kNumTupleColumns);
    row[kA] = Value::Int(static_cast<int64_t>(a));
    row[kB] = Value::Str(Padded(b));
    row[kC] = Value::Real(cv);
    row[kLex2] = Value::Int(static_cast<int64_t>(ab));
    row[kLex2Steps] = Value::Int(steps[ab]);
    row[kLex3] = Value::Real(0.5 * static_cast<double>(ab * shape.c + c));
    row[kMajor] = Value::Int(static_cast<int64_t>(a));
    row[kReversed] = Value::Int(-static_cast<int64_t>(ab));
    row[kSwapped] = Value::Int(static_cast<int64_t>(b * shape.a + a));
    row[kTupleNoise] = Value::Int(rng.UniformInt(0, 2));
    for (size_t k = 0; k < kNumTupleColumns; ++k) {
      if (rng.Bernoulli(shape.null_rate)) row[k] = Value::Null();
      columns[k].push_back(std::move(row[k]));
    }
  }
  Schema schema({{"a", DataType::kInt64, SemanticType::kCategorical},
                 {"b", DataType::kString, SemanticType::kCategorical},
                 {"c", DataType::kDouble, SemanticType::kContinuous},
                 {"lex2", DataType::kInt64, SemanticType::kContinuous},
                 {"lex2_steps", DataType::kInt64, SemanticType::kContinuous},
                 {"lex3", DataType::kDouble, SemanticType::kContinuous},
                 {"major", DataType::kInt64, SemanticType::kContinuous},
                 {"reversed", DataType::kInt64, SemanticType::kContinuous},
                 {"swapped", DataType::kInt64, SemanticType::kContinuous},
                 {"noise", DataType::kInt64, SemanticType::kCategorical}});
  return std::move(Relation::Make(schema, std::move(columns))).ValueOrDie();
}

// Multi-attribute LHSes against the oracle's lexicographic tuple sort:
// widths 2 and 3 over every rhs outside the LHS, NULL rates 0, 0.2 and
// 0.9, and the u8, u16 and u32 code-width floors. Planted maps give LHS
// ties with equal rhs (lex2 on (a, b)) and unequal rhs (lex3 on (a, b)),
// and the rank must follow value order, not first occurrence: swapped
// and reversed are functions of (a, b) that no order preserves.
TEST(OrderValidatorTest, MultiAttributeLhsAgreesWithOracle) {
  const std::vector<TupleShape> shapes = {
      {600, 4, 6, 3, 0.0}, {600, 4, 6, 3, 0.2}, {600, 4, 6, 3, 0.9},
      {4000, 3, 300, 4, 0.0}, {4000, 3, 300, 4, 0.2}};
  const std::vector<AttributeSet> lhses = {
      AttributeSet::Of({kA, kB}), AttributeSet::Of({kA, kC}),
      AttributeSet::Of({kB, kC}), AttributeSet::Of({kA, kB, kC})};
  uint64_t seed = 700;
  Tally tally;
  for (const TupleShape& shape : shapes) {
    const Relation relation = RandomTupleRelation(shape, seed++);
    for (std::optional<CodeWidth> floor :
         {std::optional<CodeWidth>{}, std::optional<CodeWidth>{CodeWidth::kU16},
          std::optional<CodeWidth>{CodeWidth::kU32}}) {
      SCOPED_TRACE(testing::Message()
                   << shape.rows << " rows, b " << shape.b << ", null rate "
                   << shape.null_rate << ", floor "
                   << (floor.has_value() ? static_cast<int>(*floor) : -1));
      if (floor.has_value()) SetCodeWidthFloorOverride(*floor);
      const EncodedRelation encoded = EncodedRelation::Encode(relation);
      ClearCodeWidthFloorOverride();
      for (AttributeSet lhs : lhses) {
        for (size_t y = 0; y < kNumTupleColumns; ++y) {
          if (lhs.Contains(y)) continue;
          const bool od = reference::ValidateOd(encoded, lhs, y);
          const bool ofd = reference::ValidateOfd(encoded, lhs, y);
          EXPECT_EQ(ValidateOd(encoded, lhs, y), od)
              << "OD " << lhs.ToString() << " -> " << y;
          EXPECT_EQ(ValidateOfd(encoded, lhs, y), ofd)
              << "OFD " << lhs.ToString() << " -> " << y;
          ++(od ? tally.od_holds : tally.od_fails);
          ++(ofd ? tally.ofd_holds : tally.ofd_fails);
        }
      }
      if (shape.null_rate > 0.0) continue;
      // Every tuple is present, so each rule is actually exercised.
      const AttributeSet ab = AttributeSet::Of({kA, kB});
      const AttributeSet abc = AttributeSet::Of({kA, kB, kC});
      EXPECT_TRUE(ValidateOfd(encoded, ab, kLex2));
      EXPECT_TRUE(ValidateOd(encoded, ab, kLex2Steps));
      EXPECT_TRUE(ValidateOd(encoded, ab, kMajor));
      EXPECT_FALSE(ValidateOfd(encoded, ab, kMajor));
      EXPECT_FALSE(ValidateOd(encoded, ab, kLex3));
      EXPECT_TRUE(ValidateOfd(encoded, abc, kLex3));
      EXPECT_TRUE(ValidateOd(encoded, abc, kLex2));
      EXPECT_FALSE(ValidateOfd(encoded, abc, kLex2));
      EXPECT_FALSE(ValidateOd(encoded, ab, kReversed));
      EXPECT_FALSE(ValidateOd(encoded, ab, kSwapped));
      EXPECT_FALSE(ValidateOd(encoded, ab, kTupleNoise));
    }
  }
  EXPECT_GT(tally.od_holds, 0u);
  EXPECT_GT(tally.od_fails, 0u);
  EXPECT_GT(tally.ofd_holds, 0u);
  EXPECT_GT(tally.ofd_fails, 0u);
}

// The planted monotone map b -> c of the synthetic generator holds.
TEST(OrderValidatorTest, PlantedSyntheticMonotoneMapHolds) {
  datasets::SyntheticConfig config;
  config.num_rows = 3000;
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
  c.domain_size = 0;  // continuous output: codes stay order-preserving
  datasets::SyntheticAttribute d;
  d.name = "d";
  d.kind = datasets::SyntheticAttribute::Kind::kCategoricalBase;
  d.domain_size = 4;
  config.attributes = {a, b, c, d};
  Result<Relation> relation = datasets::Synthetic(config);
  ASSERT_TRUE(relation.ok());
  const EncodedRelation encoded = EncodedRelation::Encode(*relation);
  Tally tally;
  for (size_t x = 0; x < encoded.num_columns(); ++x) {
    for (size_t y = 0; y < encoded.num_columns(); ++y) {
      if (x != y) ExpectAgrees(encoded, encoded, x, y, &tally);
    }
  }
  EXPECT_TRUE(ValidateOd(encoded, 1, 2));
}

// Applies `batch` to `base` at the Value level: deletes first, then
// inserts, as DeltaRelation does.
Relation ReplayBatch(const Relation& base, const RowBatch& batch) {
  std::vector<size_t> deletes = batch.delete_rows;
  std::sort(deletes.begin(), deletes.end());
  Relation out = Relation::Empty(base.schema());
  for (size_t r = 0; r < base.num_rows(); ++r) {
    if (std::binary_search(deletes.begin(), deletes.end(), r)) continue;
    EXPECT_TRUE(out.AppendRow(base.Row(r)).ok());
  }
  for (const std::vector<Value>& row : batch.insert_rows) {
    EXPECT_TRUE(out.AppendRow(row).ok());
  }
  return out;
}

// A snapshot published after a batch with deletes and inserts gives the
// verdicts of the replayed rows, and every OD/OFD its revalidated
// profile emits holds on them. The inserted base values fall between the
// existing ones and the new decreasing values below them all, so the
// publish renumbers codes.
TEST(OrderValidatorTest, PublishedSnapshotAgreesWithReplayedRelation) {
  // The service profiles domains, which an all-NULL column has none of.
  std::vector<size_t> keep;
  for (size_t c = 0; c < kAllNull; ++c) keep.push_back(c);
  const Relation base =
      RandomOrderRelation({800, 40, 0.2}, 501).Project(keep);
  const Relation extra =
      RandomOrderRelation({150, 90, 0.2}, 502).Project(keep);
  RowBatch batch;
  Rng rng(503);
  batch.delete_rows = rng.SampleWithoutReplacement(base.num_rows(), 100);
  for (size_t r = 0; r < extra.num_rows(); ++r) {
    std::vector<Value> row = extra.Row(r);
    if (!row[kBase].is_null()) row[kBase] = Value::Int(row[kBase].AsInt() + 1);
    batch.insert_rows.push_back(std::move(row));
  }

  AuditService service;
  Result<SessionId> session = service.Register(base);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  Result<LeakageDelta> delta = service.ApplyBatch(*session, batch);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  Result<std::shared_ptr<const RelationSnapshot>> snapshot =
      service.Snapshot(*session);
  ASSERT_TRUE(snapshot.ok());
  const EncodedRelation& published = (*snapshot)->encoding();

  const Relation replayed = ReplayBatch(base, batch);
  ASSERT_EQ(published.num_rows(), replayed.num_rows());
  Tally tally;
  for (size_t x = 0; x < keep.size(); ++x) {
    for (size_t y = 0; y < keep.size(); ++y) {
      if (x != y) ExpectAgrees(published, replayed, x, y, &tally);
    }
  }
  EXPECT_GT(tally.od_holds, 0u);
  EXPECT_GT(tally.od_fails, 0u);

  size_t checked = 0;
  for (const Dependency& dep : (*snapshot)->profile().metadata.dependencies) {
    if (dep.lhs.size() != 1) continue;
    const size_t lhs = dep.lhs.ToIndices()[0];
    if (dep.kind == DependencyKind::kOrder) {
      EXPECT_TRUE(reference::ValidateOd(replayed, lhs, dep.rhs));
      ++checked;
    } else if (dep.kind == DependencyKind::kOrderedFunctional) {
      EXPECT_TRUE(reference::ValidateOfd(replayed, lhs, dep.rhs));
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

// OD/OFD discovery validates its candidates on pool threads; at 1 and 8
// threads it emits exactly the single-attribute pairs the oracle accepts
// among eligible lhs columns (at least two distinct values).
TEST(OrderValidatorTest, DiscoveryOnPoolThreadsEmitsOracleVerdicts) {
  const EncodedRelation encoded = EncodedRelation::Encode(
      RandomOrderRelation({3000, 300, 0.2}, 601));
  std::set<std::pair<size_t, size_t>> want_od;
  std::set<std::pair<size_t, size_t>> want_ofd;
  for (size_t x = 0; x < kNumColumns; ++x) {
    if (encoded.dictionary(x).num_distinct() < 2) continue;
    for (size_t y = 0; y < kNumColumns; ++y) {
      if (x == y) continue;
      if (reference::ValidateOd(encoded, x, y)) want_od.insert({x, y});
      if (reference::ValidateOfd(encoded, x, y)) want_ofd.insert({x, y});
    }
  }
  ASSERT_FALSE(want_od.empty());
  ASSERT_FALSE(want_ofd.empty());

  auto pairs = [](const Result<DependencySet>& deps) {
    std::set<std::pair<size_t, size_t>> out;
    EXPECT_TRUE(deps.ok());
    if (!deps.ok()) return out;
    for (const Dependency& d : *deps) {
      out.insert({d.lhs.ToIndices()[0], d.rhs});
    }
    return out;
  };
  for (size_t threads : {1, 8}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    SetGlobalThreadCount(threads);
    EXPECT_EQ(pairs(DiscoverOds(encoded)), want_od);
    EXPECT_EQ(pairs(DiscoverOfds(encoded)), want_ofd);
  }
  SetGlobalThreadCount(0);
}

}  // namespace
}  // namespace metaleak
