// AuditService behavior: session lifecycle, snapshot-cache hits and LRU
// eviction, warm-audit parity with the one-shot RunAudit path (the warm
// path reads the snapshot's cached entropy cells, the cold one computes
// them), rejection of a malformed cached profile, incremental batches
// matching a from-scratch registration, and a published snapshot's
// decode on first use.
#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/datasets/echocardiogram.h"
#include "data/datasets/employee.h"
#include "data/datasets/synthetic.h"
#include "privacy/audit.h"
#include "privacy/experiment.h"
#include "privacy/tuple_risk.h"
#include "service/audit_service.h"

namespace metaleak {
namespace {

AuditOptions SmallAudit() {
  AuditOptions options;
  options.experiment.rounds = 8;
  return options;
}

// Every measure column bit for bit: EXPECT_EQ on double vectors is
// exact equality.
void ExpectMeasuresIdentical(const MethodResult& a, const MethodResult& b) {
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

TEST(AuditServiceTest, WarmAuditMatchesOneShotRunAudit) {
  for (const Relation& relation :
       {datasets::Employee(), datasets::Echocardiogram()}) {
    AuditService service;
    Result<SessionId> session = service.Register(relation);
    ASSERT_TRUE(session.ok()) << session.status().ToString();

    // The warm audit reads H and H(attr | dep) from the snapshot's
    // profile; the cold one computes them in the bind.
    AuditOptions options = SmallAudit();
    Result<AuditResult> warm = service.Audit(*session, options);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    Result<AuditResult> cold = RunAudit(relation, options);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();

    EXPECT_EQ(warm->metadata.Serialize(), cold->metadata.Serialize());
    EXPECT_EQ(warm->identifiable_fraction, cold->identifiable_fraction);
    ASSERT_EQ(warm->method_results.size(), cold->method_results.size());
    for (size_t m = 0; m < warm->method_results.size(); ++m) {
      const MethodResult& a = warm->method_results[m];
      const MethodResult& b = cold->method_results[m];
      SCOPED_TRACE(GenerationMethodToString(a.method));
      ExpectMeasuresIdentical(a, b);
      ASSERT_EQ(a.attributes.size(), b.attributes.size());
      for (size_t c = 0; c < a.attributes.size(); ++c) {
        EXPECT_EQ(a.attributes[c].mean_matches, b.attributes[c].mean_matches);
      }
    }
    ASSERT_EQ(warm->attributes.size(), cold->attributes.size());
    for (size_t c = 0; c < warm->attributes.size(); ++c) {
      EXPECT_EQ(warm->attributes[c].expected_random_matches,
                cold->attributes[c].expected_random_matches);
      EXPECT_EQ(warm->attributes[c].dependency_adds_leakage,
                cold->attributes[c].dependency_adds_leakage);
    }

    // The service fills the snapshot counters; the markdown renders them.
    // Everything before that section matches the one-shot report.
    ASSERT_TRUE(warm->cache_stats.has_value());
    EXPECT_EQ(warm->cache_stats->snapshot_misses, 1u);
    const std::string warm_md = warm->ToMarkdown();
    const std::string cold_md = cold->ToMarkdown();
    const size_t cut = warm_md.find("## Cache observability");
    ASSERT_NE(cut, std::string::npos);
    EXPECT_EQ(warm_md.substr(0, cut), cold_md.substr(0, cut));
  }
}

TEST(AuditServiceTest, MeasureLeakageMatchesAnEngineWithoutProfile) {
  Relation relation = datasets::Echocardiogram();
  AuditService service;
  Result<SessionId> session = service.Register(relation);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  Result<std::shared_ptr<const RelationSnapshot>> snap =
      service.Snapshot(*session);
  ASSERT_TRUE(snap.ok());
  ExperimentEngine fresh((*snap)->encoding(), (*snap)->profile().metadata);

  ExperimentConfig config;
  config.rounds = 6;
  config.estimators = &RiskEstimatorRegistry::All();
  for (GenerationMethod method :
       {GenerationMethod::kRandom, GenerationMethod::kFd,
        GenerationMethod::kNd}) {
    SCOPED_TRACE(GenerationMethodToString(method));
    Result<MethodResult> warm = service.MeasureLeakage(*session, method,
                                                       config);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    Result<MethodResult> cold = fresh.Run(method, config);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    ExpectMeasuresIdentical(*warm, *cold);
  }
}

// Runs the profiled audit of the registered Employee snapshot against
// `edit` applied to a copy of the snapshot's cached profile measures.
Result<AuditResult> AuditWithEditedProfile(
    const std::function<void(std::vector<RiskProfileMeasure>*)>& edit) {
  AuditService service;
  Result<SessionId> session = service.Register(datasets::Employee());
  if (!session.ok()) return session.status();
  Result<std::shared_ptr<const RelationSnapshot>> snap =
      service.Snapshot(*session);
  if (!snap.ok()) return snap.status();
  std::vector<RiskProfileMeasure> measures =
      (*snap)->leakage().risk_measures;
  edit(&measures);
  return RunAuditProfiled((*snap)->pli_cache(), (*snap)->profile(),
                          SmallAudit(), &measures);
}

void DropMeasure(std::vector<RiskProfileMeasure>* measures,
                 const std::string& key) {
  const size_t before = measures->size();
  measures->erase(std::remove_if(measures->begin(), measures->end(),
                                 [&](const RiskProfileMeasure& m) {
                                   return m.measure == key;
                                 }),
                  measures->end());
  ASSERT_EQ(measures->size() + 1, before);
}

TEST(AuditServiceTest, ProfiledAuditReadsTheHandedProfile) {
  Result<AuditResult> audit =
      AuditWithEditedProfile([](std::vector<RiskProfileMeasure>* measures) {
        for (RiskProfileMeasure& m : *measures) {
          if (m.measure != "entropy_bits") continue;
          for (RiskMeasureCell& cell : m.cells) cell = {42.0, true};
        }
      });
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  for (const MethodResult& result : audit->method_results) {
    Result<RiskMeasureStats> entropy =
        result.ForMeasure("info_theoretic", "entropy_bits");
    ASSERT_TRUE(entropy.ok());
    for (double mean : entropy->mean) EXPECT_EQ(mean, 42.0);
  }
}

TEST(AuditServiceTest, ProfiledAuditRejectsProfileWithoutEntropy) {
  Result<AuditResult> audit =
      AuditWithEditedProfile([](std::vector<RiskProfileMeasure>* measures) {
        DropMeasure(measures, "entropy_bits");
      });
  EXPECT_TRUE(audit.status().IsInvalid()) << audit.status().ToString();
}

TEST(AuditServiceTest, ProfiledAuditRejectsProfileWithoutCondEntropy) {
  Result<AuditResult> audit =
      AuditWithEditedProfile([](std::vector<RiskProfileMeasure>* measures) {
        DropMeasure(measures, "cond_entropy_bits");
      });
  EXPECT_TRUE(audit.status().IsInvalid()) << audit.status().ToString();
}

TEST(AuditServiceTest, ProfiledAuditRejectsProfileWithWrongCellCount) {
  for (const std::string key : {"entropy_bits", "cond_entropy_bits"}) {
    for (bool extra : {false, true}) {
      SCOPED_TRACE(key + (extra ? " +1" : " -1"));
      Result<AuditResult> audit = AuditWithEditedProfile(
          [&](std::vector<RiskProfileMeasure>* measures) {
            for (RiskProfileMeasure& m : *measures) {
              if (m.measure != key) continue;
              if (extra) {
                m.cells.push_back(RiskMeasureCell{});
              } else {
                m.cells.pop_back();
              }
            }
          });
      EXPECT_TRUE(audit.status().IsInvalid()) << audit.status().ToString();
    }
  }
}

TEST(AuditServiceTest, EqualContentHitsTheSnapshotCache) {
  Relation relation = datasets::Employee();
  AuditService service;
  Result<SessionId> first = service.Register(relation);
  Result<SessionId> second = service.Register(relation);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_NE(*first, *second);  // distinct sessions...

  Result<std::shared_ptr<const RelationSnapshot>> a =
      service.Snapshot(*first);
  Result<std::shared_ptr<const RelationSnapshot>> b =
      service.Snapshot(*second);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->get(), b->get());  // ...sharing one snapshot

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.snapshot_misses, 1u);
  EXPECT_EQ(stats.snapshot_hits, 1u);
}

TEST(AuditServiceTest, RegisterSnapshotMatchesTheTwoEncodePath) {
  // Register encodes the caller's relation once and hands that encoding
  // to the snapshot. The result must equal the old path, which keyed the
  // cache with one encode and re-encoded the snapshot's own copy.
  for (const Relation& relation :
       {datasets::Employee(), datasets::Echocardiogram()}) {
    AuditService service;
    Result<SessionId> session = service.Register(relation);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    Result<std::shared_ptr<const RelationSnapshot>> snap =
        service.Snapshot(*session);
    ASSERT_TRUE(snap.ok());
    const RelationSnapshot& registered = **snap;
    EXPECT_EQ(registered.encoding().source(), &registered.relation());
    EXPECT_EQ(registered.relation(), relation);

    const uint64_t key = EncodedRelation::Encode(relation).Fingerprint();
    Relation copy = relation;
    const EncodedRelation own = EncodedRelation::Encode(copy);
    EXPECT_EQ(registered.fingerprint(), key);
    EXPECT_EQ(registered.encoding().Fingerprint(), own.Fingerprint());

    DiscoveryMemo memo;
    ServiceOptions defaults;
    Result<std::shared_ptr<const RelationSnapshot>> rebuilt =
        RelationSnapshot::FromRelation(copy, defaults.discovery,
                                       defaults.leakage, &memo);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    EXPECT_EQ(registered.fingerprint(), (*rebuilt)->fingerprint());
    EXPECT_EQ(registered.profile().metadata.Serialize(),
              (*rebuilt)->profile().metadata.Serialize());
  }
}

TEST(AuditServiceTest, LruEvictionIsCountedAndBounded) {
  ServiceOptions options;
  options.max_cached_snapshots = 1;
  AuditService service(options);
  ASSERT_TRUE(service.Register(datasets::Employee()).ok());
  ASSERT_TRUE(service.Register(datasets::Echocardiogram()).ok());
  EXPECT_EQ(service.stats().snapshot_evictions, 1u);
  EXPECT_EQ(service.stats().snapshot_misses, 2u);
}

// The published snapshot must equal an independent build of the
// post-batch rows. The second input deletes the row that seeded the
// zero's representative (+0.0), leaving -0.0 first among the rows a
// rebuild sees.
TEST(AuditServiceTest, ApplyBatchMatchesFreshRegistration) {
  struct Case {
    Relation relation;
    RowBatch batch;
  };
  std::vector<Case> cases;
  {
    Relation employee = datasets::Employee();
    RowBatch batch;
    batch.delete_rows = {0, 2};
    batch.insert_rows.push_back(employee.Row(1));
    cases.push_back({std::move(employee), std::move(batch)});
  }
  {
    Schema schema({{"x", DataType::kDouble, SemanticType::kCategorical}});
    std::vector<Value> x;
    for (double v : {0.0, -0.0, 1.5, 1.5, 2.5, 0.0, 2.5, -0.0}) {
      x.push_back(Value::Real(v));
    }
    RowBatch batch;
    batch.delete_rows = {0};
    cases.push_back(
        {std::move(Relation::Make(schema, {x})).ValueOrDie(), batch});
  }
  for (const Case& c : cases) {
    const Relation& relation = c.relation;
    SCOPED_TRACE(relation.schema().attribute(0).name);
    AuditService service;
    Result<SessionId> session = service.Register(relation);
    ASSERT_TRUE(session.ok());
    Result<std::shared_ptr<const RelationSnapshot>> before =
        service.Snapshot(*session);
    ASSERT_TRUE(before.ok());

    Result<LeakageDelta> delta = service.ApplyBatch(*session, c.batch);
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    const int64_t rows_delta =
        static_cast<int64_t>(c.batch.insert_rows.size()) -
        static_cast<int64_t>(c.batch.delete_rows.size());
    EXPECT_EQ(delta->rows_delta, rows_delta);

    // The superseded snapshot is still alive and unchanged.
    EXPECT_EQ((*before)->num_rows(), relation.num_rows());

    Result<std::shared_ptr<const RelationSnapshot>> after =
        service.Snapshot(*session);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(static_cast<int64_t>((*after)->num_rows()),
              static_cast<int64_t>(relation.num_rows()) + rows_delta);

    Relation expected = Relation::Empty(relation.schema());
    for (size_t r = 0; r < relation.num_rows(); ++r) {
      if (std::find(c.batch.delete_rows.begin(), c.batch.delete_rows.end(),
                    r) != c.batch.delete_rows.end()) {
        continue;
      }
      ASSERT_TRUE(expected.AppendRow(relation.Row(r)).ok());
    }
    for (const std::vector<Value>& row : c.batch.insert_rows) {
      ASSERT_TRUE(expected.AppendRow(row).ok());
    }

    // Registering the post-batch rows from scratch lands on the same
    // fingerprint, hence a snapshot-cache hit that hands back `after`.
    uint64_t hits_before = service.stats().snapshot_hits;
    Result<SessionId> fresh = service.Register(expected);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(service.stats().snapshot_hits, hits_before + 1);

    // So the content is compared with a snapshot built apart from the
    // service.
    DiscoveryMemo memo;
    Result<std::shared_ptr<const RelationSnapshot>> rebuilt =
        RelationSnapshot::FromRelation(expected, ServiceOptions{}.discovery,
                                       ServiceOptions{}.leakage, &memo);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    EXPECT_EQ((*after)->fingerprint(), (*rebuilt)->fingerprint());
    EXPECT_EQ((*after)->profile().metadata.Serialize(),
              (*rebuilt)->profile().metadata.Serialize());
  }
}

// TupleRisk scores the snapshot's encoding directly. After several
// batches it must still equal the one-shot analysis of the snapshot's
// decoded rows, tuple by tuple.
TEST(AuditServiceTest, TupleRiskAfterBatchesMatchesOneShotAnalysis) {
  Relation relation = datasets::Echocardiogram();
  AuditService service;
  Result<SessionId> session = service.Register(relation);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  for (size_t b = 0; b < 3; ++b) {
    RowBatch batch;
    batch.delete_rows = {b, 7 + 3 * b};
    batch.insert_rows.push_back(relation.Row(20 + b));
    Result<LeakageDelta> delta = service.ApplyBatch(*session, batch);
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  }
  TupleRiskOptions options;
  options.rounds = 12;
  options.seed = 9;
  Result<TupleRiskReport> served = service.TupleRisk(*session, options);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  Result<std::shared_ptr<const RelationSnapshot>> snap =
      service.Snapshot(*session);
  ASSERT_TRUE(snap.ok());
  Result<TupleRiskReport> one_shot = AnalyzeTupleRisk(
      (*snap)->relation(), (*snap)->profile().metadata, options);
  ASSERT_TRUE(one_shot.ok()) << one_shot.status().ToString();
  ASSERT_EQ(served->tuples.size(), relation.num_rows() - 3);
  ASSERT_EQ(served->tuples.size(), one_shot->tuples.size());
  for (size_t i = 0; i < served->tuples.size(); ++i) {
    const TupleRisk& a = served->tuples[i];
    const TupleRisk& b = one_shot->tuples[i];
    SCOPED_TRACE("rank " + std::to_string(i));
    EXPECT_EQ(a.row, b.row);
    EXPECT_EQ(a.mean_matched_attributes, b.mean_matched_attributes);
    EXPECT_EQ(a.max_matched_attributes, b.max_matched_attributes);
    EXPECT_EQ(a.half_reconstructed_rate, b.half_reconstructed_rate);
    EXPECT_EQ(a.identifiable, b.identifiable);
  }
}

// --- Decode on first use -----------------------------------------------------

// A session on the echocardiogram replica after three batches, its
// published snapshot, and the rows the batches leave (survivors keep
// their order, inserts append). Nothing here reads the snapshot's rows,
// so they are still undecoded on return.
struct Published {
  std::unique_ptr<AuditService> service;
  std::shared_ptr<const RelationSnapshot> snapshot;
  Relation expected;
};

void PublishAfterBatches(Published* out) {
  const Relation relation = datasets::Echocardiogram();
  out->service = std::make_unique<AuditService>();
  Result<SessionId> session = out->service->Register(relation);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  std::vector<std::vector<Value>> rows;
  for (size_t r = 0; r < relation.num_rows(); ++r) {
    rows.push_back(relation.Row(r));
  }
  for (size_t b = 0; b < 3; ++b) {
    RowBatch batch;
    batch.delete_rows = {b, 7 + 3 * b};
    batch.insert_rows.push_back(relation.Row(20 + b));
    Result<LeakageDelta> delta = out->service->ApplyBatch(*session, batch);
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    rows.erase(rows.begin() + 7 + 3 * b);
    rows.erase(rows.begin() + b);
    rows.push_back(relation.Row(20 + b));
  }
  Result<std::shared_ptr<const RelationSnapshot>> snap =
      out->service->Snapshot(*session);
  ASSERT_TRUE(snap.ok());
  out->snapshot = *snap;
  out->expected = Relation::Empty(relation.schema());
  for (const std::vector<Value>& row : rows) {
    ASSERT_TRUE(out->expected.AppendRow(row).ok());
  }
}

TEST(AuditServiceTest, PublishedSnapshotDecodesOnFirstUse) {
  Published p;
  ASSERT_NO_FATAL_FAILURE(PublishAfterBatches(&p));
  const RelationSnapshot& snap = *p.snapshot;
  const Relation& rows = snap.relation();
  EXPECT_EQ(rows, p.expected);
  EXPECT_EQ(snap.encoding().source(), &rows);
  EXPECT_EQ(&snap.relation(), &rows);  // decoded once, then kept
  EXPECT_EQ(EncodedRelation::Encode(rows).Fingerprint(), snap.fingerprint());
}

TEST(AuditServiceTest, PublishedSnapshotFirstDecodeIsShared) {
  Published p;
  ASSERT_NO_FATAL_FAILURE(PublishAfterBatches(&p));
  const RelationSnapshot& snap = *p.snapshot;
  // Eight threads make the first call at once, through either accessor;
  // every one must get the one decoded relation.
  constexpr size_t kThreads = 8;
  std::vector<const Relation*> seen(kThreads, nullptr);
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      seen[t] = t % 2 == 0 ? &snap.relation() : snap.encoding().source();
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_NE(seen[0], nullptr);
  for (size_t t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  EXPECT_EQ(*seen[0], p.expected);
}

// The decoded round (use_value_path) is the one reader of source() in an
// experiment; its rounds run on pool threads, so the first of them makes
// the decode. Its scores must equal those on a FromRelation snapshot of
// the same rows, and the fused scan's, bit for bit.
TEST(AuditServiceTest, DecodedRoundOnPublishedSnapshotMatchesFromRelation) {
  Published p;
  ASSERT_NO_FATAL_FAILURE(PublishAfterBatches(&p));
  DiscoveryMemo memo;
  Result<std::shared_ptr<const RelationSnapshot>> rebuilt =
      RelationSnapshot::FromRelation(p.expected, ServiceOptions{}.discovery,
                                     ServiceOptions{}.leakage, &memo);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  const MetadataPackage& metadata = p.snapshot->profile().metadata;
  ASSERT_EQ(metadata.Serialize(), (*rebuilt)->profile().metadata.Serialize());

  const std::vector<GenerationMethod> methods = {
      GenerationMethod::kRandom, GenerationMethod::kFd,
      GenerationMethod::kOd};
  ExperimentConfig config;
  config.rounds = 6;
  config.threads = 4;
  config.use_value_path = true;
  ExperimentEngine published(p.snapshot->encoding(), metadata);
  ExperimentEngine from_relation((*rebuilt)->encoding(), metadata);
  auto decoded = published.RunAll(methods, config);
  auto want = from_relation.RunAll(methods, config);
  config.use_value_path = false;
  auto fused = published.RunAll(methods, config);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  ASSERT_EQ(decoded->size(), methods.size());
  ASSERT_EQ(want->size(), methods.size());
  ASSERT_EQ(fused->size(), methods.size());
  for (size_t i = 0; i < methods.size(); ++i) {
    SCOPED_TRACE(GenerationMethodToString(methods[i]));
    ExpectMeasuresIdentical((*decoded)[i], (*want)[i]);
    ASSERT_EQ((*decoded)[i].attributes.size(), (*fused)[i].attributes.size());
    for (size_t c = 0; c < (*decoded)[i].attributes.size(); ++c) {
      const MethodAttributeResult& a = (*decoded)[i].attributes[c];
      const MethodAttributeResult& b = (*fused)[i].attributes[c];
      EXPECT_EQ(a.mean_matches, b.mean_matches);
      EXPECT_EQ(a.stddev_matches, b.stddev_matches);
      EXPECT_EQ(a.mean_mse, b.mean_mse);
    }
  }
  EXPECT_EQ(p.snapshot->relation(), p.expected);
}

// A batch that fails after the delta took it (here it deletes every
// non-NULL value of categorical column b, so the new snapshot has no
// domain for b) must leave the session on its current snapshot: the next
// batch's row ids index the rows Snapshot() shows, and the snapshot it
// publishes equals a from-scratch build of the expected rows.
TEST(AuditServiceTest, FailedBatchLeavesTheSessionOnItsSnapshot) {
  Schema schema({{"a", DataType::kInt64, SemanticType::kCategorical},
                 {"b", DataType::kString, SemanticType::kCategorical},
                 {"c", DataType::kDouble, SemanticType::kContinuous}});
  Relation relation = Relation::Empty(schema);
  for (int r = 0; r < 8; ++r) {
    Value b = r == 0 ? Value::Str("x") : r == 1 ? Value::Str("y") : Value::Null();
    ASSERT_TRUE(relation
                    .AppendRow({Value::Int(r % 3), b, Value::Real(0.5 * r)})
                    .ok());
  }
  AuditService service;
  Result<SessionId> session = service.Register(relation);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  Result<std::shared_ptr<const RelationSnapshot>> before =
      service.Snapshot(*session);
  ASSERT_TRUE(before.ok());

  RowBatch emptying_b;
  emptying_b.delete_rows = {0, 1};
  Result<LeakageDelta> failed = service.ApplyBatch(*session, emptying_b);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().ToString().find("no non-null values"),
            std::string::npos)
      << failed.status().ToString();
  Result<std::shared_ptr<const RelationSnapshot>> still =
      service.Snapshot(*session);
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(still->get(), before->get());

  RowBatch last_row;
  last_row.delete_rows = {7};
  Result<LeakageDelta> delta = service.ApplyBatch(*session, last_row);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_EQ(delta->rows_delta, -1);

  Relation expected = Relation::Empty(schema);
  for (size_t r = 0; r < 7; ++r) {
    ASSERT_TRUE(expected.AppendRow(relation.Row(r)).ok());
  }
  DiscoveryMemo memo;
  Result<std::shared_ptr<const RelationSnapshot>> rebuilt =
      RelationSnapshot::FromRelation(expected, ServiceOptions{}.discovery,
                                     ServiceOptions{}.leakage, &memo);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  Result<std::shared_ptr<const RelationSnapshot>> after =
      service.Snapshot(*session);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*after)->fingerprint(), (*rebuilt)->fingerprint());
  EXPECT_EQ((*after)->profile().metadata.Serialize(),
            (*rebuilt)->profile().metadata.Serialize());
}

TEST(AuditServiceTest, EmptyBatchIsANoOp) {
  AuditService service;
  Result<SessionId> session = service.Register(datasets::Employee());
  ASSERT_TRUE(session.ok());
  Result<std::shared_ptr<const RelationSnapshot>> before =
      service.Snapshot(*session);
  Result<LeakageDelta> delta = service.ApplyBatch(*session, RowBatch{});
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(delta->empty());
  Result<std::shared_ptr<const RelationSnapshot>> after =
      service.Snapshot(*session);
  EXPECT_EQ(before->get(), after->get());
}

TEST(AuditServiceTest, UnknownSessionFails) {
  AuditService service;
  EXPECT_FALSE(service.Snapshot(42).ok());
  EXPECT_FALSE(service.Audit(42).ok());
  EXPECT_FALSE(service.ApplyBatch(42, RowBatch{}).ok());
}

TEST(AuditServiceTest, DependencyChangesSurfaceInTheLeakageDelta) {
  // name -> age holds in Employee; inserting two rows with one name and
  // two ages breaks every FD with that LHS, which must show up as
  // removed dependencies.
  Relation relation = datasets::Employee();
  AuditService service;
  Result<SessionId> session = service.Register(relation);
  ASSERT_TRUE(session.ok());

  RowBatch batch;
  std::vector<Value> a = relation.Row(0);
  std::vector<Value> b = relation.Row(0);
  b[1] = Value::Int(999);  // same name, different age
  batch.insert_rows = {a, b};
  Result<LeakageDelta> delta = service.ApplyBatch(*session, batch);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_EQ(delta->rows_delta, 2);
  EXPECT_FALSE(delta->dependencies_removed.empty());
  EXPECT_FALSE(delta->ToString(relation.schema()).empty());
}

}  // namespace
}  // namespace metaleak
