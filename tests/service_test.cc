// AuditService behavior: session lifecycle, snapshot-cache hits and LRU
// eviction, warm-audit parity with the one-shot RunAudit path, and
// incremental batches matching a from-scratch registration.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/datasets/echocardiogram.h"
#include "data/datasets/employee.h"
#include "data/datasets/synthetic.h"
#include "privacy/audit.h"
#include "service/audit_service.h"

namespace metaleak {
namespace {

AuditOptions SmallAudit() {
  AuditOptions options;
  options.experiment.rounds = 8;
  return options;
}

TEST(AuditServiceTest, WarmAuditMatchesOneShotRunAudit) {
  Relation relation = datasets::Employee();
  AuditService service;
  Result<SessionId> session = service.Register(relation);
  ASSERT_TRUE(session.ok()) << session.status().ToString();

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
    EXPECT_EQ(a.round_seeds, b.round_seeds);
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
  ASSERT_TRUE(warm->cache_stats.has_value());
  EXPECT_EQ(warm->cache_stats->snapshot_misses, 1u);
  EXPECT_NE(warm->ToMarkdown().find("Cache observability"),
            std::string::npos);
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

TEST(AuditServiceTest, ApplyBatchMatchesFreshRegistration) {
  Relation relation = datasets::Employee();
  AuditService service;
  Result<SessionId> session = service.Register(relation);
  ASSERT_TRUE(session.ok());
  Result<std::shared_ptr<const RelationSnapshot>> before =
      service.Snapshot(*session);
  ASSERT_TRUE(before.ok());

  RowBatch batch;
  batch.delete_rows = {0, 2};
  batch.insert_rows.push_back(relation.Row(1));
  Result<LeakageDelta> delta = service.ApplyBatch(*session, batch);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_EQ(delta->rows_delta, -1);

  // The superseded snapshot is still alive and unchanged.
  EXPECT_EQ((*before)->num_rows(), relation.num_rows());

  Result<std::shared_ptr<const RelationSnapshot>> after =
      service.Snapshot(*session);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*after)->num_rows(), relation.num_rows() - 1);

  // Registering the post-batch rows from scratch must land on the same
  // content: same fingerprint, hence a snapshot-cache hit.
  Relation expected = Relation::Empty(relation.schema());
  for (size_t r = 0; r < relation.num_rows(); ++r) {
    if (r == 0 || r == 2) continue;
    ASSERT_TRUE(expected.AppendRow(relation.Row(r)).ok());
  }
  ASSERT_TRUE(expected.AppendRow(relation.Row(1)).ok());
  uint64_t hits_before = service.stats().snapshot_hits;
  Result<SessionId> fresh = service.Register(expected);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(service.stats().snapshot_hits, hits_before + 1);
  Result<std::shared_ptr<const RelationSnapshot>> fresh_snap =
      service.Snapshot(*fresh);
  ASSERT_TRUE(fresh_snap.ok());
  EXPECT_EQ((*after)->fingerprint(), (*fresh_snap)->fingerprint());
  EXPECT_EQ((*after)->profile().metadata.Serialize(),
            (*fresh_snap)->profile().metadata.Serialize());
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
