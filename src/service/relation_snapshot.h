// RelationSnapshot: the immutable half of the snapshot/delta split, as a
// shareable bundle.
//
// A snapshot owns everything a query needs — the relation's rows, its
// canonical encoding, a thread-safe partition cache seeded with the
// single-attribute PLIs, the discovered dependency profile, and the
// analytical leakage profile (including the batch-independent risk
// estimator measures — entropy and conditional-entropy bounds — cached
// by ComputeLeakageProfile). Once built it is never mutated; concurrent
// audit / leakage / attack queries all read the same bundle (the PliCache
// mutates internally but is thread-safe and single-flight, and a
// published snapshot decodes its rows once, on first use). The service
// layer hands snapshots out by shared_ptr, so a session can move on to a
// newer snapshot while in-flight queries finish against the old one.
#ifndef METALEAK_SERVICE_RELATION_SNAPSHOT_H_
#define METALEAK_SERVICE_RELATION_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "data/encoded_relation.h"
#include "data/relation.h"
#include "discovery/discovery_engine.h"
#include "discovery/revalidate.h"
#include "partition/pli_cache.h"
#include "partition/position_list_index.h"
#include "privacy/leakage_delta.h"

namespace metaleak {

class RelationSnapshot {
 public:
  /// Builds a snapshot from a caller's relation: copies the rows, encodes
  /// them, profiles through `memo` (recording verdicts for later
  /// incremental rounds), and evaluates the analytical leakage model.
  static Result<std::shared_ptr<const RelationSnapshot>> FromRelation(
      const Relation& relation, const DiscoveryOptions& discovery,
      const LeakageOptions& leakage, DiscoveryMemo* memo);

  /// FromRelation for callers that already hold `encoded`, which must be
  /// EncodedRelation::Encode(relation): the snapshot takes it over and
  /// re-points it at its own copy of the rows instead of encoding again.
  static Result<std::shared_ptr<const RelationSnapshot>> FromRelation(
      const Relation& relation, EncodedRelation encoded,
      const DiscoveryOptions& discovery, const LeakageOptions& leakage,
      DiscoveryMemo* memo);

  /// Builds a snapshot from a DeltaRelation publish: takes the canonical
  /// encoding, seeds the partition cache with the incrementally
  /// maintained single-attribute PLIs, and re-profiles through `memo`.
  /// Nothing here reads a decoded value, so the rows are decoded only
  /// when relation() or encoding().source() is first called
  /// (EncodedRelation::DecodeSourceOnFirstUse); `published` must decode,
  /// as every publish does. An FD or DD failure in `memo` whose witness
  /// rows survive the rows `touch` deleted and still violate is taken
  /// over, every other candidate is validated again. Both factories
  /// replace `memo`'s verdicts only when the snapshot is built; on
  /// failure it is left as it was.
  static Result<std::shared_ptr<const RelationSnapshot>> FromPublished(
      EncodedRelation published, std::vector<PositionListIndex> singles,
      const DiscoveryOptions& discovery, const LeakageOptions& leakage,
      const DeltaTouch& touch, DiscoveryMemo* memo);

  /// The snapshot's rows. A published snapshot decodes them on the
  /// first call (thread-safe; every caller gets the same relation).
  const Relation& relation() const { return *encoded_->source(); }
  const EncodedRelation& encoding() const { return *encoded_; }
  /// Thread-safe; intentionally non-const through a const snapshot (the
  /// cache memoizes internally but never changes observable state).
  PliCache& pli_cache() const { return *cache_; }
  const DiscoveryReport& profile() const { return profile_; }
  const LeakageProfile& leakage() const { return leakage_; }
  uint64_t fingerprint() const { return fingerprint_; }
  size_t num_rows() const { return encoded_->num_rows(); }
  size_t num_columns() const { return encoded_->num_columns(); }

 private:
  RelationSnapshot() = default;

  /// Shared tail of both factories: profile + leakage over the already-
  /// wired relation/encoding/cache members.
  Status Finish(const DiscoveryOptions& discovery,
                const LeakageOptions& leakage, const DeltaTouch& touch,
                DiscoveryMemo* memo);

  // FromRelation's copy of the rows, which encoded_->source() points at;
  // null for a published snapshot, whose encoding decodes its own.
  std::unique_ptr<Relation> relation_;
  std::unique_ptr<EncodedRelation> encoded_;
  std::unique_ptr<PliCache> cache_;
  DiscoveryReport profile_;
  LeakageProfile leakage_;
  uint64_t fingerprint_ = 0;
};

}  // namespace metaleak

#endif  // METALEAK_SERVICE_RELATION_SNAPSHOT_H_
