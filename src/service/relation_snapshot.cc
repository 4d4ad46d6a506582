#include "service/relation_snapshot.h"

#include <utility>

namespace metaleak {

Result<std::shared_ptr<const RelationSnapshot>>
RelationSnapshot::FromRelation(const Relation& relation,
                               const DiscoveryOptions& discovery,
                               const LeakageOptions& leakage,
                               DiscoveryMemo* memo) {
  return FromRelation(relation, EncodedRelation::Encode(relation), discovery,
                      leakage, memo);
}

Result<std::shared_ptr<const RelationSnapshot>>
RelationSnapshot::FromRelation(const Relation& relation,
                               EncodedRelation encoded,
                               const DiscoveryOptions& discovery,
                               const LeakageOptions& leakage,
                               DiscoveryMemo* memo) {
  if (relation.num_rows() == 0 || relation.num_columns() == 0) {
    return Status::Invalid("cannot snapshot an empty relation");
  }
  auto snap = std::shared_ptr<RelationSnapshot>(new RelationSnapshot());
  snap->relation_ = std::make_unique<Relation>(relation);
  snap->encoded_ = std::make_unique<EncodedRelation>(std::move(encoded));
  snap->encoded_->set_source(snap->relation_.get());
  snap->cache_ = std::make_unique<PliCache>(snap->encoded_.get());
  METALEAK_RETURN_NOT_OK(
      snap->Finish(discovery, leakage,
                   DeltaTouch::None(snap->encoded_->num_columns()), memo));
  return std::shared_ptr<const RelationSnapshot>(std::move(snap));
}

Result<std::shared_ptr<const RelationSnapshot>>
RelationSnapshot::FromPublished(EncodedRelation published,
                                std::vector<PositionListIndex> singles,
                                const DiscoveryOptions& discovery,
                                const LeakageOptions& leakage,
                                const DeltaTouch& touch,
                                DiscoveryMemo* memo) {
  if (published.num_rows() == 0 || published.num_columns() == 0) {
    return Status::Invalid("cannot snapshot an empty relation");
  }
  auto snap = std::shared_ptr<RelationSnapshot>(new RelationSnapshot());
  snap->encoded_ =
      std::make_unique<EncodedRelation>(std::move(published));
  // The publish carries no backing Relation; materialize one (relation()
  // and an audit scored on the decoded round, use_value_path, read raw
  // values) and point the encoding at it.
  METALEAK_ASSIGN_OR_RETURN(Relation decoded, snap->encoded_->Decode());
  snap->relation_ = std::make_unique<Relation>(std::move(decoded));
  snap->encoded_->set_source(snap->relation_.get());
  snap->cache_ = std::make_unique<PliCache>(snap->encoded_.get(),
                                            std::move(singles));
  METALEAK_RETURN_NOT_OK(snap->Finish(discovery, leakage, touch, memo));
  return std::shared_ptr<const RelationSnapshot>(std::move(snap));
}

Status RelationSnapshot::Finish(const DiscoveryOptions& discovery,
                                const LeakageOptions& leakage,
                                const DeltaTouch& touch,
                                DiscoveryMemo* memo) {
  fingerprint_ = encoded_->Fingerprint();
  // The new verdicts replace `memo` only once the whole snapshot is
  // built: a snapshot that fails here is never published, and the memo
  // must keep matching the one that stays current.
  DiscoveryMemo next;
  METALEAK_ASSIGN_OR_RETURN(
      profile_,
      ProfileRelationIncremental(cache_.get(), discovery, touch, *memo,
                                 &next));
  METALEAK_ASSIGN_OR_RETURN(
      leakage_,
      ComputeLeakageProfile(*encoded_, profile_.metadata, leakage));
  memo->Swap(next);
  return Status::OK();
}

}  // namespace metaleak
