#include "service/audit_service.h"

#include <algorithm>
#include <utility>

namespace metaleak {

AuditService::AuditService(ServiceOptions options)
    : options_(std::move(options)) {
  if (options_.max_cached_snapshots == 0) options_.max_cached_snapshots = 1;
}

AuditService::~AuditService() = default;

Result<SessionId> AuditService::Register(const Relation& relation) {
  if (relation.num_rows() == 0 || relation.num_columns() == 0) {
    return Status::Invalid("cannot register an empty relation");
  }
  // Encode once: the fingerprint keys the cache, and on a miss the
  // snapshot takes the encoding over for its own copy of the rows.
  EncodedRelation encoded = EncodedRelation::Encode(relation);
  const uint64_t fingerprint = encoded.Fingerprint();

  std::shared_ptr<CacheEntry> entry;
  bool inserted = false;
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    auto it = cache_.find(fingerprint);
    if (it == cache_.end()) {
      it = cache_.emplace(fingerprint, std::make_shared<CacheEntry>())
               .first;
      inserted = true;
    }
    entry = it->second;
    entry->last_used = ++lru_tick_;
    if (inserted) EvictLocked();
  }
  if (inserted) {
    snapshot_misses_.fetch_add(1, std::memory_order_relaxed);
  } else {
    snapshot_hits_.fetch_add(1, std::memory_order_relaxed);
  }

  // Single-flight build: losers wait here and share the winner's
  // snapshot. Only the builder's session inherits the recorded verdict
  // memo; other sessions start with an empty memo and warm up on their
  // first batch.
  auto memo = std::make_unique<DiscoveryMemo>();
  std::call_once(entry->once, [&] {
    Result<std::shared_ptr<const RelationSnapshot>> built =
        RelationSnapshot::FromRelation(relation, std::move(encoded),
                                       options_.discovery, options_.leakage,
                                       memo.get());
    if (built.ok()) {
      entry->snapshot = std::move(*built);
    } else {
      entry->status = built.status();
    }
  });
  if (!entry->status.ok()) {
    // Drop the poisoned slot so a later registration can retry.
    std::lock_guard<std::mutex> lock(cache_mutex_);
    auto it = cache_.find(fingerprint);
    if (it != cache_.end() && it->second == entry) cache_.erase(it);
    return entry->status;
  }

  auto session = std::make_shared<Session>(entry->snapshot, std::move(memo));
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  SessionId id = next_session_++;
  sessions_.emplace(id, std::move(session));
  return id;
}

Result<std::shared_ptr<AuditService::Session>> AuditService::FindSession(
    SessionId id) {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::KeyError("unknown audit session");
  }
  return it->second;
}

Result<std::shared_ptr<const RelationSnapshot>>
AuditService::CurrentSnapshot(SessionId id) {
  METALEAK_ASSIGN_OR_RETURN(std::shared_ptr<Session> session,
                            FindSession(id));
  std::lock_guard<std::mutex> lock(session->mutex);
  return session->current;
}

Result<std::shared_ptr<const RelationSnapshot>> AuditService::Snapshot(
    SessionId id) {
  return CurrentSnapshot(id);
}

Result<LeakageDelta> AuditService::ApplyBatch(SessionId id,
                                              const RowBatch& batch) {
  METALEAK_ASSIGN_OR_RETURN(std::shared_ptr<Session> session,
                            FindSession(id));
  std::lock_guard<std::mutex> lock(session->mutex);
  if (batch.empty()) {
    LeakageDelta none;
    none.expected_matches_delta.assign(session->delta.num_columns(), 0.0);
    return none;
  }
  METALEAK_ASSIGN_OR_RETURN(BatchEffects effects,
                            session->delta.ApplyBatch(batch));
  Result<std::shared_ptr<const RelationSnapshot>> next =
      PublishBatch(session.get(), effects);
  Result<LeakageDelta> delta =
      next.ok() ? DiffLeakageProfiles(session->current->leakage(),
                                      (*next)->leakage())
                : Result<LeakageDelta>(next.status());
  if (!delta.ok()) {
    // The delta and the PLIs already moved past the snapshot that stays
    // current; seed them from it again so the next batch's row ids and
    // touch window are relative to the rows callers see. (The memo was
    // left as it was.)
    session->delta = DeltaRelation(session->current->encoding());
    session->plis = PliMaintenance(session->current->encoding());
    return delta.status();
  }
  CacheSnapshot(*next);
  session->current = std::move(*next);
  return delta;
}

Result<std::shared_ptr<const RelationSnapshot>> AuditService::PublishBatch(
    Session* session, const BatchEffects& effects) {
  if (effects.remap.rows_after == 0) {
    return Status::Invalid("batch would empty the relation");
  }
  DeltaTouch touch = DeltaTouch::None(session->delta.num_columns());
  touch.Merge(effects);

  session->plis.ApplyBatch(effects);
  PublishResult publish = session->delta.PublishCanonical();
  session->plis.RenumberCodes(publish.code_remap);

  std::vector<PositionListIndex> singles;
  singles.reserve(session->plis.num_columns());
  for (size_t c = 0; c < session->plis.num_columns(); ++c) {
    singles.push_back(session->plis.ToPli(c));
  }
  return RelationSnapshot::FromPublished(
      std::move(publish.encoded), std::move(singles), options_.discovery,
      options_.leakage, touch, session->memo.get());
}

Result<AuditResult> AuditService::Audit(SessionId id,
                                        const AuditOptions& options) {
  METALEAK_ASSIGN_OR_RETURN(std::shared_ptr<const RelationSnapshot> snap,
                            CurrentSnapshot(id));
  METALEAK_ASSIGN_OR_RETURN(
      AuditResult result,
      RunAuditProfiled(snap->pli_cache(), snap->profile(), options,
                       &snap->leakage().risk_measures));
  ServiceStats s = stats();
  if (!result.cache_stats.has_value()) result.cache_stats.emplace();
  result.cache_stats->snapshot_hits = s.snapshot_hits;
  result.cache_stats->snapshot_misses = s.snapshot_misses;
  result.cache_stats->snapshot_evictions = s.snapshot_evictions;
  return result;
}

Result<MethodResult> AuditService::MeasureLeakage(
    SessionId id, GenerationMethod method, const ExperimentConfig& config) {
  METALEAK_ASSIGN_OR_RETURN(std::shared_ptr<const RelationSnapshot> snap,
                            CurrentSnapshot(id));
  ExperimentEngine engine(snap->encoding(), snap->profile().metadata,
                          &snap->leakage().risk_measures);
  return engine.Run(method, config);
}

Result<TupleRiskReport> AuditService::TupleRisk(
    SessionId id, const TupleRiskOptions& options) {
  METALEAK_ASSIGN_OR_RETURN(std::shared_ptr<const RelationSnapshot> snap,
                            CurrentSnapshot(id));
  return AnalyzeTupleRisk(snap->encoding(), snap->profile().metadata,
                          options);
}

ServiceStats AuditService::stats() const {
  ServiceStats s;
  s.snapshot_hits = snapshot_hits_.load(std::memory_order_relaxed);
  s.snapshot_misses = snapshot_misses_.load(std::memory_order_relaxed);
  s.snapshot_evictions = snapshot_evictions_.load(std::memory_order_relaxed);
  return s;
}

void AuditService::CacheSnapshot(
    std::shared_ptr<const RelationSnapshot> snapshot) {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  auto it = cache_.find(snapshot->fingerprint());
  if (it == cache_.end()) {
    it = cache_
             .emplace(snapshot->fingerprint(),
                      std::make_shared<CacheEntry>())
             .first;
    // Fire the slot's once with the snapshot already built, inside the
    // lambda: a concurrent Register's passive call_once synchronizes
    // with the lambda's completion, so it must observe the assignment.
    std::shared_ptr<CacheEntry> entry = it->second;
    std::call_once(entry->once,
                   [&] { entry->snapshot = std::move(snapshot); });
  }
  it->second->last_used = ++lru_tick_;
  EvictLocked();
}

void AuditService::EvictLocked() {
  while (cache_.size() > options_.max_cached_snapshots) {
    auto victim = cache_.end();
    for (auto it = cache_.begin(); it != cache_.end(); ++it) {
      if (victim == cache_.end() ||
          it->second->last_used < victim->second->last_used) {
        victim = it;
      }
    }
    if (victim == cache_.end()) return;
    cache_.erase(victim);
    snapshot_evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace metaleak
