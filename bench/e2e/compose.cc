#include "compose.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/math_util.h"
#include "common/parallel.h"
#include "common/random.h"
#include "generation/generation_engine.h"
#include "privacy/identifiability.h"
#include "privacy/risk_estimator.h"
#include "trace.h"

namespace metaleak::e2e {
namespace {

// Span-name key of a generation method.
const char* MethodKey(GenerationMethod method) {
  switch (method) {
    case GenerationMethod::kRandom:
      return "random";
    case GenerationMethod::kFd:
      return "fd";
    case GenerationMethod::kAfd:
      return "afd";
    case GenerationMethod::kNd:
      return "nd";
    case GenerationMethod::kOd:
      return "od";
    case GenerationMethod::kDd:
      return "dd";
    case GenerationMethod::kOfd:
      return "ofd";
    case GenerationMethod::kCfd:
      return "cfd";
    case GenerationMethod::kFull:
      return "full";
  }
  return "unknown";
}

// ExperimentEngine's per-method generation options (experiment.cc).
GenerationOptions OptionsForMethod(GenerationMethod method) {
  GenerationOptions out;
  switch (method) {
    case GenerationMethod::kRandom:
    case GenerationMethod::kCfd:
      out.ignore_dependencies = true;
      break;
    case GenerationMethod::kFd:
      out.allowed_kinds = {DependencyKind::kFunctional};
      break;
    case GenerationMethod::kAfd:
      out.allowed_kinds = {DependencyKind::kApproximateFunctional};
      break;
    case GenerationMethod::kNd:
      out.allowed_kinds = {DependencyKind::kNumerical};
      break;
    case GenerationMethod::kOd:
      out.allowed_kinds = {DependencyKind::kOrder};
      break;
    case GenerationMethod::kDd:
      out.allowed_kinds = {DependencyKind::kDifferential};
      break;
    case GenerationMethod::kOfd:
      out.allowed_kinds = {DependencyKind::kOrderedFunctional};
      break;
    case GenerationMethod::kFull:
      break;
  }
  return out;
}

// ExperimentEngine::Run on the code path.
Result<MethodResult> TracedRun(const EncodedRelation& encoded,
                               const MetadataPackage& metadata,
                               GenerationMethod method,
                               const ExperimentConfig& config) {
  if (config.rounds == 0) {
    return Status::Invalid("experiment needs at least one round");
  }
  if (method == GenerationMethod::kCfd || config.use_value_path) {
    return Status::NotImplemented(
        "the traced pass composes the encoded non-CFD path only");
  }
  std::optional<GenerationContext> ctx;
  {
    Span span("generation.plan");
    METALEAK_ASSIGN_OR_RETURN(
        GenerationContext built,
        GenerationContext::Build(metadata, OptionsForMethod(method)));
    ctx.emplace(std::move(built));
  }
  if (!ctx->encodable()) {
    return Status::NotImplemented("package is not encodable: " +
                                  ctx->fallback_reason());
  }

  const RiskEstimatorRegistry* registry =
      config.estimators != nullptr ? config.estimators
                                   : &RiskEstimatorRegistry::Default();
  const std::vector<const RiskEstimator*>& estimators =
      registry->estimators();
  if (estimators.empty() ||
      estimators.front()->name() != MatchRateEstimator::Instance().name()) {
    return Status::Invalid(
        "risk estimator registry must lead with match_rate");
  }
  RiskContext rctx;
  rctx.real = &encoded;
  rctx.syn_schema = &ctx->schema();
  rctx.domains = &ctx->domains();
  rctx.metadata = &metadata;
  rctx.leakage = config.leakage;
  std::vector<std::unique_ptr<BoundRiskEstimator>> bound;
  std::vector<size_t> offset;
  size_t total = 0;
  for (const RiskEstimator* est : estimators) {
    Span span("privacy.estimator_bind." + est->name());
    METALEAK_ASSIGN_OR_RETURN(std::unique_ptr<BoundRiskEstimator> b,
                              est->Bind(rctx));
    offset.push_back(total);
    total += est->measures().size();
    bound.push_back(std::move(b));
  }
  const EncodedLeakageContext* leakage_ctx = bound.front()->leakage_context();
  if (leakage_ctx == nullptr || !leakage_ctx->supported()) {
    return Status::NotImplemented(
        "leakage scan is not on the code path for this package");
  }

  Rng rng(config.seed);
  std::vector<uint64_t> round_seeds;
  round_seeds.reserve(config.rounds);
  for (size_t round = 0; round < config.rounds; ++round) {
    round_seeds.push_back(rng.ForkSeed());
  }

  const size_t m = encoded.num_columns();
  const size_t n = encoded.num_rows();
  const std::string generate_name =
      std::string("generation.generate.") + MethodKey(method);
  std::vector<std::string> eval_names;
  for (const RiskEstimator* est : estimators) {
    eval_names.push_back("privacy.estimator_eval." + est->name());
  }
  std::vector<RiskMeasureCell> cells(config.rounds * total * m);
  auto run_round = [&](size_t round) -> Status {
    Rng round_rng(round_seeds[round]);
    thread_local EncodedBatch batch;
    {
      Span span(generate_name, n);
      METALEAK_RETURN_NOT_OK(GenerateEncoded(*ctx, n, &round_rng, &batch));
    }
    RiskMeasureCell* round_cells = cells.data() + round * total * m;
    for (size_t e = 0; e < bound.size(); ++e) {
      Span span(eval_names[e], n);
      METALEAK_RETURN_NOT_OK(
          bound[e]->Evaluate(batch, round_cells + offset[e] * m));
    }
    return Status::OK();
  };

  size_t threads = config.threads;
  if (threads == 0) threads = GlobalThreadCount();
  threads = std::min(threads, config.rounds);
  {
    Span span("privacy.rounds");
    if (threads <= 1) {
      for (size_t round = 0; round < config.rounds; ++round) {
        METALEAK_RETURN_NOT_OK(run_round(round));
      }
    } else {
      const TraceContext fan_out = CurrentContext();
      std::vector<Status> round_status(config.rounds);
      ParallelFor(
          0, config.rounds, 1,
          [&](size_t round) {
            AdoptContext adopt(fan_out);
            round_status[round] = run_round(round);
          },
          threads);
      for (const Status& st : round_status) METALEAK_RETURN_NOT_OK(st);
    }
  }

  Span span("privacy.fold");
  MethodResult result;
  result.method = method;
  result.round_seeds = std::move(round_seeds);
  for (size_t e = 0; e < estimators.size(); ++e) {
    for (size_t j = 0; j < estimators[e]->measures().size(); ++j) {
      RiskMeasureStats ms;
      ms.estimator = estimators[e]->name();
      ms.measure = estimators[e]->measures()[j].key;
      ms.mean.assign(m, 0.0);
      ms.stddev.assign(m, 0.0);
      ms.rounds.assign(m, 0);
      const size_t off = (offset[e] + j) * m;
      for (size_t c = 0; c < m; ++c) {
        WelfordAccumulator acc;
        for (size_t round = 0; round < config.rounds; ++round) {
          const RiskMeasureCell& cell = cells[round * total * m + off + c];
          if (cell.present) acc.Add(cell.value);
        }
        ms.mean[c] = acc.mean();
        ms.stddev[c] = acc.stddev();
        ms.rounds[c] = acc.count();
      }
      result.measures.push_back(std::move(ms));
    }
  }
  return result;
}

}  // namespace

Result<std::vector<MethodResult>> TracedRunAll(
    const EncodedRelation& encoded, const MetadataPackage& metadata,
    const std::vector<GenerationMethod>& methods,
    const ExperimentConfig& config) {
  std::vector<MethodResult> out;
  Rng seeder(config.seed);
  for (GenerationMethod method : methods) {
    ExperimentConfig method_config = config;
    method_config.seed = seeder.Fork().engine()();
    METALEAK_ASSIGN_OR_RETURN(
        MethodResult r, TracedRun(encoded, metadata, method, method_config));
    out.push_back(std::move(r));
  }
  return out;
}

namespace {

// RunAuditProfiled(cache, profile, options).
Result<ComposedAudit> TracedRunAuditProfiled(PliCache& cache,
                                             const DiscoveryReport& profile,
                                             const AuditOptions& options) {
  const EncodedRelation& encoded = cache.encoded();
  if (encoded.num_rows() == 0 || encoded.num_columns() == 0) {
    return Status::Invalid("cannot audit an empty relation");
  }
  if (encoded.source() == nullptr) {
    return Status::Invalid(
        "profiled audit needs an encoding with a live source relation");
  }
  const uint64_t hits_before = cache.hits();
  const uint64_t misses_before = cache.misses();

  ComposedAudit result;
  result.metadata = profile.metadata;
  result.discovery_stats = profile.search_stats;
  {
    Span span("privacy.identifiability", encoded.num_rows());
    METALEAK_ASSIGN_OR_RETURN(
        result.identifiable_fraction,
        IdentifiableByAnySubset(cache, options.identifiability_max_width));
  }
  std::vector<GenerationMethod> methods = {GenerationMethod::kRandom};
  for (GenerationMethod m : options.methods) {
    if (m != GenerationMethod::kRandom) methods.push_back(m);
  }
  ExperimentConfig experiment = options.experiment;
  if (experiment.estimators == nullptr) {
    experiment.estimators = &RiskEstimatorRegistry::All();
  }
  METALEAK_ASSIGN_OR_RETURN(
      result.method_results,
      TracedRunAll(encoded, result.metadata, methods, experiment));
  result.pli_hits = cache.hits() - hits_before;
  result.pli_misses = cache.misses() - misses_before;
  return result;
}

}  // namespace

Result<ComposedAudit> TracedRunAudit(const Relation& relation,
                                     const AuditOptions& options) {
  if (relation.num_rows() == 0 || relation.num_columns() == 0) {
    return Status::Invalid("cannot audit an empty relation");
  }
  std::optional<EncodedRelation> encoded;
  {
    Span span("data.encode", relation.num_rows());
    encoded.emplace(EncodedRelation::Encode(relation));
  }
  std::optional<PliCache> cache;
  {
    Span span("partition.pli_build", relation.num_rows());
    cache.emplace(&*encoded);
  }
  std::optional<DiscoveryReport> report;
  {
    Span span("discovery.profile", relation.num_rows());
    METALEAK_ASSIGN_OR_RETURN(DiscoveryReport r,
                              ProfileRelation(&*cache, options.discovery));
    report.emplace(std::move(r));
  }
  const uint64_t hits = cache->hits();
  const uint64_t misses = cache->misses();
  METALEAK_ASSIGN_OR_RETURN(ComposedAudit result,
                            TracedRunAuditProfiled(*cache, *report, options));
  result.pli_hits += hits;
  result.pli_misses += misses;
  return result;
}

Result<std::unique_ptr<TracedSession>> TracedSession::Register(
    const Relation& relation, const ServiceOptions& options) {
  if (relation.num_rows() == 0 || relation.num_columns() == 0) {
    return Status::Invalid("cannot register an empty relation");
  }
  Span span("service.register", relation.num_rows());
  std::unique_ptr<TracedSession> session(new TracedSession());
  session->options_ = options;
  {
    // AuditService keys its snapshot cache by this fingerprint.
    Span encode("data.encode", relation.num_rows());
    (void)EncodedRelation::Encode(relation).Fingerprint();
  }
  Initial& init = session->initial_.emplace();
  {
    Span copy("data.copy", relation.num_rows());
    init.relation = std::make_unique<Relation>(relation);
  }
  {
    Span encode("data.encode", relation.num_rows());
    init.encoded = std::make_unique<EncodedRelation>(
        EncodedRelation::Encode(*init.relation));
  }
  {
    Span build("partition.pli_build", relation.num_rows());
    init.cache = std::make_unique<PliCache>(init.encoded.get());
  }
  {
    Span profile("discovery.profile", relation.num_rows());
    METALEAK_ASSIGN_OR_RETURN(
        init.profile,
        ProfileRelationIncremental(
            init.cache.get(), options.discovery,
            DeltaTouch::None(init.encoded->num_columns()), &session->memo_));
  }
  {
    Span leakage("privacy.leakage_profile");
    METALEAK_ASSIGN_OR_RETURN(
        init.leakage, ComputeLeakageProfile(*init.encoded,
                                            init.profile.metadata,
                                            options.leakage));
  }
  {
    Span seed("data.delta_seed", relation.num_rows());
    session->delta_.emplace(*init.encoded);
  }
  {
    Span seed("partition.pli_seed", relation.num_rows());
    session->plis_.emplace(*init.encoded);
  }
  return session;
}

PliCache& TracedSession::cache() const {
  return current_ != nullptr ? current_->pli_cache() : *initial_->cache;
}

const LeakageProfile& TracedSession::leakage() const {
  return current_ != nullptr ? current_->leakage() : initial_->leakage;
}

const DiscoveryReport& TracedSession::profile() const {
  return current_ != nullptr ? current_->profile() : initial_->profile;
}

uint64_t TracedSession::fingerprint() const {
  return current_ != nullptr ? current_->fingerprint()
                             : initial_->encoded->Fingerprint();
}

Result<LeakageDelta> TracedSession::ApplyBatch(const RowBatch& batch) {
  Span span("service.apply_batch",
            batch.delete_rows.size() + batch.insert_rows.size());
  if (batch.empty()) {
    LeakageDelta none;
    none.expected_matches_delta.assign(delta_->num_columns(), 0.0);
    return none;
  }
  std::optional<BatchEffects> effects;
  {
    Span apply("data.delta_apply",
               batch.delete_rows.size() + batch.insert_rows.size());
    METALEAK_ASSIGN_OR_RETURN(BatchEffects e, delta_->ApplyBatch(batch));
    effects.emplace(std::move(e));
  }
  if (effects->remap.rows_after == 0) {
    return Status::Invalid("batch would empty the relation");
  }
  DeltaTouch touch = DeltaTouch::None(delta_->num_columns());
  touch.Merge(*effects);
  {
    Span maintain("partition.pli_maintain", effects->remap.rows_after);
    plis_->ApplyBatch(*effects);
  }
  std::optional<PublishResult> publish;
  {
    Span pub("data.publish", effects->remap.rows_after);
    publish.emplace(delta_->PublishCanonical());
  }
  std::vector<PositionListIndex> singles;
  {
    Span maintain("partition.pli_maintain", effects->remap.rows_after);
    plis_->RenumberCodes(publish->code_remap);
    singles.reserve(plis_->num_columns());
    for (size_t c = 0; c < plis_->num_columns(); ++c) {
      singles.push_back(plis_->ToPli(c));
    }
  }
  std::shared_ptr<const RelationSnapshot> next;
  {
    Span pub("service.snapshot_publish", effects->remap.rows_after);
    METALEAK_ASSIGN_OR_RETURN(
        next, RelationSnapshot::FromPublished(
                  std::move(publish->encoded), std::move(singles),
                  options_.discovery, options_.leakage, touch, &memo_));
  }
  std::optional<LeakageDelta> delta;
  {
    Span diff("privacy.leakage_diff");
    METALEAK_ASSIGN_OR_RETURN(LeakageDelta d,
                              DiffLeakageProfiles(leakage(), next->leakage()));
    delta.emplace(std::move(d));
  }
  current_ = std::move(next);
  initial_.reset();
  return std::move(*delta);
}

Result<ComposedAudit> TracedSession::Audit(const AuditOptions& options) {
  Span span("service.audit");
  return TracedRunAuditProfiled(cache(), profile(), options);
}

}  // namespace metaleak::e2e
