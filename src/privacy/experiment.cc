#include "privacy/experiment.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "common/math_util.h"
#include "common/parallel.h"
#include "common/random.h"
#include "generation/cfd_generator.h"
#include "generation/generation_engine.h"

namespace metaleak {

std::string GenerationMethodToString(GenerationMethod method) {
  switch (method) {
    case GenerationMethod::kRandom:
      return "Random Generation";
    case GenerationMethod::kFd:
      return "Functional Dep";
    case GenerationMethod::kAfd:
      return "Approximate FD";
    case GenerationMethod::kNd:
      return "Numerical Dep";
    case GenerationMethod::kOd:
      return "Order Dep";
    case GenerationMethod::kDd:
      return "Differential Dep";
    case GenerationMethod::kOfd:
      return "Ordered FD";
    case GenerationMethod::kCfd:
      return "Conditional FD";
    case GenerationMethod::kFull:
      return "Full Package";
  }
  return "unknown";
}

namespace {

GenerationOptions OptionsForMethod(GenerationMethod method) {
  GenerationOptions out;
  switch (method) {
    case GenerationMethod::kRandom:
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
    case GenerationMethod::kCfd:
      // Roots only; the CFD repair pass runs after generation.
      out.ignore_dependencies = true;
      break;
    case GenerationMethod::kFull:
      // Defaults: every disclosed dependency class drives generation —
      // the exact options SimulateReconstruction uses.
      break;
  }
  return out;
}

// The config's registry, or the default. The engine reads the leading
// match-rate estimator for the scoring decision and replay.
Result<const RiskEstimatorRegistry*> RegistryFor(
    const ExperimentConfig& config) {
  const RiskEstimatorRegistry* registry =
      config.estimators != nullptr ? config.estimators
                                   : &RiskEstimatorRegistry::Default();
  if (registry->estimators().empty() ||
      registry->estimators().front()->name() !=
          MatchRateEstimator::Instance().name()) {
    return Status::Invalid(
        "risk estimator registry must lead with match_rate");
  }
  return registry;
}

}  // namespace

Result<double> RiskMeasureStats::MeanFor(size_t attribute) const {
  if (attribute >= mean.size()) {
    return Status::OutOfRange("no measure cell for attribute " +
                              std::to_string(attribute));
  }
  return mean[attribute];
}

Result<RiskMeasureStats> MethodResult::ForMeasure(
    const std::string& estimator, const std::string& measure) const {
  for (const RiskMeasureStats& ms : measures) {
    if (ms.estimator == estimator && ms.measure == measure) return ms;
  }
  return Status::OutOfRange("no measure column " + estimator + "/" +
                            measure);
}

Result<MethodAttributeResult> MethodResult::ForAttribute(
    size_t attribute) const {
  // Results hold attribute i at index i; answer from the index and keep
  // the scan only for hand-assembled results.
  if (attribute < attributes.size() &&
      attributes[attribute].attribute == attribute) {
    return attributes[attribute];
  }
  for (const MethodAttributeResult& a : attributes) {
    if (a.attribute == attribute) return a;
  }
  return Status::OutOfRange("no result for attribute " +
                            std::to_string(attribute));
}

// Everything one method's rounds share besides the bound estimators,
// resolved before any RNG draw: the generation context (over the call's
// shared layout) and, for the CFD method, the chase plan. The plan is
// RNG-independent, so `covered` comes from it up front and every round —
// including round 0 — fans out.
struct ExperimentEngine::MethodPlan {
  std::optional<GenerationContext> ctx;
  std::optional<EncodedCfdPlan> cfd_plan;
  std::vector<bool> covered;
};

// The risk estimators bound once against the real relation and the
// disclosed package. Nothing Bind() reads depends on the method, so one
// set serves every method of a RunAll; the bound estimators copy what
// they keep, so the set outlives the layout it was bound against.
struct ExperimentEngine::BoundSet {
  /// The bound registry, and one bound instance per estimator in
  /// registry order — match-rate first.
  const RiskEstimatorRegistry* registry = nullptr;
  std::vector<std::unique_ptr<BoundRiskEstimator>> bound;
  /// Measure-axis offset of each estimator's cell block, and the total
  /// measure count across the registry.
  std::vector<size_t> measure_offset;
  size_t total_measures = 0;

  /// The fused Def 2.2/2.3 context, owned by the bound match-rate
  /// estimator.
  const EncodedLeakageContext* leakage_ctx() const {
    return bound.empty() ? nullptr : bound.front()->leakage_context();
  }
};

ExperimentEngine::ExperimentEngine(const Relation& real,
                                   const MetadataPackage& metadata)
    : metadata_(&metadata),
      owned_encoding_(EncodedRelation::Encode(real)),
      encoded_real_(&*owned_encoding_) {}

ExperimentEngine::ExperimentEngine(
    const EncodedRelation& encoded, const MetadataPackage& metadata,
    const std::vector<RiskProfileMeasure>* profile_measures)
    : metadata_(&metadata),
      encoded_real_(&encoded),
      profile_measures_(profile_measures) {}

Result<ExperimentEngine::MethodPlan> ExperimentEngine::PlanFor(
    GenerationMethod method,
    std::shared_ptr<const GenerationLayout> layout) const {
  MethodPlan plan;
  METALEAK_ASSIGN_OR_RETURN(
      GenerationContext ctx,
      GenerationContext::Build(*metadata_, OptionsForMethod(method),
                               std::move(layout)));
  plan.ctx.emplace(std::move(ctx));

  // `covered` is indexed by the package's attributes; the estimators'
  // binds report the same mismatch for every method.
  const size_t m = encoded_real_->num_columns();
  if (plan.ctx->num_attributes() != m) {
    return Status::Invalid("relations have different arity");
  }
  plan.covered.assign(m, method == GenerationMethod::kRandom ||
                             method == GenerationMethod::kFull);
  if (method == GenerationMethod::kCfd) {
    for (const ConditionalFd& cfd : metadata_->conditional_fds) {
      if (cfd.rhs < m) plan.covered[cfd.rhs] = true;
    }
    METALEAK_ASSIGN_OR_RETURN(
        EncodedCfdPlan cfd_plan,
        BuildEncodedCfdPlan(metadata_->conditional_fds, plan.ctx->domains(),
                            plan.ctx->kinds()));
    plan.cfd_plan.emplace(std::move(cfd_plan));
  } else if (method != GenerationMethod::kRandom &&
             method != GenerationMethod::kFull) {
    for (const GenerationStep& step : plan.ctx->plan().steps()) {
      plan.covered[step.attribute] = step.via.has_value();
    }
  }
  return plan;
}

Result<ExperimentEngine::BoundSet> ExperimentEngine::BindEstimators(
    const RiskEstimatorRegistry& registry, const GenerationLayout& layout,
    const LeakageOptions& leakage) const {
  RiskContext rctx;
  rctx.real = encoded_real_;
  rctx.syn_schema = &layout.schema;
  rctx.domains = &layout.domains;
  rctx.metadata = metadata_;
  rctx.leakage = leakage;
  rctx.profile_measures = profile_measures_;
  BoundSet set;
  set.registry = &registry;
  for (const RiskEstimator* est : registry.estimators()) {
    METALEAK_ASSIGN_OR_RETURN(std::unique_ptr<BoundRiskEstimator> bound,
                              est->Bind(rctx));
    set.measure_offset.push_back(set.total_measures);
    set.total_measures += est->measures().size();
    set.bound.push_back(std::move(bound));
  }
  return set;
}

Status ExperimentEngine::GenerateRound(const MethodPlan& plan,
                                       uint64_t round_seed,
                                       EncodedBatch* batch) const {
  Rng rng(round_seed);
  METALEAK_RETURN_NOT_OK(
      GenerateEncoded(*plan.ctx, encoded_real_->num_rows(), &rng, batch));
  if (plan.cfd_plan.has_value()) {
    METALEAK_RETURN_NOT_OK(ApplyCfdsEncoded(*plan.cfd_plan, batch, &rng));
  }
  return Status::OK();
}

Result<LeakageReport> ExperimentEngine::DecodedReport(
    const MethodPlan& plan, const EncodedBatch& batch,
    const LeakageOptions& leakage) const {
  const Relation* real = encoded_real_->source();
  if (real == nullptr) {
    return Status::Invalid(
        "scoring a decoded round needs an encoding with a source relation");
  }
  METALEAK_ASSIGN_OR_RETURN(
      Relation syn,
      MaterializeRelation(plan.ctx->schema(), plan.ctx->domains(), batch));
  return EvaluateLeakage(*real, syn, leakage);
}

Status ExperimentEngine::RunRound(const MethodPlan& plan,
                                  const BoundSet& bound, bool decoded,
                                  uint64_t round_seed,
                                  const LeakageOptions& leakage,
                                  RiskMeasureCell* cells) const {
  thread_local EncodedBatch batch;
  METALEAK_RETURN_NOT_OK(GenerateRound(plan, round_seed, &batch));
  const size_t m = encoded_real_->num_columns();
  if (!decoded) {
    for (size_t e = 0; e < bound.bound.size(); ++e) {
      METALEAK_RETURN_NOT_OK(bound.bound[e]->Evaluate(
          batch, cells + bound.measure_offset[e] * m));
    }
    return Status::OK();
  }
  // EvaluateLeakage fills only the match-rate columns; the other
  // estimators' cells stay absent.
  METALEAK_ASSIGN_OR_RETURN(LeakageReport report,
                            DecodedReport(plan, batch, leakage));
  for (const AttributeLeakage& a : report.attributes) {
    cells[MatchRateEstimator::kMatchesIndex * m + a.attribute] =
        RiskMeasureCell{static_cast<double>(a.matches), true};
    if (a.mse.has_value()) {
      cells[MatchRateEstimator::kMseIndex * m + a.attribute] =
          RiskMeasureCell{*a.mse, true};
    }
  }
  return Status::OK();
}

Result<MethodResult> ExperimentEngine::Run(
    GenerationMethod method, const ExperimentConfig& config) const {
  METALEAK_ASSIGN_OR_RETURN(std::vector<MethodResult> results,
                            RunMethods({method}, {config.seed}, config));
  return std::move(results.front());
}

Result<std::vector<MethodResult>> ExperimentEngine::RunAll(
    const std::vector<GenerationMethod>& methods,
    const ExperimentConfig& config) const {
  std::vector<uint64_t> seeds;
  seeds.reserve(methods.size());
  Rng seeder(config.seed);
  for (size_t i = 0; i < methods.size(); ++i) {
    seeds.push_back(seeder.Fork().engine()());
  }
  return RunMethods(methods, seeds, config);
}

Result<std::vector<MethodResult>> ExperimentEngine::RunMethods(
    const std::vector<GenerationMethod>& methods,
    const std::vector<uint64_t>& seeds,
    const ExperimentConfig& config) const {
  // No method, nothing to check: the empty run succeeds.
  if (methods.empty()) return std::vector<MethodResult>{};
  if (config.rounds == 0) {
    return Status::Invalid("experiment needs at least one round");
  }
  // Errors come in the order Run on each method in turn returns them. A
  // layout error is the first method's plan error. Planning stops at the
  // first method whose plan fails; the estimators bind once, after the
  // first plan as in Run, and the methods planned before a failed one
  // still run, since one of their rounds may fail first.
  METALEAK_ASSIGN_OR_RETURN(std::shared_ptr<const GenerationLayout> layout,
                            GenerationLayout::Build(*metadata_));
  std::vector<MethodPlan> plans;
  plans.reserve(methods.size());
  Status plan_error;
  for (GenerationMethod method : methods) {
    Result<MethodPlan> plan = PlanFor(method, layout);
    if (!plan.ok()) {
      plan_error = plan.status();
      break;
    }
    plans.push_back(std::move(plan).ValueUnsafe());
  }
  if (plans.empty()) return plan_error;
  METALEAK_ASSIGN_OR_RETURN(const RiskEstimatorRegistry* registry,
                            RegistryFor(config));
  METALEAK_ASSIGN_OR_RETURN(
      BoundSet bound, BindEstimators(*registry, *layout, config.leakage));
  const bool decoded = config.use_value_path;
  const size_t m = encoded_real_->num_columns();
  const size_t rounds = config.rounds;

  // Per-round seeds drawn up front so the outcome is identical for any
  // thread count; recorded in the result so any round can be replayed.
  std::vector<std::vector<uint64_t>> round_seeds(plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    Rng rng(seeds[i]);
    round_seeds[i].reserve(rounds);
    for (size_t round = 0; round < rounds; ++round) {
      round_seeds[i].push_back(rng.ForkSeed());
    }
  }

  // Task t is round t % rounds of method t / rounds, and writes its
  // total_measures x m cells at t * stride. Every (method, round) pair
  // runs in one pool pass; the fold then walks each method's rounds in
  // ascending order, so the aggregate is bit-identical across thread
  // counts, and across scoring by the fused scan or by EvaluateLeakage
  // on the decoded batch.
  const size_t tasks = plans.size() * rounds;
  const size_t stride = bound.total_measures * m;
  std::vector<RiskMeasureCell> cells(tasks * stride);
  std::vector<Status> task_status(tasks);
  size_t threads = config.threads;
  if (threads == 0) threads = GlobalThreadCount();
  ParallelFor(
      0, tasks, 1,
      [&](size_t t) {
        const size_t i = t / rounds;
        task_status[t] =
            RunRound(plans[i], bound, decoded, round_seeds[i][t % rounds],
                     config.leakage, cells.data() + t * stride);
      },
      std::min(threads, tasks));
  for (const Status& st : task_status) METALEAK_RETURN_NOT_OK(st);
  METALEAK_RETURN_NOT_OK(plan_error);

  std::vector<MethodResult> out;
  out.reserve(plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    out.push_back(FoldMethod(methods[i], plans[i], bound, decoded,
                             std::move(round_seeds[i]),
                             cells.data() + i * rounds * stride));
  }
  return out;
}

MethodResult ExperimentEngine::FoldMethod(GenerationMethod method,
                                          const MethodPlan& plan,
                                          const BoundSet& bound,
                                          bool decoded,
                                          std::vector<uint64_t> round_seeds,
                                          const RiskMeasureCell* cells) const {
  const size_t m = encoded_real_->num_columns();
  const size_t rounds = round_seeds.size();
  const size_t total = bound.total_measures;
  MethodResult result;
  result.method = method;
  result.round_seeds = std::move(round_seeds);

  // Fold every measure column through Welford in ascending round order —
  // the exact fold the fused scan used for matches/MSE, now applied
  // uniformly to all registered estimators. Absent cells are skipped,
  // like the has_mse flag was.
  result.measures.reserve(total);
  for (size_t e = 0; e < bound.bound.size(); ++e) {
    const RiskEstimator* est = bound.registry->estimators()[e];
    const bool active = !decoded || e == 0;
    for (size_t j = 0; j < est->measures().size(); ++j) {
      RiskMeasureStats ms;
      ms.estimator = est->name();
      ms.measure = est->measures()[j].key;
      ms.active = active;
      ms.mean.assign(m, 0.0);
      ms.stddev.assign(m, 0.0);
      ms.rounds.assign(m, 0);
      if (active) {
        const size_t off = (bound.measure_offset[e] + j) * m;
        for (size_t c = 0; c < m; ++c) {
          WelfordAccumulator acc;
          for (size_t round = 0; round < rounds; ++round) {
            const RiskMeasureCell& cell = cells[round * total * m + off + c];
            if (cell.present) acc.Add(cell.value);
          }
          ms.mean[c] = acc.mean();
          ms.stddev[c] = acc.stddev();
          ms.rounds[c] = acc.count();
        }
      }
      result.measures.push_back(std::move(ms));
    }
  }

  // Legacy per-attribute fields read off the match-rate columns — the
  // same accumulators, so the two views are bit-identical by
  // construction.
  const RiskMeasureStats& matches_col =
      result.measures[MatchRateEstimator::kMatchesIndex];
  const RiskMeasureStats& mse_col =
      result.measures[MatchRateEstimator::kMseIndex];
  const Schema& schema = encoded_real_->schema();
  result.attributes.reserve(m);
  for (size_t c = 0; c < m; ++c) {
    MethodAttributeResult entry;
    entry.attribute = c;
    entry.name = schema.attribute(c).name;
    entry.semantic = schema.attribute(c).semantic;
    entry.covered = plan.covered[c];
    entry.rows_compared =
        encoded_real_->num_rows() - encoded_real_->dictionary(c).null_count();
    entry.mean_matches = matches_col.mean[c];
    entry.stddev_matches = matches_col.stddev[c];
    if (mse_col.rounds[c] > 0) entry.mean_mse = mse_col.mean[c];
    result.attributes.push_back(std::move(entry));
  }
  return result;
}

Result<LeakageReport> ExperimentEngine::ReplayRound(
    GenerationMethod method, uint64_t round_seed,
    const ExperimentConfig& config) const {
  METALEAK_ASSIGN_OR_RETURN(MethodPlan plan, PlanFor(method, nullptr));
  // The report reads only the fused match-rate scan: check the config's
  // registry, but bind the match-rate estimator alone.
  METALEAK_RETURN_NOT_OK(RegistryFor(config).status());
  METALEAK_ASSIGN_OR_RETURN(
      BoundSet bound, BindEstimators(RiskEstimatorRegistry::Default(),
                                     plan.ctx->layout(), config.leakage));
  EncodedBatch batch;
  METALEAK_RETURN_NOT_OK(GenerateRound(plan, round_seed, &batch));
  if (config.use_value_path) {
    return DecodedReport(plan, batch, config.leakage);
  }
  return bound.leakage_ctx()->EvaluateReport(batch);
}

Result<std::vector<RoundMeasureValues>>
ExperimentEngine::ReplayRoundMeasures(GenerationMethod method,
                                      uint64_t round_seed,
                                      const ExperimentConfig& config) const {
  METALEAK_ASSIGN_OR_RETURN(MethodPlan plan, PlanFor(method, nullptr));
  METALEAK_ASSIGN_OR_RETURN(const RiskEstimatorRegistry* registry,
                            RegistryFor(config));
  METALEAK_ASSIGN_OR_RETURN(
      BoundSet bound,
      BindEstimators(*registry, plan.ctx->layout(), config.leakage));
  const bool decoded = config.use_value_path;
  const size_t m = encoded_real_->num_columns();
  std::vector<RiskMeasureCell> cells(bound.total_measures * m);
  METALEAK_RETURN_NOT_OK(RunRound(plan, bound, decoded, round_seed,
                                  config.leakage, cells.data()));
  const size_t emitted = decoded ? 1 : bound.bound.size();
  std::vector<RoundMeasureValues> out;
  for (size_t e = 0; e < emitted; ++e) {
    const RiskEstimator* est = bound.registry->estimators()[e];
    for (size_t j = 0; j < est->measures().size(); ++j) {
      RoundMeasureValues values;
      values.estimator = est->name();
      values.measure = est->measures()[j].key;
      const size_t off = (bound.measure_offset[e] + j) * m;
      values.cells.assign(cells.begin() + off, cells.begin() + off + m);
      out.push_back(std::move(values));
    }
  }
  return out;
}

Result<MethodResult> RunMethod(const Relation& real,
                               const MetadataPackage& metadata,
                               GenerationMethod method,
                               const ExperimentConfig& config) {
  ExperimentEngine engine(real, metadata);
  return engine.Run(method, config);
}

Result<std::vector<MethodResult>> RunExperiment(
    const Relation& real, const MetadataPackage& metadata,
    const std::vector<GenerationMethod>& methods,
    const ExperimentConfig& config) {
  ExperimentEngine engine(real, metadata);
  return engine.RunAll(methods, config);
}

}  // namespace metaleak
