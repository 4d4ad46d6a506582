#include "generation/generation_engine.h"

#include <unordered_map>
#include <utility>

#include "common/macros.h"
#include "generation/column_generators.h"

namespace metaleak {

namespace {

// Maps each frequency-table value to its domain code: the unique domain
// entry that equals it structurally, looked up in one hash of the domain
// (O(D + F)). Returns false when some value matches no entry or several
// (only possible with duplicate domain entries).
bool MapDistValuesToCodes(const std::vector<Value>& values,
                          const std::vector<Value>& domain,
                          std::vector<uint32_t>* codes) {
  constexpr uint32_t kAmbiguous = 0;  // domain codes start at 1
  std::unordered_map<Value, uint32_t> code_of;
  code_of.reserve(domain.size());
  for (size_t i = 0; i < domain.size(); ++i) {
    auto [it, inserted] =
        code_of.emplace(domain[i], static_cast<uint32_t>(i) + 1);
    if (!inserted) it->second = kAmbiguous;
  }
  codes->reserve(values.size());
  for (const Value& v : values) {
    auto it = code_of.find(v);
    if (it == code_of.end() || it->second == kAmbiguous) return false;
    codes->push_back(it->second);
  }
  return true;
}

}  // namespace

uint32_t GenerationContext::DistSampler::SampleCode(Rng* rng) const {
  // Mirrors ValueDistribution::Sample (categorical branch) draw-for-draw.
  return codes[DrawCumulative(cumulative, rng)];
}

double GenerationContext::DistSampler::SampleReal(Rng* rng) const {
  // Mirrors ValueDistribution::Sample (continuous branch) draw-for-draw.
  const size_t bucket = DrawCumulative(cumulative, rng);
  double width = (hi - lo) / static_cast<double>(cumulative.size());
  double bucket_lo = lo + width * static_cast<double>(bucket);
  return rng->UniformDouble(bucket_lo, bucket_lo + width);
}

Result<GenerationContext> GenerationContext::Build(
    const MetadataPackage& metadata, const GenerationOptions& options) {
  GenerationContext ctx;
  METALEAK_ASSIGN_OR_RETURN(ctx.domains_, metadata.RequireDomains());
  ctx.schema_ = metadata.schema;
  const size_t m = metadata.schema.num_attributes();

  DependencySet usable;
  if (!options.ignore_dependencies) {
    usable = metadata.dependencies;
  }
  ctx.plan_ = DependencyGraph::Build(m, usable, options.allowed_kinds);
  ctx.kinds_ = ColumnKindsForDomains(ctx.domains_);
  ctx.widths_ = CodeWidthsForDomains(ctx.domains_);

  ctx.code_numeric_.resize(m);
  for (size_t c = 0; c < m; ++c) {
    if (ctx.kinds_[c] != EncodedBatch::ColumnKind::kCodes) continue;
    const std::vector<Value>& vals = ctx.domains_[c].values();
    std::vector<double>& table = ctx.code_numeric_[c];
    table.assign(vals.size() + 1, 0.0);
    for (size_t i = 0; i < vals.size(); ++i) {
      if (vals[i].is_numeric()) table[i + 1] = vals[i].AsNumeric();
    }
  }

  ctx.dist_.resize(m);
  ctx.step_lhs_.reserve(ctx.plan_->steps().size());
  for (const GenerationStep& step : ctx.plan_->steps()) {
    if (step.via.has_value()) {
      ctx.step_lhs_.push_back(step.via->lhs.ToIndices());
      continue;
    }
    ctx.step_lhs_.emplace_back();
    const size_t target = step.attribute;
    const bool has_distribution =
        target < metadata.distributions.size() &&
        metadata.distributions[target].has_value();
    if (!has_distribution) continue;
    const ValueDistribution& dist = *metadata.distributions[target];
    DistSampler sampler;
    if (ctx.kinds_[target] == EncodedBatch::ColumnKind::kCodes) {
      if (!dist.is_categorical()) {
        ctx.encodable_ = false;
        ctx.fallback_reason_ =
            "continuous distribution over a categorical domain";
        continue;
      }
      sampler.categorical = true;
      sampler.cumulative = dist.cumulative_counts();
      if (!MapDistValuesToCodes(dist.frequency_table().values,
                                ctx.domains_[target].values(),
                                &sampler.codes)) {
        ctx.encodable_ = false;
        ctx.fallback_reason_ =
            "distribution support does not map into the domain";
        continue;
      }
    } else {
      if (dist.is_categorical()) {
        ctx.encodable_ = false;
        ctx.fallback_reason_ =
            "categorical distribution over a continuous domain";
        continue;
      }
      const Histogram& hist = dist.histogram();
      sampler.categorical = false;
      sampler.cumulative = dist.cumulative_counts();
      sampler.lo = hist.lo;
      sampler.hi = hist.hi;
    }
    ctx.dist_[target] = std::move(sampler);
  }
  return ctx;
}

Status GenerateEncoded(const GenerationContext& ctx, size_t num_rows,
                       Rng* rng, EncodedBatch* batch) {
  if (rng == nullptr) {
    return Status::Invalid("rng must not be null");
  }
  if (!ctx.encodable()) {
    return Status::Invalid("package is not encodable: " +
                           ctx.fallback_reason());
  }
  batch->Configure(ctx.kinds_, ctx.widths_);
  batch->ResetRows(num_rows);

  const std::vector<GenerationStep>& steps = ctx.plan_->steps();
  for (size_t s = 0; s < steps.size(); ++s) {
    const GenerationStep& step = steps[s];
    const size_t target = step.attribute;
    const Domain& domain = ctx.domains_[target];
    if (!step.via.has_value()) {
      if (ctx.dist_[target].has_value()) {
        const GenerationContext::DistSampler& sampler = *ctx.dist_[target];
        if (sampler.categorical) {
          batch->WithMutableCodes(target, [&](auto* out) {
            for (size_t r = 0; r < num_rows; ++r) {
              out[r] = sampler.SampleCode(rng);
            }
          });
        } else {
          std::vector<double>& out = batch->reals(target);
          for (size_t r = 0; r < num_rows; ++r) {
            out[r] = sampler.SampleReal(rng);
          }
        }
      } else {
        GenerateRootColumnEncoded(domain, num_rows, rng, batch, target);
      }
      continue;
    }
    const Dependency& dep = *step.via;
    const std::vector<size_t>& lhs = ctx.step_lhs_[s];
    switch (dep.kind) {
      case DependencyKind::kFunctional:
        GenerateFdColumnEncoded(lhs, domain, num_rows, rng, batch, target);
        break;
      case DependencyKind::kApproximateFunctional:
        GenerateAfdColumnEncoded(lhs, domain, num_rows, dep.g3_error, rng,
                                 batch, target);
        break;
      case DependencyKind::kNumerical:
        GenerateNdColumnEncoded(lhs[0], domain, num_rows, dep.max_fanout,
                                rng, batch, target);
        break;
      case DependencyKind::kOrder:
        GenerateOdColumnEncoded(lhs[0], domain, num_rows, rng, batch,
                                target);
        break;
      case DependencyKind::kOrderedFunctional:
        GenerateOfdColumnEncoded(lhs[0], domain, num_rows, rng, batch,
                                 target);
        break;
      case DependencyKind::kDifferential: {
        Status st = GenerateDdColumnEncoded(
            lhs[0], domain, ctx.code_numeric_[lhs[0]], num_rows,
            dep.lhs_epsilon, dep.rhs_delta, rng, batch, target);
        if (!st.ok()) {
          // Same fallback as the value path: a DD onto a categorical RHS
          // cannot drive generation; draw from the domain instead.
          GenerateRootColumnEncoded(domain, num_rows, rng, batch, target);
        }
        break;
      }
    }
  }
  return Status::OK();
}

Result<GenerationOutcome> GenerateSynthetic(
    const MetadataPackage& metadata, size_t num_rows, Rng* rng,
    const GenerationOptions& options) {
  if (rng == nullptr) {
    return Status::Invalid("rng must not be null");
  }
  METALEAK_ASSIGN_OR_RETURN(GenerationContext ctx,
                            GenerationContext::Build(metadata, options));
  if (!ctx.encodable()) {
    return GenerateSyntheticValuePath(metadata, num_rows, rng, options);
  }
  thread_local EncodedBatch batch;
  METALEAK_RETURN_NOT_OK(GenerateEncoded(ctx, num_rows, rng, &batch));
  METALEAK_ASSIGN_OR_RETURN(
      Relation rel, MaterializeRelation(ctx.schema(), ctx.domains(), batch));
  return GenerationOutcome{std::move(rel), ctx.plan()};
}

Result<GenerationOutcome> GenerateSyntheticValuePath(
    const MetadataPackage& metadata, size_t num_rows, Rng* rng,
    const GenerationOptions& options) {
  if (rng == nullptr) {
    return Status::Invalid("rng must not be null");
  }
  METALEAK_ASSIGN_OR_RETURN(std::vector<Domain> domains,
                            metadata.RequireDomains());
  const size_t m = metadata.schema.num_attributes();

  DependencySet usable;
  if (!options.ignore_dependencies) {
    usable = metadata.dependencies;
  }
  DependencyGraph plan =
      DependencyGraph::Build(m, usable, options.allowed_kinds);

  std::vector<std::vector<Value>> columns(m);
  for (const GenerationStep& step : plan.steps()) {
    const size_t target = step.attribute;
    const Domain& domain = domains[target];
    const bool has_distribution =
        target < metadata.distributions.size() &&
        metadata.distributions[target].has_value();
    if (!step.via.has_value()) {
      if (has_distribution) {
        // Distribution-disclosure extension: sample the real marginal.
        std::vector<Value> col;
        col.reserve(num_rows);
        for (size_t r = 0; r < num_rows; ++r) {
          col.push_back(metadata.distributions[target]->Sample(rng));
        }
        columns[target] = std::move(col);
      } else {
        columns[target] = GenerateRootColumn(domain, num_rows, rng);
      }
      continue;
    }
    const Dependency& dep = *step.via;
    std::vector<const std::vector<Value>*> lhs_columns;
    for (size_t i : dep.lhs.ToIndices()) {
      METALEAK_DCHECK(!columns[i].empty() || num_rows == 0);
      lhs_columns.push_back(&columns[i]);
    }
    switch (dep.kind) {
      case DependencyKind::kFunctional:
        columns[target] =
            GenerateFdColumn(lhs_columns, domain, num_rows, rng);
        break;
      case DependencyKind::kApproximateFunctional:
        columns[target] = GenerateAfdColumn(lhs_columns, domain, num_rows,
                                            dep.g3_error, rng);
        break;
      case DependencyKind::kNumerical:
        columns[target] = GenerateNdColumn(*lhs_columns[0], domain,
                                           num_rows, dep.max_fanout, rng);
        break;
      case DependencyKind::kOrder:
        columns[target] =
            GenerateOdColumn(*lhs_columns[0], domain, num_rows, rng);
        break;
      case DependencyKind::kOrderedFunctional:
        columns[target] =
            GenerateOfdColumn(*lhs_columns[0], domain, num_rows, rng);
        break;
      case DependencyKind::kDifferential: {
        Result<std::vector<Value>> col =
            GenerateDdColumn(*lhs_columns[0], domain, num_rows,
                             dep.lhs_epsilon, dep.rhs_delta, rng);
        if (!col.ok()) {
          // A DD onto a categorical RHS cannot drive generation; fall
          // back to the domain draw rather than failing the whole run.
          columns[target] = GenerateRootColumn(domain, num_rows, rng);
        } else {
          columns[target] = std::move(col).ValueUnsafe();
        }
        break;
      }
    }
  }

  // The synthetic schema mirrors the disclosed one, but generated values
  // are domain samples: continuous attributes become doubles regardless of
  // the source physical type. Relax the physical types accordingly.
  std::vector<Attribute> attrs = metadata.schema.attributes();
  for (size_t c = 0; c < m; ++c) {
    bool has_double = false;
    bool has_int = false;
    bool has_string = false;
    for (const Value& v : columns[c]) {
      has_double |= v.is_double();
      has_int |= v.is_int();
      has_string |= v.is_string();
    }
    if (has_string) {
      attrs[c].type = DataType::kString;
    } else if (has_double && !has_int) {
      attrs[c].type = DataType::kDouble;
    } else if (has_int && !has_double) {
      attrs[c].type = DataType::kInt64;
    } else if (has_double && has_int) {
      // Mixed numeric draws (e.g. continuous domain over an int column):
      // coerce everything to double.
      for (Value& v : columns[c]) {
        if (v.is_int()) v = Value::Real(static_cast<double>(v.AsInt()));
      }
      attrs[c].type = DataType::kDouble;
    }
  }

  METALEAK_ASSIGN_OR_RETURN(
      Relation rel,
      Relation::Make(Schema(std::move(attrs)), std::move(columns)));
  return GenerationOutcome{std::move(rel), std::move(plan)};
}

}  // namespace metaleak
