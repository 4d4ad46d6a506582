#include "privacy/audit.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/simd.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "data/domain.h"
#include "privacy/identifiability.h"
#include "privacy/leakage_delta.h"
#include "privacy/risk_estimator.h"

namespace metaleak {

Result<AuditResult> RunAudit(const Relation& relation,
                             const AuditOptions& options) {
  if (relation.num_rows() == 0 || relation.num_columns() == 0) {
    return Status::Invalid("cannot audit an empty relation");
  }
  METALEAK_RETURN_NOT_OK(CheckAttributeCount(relation.num_columns()));
  // Encode once: profiling, the identifiability sweep, and the experiment
  // engine all run on the same dictionary-encoded view, sharing one
  // partition cache.
  EncodedRelation encoded = EncodedRelation::Encode(relation);
  PliCache cache(&encoded);
  METALEAK_ASSIGN_OR_RETURN(DiscoveryReport report,
                            ProfileRelation(&cache, options.discovery));
  return RunAuditProfiled(cache, report, options);
}

Result<AuditResult> RunAuditProfiled(
    PliCache& cache, const DiscoveryReport& profile,
    const AuditOptions& options,
    const std::vector<RiskProfileMeasure>* risk_measures) {
  const EncodedRelation& encoded = cache.encoded();
  if (encoded.num_rows() == 0 || encoded.num_columns() == 0) {
    return Status::Invalid("cannot audit an empty relation");
  }
  const uint64_t pli_hits_before = cache.hits();
  const uint64_t pli_misses_before = cache.misses();

  AuditResult result;
  result.metadata = profile.metadata;
  result.discovery_stats = profile.search_stats;

  METALEAK_ASSIGN_OR_RETURN(
      result.identifiable_fraction,
      IdentifiableByAnySubset(cache, options.identifiability_max_width));

  std::vector<GenerationMethod> methods = {GenerationMethod::kRandom};
  for (GenerationMethod m : options.methods) {
    if (m != GenerationMethod::kRandom) methods.push_back(m);
  }
  // One engine across all methods, borrowing the snapshot's encoding
  // and cached profile measures: RunAll binds each estimator once and
  // each method's rounds stream through the code path (see
  // experiment.h). The audit runs every shipped risk estimator unless
  // the caller pinned a registry; estimators draw no randomness, so the
  // match/MSE columns (and every verdict below) are unchanged by the
  // wider registry.
  ExperimentConfig experiment = options.experiment;
  if (experiment.estimators == nullptr) {
    experiment.estimators = &RiskEstimatorRegistry::All();
  }
  ExperimentEngine engine(encoded, result.metadata, risk_measures);
  METALEAK_ASSIGN_OR_RETURN(result.method_results,
                            engine.RunAll(methods, experiment));

  METALEAK_ASSIGN_OR_RETURN(std::vector<Domain> domains,
                            result.metadata.RequireDomains());
  const std::vector<AttributeExpectation> expected = ExpectRandomMatches(
      encoded, encoded.schema(), domains, options.experiment.leakage);
  const MethodResult& random = result.method_results[0];
  for (size_t c = 0; c < encoded.num_columns(); ++c) {
    AttributeAudit audit;
    audit.attribute = c;
    audit.name = expected[c].name;
    audit.semantic = expected[c].semantic;
    audit.expected_random_matches = expected[c].expected_random_matches;
    audit.domain_leaks = expected[c].domain_leaks;

    METALEAK_ASSIGN_OR_RETURN(MethodAttributeResult random_attr,
                              random.ForAttribute(c));
    audit.measured_random_matches = random_attr.mean_matches;
    audit.worst_dependency_matches = random_attr.mean_matches;
    double sigma = std::max(1.0, random_attr.stddev_matches);
    for (size_t m = 1; m < result.method_results.size(); ++m) {
      METALEAK_ASSIGN_OR_RETURN(
          MethodAttributeResult attr,
          result.method_results[m].ForAttribute(c));
      if (!attr.covered) continue;
      audit.worst_dependency_matches =
          std::max(audit.worst_dependency_matches, attr.mean_matches);
      if (attr.mean_matches >
          random_attr.mean_matches + 3.0 * sigma) {
        audit.dependency_adds_leakage = true;
      }
    }
    result.attributes.push_back(std::move(audit));
  }

  AuditCacheStats cache_stats;
  cache_stats.pli_hits = cache.hits() - pli_hits_before;
  cache_stats.pli_misses = cache.misses() - pli_misses_before;
  result.cache_stats = cache_stats;
  return result;
}

std::string AuditResult::ToMarkdown() const {
  std::ostringstream os;
  os << "# MetaLeak privacy audit\n\n";
  os << "Relation: " << metadata.num_rows << " rows, "
     << metadata.schema.num_attributes() << " attributes.\n\n";

  os << "## Identifiability (GDPR Art. 5 / Definition 2.1)\n\n";
  os << FormatDouble(100.0 * identifiable_fraction, 1)
     << "% of tuples are identifiable via small attribute subsets.\n\n";

  os << "## Discovered dependencies ("
     << metadata.dependencies.size() + metadata.conditional_fds.size()
     << ")\n\n";
  for (const Dependency& d : metadata.dependencies) {
    os << "- `" << d.ToString(metadata.schema) << "`\n";
  }
  for (const ConditionalFd& cfd : metadata.conditional_fds) {
    os << "- `" << cfd.ToString(metadata.schema) << "`\n";
  }
  os << '\n';

  if (!discovery_stats.empty()) {
    os << "## Discovery search statistics\n\n";
    TablePrinter stats_table;
    stats_table.SetHeader({"Search", "Nodes", "Pruned", "Validations",
                           "Reused", "PLI hit rate"});
    for (const ClassSearchStats& s : discovery_stats) {
      stats_table.AddRow(
          {s.search, std::to_string(s.stats.nodes_visited),
           std::to_string(s.stats.candidates_pruned),
           std::to_string(s.stats.validator_invocations),
           std::to_string(s.stats.verdicts_reused),
           FormatDouble(s.stats.PliCacheHitRate(), 3)});
    }
    os << stats_table.ToMarkdown() << '\n';
  }

  os << "## Kernel dispatch\n\n";
  os << "Inner scans ran with `" << SimdLevelName(ActiveSimdLevel())
     << "` kernels (host supports `" << SimdLevelName(SupportedSimdLevel())
     << "`, `METALEAK_SIMD=" << SimdEnvSetting()
     << "`). All levels produce byte-identical results.\n\n";

  if (cache_stats.has_value()) {
    os << "## Cache observability\n\n";
    TablePrinter cache_table;
    cache_table.SetHeader({"Counter", "Value"});
    cache_table.AddRow({"PLI cache hits (this audit)",
                        std::to_string(cache_stats->pli_hits)});
    cache_table.AddRow({"PLI cache misses (this audit)",
                        std::to_string(cache_stats->pli_misses)});
    cache_table.AddRow(
        {"PLI cache hit rate", FormatDouble(cache_stats->PliHitRate(), 3)});
    cache_table.AddRow({"Snapshot cache hits",
                        std::to_string(cache_stats->snapshot_hits)});
    cache_table.AddRow({"Snapshot cache misses",
                        std::to_string(cache_stats->snapshot_misses)});
    cache_table.AddRow({"Snapshot cache evictions",
                        std::to_string(cache_stats->snapshot_evictions)});
    os << cache_table.ToMarkdown() << '\n';
  }

  // Beyond-match-rate measures from the estimator registry, present when
  // some method ran on the encoded path with the info-theoretic
  // estimator registered. Entropy columns are batch-independent; the MI
  // and NN-linkage columns take the worst (largest) mean across methods.
  const std::string info_name = InfoTheoreticEstimator::Instance().name();
  const std::string nn_name = NnLinkageEstimator::Instance().name();
  const MethodResult* info_src = nullptr;
  for (const MethodResult& m : method_results) {
    Result<RiskMeasureStats> e = m.ForMeasure(info_name, "entropy_bits");
    if (e.ok() && e->active) {
      info_src = &m;
      break;
    }
  }
  if (info_src != nullptr) {
    std::vector<std::optional<double>> max_mi(attributes.size());
    std::vector<std::optional<double>> nn_eps(attributes.size());
    std::vector<std::optional<double>> nn_top1(attributes.size());
    auto fold_max = [&](const Result<RiskMeasureStats>& stats,
                       std::vector<std::optional<double>>* into) {
      if (!stats.ok() || !stats->active) return;
      for (size_t c = 0; c < into->size() && c < stats->mean.size(); ++c) {
        if (stats->rounds[c] == 0) continue;
        std::optional<double>& cell = (*into)[c];
        if (!cell.has_value() || stats->mean[c] > *cell) {
          cell = stats->mean[c];
        }
      }
    };
    for (const MethodResult& m : method_results) {
      fold_max(m.ForMeasure(info_name, "mi_bits"), &max_mi);
      fold_max(m.ForMeasure(nn_name, "nn_eps_matches"), &nn_eps);
      fold_max(m.ForMeasure(nn_name, "nn_top1_hits"), &nn_top1);
    }
    Result<RiskMeasureStats> entropy =
        info_src->ForMeasure(info_name, "entropy_bits");
    Result<RiskMeasureStats> cond =
        info_src->ForMeasure(info_name, "cond_entropy_bits");
    auto fmt = [](const std::optional<double>& v) {
      return v.has_value() ? FormatDouble(*v, 3) : std::string("-");
    };
    os << "## Risk estimators\n\n";
    TablePrinter risk_table;
    risk_table.SetHeader({"Attribute", "H (bits)", "min H given dep (bits)",
                          "Max MI (bits)", "NN eps links", "NN top-1"});
    for (size_t c = 0; c < attributes.size(); ++c) {
      std::optional<double> h, h_cond;
      if (entropy.ok() && c < entropy->mean.size() &&
          entropy->rounds[c] > 0) {
        h = entropy->mean[c];
      }
      if (cond.ok() && c < cond->mean.size() && cond->rounds[c] > 0) {
        h_cond = cond->mean[c];
      }
      risk_table.AddRow({attributes[c].name, fmt(h), fmt(h_cond),
                         fmt(max_mi[c]), fmt(nn_eps[c]), fmt(nn_top1[c])});
    }
    os << risk_table.ToMarkdown() << '\n';
  }

  os << "## Per-attribute verdicts\n\n";
  TablePrinter table;
  table.SetHeader({"Attribute", "E[random matches]", "Measured random",
                   "Worst dependency method", "Verdict"});
  for (const AttributeAudit& a : attributes) {
    std::string verdict;
    if (a.dependency_adds_leakage) {
      verdict = "DEPENDENCY LEAKS — withhold it";
    } else if (a.domain_leaks) {
      verdict = "domain leaks — withhold domain";
    } else {
      verdict = "safe to share";
    }
    table.AddRow({a.name, FormatDouble(a.expected_random_matches, 3),
                  FormatDouble(a.measured_random_matches, 3),
                  FormatDouble(a.worst_dependency_matches, 3), verdict});
  }
  os << table.ToMarkdown() << '\n';

  os << "## Recommendation\n\n";
  bool any_dep_leak = false;
  bool any_domain_leak = false;
  for (const AttributeAudit& a : attributes) {
    any_dep_leak |= a.dependency_adds_leakage;
    any_domain_leak |= a.domain_leaks;
  }
  if (any_dep_leak) {
    os << "Some dependency metadata leaks beyond the random baseline "
          "(typically constant patterns or skew-revealing structure): "
          "review the flagged attributes before sharing dependencies.\n";
  } else if (any_domain_leak) {
    os << "Dependencies add no leakage, but domain disclosure alone "
          "already implies expected leakage on some attributes: share "
          "attribute names and dependencies, withhold domains where "
          "flagged (the paper's Section VI policy).\n";
  } else {
    os << "No expected leakage at the audited disclosure level.\n";
  }
  return os.str();
}

}  // namespace metaleak
