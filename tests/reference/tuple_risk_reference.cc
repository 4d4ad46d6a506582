#include "reference/tuple_risk_reference.h"

#include <algorithm>
#include <cmath>

#include "common/random.h"
#include "data/domain.h"
#include "generation/generation_engine.h"

namespace metaleak {
namespace reference {

namespace {

bool CellMatches(const Value& real, const Value& syn, SemanticType semantic,
                 double epsilon) {
  if (real.is_null() || syn.is_null()) return false;
  const bool numeric = real.is_numeric() && syn.is_numeric();
  if (semantic == SemanticType::kCategorical) {
    return real == syn || (numeric && real.AsNumeric() == syn.AsNumeric());
  }
  return numeric && std::abs(real.AsNumeric() - syn.AsNumeric()) <= epsilon;
}

}  // namespace

Result<std::vector<TupleRisk>> TupleRiskByCell(
    const Relation& real, const MetadataPackage& metadata,
    const TupleRiskOptions& options) {
  const size_t n = real.num_rows();
  const size_t m = real.num_columns();
  std::vector<double> epsilons(m, 0.0);
  std::vector<size_t> non_null(n, 0);
  for (size_t c = 0; c < m; ++c) {
    for (size_t r = 0; r < n; ++r) {
      if (!real.at(r, c).is_null()) ++non_null[r];
    }
    if (real.schema().attribute(c).semantic != SemanticType::kContinuous) {
      continue;
    }
    if (options.leakage.absolute_epsilon.has_value()) {
      epsilons[c] = *options.leakage.absolute_epsilon;
    } else {
      Result<Domain> domain = ExtractDomain(real, c);
      epsilons[c] =
          domain.ok() ? options.leakage.epsilon_fraction * domain->range()
                      : 0.0;
    }
  }

  std::vector<TupleRisk> tuples(n);
  for (size_t r = 0; r < n; ++r) tuples[r].row = r;
  std::vector<size_t> half_rounds(n, 0);
  Rng rng(options.seed);
  for (size_t round = 0; round < options.rounds; ++round) {
    Rng round_rng = rng.Fork();
    METALEAK_ASSIGN_OR_RETURN(GenerationOutcome outcome,
                              GenerateSynthetic(metadata, n, &round_rng));
    for (size_t r = 0; r < n; ++r) {
      size_t matched = 0;
      for (size_t c = 0; c < m; ++c) {
        matched += CellMatches(real.at(r, c), outcome.relation.at(r, c),
                               real.schema().attribute(c).semantic,
                               epsilons[c]);
      }
      TupleRisk& t = tuples[r];
      t.mean_matched_attributes += static_cast<double>(matched);
      t.max_matched_attributes = std::max(t.max_matched_attributes, matched);
      if (non_null[r] > 0 && 2 * matched >= non_null[r]) ++half_rounds[r];
    }
  }
  const double rounds = static_cast<double>(options.rounds);
  for (size_t r = 0; r < n; ++r) {
    tuples[r].mean_matched_attributes /= rounds;
    tuples[r].half_reconstructed_rate =
        static_cast<double>(half_rounds[r]) / rounds;
  }
  std::stable_sort(tuples.begin(), tuples.end(),
                   [](const TupleRisk& a, const TupleRisk& b) {
                     return a.mean_matched_attributes >
                            b.mean_matched_attributes;
                   });
  return tuples;
}

}  // namespace reference
}  // namespace metaleak
