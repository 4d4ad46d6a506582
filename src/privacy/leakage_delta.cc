#include "privacy/leakage_delta.h"

#include <cmath>
#include <sstream>

#include "common/string_util.h"
#include "privacy/analytical.h"

namespace metaleak {

std::vector<AttributeExpectation> ExpectRandomMatches(
    const EncodedRelation& encoded, const Schema& schema,
    const std::vector<Domain>& domains, const LeakageOptions& leakage) {
  std::vector<AttributeExpectation> out(encoded.num_columns());
  for (size_t c = 0; c < out.size(); ++c) {
    AttributeExpectation& attr = out[c];
    attr.attribute = c;
    attr.name = schema.attribute(c).name;
    attr.semantic = schema.attribute(c).semantic;
    // Non-null cells, straight off the dictionary: code 0 is NULL.
    attr.compared = encoded.num_rows() - encoded.dictionary(c).null_count();
    if (attr.semantic == SemanticType::kCategorical) {
      attr.expected_random_matches =
          ExpectedRandomCategoricalMatches(attr.compared, domains[c]);
    } else {
      double eps = leakage.absolute_epsilon.has_value()
                       ? *leakage.absolute_epsilon
                       : leakage.epsilon_fraction * domains[c].range();
      attr.expected_random_matches =
          ExpectedRandomContinuousMatches(attr.compared, domains[c], eps);
    }
    attr.domain_leaks = attr.expected_random_matches >= 1.0;
  }
  return out;
}

Result<LeakageProfile> ComputeLeakageProfile(const EncodedRelation& encoded,
                                             const MetadataPackage& metadata,
                                             const LeakageOptions& leakage) {
  if (encoded.num_columns() != metadata.schema.num_attributes()) {
    return Status::Invalid(
        "metadata schema does not match the encoded relation");
  }
  METALEAK_ASSIGN_OR_RETURN(std::vector<Domain> domains,
                            metadata.RequireDomains());
  LeakageProfile profile;
  profile.schema = metadata.schema;
  profile.num_rows = encoded.num_rows();
  profile.dependencies = metadata.dependencies;
  profile.num_conditional_fds = metadata.conditional_fds.size();
  profile.attributes =
      ExpectRandomMatches(encoded, metadata.schema, domains, leakage);
  METALEAK_ASSIGN_OR_RETURN(profile.risk_measures,
                            ComputeProfileMeasures(encoded, metadata));
  return profile;
}

Result<LeakageDelta> DiffLeakageProfiles(const LeakageProfile& before,
                                         const LeakageProfile& after) {
  if (before.attributes.size() != after.attributes.size()) {
    return Status::Invalid("leakage profiles have different widths");
  }
  LeakageDelta delta;
  delta.rows_delta = static_cast<long long>(after.num_rows) -
                     static_cast<long long>(before.num_rows);
  delta.expected_matches_delta.reserve(after.attributes.size());
  for (size_t c = 0; c < after.attributes.size(); ++c) {
    const AttributeExpectation& b = before.attributes[c];
    const AttributeExpectation& a = after.attributes[c];
    delta.expected_matches_delta.push_back(a.expected_random_matches -
                                           b.expected_random_matches);
    if (!b.domain_leaks && a.domain_leaks) delta.newly_leaking.push_back(c);
    if (b.domain_leaks && !a.domain_leaks) {
      delta.no_longer_leaking.push_back(c);
    }
  }
  for (const Dependency& d : after.dependencies.all()) {
    if (!before.dependencies.Contains(d)) {
      delta.dependencies_added.push_back(d);
    }
  }
  for (const Dependency& d : before.dependencies.all()) {
    if (!after.dependencies.Contains(d)) {
      delta.dependencies_removed.push_back(d);
    }
  }
  // Diff every measure column both profiles carry. A threshold of 1e-12
  // bits separates real drift from the profile recomputation's own
  // rounding; presence flips (a conditional-entropy bound appearing or
  // vanishing with its dependency) always count.
  constexpr double kDriftThreshold = 1e-12;
  for (const RiskProfileMeasure& b : before.risk_measures) {
    const RiskProfileMeasure* a = nullptr;
    for (const RiskProfileMeasure& candidate : after.risk_measures) {
      if (candidate.estimator == b.estimator &&
          candidate.measure == b.measure) {
        a = &candidate;
        break;
      }
    }
    if (a == nullptr || a->cells.size() != b.cells.size()) continue;
    for (size_t c = 0; c < b.cells.size(); ++c) {
      const RiskMeasureCell& before_cell = b.cells[c];
      const RiskMeasureCell& after_cell = a->cells[c];
      const bool presence_flip = before_cell.present != after_cell.present;
      const bool moved =
          before_cell.present && after_cell.present &&
          std::abs(after_cell.value - before_cell.value) > kDriftThreshold;
      if (presence_flip || moved) {
        delta.measure_drifts.push_back(
            MeasureDrift{b.estimator, b.measure, c, before_cell, after_cell});
      }
    }
  }
  return delta;
}

std::string LeakageDelta::ToString(const Schema& schema) const {
  if (empty()) return "";
  std::ostringstream os;
  if (rows_delta != 0) {
    os << "rows " << (rows_delta > 0 ? "+" : "") << rows_delta << "\n";
  }
  for (size_t c : newly_leaking) {
    os << schema.attribute(c).name
       << ": domain now leaks (E[matches] crossed 1, delta "
       << FormatDouble(expected_matches_delta[c], 3) << ")\n";
  }
  for (size_t c : no_longer_leaking) {
    os << schema.attribute(c).name
       << ": domain no longer leaks (E[matches] dropped below 1, delta "
       << FormatDouble(expected_matches_delta[c], 3) << ")\n";
  }
  for (const Dependency& d : dependencies_added) {
    os << "+ " << d.ToString(schema) << "\n";
  }
  for (const Dependency& d : dependencies_removed) {
    os << "- " << d.ToString(schema) << "\n";
  }
  for (const MeasureDrift& drift : measure_drifts) {
    os << schema.attribute(drift.attribute).name << ": "
       << drift.estimator << "/" << drift.measure << " ";
    if (!drift.before.present) {
      os << "appeared at " << FormatDouble(drift.after.value, 3);
    } else if (!drift.after.present) {
      os << "vanished (was " << FormatDouble(drift.before.value, 3) << ")";
    } else {
      os << FormatDouble(drift.before.value, 3) << " -> "
         << FormatDouble(drift.after.value, 3);
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace metaleak
