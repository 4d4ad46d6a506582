// MetadataPackage: the artifact one VFL party sends to another.
//
// The paper studies exactly this object: attribute names (and types),
// domains, table dimensions, and functional / relaxed functional
// dependencies. A DisclosureLevel selects how much of it is filled in, so
// experiments can compare privacy leakage across disclosure policies.
#ifndef METALEAK_METADATA_METADATA_PACKAGE_H_
#define METALEAK_METADATA_METADATA_PACKAGE_H_

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/domain.h"
#include "data/schema.h"
#include "metadata/conditional_fd.h"
#include "metadata/dependency_set.h"
#include "metadata/value_distribution.h"

namespace metaleak {

/// How much metadata a party discloses. Levels are cumulative.
enum class DisclosureLevel {
  /// Attribute names and types only.
  kNames = 0,
  /// + per-attribute domains and the row count.
  kNamesAndDomains = 1,
  /// + strict functional dependencies.
  kWithFds = 2,
  /// + relaxed functional dependencies (AFD/ND/OD/DD/OFD).
  kWithRfds = 3,
  /// + empirical value distributions (histograms / frequency tables).
  /// Beyond the paper's model — its analysis assumes distributions stay
  /// private; this level exists for the distribution-disclosure ablation.
  kWithDistributions = 4,
};

std::string DisclosureLevelToString(DisclosureLevel level);

struct MetadataPackage {
  Schema schema;
  /// Row count of the source relation; 0 when not disclosed.
  size_t num_rows = 0;
  /// Parallel to schema; nullopt when domains are not disclosed.
  std::vector<std::optional<Domain>> domains;
  DependencySet dependencies;
  /// Conditional FDs (disclosed with the other RFDs at kWithRfds).
  std::vector<ConditionalFd> conditional_fds;
  /// Parallel to schema; filled only at kWithDistributions.
  std::vector<std::optional<ValueDistribution>> distributions;

  /// True when every attribute has a disclosed domain.
  bool HasAllDomains() const;

  /// The domains as a dense vector; fails if any is missing or if a
  /// continuous domain has a non-finite bound. Generation (both paths)
  /// and the audit's analytical side take their domains from here.
  Result<std::vector<Domain>> RequireDomains() const;

  /// Copy with everything above `level` stripped out.
  MetadataPackage Restrict(DisclosureLevel level) const;

  /// Line-based text serialization (stable across versions; see .cc for
  /// the grammar). Categorical domain values must not contain '|' or tabs.
  std::string Serialize() const;

  /// Parses Serialize() output.
  static Result<MetadataPackage> Deserialize(const std::string& text);
};

}  // namespace metaleak

#endif  // METALEAK_METADATA_METADATA_PACKAGE_H_
