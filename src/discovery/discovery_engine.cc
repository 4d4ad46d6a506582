#include "discovery/discovery_engine.h"

#include "common/logging.h"
#include "data/domain.h"

namespace metaleak {

Result<DiscoveryReport> ProfileRelation(const Relation& relation,
                                        const DiscoveryOptions& options) {
  EncodedRelation encoded = EncodedRelation::Encode(relation);
  return ProfileRelation(encoded, options);
}

Result<DiscoveryReport> ProfileRelation(const EncodedRelation& relation,
                                        const DiscoveryOptions& options) {
  METALEAK_RETURN_NOT_OK(CheckAttributeCount(relation.num_columns()));
  // One PLI cache serves every partition-based search (FD/AFD and ND);
  // partitions built by one stay warm for the other.
  PliCache cache(&relation);
  return ProfileRelation(&cache, options);
}

Result<DiscoveryReport> ProfileRelation(PliCache* cache,
                                        const DiscoveryOptions& options,
                                        const DiscoveryReuse* reuse) {
  const EncodedRelation& relation = cache->encoded();
  static const DiscoveryReuse kNoReuse;
  if (reuse == nullptr) reuse = &kNoReuse;
  DiscoveryReport report;
  report.metadata.schema = relation.schema();
  report.metadata.num_rows = relation.num_rows();

  METALEAK_ASSIGN_OR_RETURN(std::vector<Domain> domains,
                            relation.Domains());
  report.metadata.domains.reserve(domains.size());
  for (Domain& d : domains) {
    report.metadata.domains.emplace_back(std::move(d));
  }

  report.metadata.distributions.assign(relation.num_columns(),
                                       std::nullopt);
  if (options.profile_distributions) {
    for (size_t c = 0; c < relation.num_columns(); ++c) {
      METALEAK_ASSIGN_OR_RETURN(
          ValueDistribution dist,
          ValueDistribution::FromEncoded(relation, c,
                                         options.distribution_buckets));
      report.metadata.distributions[c] = std::move(dist);
    }
  }

  if (options.discover_fds || options.discover_afds) {
    TaneOptions tane_options = options.tane;
    if (options.discover_afds && tane_options.max_g3_error == 0.0) {
      tane_options.max_g3_error = 0.05;
    }
    if (!options.discover_afds) tane_options.max_g3_error = 0.0;
    METALEAK_ASSIGN_OR_RETURN(TaneResult tane,
                              DiscoverFds(cache, tane_options, reuse->fd));
    report.search_stats.push_back({"FD/AFD", tane.stats});
    for (const Dependency& d : tane.dependencies) {
      if (d.kind == DependencyKind::kFunctional && !options.discover_fds) {
        continue;
      }
      report.metadata.dependencies.Add(d);
    }
  }
  if (options.discover_ods) {
    LatticeSearchStats stats;
    METALEAK_ASSIGN_OR_RETURN(DependencySet ods,
                              DiscoverOds(relation, options.od, &stats));
    report.search_stats.push_back({"OD", stats});
    for (const Dependency& d : ods) report.metadata.dependencies.Add(d);
  }
  if (options.discover_ofds) {
    LatticeSearchStats stats;
    METALEAK_ASSIGN_OR_RETURN(DependencySet ofds,
                              DiscoverOfds(relation, options.od, &stats));
    report.search_stats.push_back({"OFD", stats});
    for (const Dependency& d : ofds) report.metadata.dependencies.Add(d);
  }
  if (options.discover_nds) {
    LatticeSearchStats stats;
    METALEAK_ASSIGN_OR_RETURN(DependencySet nds,
                              DiscoverNds(cache, options.nd, &stats));
    report.search_stats.push_back({"ND", stats});
    for (const Dependency& d : nds) report.metadata.dependencies.Add(d);
  }
  if (options.discover_dds) {
    LatticeSearchStats stats;
    METALEAK_ASSIGN_OR_RETURN(DependencySet dds,
                              DiscoverDds(relation, options.dd, &stats, reuse->dd));
    report.search_stats.push_back({"DD", stats});
    for (const Dependency& d : dds) report.metadata.dependencies.Add(d);
  }
  if (options.discover_cfds) {
    METALEAK_ASSIGN_OR_RETURN(report.metadata.conditional_fds,
                              DiscoverCfds(cache, options.cfd));
  }

  METALEAK_LOG(kInfo) << "profiled relation: " << relation.num_rows()
                      << " rows, " << relation.num_columns()
                      << " attributes, "
                      << report.metadata.dependencies.size()
                      << " dependencies";
  return report;
}

}  // namespace metaleak
