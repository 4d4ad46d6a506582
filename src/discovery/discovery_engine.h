// DiscoveryEngine: profiles a relation into a full MetadataPackage —
// the object a VFL party would share.
#ifndef METALEAK_DISCOVERY_DISCOVERY_ENGINE_H_
#define METALEAK_DISCOVERY_DISCOVERY_ENGINE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "data/encoded_relation.h"
#include "data/relation.h"
#include "discovery/cfd_discovery.h"
#include "discovery/lattice.h"
#include "discovery/rfd_discovery.h"
#include "discovery/tane.h"
#include "metadata/metadata_package.h"

namespace metaleak {

struct DiscoveryOptions {
  TaneOptions tane;
  OdDiscoveryOptions od;
  NdDiscoveryOptions nd;
  DdDiscoveryOptions dd;
  CfdDiscoveryOptions cfd;
  /// Also profile per-attribute value distributions (frequency tables /
  /// histograms) into the package. Off by default: the paper's model
  /// assumes distributions are never disclosed.
  bool profile_distributions = false;
  /// Histogram bucket count used when profiling distributions.
  size_t distribution_buckets = 16;
  /// Class toggles; OFDs are implied by ODs+FDs but recorded explicitly
  /// because the paper analyzes their generation separately.
  bool discover_fds = true;
  bool discover_afds = false;
  bool discover_ods = true;
  bool discover_ofds = true;
  bool discover_nds = true;
  bool discover_dds = true;
  /// Conditional FDs; off by default (quadratic-in-values scan).
  bool discover_cfds = false;
};

/// Kernel counters for one class's search, labeled by the search name
/// ("FD/AFD", "OD", "OFD", "ND", "DD").
struct ClassSearchStats {
  std::string search;
  LatticeSearchStats stats;
};

struct DiscoveryReport {
  MetadataPackage metadata;
  /// Per-class lattice-search statistics, in the order the searches ran.
  std::vector<ClassSearchStats> search_stats;

  /// Sum over all searches (convenience for coarse reporting).
  LatticeSearchStats TotalSearchStats() const {
    LatticeSearchStats total;
    for (const ClassSearchStats& s : search_stats) total.Accumulate(s.stats);
    return total;
  }
};

/// Runs every enabled discovery algorithm and assembles the metadata
/// package (names, domains, row count, dependencies). Dictionary-encodes
/// the relation once and threads the encoding through every discovery
/// pass below.
Result<DiscoveryReport> ProfileRelation(const Relation& relation,
                                        const DiscoveryOptions& options = {});

/// Profiles an already-encoded relation: domains and value distributions
/// are read from the per-column dictionaries, and every search, CFD
/// discovery included, runs on the dense codes; `relation.source()` is
/// never read.
Result<DiscoveryReport> ProfileRelation(const EncodedRelation& relation,
                                        const DiscoveryOptions& options = {});

/// Witness-reuse hooks for revalidation (see discovery/revalidate.h,
/// which assembles them from a batch window). FD and DD are the classes
/// whose failures name a witness; null members, and every other class,
/// run the search from scratch.
struct DiscoveryReuse {
  const LatticeReuse* fd = nullptr;
  const LatticeReuse* dd = nullptr;
};

/// Profiles against a caller-owned PLI cache (the relation is the
/// cache's encoding): partitions built by the searches stay warm in the
/// caller's cache for later audit / leakage queries on the same
/// snapshot. The other overloads delegate here with a transient cache.
/// `reuse` may be null; when given, its FD and DD prior failures that a
/// surviving witness still proves are taken over (see LatticeReuse).
Result<DiscoveryReport> ProfileRelation(PliCache* cache,
                                        const DiscoveryOptions& options = {},
                                        const DiscoveryReuse* reuse = nullptr);

}  // namespace metaleak

#endif  // METALEAK_DISCOVERY_DISCOVERY_ENGINE_H_
