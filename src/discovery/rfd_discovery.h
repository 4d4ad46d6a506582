// Discovery of relaxed functional dependencies: order dependencies,
// ordered FDs, numerical dependencies and differential dependencies
// (Sections IV-B..IV-E of the paper).
//
// All four classes run on the shared lattice kernel
// (discovery/lattice.h) with per-class validators. The default
// `max_lhs = 1` searches exactly the canonical single-attribute form
// X -> Y the paper's generation analysis uses; raising it extends the
// search to multi-attribute LHS sets (lexicographic order for OD/OFD,
// composite partitions for ND, conjunctive windows for DD).
#ifndef METALEAK_DISCOVERY_RFD_DISCOVERY_H_
#define METALEAK_DISCOVERY_RFD_DISCOVERY_H_

#include "common/result.h"
#include "data/encoded_relation.h"
#include "data/relation.h"
#include "discovery/lattice.h"
#include "metadata/dependency_set.h"
#include "partition/pli_cache.h"

namespace metaleak {

struct OdDiscoveryOptions {
  /// Skip ODs whose LHS has fewer than this many distinct non-null
  /// values; single-valued LHS columns make the OD vacuous. With a
  /// multi-attribute LHS the bound applies to every member attribute.
  size_t min_lhs_distinct = 2;
  /// Maximum LHS size searched (1 = the paper's canonical form).
  size_t max_lhs = 1;
};

/// Finds all order dependencies X -> Y (Y not in X) that hold on
/// `relation`. The `Relation` overloads encode once and run the
/// code-path versions; callers that already hold an encoding should
/// pass it directly. When `stats` is non-null the kernel counters for
/// the search land there.
Result<DependencySet> DiscoverOds(const Relation& relation,
                                  const OdDiscoveryOptions& options = {},
                                  LatticeSearchStats* stats = nullptr);
Result<DependencySet> DiscoverOds(const EncodedRelation& relation,
                                  const OdDiscoveryOptions& options = {},
                                  LatticeSearchStats* stats = nullptr);

/// Finds all ordered functional dependencies (FD + strict order).
Result<DependencySet> DiscoverOfds(const Relation& relation,
                                   const OdDiscoveryOptions& options = {},
                                   LatticeSearchStats* stats = nullptr);
Result<DependencySet> DiscoverOfds(const EncodedRelation& relation,
                                   const OdDiscoveryOptions& options = {},
                                   LatticeSearchStats* stats = nullptr);

struct NdDiscoveryOptions {
  /// An ND X ->(<=K) Y is reported only when K is at most this fraction of
  /// Y's distinct-value count — otherwise the "constraint" is trivial.
  double max_fanout_fraction = 0.75;
  /// And only when K is at least 2 smaller than Y's distinct count.
  size_t min_slack = 2;
  /// Maximum LHS size searched (1 = the paper's canonical form).
  size_t max_lhs = 1;
};

/// Finds numerical dependencies with their minimal fan-out K.
Result<DependencySet> DiscoverNds(const Relation& relation,
                                  const NdDiscoveryOptions& options = {},
                                  LatticeSearchStats* stats = nullptr);
Result<DependencySet> DiscoverNds(const EncodedRelation& relation,
                                  const NdDiscoveryOptions& options = {},
                                  LatticeSearchStats* stats = nullptr);

/// ND search against a caller-owned PLI cache (the relation is the
/// cache's encoding); shares partitions with other searches on the same
/// cache.
Result<DependencySet> DiscoverNds(PliCache* cache,
                                  const NdDiscoveryOptions& options = {},
                                  LatticeSearchStats* stats = nullptr);

struct DdDiscoveryOptions {
  /// LHS neighbourhood radius, as a fraction of the LHS attribute range
  /// (applied per attribute for multi-attribute LHS sets).
  double epsilon_fraction = 0.05;
  /// A DD is reported only when the minimal delta is at most this
  /// fraction of the RHS range — i.e. the LHS proximity genuinely
  /// constrains the RHS.
  double max_delta_fraction = 0.5;
  /// Maximum LHS size searched (1 = the paper's canonical form).
  size_t max_lhs = 1;
};

/// Finds differential dependencies between continuous attributes,
/// recording the epsilons used and the minimal delta measured.
Result<DependencySet> DiscoverDds(const Relation& relation,
                                  const DdDiscoveryOptions& options = {},
                                  LatticeSearchStats* stats = nullptr);
Result<DependencySet> DiscoverDds(const EncodedRelation& relation,
                                  const DdDiscoveryOptions& options = {},
                                  LatticeSearchStats* stats = nullptr,
                                  const LatticeReuse* reuse = nullptr);

}  // namespace metaleak

#endif  // METALEAK_DISCOVERY_RFD_DISCOVERY_H_
