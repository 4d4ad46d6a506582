// Reference ND search: the test oracle for DiscoverNds and the bounded
// fan-out scan behind it.
//
// Enumerates every candidate X -> A with 1 <= |X| <= max_lhs over the
// attribute bitmasks, in order of growing |X|, and validates it unless
// some proper subset of X already holds for A: the lattice's per-RHS
// prune, the only one ND takes. Each candidate builds its LHS partition
// from the codes (PositionListIndex::FromEncoded, no cache), takes the
// unbounded MaxFanout K against the RHS partition and applies the
// validator's predicates as written: K <= 1 holds silently, and K is
// emitted (and holds) when K <= max_fanout_fraction * |Y| and
// K + min_slack <= |Y|. The library stops each fan-out scan past the
// largest K that could still emit; both must reach the same verdicts.
#ifndef METALEAK_TESTS_REFERENCE_ND_REFERENCE_H_
#define METALEAK_TESTS_REFERENCE_ND_REFERENCE_H_

#include <cstddef>

#include "data/encoded_relation.h"
#include "discovery/rfd_discovery.h"
#include "metadata/dependency_set.h"

namespace metaleak {
namespace reference {

struct NdSearch {
  /// The emitted NDs, canonicalized.
  DependencySet dependencies;
  /// Candidates validated (the lattice's validator_invocations).
  size_t validations = 0;
};

/// Brute-force ND discovery over `relation` under `options` (relations
/// of at most 16 attributes).
NdSearch DiscoverNds(const EncodedRelation& relation,
                     const NdDiscoveryOptions& options);

}  // namespace reference
}  // namespace metaleak

#endif  // METALEAK_TESTS_REFERENCE_ND_REFERENCE_H_
