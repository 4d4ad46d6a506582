// TANE: level-wise discovery of minimal functional dependencies
// (Huhtala, Kärkkäinen, Porkka, Toivonen — the algorithm the paper cites
// for FD discovery), extended with g3-threshold discovery of approximate
// functional dependencies (Kivinen–Mannila, Section IV-A of the paper).
//
// The search runs on the shared lattice kernel (discovery/lattice.h)
// with an FD/AFD validator: candidates are validated against
// stripped-partition refinement, exact FDs prune with TANE's full C+
// rule, and with max_g3_error > 0 non-exact candidates whose g3 error
// clears the threshold are emitted as AFDs (minimal by subset check).
#ifndef METALEAK_DISCOVERY_TANE_H_
#define METALEAK_DISCOVERY_TANE_H_

#include <cstddef>

#include "common/result.h"
#include "data/encoded_relation.h"
#include "data/relation.h"
#include "discovery/lattice.h"
#include "metadata/dependency_set.h"
#include "partition/pli_cache.h"

namespace metaleak {

struct TaneOptions {
  /// Maximum LHS size searched. Level l of the lattice emits FDs with
  /// |LHS| = l - 1; the default covers LHS sizes 0..3.
  size_t max_lhs_size = 3;
  /// When > 0, additionally emit approximate FDs with 0 < g3 <= this.
  double max_g3_error = 0.0;
  /// Skip FDs with an empty LHS (constant columns) — they are trivia for
  /// the privacy analysis but on by default for completeness.
  bool include_constant_columns = true;
};

struct TaneResult {
  /// Minimal FDs (and AFDs when enabled).
  DependencySet dependencies;
  /// Kernel counters for this search (nodes visited, candidates pruned,
  /// validator invocations, PLI cache hit rate).
  LatticeSearchStats stats;
};

/// Runs TANE on `relation`. Fails when the relation exceeds the 64
/// attribute limit of AttributeSet. Encodes the relation once and runs
/// the code-path search below.
Result<TaneResult> DiscoverFds(const Relation& relation,
                               const TaneOptions& options = {});

/// Runs TANE over a pre-built dictionary encoding: all partitions are
/// constructed from dense codes (counting-style grouping) instead of
/// `Value` hashing. Pipeline entry points that already hold an encoding
/// should call this overload.
Result<TaneResult> DiscoverFds(const EncodedRelation& relation,
                               const TaneOptions& options = {});

/// Runs TANE against a caller-owned PLI cache (the relation is the
/// cache's encoding); partitions built here stay warm for later
/// searches sharing the cache. `reuse` (optional) takes over prior
/// failures whose surviving witness still violates — see LatticeReuse
/// in discovery/lattice.h.
Result<TaneResult> DiscoverFds(PliCache* cache,
                               const TaneOptions& options = {},
                               const LatticeReuse* reuse = nullptr);

}  // namespace metaleak

#endif  // METALEAK_DISCOVERY_TANE_H_
