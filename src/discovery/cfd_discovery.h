// Discovery of conditional functional dependencies.
#ifndef METALEAK_DISCOVERY_CFD_DISCOVERY_H_
#define METALEAK_DISCOVERY_CFD_DISCOVERY_H_

#include <vector>

#include "common/result.h"
#include "metadata/conditional_fd.h"
#include "partition/pli_cache.h"

namespace metaleak {

struct CfdDiscoveryOptions {
  /// Minimum rows the condition must select.
  size_t min_support = 8;
  /// Only conditioning attributes with at most this many distinct values
  /// are tried (conditions on near-key attributes are noise).
  size_t max_condition_distinct = 16;
  /// Skip variable CFDs whose embedded FD also holds globally (those are
  /// plain FDs, reported by TANE).
  bool skip_global_fds = true;
};

/// Finds single-condition CFDs on the dictionary codes of the cache's
/// encoding:
///   * variable form  [C=c] => (X -> A) with single-attribute X, where
///     the FD fails globally but holds on the condition's rows;
///   * constant form  [X=x] => (A = a), where every row with X=x carries
///     the same A value (and X -> A fails globally).
/// Condition values are tried in the order of their first row, and NULL
/// equals NULL inside a scoped FD, as in PositionListIndex::Refines. The
/// global FD checks read the cache's single-attribute partitions.
Result<std::vector<ConditionalFd>> DiscoverCfds(
    PliCache* cache, const CfdDiscoveryOptions& options = {});

}  // namespace metaleak

#endif  // METALEAK_DISCOVERY_CFD_DISCOVERY_H_
