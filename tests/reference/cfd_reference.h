// Reference CFD discovery and validation over boxed Values: the test
// oracle for the library's DiscoverCfds, which runs on dictionary codes.
//
// Discovery hashes every cell's Value: it lists each column's distinct
// non-null Values in the order of their first row, groups rows by
// condition Value in unordered maps for the constant form, and checks a
// variable CFD by copying the condition's rows into a scope relation,
// encoding it and asking its own PLI cache whether the FD holds there.
// Both must emit the same CFDs in the same order, with the same Values
// and supports.
#ifndef METALEAK_TESTS_REFERENCE_CFD_REFERENCE_H_
#define METALEAK_TESTS_REFERENCE_CFD_REFERENCE_H_

#include <vector>

#include "common/result.h"
#include "data/relation.h"
#include "discovery/cfd_discovery.h"
#include "metadata/conditional_fd.h"

namespace metaleak {
namespace reference {

/// True iff `cfd` holds on `relation`: among rows where the condition
/// attribute equals the condition value, the embedded (variable or
/// constant) dependency is satisfied. Vacuously true when no row
/// matches. NULL condition cells never match a non-null constant.
Result<bool> ValidateCfd(const Relation& relation, const ConditionalFd& cfd);

/// DiscoverCfds over the Values of `relation`.
Result<std::vector<ConditionalFd>> DiscoverCfds(
    const Relation& relation, const CfdDiscoveryOptions& options = {});

}  // namespace reference
}  // namespace metaleak

#endif  // METALEAK_TESTS_REFERENCE_CFD_REFERENCE_H_
