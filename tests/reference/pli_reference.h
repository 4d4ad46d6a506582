// Reference position list indexes over boxed Values: the test oracle for
// PositionListIndex::FromCodes and FromEncoded.
//
// Rows are grouped by hashing their Value (or the tuple of Values of
// several columns) in an unordered map, and every group of two or more
// rows becomes a cluster. The clusters come out in hash-map order, so
// compare the canonical (sorted) cluster lists, not the raw layouts.
#ifndef METALEAK_TESTS_REFERENCE_PLI_REFERENCE_H_
#define METALEAK_TESTS_REFERENCE_PLI_REFERENCE_H_

#include <cstddef>
#include <vector>

#include "data/relation.h"
#include "data/value.h"
#include "partition/position_list_index.h"

namespace metaleak {
namespace reference {

/// The PLI of one column of Values (NULL equal to NULL).
PositionListIndex PliFromColumn(const std::vector<Value>& column);

/// The PLI of `columns` of `relation`: equality on the whole projection.
PositionListIndex PliFromColumns(const Relation& relation,
                                 const std::vector<size_t>& columns);

}  // namespace reference
}  // namespace metaleak

#endif  // METALEAK_TESTS_REFERENCE_PLI_REFERENCE_H_
