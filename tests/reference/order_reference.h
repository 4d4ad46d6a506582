// Reference order-dependency checks: the test oracle for ValidateOd /
// ValidateOfd at every LHS width.
//
// This is the sorted-pair scan: collect every row's (lhs, rhs) Values,
// drop rows with a NULL on either side, sort the pairs by (lhs, rhs) in
// Value order, and compare each adjacent pair. An lhs tie must repeat the
// rhs; an lhs step must not lower the rhs (OD) or must raise it (OFD).
// The encoded overloads decode every code back to its Value first, so
// the oracle orders by Value and does not rely on codes being
// order-preserving. It costs O(n log n) boxed comparisons per check,
// which is why the library runs one linear pass over the codes instead.
// Both must return the same verdict on every input.
//
// The AttributeSet overloads do the same with LHS tuples: every row
// with no NULL among the LHS columns and the rhs becomes a tuple of
// decoded Values (LHS attributes ascending, then the rhs), the tuples
// are sorted lexicographically in Value order, and adjacent tuples are
// compared: equal LHS parts must repeat the rhs, a rising LHS part must
// not lower it (OD) or must raise it (OFD). The library instead folds
// the LHS codes into an order-preserving rank with counting passes.
#ifndef METALEAK_TESTS_REFERENCE_ORDER_REFERENCE_H_
#define METALEAK_TESTS_REFERENCE_ORDER_REFERENCE_H_

#include <cstddef>

#include "data/encoded_relation.h"
#include "data/relation.h"
#include "partition/attribute_set.h"

namespace metaleak {
namespace reference {

/// OD lhs -> rhs over the Values of `relation`.
bool ValidateOd(const Relation& relation, size_t lhs, size_t rhs);

/// OD lhs -> rhs over the decoded Values of `relation`.
bool ValidateOd(const EncodedRelation& relation, size_t lhs, size_t rhs);

/// OFD lhs -> rhs (FD plus strict order) over the Values of `relation`.
bool ValidateOfd(const Relation& relation, size_t lhs, size_t rhs);

/// OFD lhs -> rhs over the decoded Values of `relation`.
bool ValidateOfd(const EncodedRelation& relation, size_t lhs, size_t rhs);

/// OD lhs -> rhs for an LHS of any width, ordered lexicographically by
/// the LHS attributes in ascending index order, over the decoded Values.
bool ValidateOd(const EncodedRelation& relation, AttributeSet lhs,
                size_t rhs);

/// OFD lhs -> rhs under the same lexicographic LHS order.
bool ValidateOfd(const EncodedRelation& relation, AttributeSet lhs,
                 size_t rhs);

}  // namespace reference
}  // namespace metaleak

#endif  // METALEAK_TESTS_REFERENCE_ORDER_REFERENCE_H_
