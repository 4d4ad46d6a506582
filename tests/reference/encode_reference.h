// Reference dictionary encoder: the test oracle for EncodedRelation::Encode.
//
// This is the straightforward sort + lower_bound build: copy every non-null
// Value of a column, sort and unique them, then binary-search each row's
// value for its code. It costs O(n log n) boxed Value comparisons per
// column, which is why the library encodes with a typed hash-dedup pass
// instead. Both must produce the same dictionaries, counts, code widths,
// codes and fingerprint.
#ifndef METALEAK_TESTS_REFERENCE_ENCODE_REFERENCE_H_
#define METALEAK_TESTS_REFERENCE_ENCODE_REFERENCE_H_

#include "data/encoded_relation.h"
#include "data/relation.h"

namespace metaleak {
namespace reference {

/// Encodes `relation` by sorting every non-null cell and binary-searching
/// each row. Honors the code-width floor override like Encode does.
EncodedRelation Encode(const Relation& relation);

}  // namespace reference
}  // namespace metaleak

#endif  // METALEAK_TESTS_REFERENCE_ENCODE_REFERENCE_H_
