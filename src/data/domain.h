// Domain: the value space of an attribute, as disclosed in metadata.
//
// This is Dom(A)/D_A from the paper. A party that shares "attribute name +
// domain" discloses exactly a Domain object; the adversary's random
// generator samples uniformly from it (the paper's undisclosed-distribution
// assumption).
#ifndef METALEAK_DATA_DOMAIN_H_
#define METALEAK_DATA_DOMAIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "data/relation.h"
#include "data/value.h"

namespace metaleak {

/// Either a finite categorical value set or a continuous [min, max] range.
class Domain {
 public:
  Domain() = default;

  /// Finite domain listing every admissible value, sorted in Value order
  /// and deduplicated by the factory; input that is already strictly
  /// ascending (a dictionary's distinct values) is kept as given. The
  /// leakage scan's merge walk relies on this order. |D_A| =
  /// values.size().
  static Domain Categorical(std::vector<Value> values);

  /// Continuous range [lo, hi]. |D_A| is taken as (hi - lo) when the
  /// analytical model needs a "size" (the paper's range(X)).
  static Domain Continuous(double lo, double hi);

  bool is_categorical() const { return categorical_; }
  bool is_continuous() const { return !categorical_; }

  /// Categorical accessors.
  const std::vector<Value>& values() const { return values_; }

  /// Continuous accessors.
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  double range() const { return hi_ - lo_; }

  /// Cardinality proxy: value count for categorical domains, range width
  /// for continuous ones (> 0 guarded by callers). This is the |D_A| that
  /// appears in every expectation formula.
  double Size() const;

  /// Draws a value uniformly from the domain.
  Value Sample(Rng* rng) const;

  /// True if `v` lies inside the domain (exact membership for categorical,
  /// closed-interval containment for continuous).
  bool Contains(const Value& v) const;

  std::string ToString() const;

  friend bool operator==(const Domain& a, const Domain& b);

 private:
  bool categorical_ = true;
  std::vector<Value> values_;  // categorical only
  double lo_ = 0.0;            // continuous only
  double hi_ = 0.0;
};

/// Extracts per-attribute domains from a relation: categorical attributes
/// yield their distinct non-null value set; continuous attributes yield the
/// observed [min, max]. Fails if a continuous attribute has no non-null
/// numeric values.
Result<std::vector<Domain>> ExtractDomains(const Relation& relation);

/// Extracts the domain of a single attribute (see ExtractDomains).
Result<Domain> ExtractDomain(const Relation& relation, size_t attribute);

}  // namespace metaleak

#endif  // METALEAK_DATA_DOMAIN_H_
