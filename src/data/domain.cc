#include "data/domain.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/macros.h"

namespace metaleak {

Domain Domain::Categorical(std::vector<Value> values) {
  // Dictionaries hand over their distinct values already strictly
  // ascending, which sorting and deduplicating would leave as they are.
  const bool strictly_ascending =
      std::adjacent_find(values.begin(), values.end(),
                         [](const Value& a, const Value& b) {
                           return !(a < b);
                         }) == values.end();
  if (!strictly_ascending) {
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
  }
  Domain d;
  d.categorical_ = true;
  d.values_ = std::move(values);
  return d;
}

Domain Domain::Continuous(double lo, double hi) {
  METALEAK_DCHECK(lo <= hi);
  Domain d;
  d.categorical_ = false;
  d.lo_ = lo;
  d.hi_ = hi;
  return d;
}

double Domain::Size() const {
  return categorical_ ? static_cast<double>(values_.size()) : range();
}

Value Domain::Sample(Rng* rng) const {
  METALEAK_DCHECK(rng != nullptr);
  if (categorical_) {
    METALEAK_DCHECK(!values_.empty());
    return values_[rng->UniformIndex(values_.size())];
  }
  return Value::Real(rng->UniformDouble(lo_, hi_));
}

bool Domain::Contains(const Value& v) const {
  if (categorical_) {
    return std::binary_search(values_.begin(), values_.end(), v,
                              [](const Value& a, const Value& b) {
                                return a < b;
                              });
  }
  if (!v.is_numeric()) return false;
  double x = v.AsNumeric();
  return x >= lo_ && x <= hi_;
}

std::string Domain::ToString() const {
  std::ostringstream os;
  if (categorical_) {
    os << '{';
    for (size_t i = 0; i < values_.size(); ++i) {
      if (i > 0) os << ", ";
      os << values_[i].ToString();
    }
    os << '}';
  } else {
    os << '[' << lo_ << ", " << hi_ << ']';
  }
  return os.str();
}

bool operator==(const Domain& a, const Domain& b) {
  if (a.categorical_ != b.categorical_) return false;
  if (a.categorical_) return a.values_ == b.values_;
  return a.lo_ == b.lo_ && a.hi_ == b.hi_;
}

Result<Domain> ExtractDomain(const Relation& relation, size_t attribute) {
  if (attribute >= relation.num_columns()) {
    return Status::OutOfRange("attribute index " + std::to_string(attribute) +
                              " out of range");
  }
  const Attribute& attr = relation.schema().attribute(attribute);
  const std::vector<Value>& col = relation.column(attribute);
  if (attr.semantic == SemanticType::kCategorical) {
    std::vector<Value> values;
    for (const Value& v : col) {
      if (!v.is_null()) values.push_back(v);
    }
    if (values.empty()) {
      return Status::Invalid("attribute '" + attr.name +
                             "' has no non-null values");
    }
    return Domain::Categorical(std::move(values));
  }
  bool seen = false;
  double lo = 0.0;
  double hi = 0.0;
  for (const Value& v : col) {
    if (v.is_null() || !v.is_numeric()) continue;
    double x = v.AsNumeric();
    if (!seen) {
      lo = hi = x;
      seen = true;
    } else {
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
  }
  if (!seen) {
    return Status::Invalid("continuous attribute '" + attr.name +
                           "' has no numeric values");
  }
  return Domain::Continuous(lo, hi);
}

Result<std::vector<Domain>> ExtractDomains(const Relation& relation) {
  std::vector<Domain> out;
  out.reserve(relation.num_columns());
  for (size_t i = 0; i < relation.num_columns(); ++i) {
    METALEAK_ASSIGN_OR_RETURN(Domain d, ExtractDomain(relation, i));
    out.push_back(std::move(d));
  }
  return out;
}

}  // namespace metaleak
