#include "reference/distribution_reference.h"

#include <algorithm>
#include <map>

namespace metaleak {
namespace reference {

namespace {

Status CheckAttribute(const Relation& relation, size_t attribute) {
  if (attribute >= relation.num_columns()) {
    return Status::OutOfRange("attribute index out of range");
  }
  return Status::OK();
}

}  // namespace

Result<Histogram> BuildHistogram(const Relation& relation, size_t attribute,
                                 size_t buckets) {
  METALEAK_RETURN_NOT_OK(CheckAttribute(relation, attribute));
  if (buckets == 0) {
    return Status::Invalid("histogram needs at least one bucket");
  }
  Histogram h;
  bool first = true;
  for (const Value& v : relation.column(attribute)) {
    if (v.is_null() || !v.is_numeric()) continue;
    double x = v.AsNumeric();
    if (first) {
      h.lo = h.hi = x;
      first = false;
    } else {
      h.lo = std::min(h.lo, x);
      h.hi = std::max(h.hi, x);
    }
  }
  if (first) {
    return Status::Invalid("column has no numeric values");
  }
  h.counts.assign(buckets, 0);
  for (const Value& v : relation.column(attribute)) {
    if (v.is_null() || !v.is_numeric()) continue;
    h.counts[h.BucketOf(v.AsNumeric())]++;
  }
  return h;
}

Result<FrequencyTable> BuildFrequencyTable(const Relation& relation,
                                           size_t attribute) {
  METALEAK_RETURN_NOT_OK(CheckAttribute(relation, attribute));
  std::map<Value, size_t> freq;
  for (const Value& v : relation.column(attribute)) {
    if (v.is_null()) continue;
    freq[v]++;
  }
  FrequencyTable table;
  table.values.reserve(freq.size());
  table.counts.reserve(freq.size());
  for (const auto& [value, count] : freq) {
    table.values.push_back(value);
    table.counts.push_back(count);
  }
  return table;
}

Result<ValueDistribution> DistributionFromColumn(const Relation& relation,
                                                 size_t attribute,
                                                 size_t buckets) {
  METALEAK_RETURN_NOT_OK(CheckAttribute(relation, attribute));
  if (relation.schema().attribute(attribute).semantic ==
      SemanticType::kCategorical) {
    METALEAK_ASSIGN_OR_RETURN(FrequencyTable table,
                              BuildFrequencyTable(relation, attribute));
    return ValueDistribution::Categorical(std::move(table));
  }
  METALEAK_ASSIGN_OR_RETURN(Histogram hist,
                            BuildHistogram(relation, attribute, buckets));
  return ValueDistribution::Continuous(std::move(hist));
}

size_t WalkCounts(const std::vector<size_t>& counts, Rng* rng) {
  size_t total = 0;
  for (size_t c : counts) total += c;
  const size_t target = rng->UniformIndex(total);
  size_t acc = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    acc += counts[i];
    if (target < acc) return i;
  }
  return counts.size() - 1;
}

Value Sample(const ValueDistribution& dist, Rng* rng) {
  if (dist.is_categorical()) {
    const FrequencyTable& freq = dist.frequency_table();
    return freq.values[WalkCounts(freq.counts, rng)];
  }
  const Histogram& hist = dist.histogram();
  const size_t bucket = WalkCounts(hist.counts, rng);
  double width = (hist.hi - hist.lo) / static_cast<double>(hist.counts.size());
  double lo = hist.lo + width * static_cast<double>(bucket);
  return Value::Real(rng->UniformDouble(lo, lo + width));
}

bool MapDistValueToCode(const Value& v, const std::vector<Value>& domain,
                        uint32_t* code) {
  bool found = false;
  for (size_t i = 0; i < domain.size(); ++i) {
    if (domain[i] == v) {
      if (found) return false;  // ambiguous
      found = true;
      *code = static_cast<uint32_t>(i) + 1;
    }
  }
  return found;
}

}  // namespace reference
}  // namespace metaleak
