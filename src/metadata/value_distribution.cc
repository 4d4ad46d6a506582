#include "metadata/value_distribution.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "common/math_util.h"

namespace metaleak {

std::vector<size_t> CumulativeCounts(const std::vector<size_t>& counts) {
  std::vector<size_t> cumulative(counts.size());
  size_t acc = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    acc += counts[i];
    cumulative[i] = acc;
  }
  return cumulative;
}

size_t Histogram::total() const {
  size_t t = 0;
  for (size_t c : counts) t += c;
  return t;
}

size_t Histogram::BucketOf(double x) const {
  if (counts.empty()) return 0;
  if (hi <= lo) return 0;
  double t = (x - lo) / (hi - lo);
  t = std::clamp(t, 0.0, 1.0);
  size_t b = static_cast<size_t>(t * static_cast<double>(counts.size()));
  return std::min(b, counts.size() - 1);
}

double Histogram::Mass(size_t i) const {
  size_t t = total();
  if (t == 0 || i >= counts.size()) return 0.0;
  return static_cast<double>(counts[i]) / static_cast<double>(t);
}

size_t FrequencyTable::total() const {
  size_t t = 0;
  for (size_t c : counts) t += c;
  return t;
}

size_t DrawCumulative(const std::vector<size_t>& cumulative, Rng* rng) {
  METALEAK_DCHECK(!cumulative.empty() && cumulative.back() > 0);
  const size_t target = rng->UniformIndex(cumulative.back());
  return static_cast<size_t>(
      std::upper_bound(cumulative.begin(), cumulative.end(), target) -
      cumulative.begin());
}

Result<ValueDistribution> ValueDistribution::Categorical(
    FrequencyTable table) {
  if (table.values.size() != table.counts.size()) {
    return Status::Invalid("frequency table values/counts mismatch");
  }
  if (table.total() == 0) {
    return Status::Invalid("empty frequency table");
  }
  ValueDistribution d;
  d.categorical_ = true;
  d.cumulative_ = CumulativeCounts(table.counts);
  d.freq_ = std::move(table);
  return d;
}

Result<ValueDistribution> ValueDistribution::Continuous(
    Histogram histogram) {
  if (histogram.counts.empty() || histogram.total() == 0) {
    return Status::Invalid("empty histogram");
  }
  // Sampling draws uniformly inside a bucket of [lo, hi], so a NaN or
  // infinite bound would make the draws NaN or infinite.
  if (!(std::isfinite(histogram.lo) && std::isfinite(histogram.hi))) {
    return Status::Invalid("histogram has a non-finite bound");
  }
  if (histogram.hi < histogram.lo) {
    return Status::Invalid("inverted histogram range");
  }
  ValueDistribution d;
  d.categorical_ = false;
  d.cumulative_ = CumulativeCounts(histogram.counts);
  d.hist_ = std::move(histogram);
  return d;
}

Result<ValueDistribution> ValueDistribution::FromEncoded(
    const EncodedRelation& relation, size_t attribute, size_t buckets) {
  if (attribute >= relation.num_columns()) {
    return Status::OutOfRange("attribute index out of range");
  }
  const ColumnDictionary& dict = relation.dictionary(attribute);
  if (relation.schema().attribute(attribute).semantic ==
      SemanticType::kCategorical) {
    FrequencyTable table;
    table.values = dict.DistinctValues();
    table.counts.reserve(table.values.size());
    for (uint32_t code = 1; code < dict.num_codes(); ++code) {
      table.counts.push_back(dict.count(code));
    }
    return Categorical(std::move(table));
  }
  if (buckets == 0) {
    return Status::Invalid("histogram needs at least one bucket");
  }
  Histogram h;
  bool first = true;
  for (uint32_t code = 1; code < dict.num_codes(); ++code) {
    const Value& v = dict.decode(code);
    if (!v.is_numeric()) continue;
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
  for (uint32_t code = 1; code < dict.num_codes(); ++code) {
    const Value& v = dict.decode(code);
    if (!v.is_numeric()) continue;
    h.counts[h.BucketOf(v.AsNumeric())] += dict.count(code);
  }
  return Continuous(std::move(h));
}

Value ValueDistribution::Sample(Rng* rng) const {
  METALEAK_DCHECK(rng != nullptr);
  const size_t index = DrawCumulative(cumulative_, rng);
  if (categorical_) return freq_.values[index];
  double width =
      (hist_.hi - hist_.lo) / static_cast<double>(hist_.counts.size());
  double lo = hist_.lo + width * static_cast<double>(index);
  return Value::Real(rng->UniformDouble(lo, lo + width));
}

double ValueDistribution::MassOf(const Value& v) const {
  if (categorical_) {
    size_t total = freq_.total();
    if (total == 0) return 0.0;
    for (size_t i = 0; i < freq_.values.size(); ++i) {
      if (freq_.values[i] == v) {
        return static_cast<double>(freq_.counts[i]) /
               static_cast<double>(total);
      }
    }
    return 0.0;
  }
  if (!v.is_numeric()) return 0.0;
  return hist_.Mass(hist_.BucketOf(v.AsNumeric()));
}

double ValueDistribution::EntropyBits() const {
  return categorical_ ? ShannonEntropyBits(freq_.counts)
                      : ShannonEntropyBits(hist_.counts);
}

bool operator==(const ValueDistribution& a, const ValueDistribution& b) {
  if (a.categorical_ != b.categorical_) return false;
  if (a.categorical_) {
    return a.freq_.values == b.freq_.values &&
           a.freq_.counts == b.freq_.counts;
  }
  return a.hist_.lo == b.hist_.lo && a.hist_.hi == b.hist_.hi &&
         a.hist_.counts == b.hist_.counts;
}

}  // namespace metaleak
