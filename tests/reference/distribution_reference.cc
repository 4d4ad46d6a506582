#include "reference/distribution_reference.h"

namespace metaleak {
namespace reference {

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
