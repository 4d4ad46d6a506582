#include "reference/nd_reference.h"

#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "partition/attribute_set.h"
#include "partition/position_list_index.h"

namespace metaleak {
namespace reference {

namespace {

std::vector<size_t> MaskIndices(uint32_t mask) {
  std::vector<size_t> out;
  for (size_t c = 0; c < 32; ++c) {
    if (mask & (uint32_t{1} << c)) out.push_back(c);
  }
  return out;
}

}  // namespace

NdSearch DiscoverNds(const EncodedRelation& relation,
                     const NdDiscoveryOptions& options) {
  const size_t m = relation.num_columns();
  METALEAK_DCHECK(m <= 16);
  NdSearch out;
  for (size_t rhs = 0; rhs < m; ++rhs) {
    const size_t distinct_y = relation.dictionary(rhs).num_distinct();
    if (distinct_y < 2) continue;  // RhsEligible
    const PositionListIndex y = PositionListIndex::FromEncoded(relation, {rhs});
    std::vector<uint32_t> held;  // LHS masks that hold for rhs
    for (size_t width = 1; width <= options.max_lhs; ++width) {
      for (uint32_t mask = 1; mask < (uint32_t{1} << m); ++mask) {
        if (mask & (uint32_t{1} << rhs)) continue;
        const std::vector<size_t> lhs = MaskIndices(mask);
        if (lhs.size() != width) continue;
        bool pruned = false;
        for (uint32_t h : held) pruned = pruned || (h & mask) == h;
        if (pruned) continue;
        ++out.validations;
        const size_t k =
            PositionListIndex::FromEncoded(relation, lhs).MaxFanout(y);
        if (k <= 1) {
          held.push_back(mask);
          continue;
        }
        const bool small_enough =
            static_cast<double>(k) <=
            options.max_fanout_fraction * static_cast<double>(distinct_y);
        const bool has_slack = k + options.min_slack <= distinct_y;
        if (small_enough && has_slack) {
          held.push_back(mask);
          out.dependencies.Add(Dependency::Nd(AttributeSet::Of(lhs), rhs, k));
        }
      }
    }
  }
  out.dependencies.Canonicalize();
  return out;
}

}  // namespace reference
}  // namespace metaleak
