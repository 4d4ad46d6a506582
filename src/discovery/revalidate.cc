#include "discovery/revalidate.h"

#include <utility>

#include "common/macros.h"

namespace metaleak {

Result<DiscoveryReport> ProfileRelationIncremental(
    PliCache* cache, const DiscoveryOptions& options, const DeltaTouch& touch,
    DiscoveryMemo* memo) {
  METALEAK_DCHECK(memo != nullptr);
  // This run's verdicts land in a fresh memo and swap into `memo` on
  // success, so a failed search never poisons the carried state.
  DiscoveryMemo next;
  METALEAK_ASSIGN_OR_RETURN(
      DiscoveryReport report,
      ProfileRelationIncremental(cache, options, touch, *memo, &next));
  memo->Swap(next);
  return report;
}

Result<DiscoveryReport> ProfileRelationIncremental(
    PliCache* cache, const DiscoveryOptions& options, const DeltaTouch& touch,
    const DiscoveryMemo& prior, DiscoveryMemo* next) {
  METALEAK_DCHECK(next != nullptr && next != &prior && next->size() == 0);
  LatticeReuse fd;
  fd.record = &next->fd;
  LatticeReuse dd;
  dd.record = &next->dd;
  if (prior.valid) {
    auto remap_row = [&touch](PositionListIndex::Row row) {
      return touch.RemapRow(row);
    };
    fd.prior = &prior.fd;
    fd.remap_row = remap_row;
    dd.prior = &prior.dd;
    dd.remap_row = remap_row;
  }

  DiscoveryReuse reuse;
  reuse.fd = &fd;
  reuse.dd = &dd;

  METALEAK_ASSIGN_OR_RETURN(DiscoveryReport report,
                            ProfileRelation(cache, options, &reuse));
  next->valid = true;
  return report;
}

}  // namespace metaleak
