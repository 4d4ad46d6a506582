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
  METALEAK_DCHECK(touch.cluster_touched.size() ==
                  cache->encoded().num_columns());
  using Verdict = CandidateValidator::Verdict;

  LatticeReuse fd;
  fd.record = &next->fd;
  LatticeReuse od;
  od.record = &next->od;
  LatticeReuse ofd;
  ofd.record = &next->ofd;
  LatticeReuse nd;
  nd.record = &next->nd;
  LatticeReuse dd;
  dd.record = &next->dd;

  if (prior.valid) {
    const bool afd_mode = options.discover_afds;
    auto remap_row = [&touch](PositionListIndex::Row row) {
      return touch.RemapRow(row);
    };
    fd.prior = &prior.fd;
    fd.reusable = [&touch, afd_mode](AttributeSet lhs, size_t /*rhs*/,
                                     const Verdict& /*prior*/) {
      if (!touch.any_change()) return true;
      // AFD g3 and the empty-LHS constant check depend on the full row
      // count; the subset-refinement verdict only on the LHS clusters.
      if (afd_mode || lhs.empty()) return false;
      return !touch.ClusterTouched(lhs);
    };
    fd.remap_row = remap_row;
    auto order_reusable = [&touch](AttributeSet /*lhs*/, size_t /*rhs*/,
                                   const Verdict& prior) {
      if (!touch.any_change()) return true;
      if (touch.insert_only()) {
        // Surviving rows keep their values, so an order violation
        // witnessed before the inserts still stands.
        return !prior.holds && !prior.emit.has_value();
      }
      if (touch.delete_only()) {
        // Removing rows can only remove violations; OD/OFD emissions
        // are parameterless, so the reused verdict is exact.
        return prior.holds;
      }
      return false;
    };
    od.prior = &prior.od;
    od.reusable = order_reusable;
    ofd.prior = &prior.ofd;
    ofd.reusable = order_reusable;
    nd.prior = &prior.nd;
    nd.reusable = [&touch](AttributeSet lhs, size_t rhs,
                           const Verdict& /*prior*/) {
      if (!touch.any_change()) return true;
      return !touch.ClusterTouched(lhs) && !touch.dictionary_touched[rhs];
    };
    dd.prior = &prior.dd;
    dd.reusable = [&touch](AttributeSet /*lhs*/, size_t /*rhs*/,
                           const Verdict& /*prior*/) {
      return !touch.any_change();
    };
    dd.remap_row = remap_row;
  }

  DiscoveryReuse reuse;
  reuse.fd = &fd;
  reuse.od = &od;
  reuse.ofd = &ofd;
  reuse.nd = &nd;
  reuse.dd = &dd;

  METALEAK_ASSIGN_OR_RETURN(DiscoveryReport report,
                            ProfileRelation(cache, options, &reuse));
  next->valid = true;
  return report;
}

}  // namespace metaleak
