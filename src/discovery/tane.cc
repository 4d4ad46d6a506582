#include "discovery/tane.h"

#include <utility>

#include "common/macros.h"
#include "partition/attribute_set.h"
#include "partition/position_list_index.h"

namespace metaleak {

namespace {

// FD/AFD predicate over stripped-partition refinement: an exact
// refinement holds (and prunes transitively); otherwise, in threshold
// mode, a g3 error under the bound emits an AFD without pruning. A
// failure names the refinement's witness: two rows equal on the LHS
// with different RHS classes.
class FdValidator final : public CandidateValidator {
 public:
  FdValidator(PliCache* cache, const TaneOptions& options)
      : cache_(cache), options_(options) {}

  Result<Verdict> Validate(AttributeSet lhs, size_t rhs) override {
    const PositionListIndex* x_pli = cache_->Get(lhs);
    const PositionListIndex* a_pli = cache_->Get(AttributeSet::Single(rhs));
    Verdict v;
    PositionListIndex::RowPair witness;
    if (x_pli->Refines(*a_pli, &witness)) {
      v.holds = true;
      v.emit = Dependency::Fd(lhs, rhs);
      return v;
    }
    v.witness = witness;
    if (options_.max_g3_error > 0.0) {
      double g3 = x_pli->G3Error(*a_pli);
      if (g3 <= options_.max_g3_error) {
        v.emit = Dependency::Afd(lhs, rhs, g3);
      }
    }
    return v;
  }

  /// Rows keep their values, so two surviving rows that agreed on the
  /// LHS and differed on the RHS still do: the FD still fails. In AFD
  /// mode the pair proves nothing about g3, which moves with every row
  /// added or removed, so a failure is never confirmed.
  bool WitnessViolates(AttributeSet lhs, size_t rhs,
                       PositionListIndex::RowPair rows) const override {
    if (options_.max_g3_error > 0.0) return false;
    METALEAK_DCHECK(Splits(lhs, rhs, rows));
    (void)lhs;
    (void)rhs;
    (void)rows;
    return true;
  }

  bool TransitivePruning() const override { return true; }
  bool RelaxedNeedsMinimality() const override { return true; }

 private:
  // Whether `rows` agree on every LHS code and differ on the RHS code
  // (the debug-build check of a translated witness).
  bool Splits(AttributeSet lhs, size_t rhs,
              PositionListIndex::RowPair rows) const {
    const EncodedRelation& relation = cache_->encoded();
    for (size_t a : lhs.ToIndices()) {
      if (relation.code_at(rows.first, a) !=
          relation.code_at(rows.second, a)) {
        return false;
      }
    }
    return relation.code_at(rows.first, rhs) !=
           relation.code_at(rows.second, rhs);
  }

  PliCache* cache_;
  const TaneOptions& options_;
};

}  // namespace

Result<TaneResult> DiscoverFds(const Relation& relation,
                               const TaneOptions& options) {
  EncodedRelation encoded = EncodedRelation::Encode(relation);
  return DiscoverFds(encoded, options);
}

Result<TaneResult> DiscoverFds(const EncodedRelation& relation,
                               const TaneOptions& options) {
  METALEAK_RETURN_NOT_OK(CheckAttributeCount(relation.num_columns()));
  PliCache cache(&relation);
  return DiscoverFds(&cache, options);
}

Result<TaneResult> DiscoverFds(PliCache* cache, const TaneOptions& options,
                               const LatticeReuse* reuse) {
  FdValidator validator(cache, options);
  LatticeSearchOptions search;
  search.max_lhs = options.max_lhs_size;
  search.include_empty_lhs = options.include_constant_columns;
  METALEAK_ASSIGN_OR_RETURN(
      LatticeSearchResult found,
      RunLatticeSearch(cache->encoded(), cache, &validator, search, reuse));
  TaneResult result;
  result.dependencies = std::move(found.dependencies);
  result.stats = found.stats;
  return result;
}

}  // namespace metaleak
