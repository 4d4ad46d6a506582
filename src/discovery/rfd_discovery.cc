#include "discovery/rfd_discovery.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "discovery/validators.h"

namespace metaleak {

// Distinct non-null counts fall straight out of the dictionaries: the
// encoding already deduplicated every column.
//
// Every discoverer plugs a class validator into the shared lattice
// kernel; the kernel guarantees thread-count-invariant output (parallel
// verdicts, serial emission in node order) and canonicalizes the result.

namespace {

// OD/OFD predicate; `strict` selects the OFD rule. Both classes are
// transitive over growing lexicographic LHS sets, so the full TANE
// prune applies.
class OrderValidator final : public CandidateValidator {
 public:
  OrderValidator(const EncodedRelation& relation,
                 const OdDiscoveryOptions& options, bool strict)
      : relation_(relation), options_(options), strict_(strict) {}

  bool LhsEligible(size_t a) const override {
    return relation_.dictionary(a).num_distinct() >= options_.min_lhs_distinct;
  }

  Result<Verdict> Validate(AttributeSet lhs, size_t rhs) override {
    Verdict v;
    bool holds = strict_ ? ValidateOfd(relation_, lhs, rhs)
                         : ValidateOd(relation_, lhs, rhs);
    if (holds) {
      v.holds = true;
      v.emit = strict_ ? Dependency::Ofd(lhs, rhs) : Dependency::Od(lhs, rhs);
    }
    return v;
  }

  bool TransitivePruning() const override { return true; }

 private:
  const EncodedRelation& relation_;
  const OdDiscoveryOptions& options_;
  const bool strict_;
};

// ND predicate over composite partitions. A fan-out of 1 is an FD in
// disguise: it holds (supersets only tighten) but is never emitted.
// Growing the LHS shrinks the fan-out, so a failing candidate may still
// qualify at a superset — only the per-RHS prune is sound. The fan-out
// scan stops past the largest K the candidate could still emit (see
// FanoutBound): any larger K fails alike, so the verdict is exact.
class NdValidator final : public CandidateValidator {
 public:
  NdValidator(PliCache* cache, const NdDiscoveryOptions& options)
      : cache_(cache), relation_(cache->encoded()), options_(options) {}

  bool RhsEligible(size_t a) const override {
    return relation_.dictionary(a).num_distinct() >= 2;
  }

  Result<Verdict> Validate(AttributeSet lhs, size_t rhs) override {
    const size_t distinct_y = relation_.dictionary(rhs).num_distinct();
    size_t k = ComputeMaxFanout(cache_, lhs, rhs, FanoutBound(distinct_y));
    Verdict v;
    if (k <= 1) {
      v.holds = true;
      return v;
    }
    bool small_enough =
        static_cast<double>(k) <=
        options_.max_fanout_fraction * static_cast<double>(distinct_y);
    bool has_slack = k + options_.min_slack <= distinct_y;
    if (small_enough && has_slack) {
      v.holds = true;
      v.emit = Dependency::Nd(lhs, rhs, k);
    }
    return v;
  }

 private:
  // max(1, min(|Y| - min_slack, floor(max_fanout_fraction * |Y|))): an
  // integer K passes both emit predicates iff K is at most the min, and
  // K <= 1 holds, so every K above this bound fails as the exact K
  // would. Never below 1, so the K <= 1 answer stays exact. A fraction
  // product under 1, or NaN, admits no K >= 2.
  size_t FanoutBound(size_t distinct_y) const {
    size_t bound =
        distinct_y > options_.min_slack ? distinct_y - options_.min_slack : 0;
    const double fraction_cap =
        options_.max_fanout_fraction * static_cast<double>(distinct_y);
    if (!(fraction_cap >= static_cast<double>(bound))) {
      bound = fraction_cap >= 1.0 ? static_cast<size_t>(fraction_cap) : 0;
    }
    return std::max<size_t>(bound, 1);
  }

  PliCache* cache_;
  const EncodedRelation& relation_;
  const NdDiscoveryOptions& options_;
};

// DD predicate over conjunctive eps-windows. Growing the LHS shrinks
// the window (and hence the minimal delta), so — like ND — a failing
// candidate may qualify at a superset and only the per-RHS prune is
// sound. A qualifying delta holds and is emitted: supersets would be
// trivially implied. A single-attribute failure names the scan's first
// pair over the bound as its witness.
class DdValidator final : public CandidateValidator {
 public:
  DdValidator(const EncodedRelation& relation,
              const DdDiscoveryOptions& options)
      : relation_(relation), options_(options) {}

  /// Resolves per-attribute domains up front; DomainOf failures surface
  /// here instead of mid-search.
  Status Init() {
    size_t m = relation_.num_columns();
    eligible_.assign(m, false);
    eps_.assign(m, 0.0);
    range_.assign(m, 0.0);
    for (size_t a :
         relation_.schema().IndicesOf(SemanticType::kContinuous)) {
      METALEAK_ASSIGN_OR_RETURN(Domain d, relation_.DomainOf(a));
      if (d.range() <= 0.0) continue;
      eligible_[a] = true;
      eps_[a] = options_.epsilon_fraction * d.range();
      range_[a] = d.range();
    }
    return Status::OK();
  }

  bool AttributeEligible(size_t a) const override { return eligible_[a]; }

  Result<Verdict> Validate(AttributeSet lhs, size_t rhs) override {
    const std::vector<size_t> xs = lhs.ToIndices();
    std::vector<double> eps;
    eps.reserve(xs.size());
    for (size_t a : xs) eps.push_back(eps_[a]);
    Verdict v;
    double delta = 0.0;
    if (xs.size() == 1) {
      METALEAK_ASSIGN_OR_RETURN(
          DifferentialCheck check,
          CheckDifferential(relation_, xs[0], rhs, eps[0], MaxDelta(rhs)));
      delta = check.delta;
      v.witness = check.witness;
    } else {
      METALEAK_ASSIGN_OR_RETURN(
          delta, ComputeMinimalDelta(relation_, lhs, eps, rhs));
    }
    if (!v.witness.has_value() && delta <= MaxDelta(rhs)) {
      v.holds = true;
      v.emit = Dependency::Dd(lhs, rhs, std::move(eps), delta);
    }
    return v;
  }

  /// The scan's own predicates on this relation's ranges: the rows are
  /// inside the lhs window and their rhs gap exceeds the bound, so the
  /// minimal delta does too.
  bool WitnessViolates(AttributeSet lhs, size_t rhs,
                       PositionListIndex::RowPair rows) const override {
    if (lhs.size() != 1) return false;
    const size_t x = lhs.ToIndices()[0];
    const double dx = Numeric(x, rows.second) - Numeric(x, rows.first);
    const double dy = Numeric(rhs, rows.second) - Numeric(rhs, rows.first);
    return !(std::fabs(dx) > eps_[x]) && std::fabs(dy) > MaxDelta(rhs);
  }

 private:
  double MaxDelta(size_t rhs) const {
    return options_.max_delta_fraction * range_[rhs];
  }

  double Numeric(size_t column, PositionListIndex::Row row) const {
    return relation_.dictionary(column)
        .decode(relation_.code_at(row, column))
        .AsNumeric();
  }

  const EncodedRelation& relation_;
  const DdDiscoveryOptions& options_;
  std::vector<bool> eligible_;
  std::vector<double> eps_;
  std::vector<double> range_;
};

Result<DependencySet> RunSearch(const EncodedRelation& relation,
                                PliCache* cache,
                                CandidateValidator* validator,
                                size_t max_lhs, LatticeSearchStats* stats,
                                const LatticeReuse* reuse = nullptr) {
  LatticeSearchOptions search;
  search.max_lhs = max_lhs;
  METALEAK_ASSIGN_OR_RETURN(
      LatticeSearchResult found,
      RunLatticeSearch(relation, cache, validator, search, reuse));
  if (stats != nullptr) *stats = found.stats;
  return std::move(found.dependencies);
}

}  // namespace

Result<DependencySet> DiscoverOds(const Relation& relation,
                                  const OdDiscoveryOptions& options,
                                  LatticeSearchStats* stats) {
  EncodedRelation encoded = EncodedRelation::Encode(relation);
  return DiscoverOds(encoded, options, stats);
}

Result<DependencySet> DiscoverOds(const EncodedRelation& relation,
                                  const OdDiscoveryOptions& options,
                                  LatticeSearchStats* stats) {
  OrderValidator validator(relation, options, /*strict=*/false);
  return RunSearch(relation, nullptr, &validator, options.max_lhs, stats);
}

Result<DependencySet> DiscoverOfds(const Relation& relation,
                                   const OdDiscoveryOptions& options,
                                   LatticeSearchStats* stats) {
  EncodedRelation encoded = EncodedRelation::Encode(relation);
  return DiscoverOfds(encoded, options, stats);
}

Result<DependencySet> DiscoverOfds(const EncodedRelation& relation,
                                   const OdDiscoveryOptions& options,
                                   LatticeSearchStats* stats) {
  OrderValidator validator(relation, options, /*strict=*/true);
  return RunSearch(relation, nullptr, &validator, options.max_lhs, stats);
}

Result<DependencySet> DiscoverNds(const Relation& relation,
                                  const NdDiscoveryOptions& options,
                                  LatticeSearchStats* stats) {
  EncodedRelation encoded = EncodedRelation::Encode(relation);
  return DiscoverNds(encoded, options, stats);
}

Result<DependencySet> DiscoverNds(const EncodedRelation& relation,
                                  const NdDiscoveryOptions& options,
                                  LatticeSearchStats* stats) {
  METALEAK_RETURN_NOT_OK(CheckAttributeCount(relation.num_columns()));
  PliCache cache(&relation);
  return DiscoverNds(&cache, options, stats);
}

Result<DependencySet> DiscoverNds(PliCache* cache,
                                  const NdDiscoveryOptions& options,
                                  LatticeSearchStats* stats) {
  NdValidator validator(cache, options);
  return RunSearch(cache->encoded(), cache, &validator, options.max_lhs,
                   stats);
}

Result<DependencySet> DiscoverDds(const Relation& relation,
                                  const DdDiscoveryOptions& options,
                                  LatticeSearchStats* stats) {
  EncodedRelation encoded = EncodedRelation::Encode(relation);
  return DiscoverDds(encoded, options, stats);
}

Result<DependencySet> DiscoverDds(const EncodedRelation& relation,
                                  const DdDiscoveryOptions& options,
                                  LatticeSearchStats* stats,
                                  const LatticeReuse* reuse) {
  DdValidator validator(relation, options);
  METALEAK_RETURN_NOT_OK(validator.Init());
  return RunSearch(relation, nullptr, &validator, options.max_lhs, stats,
                   reuse);
}

}  // namespace metaleak
