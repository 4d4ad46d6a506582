// Shared level-wise lattice-search engine for dependency discovery.
//
// The paper's §IV treats every dependency class as one idea — a search
// over candidate LHS sets plus a class-specific validation predicate.
// This kernel owns the search: TANE-style level maps with C+ candidate
// sets, prefix-join level generation, and apriori pruning. Each class
// plugs in a `CandidateValidator` that answers "does lhs -> rhs hold,
// and if so what dependency (with class parameters) should be emitted?"
//
// Pruning contract:
//  - When a candidate holds, its RHS leaves C+(X) — supersets of the LHS
//    are never re-validated against that RHS (minimality).
//  - Validators for classes where X -> a and X' ⊇ X -> b interact
//    transitively (FD; OD/OFD under the lexicographic LHS order used
//    here) additionally opt into TANE's full rule, which removes all
//    attributes outside X from C+(X). Classes whose parameter improves
//    monotonically with larger LHS but may newly qualify (ND, DD) must
//    not: only the per-RHS removal is sound for them.
//
// Determinism guarantee: candidate lists are fixed per level before any
// verdict lands, verdicts are computed in parallel (the validator must
// be thread-safe and side-effect free), and emission plus C+ mutation
// replay serially in node order. The discovered set is bit-identical at
// any thread count; Canonicalize makes the ordering explicit regardless.
#ifndef METALEAK_DISCOVERY_LATTICE_H_
#define METALEAK_DISCOVERY_LATTICE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "common/result.h"
#include "data/encoded_relation.h"
#include "metadata/dependency.h"
#include "metadata/dependency_set.h"
#include "partition/attribute_set.h"
#include "partition/pli_cache.h"

namespace metaleak {

struct LatticeSearchOptions {
  /// Maximum LHS size searched. Level l of the lattice emits
  /// dependencies with |LHS| = l - 1.
  size_t max_lhs = 1;
  /// Test empty-LHS candidates {} -> A (constant columns).
  bool include_empty_lhs = false;
};

/// Per-search counters surfaced through DiscoveryReport.
struct LatticeSearchStats {
  /// Lattice nodes visited across all levels.
  size_t nodes_visited = 0;
  /// Candidate edges skipped without validation: C+-pruned attributes,
  /// eligibility-filtered candidates, and empty-LHS skips.
  size_t candidates_pruned = 0;
  /// CandidateValidator::Validate calls issued.
  size_t validator_invocations = 0;
  /// Candidates answered from a prior run's verdict memo instead of the
  /// validator (witness reuse; see LatticeReuse).
  size_t verdicts_reused = 0;
  /// PLI cache lookups attributable to this search (deltas of the
  /// cache's counters; zero when the search runs without a cache).
  uint64_t pli_cache_hits = 0;
  uint64_t pli_cache_misses = 0;

  /// hits / (hits + misses); 0 when no lookups happened.
  double PliCacheHitRate() const {
    uint64_t total = pli_cache_hits + pli_cache_misses;
    if (total == 0) return 0.0;
    return static_cast<double>(pli_cache_hits) / static_cast<double>(total);
  }

  void Accumulate(const LatticeSearchStats& other) {
    nodes_visited += other.nodes_visited;
    candidates_pruned += other.candidates_pruned;
    validator_invocations += other.validator_invocations;
    verdicts_reused += other.verdicts_reused;
    pli_cache_hits += other.pli_cache_hits;
    pli_cache_misses += other.pli_cache_misses;
  }
};

/// One dependency class's validation predicate. `Validate` runs
/// concurrently across a level's candidates: it must be thread-safe and
/// must not mutate shared state (a shared PliCache is fine — Get is
/// concurrency-safe).
class CandidateValidator {
 public:
  struct Verdict {
    /// The dependency holds: the RHS is pruned from C+(lhs ∪ {rhs}) and,
    /// when `emit` is set, the dependency is recorded. A holds verdict
    /// with no `emit` prunes silently (e.g. an ND that is really an FD).
    bool holds = false;
    /// The dependency to record, carrying class-specific parameters.
    /// With holds == false this is a relaxed emission (e.g. an AFD under
    /// the g3 threshold) that does not prune the search.
    std::optional<Dependency> emit;
    /// For a failed verdict, two rows whose values prove the failure
    /// (FD: equal on the LHS, different RHS classes; single-attribute
    /// DD: inside the LHS window with an RHS gap over the bound). The
    /// validator names the same pair at every thread count, SIMD level
    /// and code width. Revalidation reuses the failure while both rows
    /// survive and still violate (see LatticeReuse).
    std::optional<PositionListIndex::RowPair> witness;
  };

  virtual ~CandidateValidator() = default;

  /// Whether attribute `a` participates in the lattice at all. An
  /// attribute failing this appears on neither side of any candidate.
  virtual bool AttributeEligible(size_t a) const {
    (void)a;
    return true;
  }
  /// Whether `a` may appear in a candidate LHS / as a candidate RHS.
  /// Both default to AttributeEligible.
  virtual bool LhsEligible(size_t a) const { return AttributeEligible(a); }
  virtual bool RhsEligible(size_t a) const { return AttributeEligible(a); }

  /// The class predicate. Must be deterministic and thread-safe.
  virtual Result<Verdict> Validate(AttributeSet lhs, size_t rhs) = 0;

  /// True when `rows` of this validator's relation still prove that
  /// lhs -> rhs fails without an emission, by the exact predicates
  /// Validate applies. Classes that name no witness, or whose failures
  /// can emit (AFD), keep the default. Must be thread-safe.
  virtual bool WitnessViolates(AttributeSet lhs, size_t rhs,
                               PositionListIndex::RowPair rows) const {
    (void)lhs;
    (void)rhs;
    (void)rows;
    return false;
  }

  /// Opt into TANE's full C+ rule (see the pruning contract above).
  /// Sound only when the class is transitive over growing LHS sets.
  virtual bool TransitivePruning() const { return false; }

  /// Non-holds emissions are dropped unless minimal against everything
  /// already emitted with the same RHS (TANE's AFD subset check).
  virtual bool RelaxedNeedsMinimality() const { return false; }
};

struct LatticeSearchResult {
  DependencySet dependencies;  // canonicalized
  LatticeSearchStats stats;
};

/// Verdict store from one lattice run, keyed by (LHS set, RHS). Records
/// are thread-safe (the search inserts concurrently); Find is
/// unsynchronized and must only be called on a memo whose producing
/// search has finished. The search result is a pure function of the
/// verdict function, so replaying a search with memoized failures that
/// a surviving witness still proves yields a bit-identical dependency
/// set — the foundation of revalidation (discovery/revalidate.h).
class VerdictMemo {
 public:
  void Record(AttributeSet lhs, size_t rhs,
              const CandidateValidator::Verdict& verdict) {
    std::lock_guard<std::mutex> lock(mu_);
    map_.insert_or_assign(Key{lhs.mask(), rhs}, verdict);
  }

  const CandidateValidator::Verdict* Find(AttributeSet lhs,
                                          size_t rhs) const {
    auto it = map_.find(Key{lhs.mask(), rhs});
    return it == map_.end() ? nullptr : &it->second;
  }

  size_t size() const { return map_.size(); }
  void Clear() { map_.clear(); }

  /// Exchanges contents (the mutexes stay put — memos are not movable,
  /// so round-to-round handover swaps the maps instead).
  void Swap(VerdictMemo& other) { map_.swap(other.map_); }

 private:
  struct Key {
    uint64_t lhs_mask = 0;
    size_t rhs = 0;
    friend bool operator==(const Key& a, const Key& b) {
      return a.lhs_mask == b.lhs_mask && a.rhs == b.rhs;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = (k.lhs_mask + k.rhs) * 0x9E3779B97F4A7C15ull;
      h ^= h >> 33;
      return static_cast<size_t>(h);
    }
  };
  mutable std::mutex mu_;
  std::unordered_map<Key, CandidateValidator::Verdict, KeyHash> map_;
};

/// Hooks a prior run's verdicts into a search. A failed, non-emitting
/// prior verdict is taken over, instead of invoking the validator, while
/// both of its witness rows survive `remap_row` and the validator's
/// WitnessViolates confirms the translated pair on this run's relation:
/// a fresh validation would fail too, so the search replays
/// identically. The reused verdict carries its witness in this run's row
/// ids, so the next round reads the rows it names. Every other candidate
/// is validated again.
struct LatticeReuse {
  const VerdictMemo* prior = nullptr;
  /// Translates a row id of the prior run's relation into this run's, or
  /// nullopt when the row was deleted. Unset means the rows are the same.
  std::function<std::optional<PositionListIndex::Row>(
      PositionListIndex::Row)>
      remap_row;
  /// When set, every verdict of this run — reused or freshly computed —
  /// is recorded here for the next round. Must not alias `prior`.
  VerdictMemo* record = nullptr;
};

/// Runs the level-wise search over `relation`'s attributes with
/// `validator`'s predicate. `cache` may be null; when given, the PLI
/// hit/miss deltas across the search land in the stats (the cache is
/// not otherwise touched — validators hold their own handle). `reuse`
/// may be null; when given, prior failures that a surviving witness
/// still proves short-circuit validation (see LatticeReuse). Fails when
/// the relation exceeds the 64-attribute limit or a validation fails.
Result<LatticeSearchResult> RunLatticeSearch(
    const EncodedRelation& relation, PliCache* cache,
    CandidateValidator* validator, const LatticeSearchOptions& options,
    const LatticeReuse* reuse = nullptr);

}  // namespace metaleak

#endif  // METALEAK_DISCOVERY_LATTICE_H_
