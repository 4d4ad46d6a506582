#include "discovery/lattice.h"

#include <atomic>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/parallel.h"

namespace metaleak {

namespace {

// Returns true if no already-emitted dependency with the same RHS has an
// LHS that is a subset of `lhs` (minimality for threshold-mode relaxed
// emissions; holds-mode candidates get minimality from the C+ sets).
bool IsMinimalAgainst(const DependencySet& emitted, AttributeSet lhs,
                      size_t rhs) {
  for (const Dependency& d : emitted) {
    if (d.rhs == rhs && lhs.ContainsAll(d.lhs) && d.lhs != lhs) return false;
    if (d.rhs == rhs && d.lhs == lhs) return false;
  }
  return true;
}

// The prior failure of lhs -> rhs as this run may take it over, or
// nullopt when the candidate must be validated again: only a failed,
// non-emitting verdict whose witness rows both survive and still violate
// is reused, as a fresh failure naming the translated rows.
std::optional<CandidateValidator::Verdict> ReusedVerdict(
    const LatticeReuse& reuse, const CandidateValidator& validator,
    AttributeSet lhs, size_t rhs, const CandidateValidator::Verdict& prior) {
  if (prior.holds || prior.emit.has_value() || !prior.witness.has_value()) {
    return std::nullopt;
  }
  PositionListIndex::RowPair witness = *prior.witness;
  if (reuse.remap_row) {
    std::optional<PositionListIndex::Row> first =
        reuse.remap_row(witness.first);
    std::optional<PositionListIndex::Row> second =
        reuse.remap_row(witness.second);
    if (!first.has_value() || !second.has_value()) return std::nullopt;
    witness = PositionListIndex::RowPair{*first, *second};
  }
  if (!validator.WitnessViolates(lhs, rhs, witness)) return std::nullopt;
  CandidateValidator::Verdict verdict;
  verdict.witness = witness;
  return verdict;
}

}  // namespace

Result<LatticeSearchResult> RunLatticeSearch(
    const EncodedRelation& relation, PliCache* cache,
    CandidateValidator* validator, const LatticeSearchOptions& options,
    const LatticeReuse* reuse) {
  METALEAK_DCHECK(validator != nullptr);
  const size_t m = relation.num_columns();
  METALEAK_RETURN_NOT_OK(CheckAttributeCount(m));
  LatticeSearchResult result;
  if (m == 0) return result;

  const uint64_t hits0 = cache != nullptr ? cache->hits() : 0;
  const uint64_t misses0 = cache != nullptr ? cache->misses() : 0;

  // The lattice universe: attributes the class can use in either role.
  AttributeSet universe;
  for (size_t a = 0; a < m; ++a) {
    if (validator->AttributeEligible(a)) universe = universe.With(a);
  }

  // Level maps: attribute set X -> C+(X).
  std::map<AttributeSet, AttributeSet> level;
  for (size_t a : universe.ToIndices()) {
    level[AttributeSet::Single(a)] = universe;
  }

  // Level 1 special case: the empty-LHS candidates {} -> A (constant
  // columns) correspond to testing X = {A}, X \ {A} = {}.
  const size_t max_level = options.max_lhs + 1;

  for (size_t l = 1; l <= max_level && !level.empty(); ++l) {
    // --- collect this level's candidates ---
    // A node's candidate list depends only on its own C+ value at level
    // entry (the serial algorithm fixes the list before mutating C+), so
    // the whole level's candidates are known up front and their verdicts
    // are independent of each other.
    std::vector<AttributeSet> cand_lhs;
    std::vector<size_t> cand_rhs;
    std::vector<std::pair<size_t, size_t>> node_spans;
    node_spans.reserve(level.size());
    for (const auto& [x, cplus] : level) {
      size_t first = cand_lhs.size();
      result.stats.candidates_pruned += x.Minus(cplus).size();
      for (size_t a : x.Intersect(cplus).ToIndices()) {
        AttributeSet lhs = x.Without(a);
        if (lhs.empty() && !options.include_empty_lhs) {
          ++result.stats.candidates_pruned;
          continue;
        }
        bool eligible = validator->RhsEligible(a);
        for (size_t b : lhs.ToIndices()) {
          if (!eligible) break;
          eligible = validator->LhsEligible(b);
        }
        if (!eligible) {
          ++result.stats.candidates_pruned;
          continue;
        }
        cand_lhs.push_back(lhs);
        cand_rhs.push_back(a);
      }
      node_spans.emplace_back(first, cand_lhs.size());
    }

    // --- validate candidates concurrently ---
    // A prior failure that its surviving witness still proves
    // short-circuits validation; since Validate would fail too, the
    // serial apply below replays identically and the output stays
    // bit-identical to a from-scratch search.
    std::vector<Result<CandidateValidator::Verdict>> verdicts(
        cand_lhs.size(), CandidateValidator::Verdict{});
    std::atomic<size_t> reused{0};
    ParallelFor(0, cand_lhs.size(), 1, [&](size_t i) {
      const CandidateValidator::Verdict* prior =
          reuse != nullptr && reuse->prior != nullptr
              ? reuse->prior->Find(cand_lhs[i], cand_rhs[i])
              : nullptr;
      if (prior != nullptr) {
        std::optional<CandidateValidator::Verdict> kept = ReusedVerdict(
            *reuse, *validator, cand_lhs[i], cand_rhs[i], *prior);
        if (kept.has_value()) {
          reused.fetch_add(1, std::memory_order_relaxed);
          if (reuse->record != nullptr) {
            reuse->record->Record(cand_lhs[i], cand_rhs[i], *kept);
          }
          verdicts[i] = std::move(*kept);
          return;
        }
      }
      verdicts[i] = validator->Validate(cand_lhs[i], cand_rhs[i]);
      if (reuse != nullptr && reuse->record != nullptr && verdicts[i].ok()) {
        reuse->record->Record(cand_lhs[i], cand_rhs[i], *verdicts[i]);
      }
    });
    const size_t reused_here = reused.load(std::memory_order_relaxed);
    result.stats.verdicts_reused += reused_here;
    result.stats.validator_invocations += cand_lhs.size() - reused_here;

    // --- apply verdicts serially, in node order: emission and C+ set
    // pruning replay the serial algorithm exactly, so the discovered set
    // is bit-identical at any thread count ---
    size_t node_index = 0;
    for (auto& [x, cplus] : level) {
      ++result.stats.nodes_visited;
      auto [first, last] = node_spans[node_index++];
      for (size_t i = first; i < last; ++i) {
        if (!verdicts[i].ok()) return verdicts[i].status();
        const CandidateValidator::Verdict& v = *verdicts[i];
        if (v.holds) {
          if (v.emit.has_value()) result.dependencies.Add(*v.emit);
          cplus = cplus.Without(cand_rhs[i]);
          if (validator->TransitivePruning()) {
            // Classic TANE pruning: all B outside X leave C+(X).
            cplus = cplus.Minus(universe.Minus(x));
          }
        } else if (v.emit.has_value() &&
                   (!validator->RelaxedNeedsMinimality() ||
                    IsMinimalAgainst(result.dependencies, cand_lhs[i],
                                     cand_rhs[i]))) {
          result.dependencies.Add(*v.emit);
        }
      }
    }

    // --- prune nodes with empty candidate sets ---
    for (auto it = level.begin(); it != level.end();) {
      if (it->second.empty()) {
        it = level.erase(it);
      } else {
        ++it;
      }
    }

    if (l == max_level) break;

    // --- generate the next level (prefix join + subset check) ---
    std::map<AttributeSet, AttributeSet> next;
    std::vector<AttributeSet> nodes;
    nodes.reserve(level.size());
    for (const auto& [x, cplus] : level) nodes.push_back(x);

    for (size_t i = 0; i < nodes.size(); ++i) {
      for (size_t j = i + 1; j < nodes.size(); ++j) {
        AttributeSet y = nodes[i].Union(nodes[j]);
        if (y.size() != l + 1) continue;  // not a prefix-style join
        if (next.count(y) != 0) continue;
        // All l-subsets of y must be present in the current level.
        bool all_present = true;
        AttributeSet cplus = universe;
        for (size_t a : y.ToIndices()) {
          auto it = level.find(y.Without(a));
          if (it == level.end()) {
            all_present = false;
            break;
          }
          cplus = cplus.Intersect(it->second);
        }
        if (!all_present || cplus.empty()) continue;
        next[y] = cplus;
      }
    }
    level = std::move(next);
  }

  if (cache != nullptr) {
    result.stats.pli_cache_hits = cache->hits() - hits0;
    result.stats.pli_cache_misses = cache->misses() - misses0;
  }
  result.dependencies.Canonicalize();
  return result;
}

}  // namespace metaleak
