#include "privacy/identifiability.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/parallel.h"
#include "common/simd.h"
#include "partition/pli_cache.h"
#include "partition/position_list_index.h"

namespace metaleak {

namespace {

Status CheckAttrs(const EncodedRelation& relation, AttributeSet attrs) {
  for (size_t i : attrs.ToIndices()) {
    if (i >= relation.num_columns()) {
      return Status::OutOfRange("attribute index out of range");
    }
  }
  return Status::OK();
}

// Enumerates all subsets of {0..m-1} of size exactly k, invoking f(set).
template <typename F>
void ForEachSubset(size_t m, size_t k, F&& f) {
  if (k == 0 || k > m) return;
  std::vector<size_t> idx(k);
  for (size_t i = 0; i < k; ++i) idx[i] = i;
  while (true) {
    f(AttributeSet::Of(idx));
    // Advance to the next combination in lexicographic order.
    size_t i = k;
    while (i > 0 && idx[i - 1] == m - k + (i - 1)) --i;
    if (i == 0) return;
    ++idx[i - 1];
    for (size_t j = i; j < k; ++j) idx[j] = idx[j - 1] + 1;
  }
}

// All size-k subsets of {0..m-1} in lexicographic order, materialized so
// the per-subset scans can fan out over the pool.
std::vector<AttributeSet> SubsetsOfSize(size_t m, size_t k) {
  std::vector<AttributeSet> out;
  ForEachSubset(m, k, [&](AttributeSet attrs) { out.push_back(attrs); });
  return out;
}

// ---------------------------------------------------------------------
// Width-2 counting sweep.
//
// A row is unique under pair (a, b) iff its (code_a, code_b) combination
// occurs exactly once, so a Ka x Kb count table answers a pair directly:
// one counting pass, one marking pass, no PLI intersection and no
// probe-table reads. Uniqueness only asks whether a count is 1, so each
// cell is one byte that saturates at 2 (0, 1, 2+). Pairs whose table
// would outgrow the budget below (high-cardinality dictionaries) fall
// back to the cached-PLI subset path; both paths compute the same exact
// per-row predicate, so the OR-merge is bit-identical to running
// everything through either.

// Per-pair count-table budget: 2^20 one-byte cells = 1 MiB, small enough
// that the counting pass's random increments stay cache-resident.
constexpr size_t kPairTableMaxEntries = size_t{1} << 20;

// Marks rows unique under some pair of `pairs` (each (a, b), a < b,
// table size within budget) into a packed bitmap, one pool task per
// pair. Exact integer counting + OR accumulation: thread-count
// independent.
std::vector<uint64_t> CountingPairSweep(
    const EncodedRelation& relation,
    const std::vector<std::pair<size_t, size_t>>& pairs) {
  const size_t n = relation.num_rows();
  const size_t words = BitsetWords(n);
  std::vector<uint64_t> merged = ParallelReduce<std::vector<uint64_t>>(
      0, pairs.size(), 1, std::vector<uint64_t>{},
      [&](size_t lo, size_t hi) {
        std::vector<uint64_t> bits(words, 0);
        std::vector<uint8_t> table;
        for (size_t i = lo; i < hi; ++i) {
          const auto [a, b] = pairs[i];
          const size_t stride = relation.dictionary(b).num_codes();
          table.assign(relation.dictionary(a).num_codes() * stride, 0);
          relation.column_view(a).With([&](const auto* lp) {
            relation.column_view(b).With([&](const auto* rp) {
              for (size_t r = 0; r < n; ++r) {
                uint8_t& cell =
                    table[static_cast<size_t>(lp[r]) * stride + rp[r]];
                cell += cell < 2;
              }
              // count == 1 means the row's pair projection is unique.
              for (size_t r = 0; r < n; ++r) {
                if (table[static_cast<size_t>(lp[r]) * stride + rp[r]] == 1) {
                  bits[r >> 6] |= uint64_t{1} << (r & 63);
                }
              }
            });
          });
        }
        return bits;
      },
      [words](std::vector<uint64_t> acc, std::vector<uint64_t> chunk) {
        if (acc.size() < words) acc.resize(words, 0);
        if (chunk.size() < words) chunk.resize(words, 0);
        BitsetOrInto(acc.data(), chunk.data(), words);
        return acc;
      });
  if (merged.size() < words) merged.resize(words, 0);
  return merged;
}

// Width-2 sweep: counting tables for in-budget pairs, cached-PLI subset
// sweep for the rest, OR-merged.
Result<std::vector<bool>> IdentifiableRowsWidth2(PliCache& cache) {
  const EncodedRelation& relation = cache.encoded();
  const size_t m = relation.num_columns();
  const size_t n = relation.num_rows();
  std::vector<std::pair<size_t, size_t>> counted;
  std::vector<AttributeSet> fallback;
  for (size_t a = 0; a + 1 < m; ++a) {
    const size_t ka = relation.dictionary(a).num_codes();
    for (size_t b = a + 1; b < m; ++b) {
      const size_t kbc = relation.dictionary(b).num_codes();
      if (ka * kbc <= kPairTableMaxEntries) {
        counted.emplace_back(a, b);
      } else {
        fallback.push_back(AttributeSet::Of(std::vector<size_t>{a, b}));
      }
    }
  }
  std::vector<bool> identifiable(n, false);
  if (!fallback.empty()) {
    METALEAK_ASSIGN_OR_RETURN(identifiable,
                              IdentifiableRowsForSubsets(cache, fallback));
  }
  if (!counted.empty() && n > 0) {
    const std::vector<uint64_t> bits = CountingPairSweep(relation, counted);
    BitsetForEach(bits.data(), bits.size(),
                  [&](size_t row) { identifiable[row] = true; });
  }
  return identifiable;
}

}  // namespace

Result<std::vector<bool>> UniqueRows(const Relation& relation,
                                     AttributeSet attrs) {
  EncodedRelation encoded = EncodedRelation::Encode(relation);
  return UniqueRows(encoded, attrs);
}

Result<std::vector<bool>> UniqueRows(const EncodedRelation& relation,
                                     AttributeSet attrs) {
  METALEAK_RETURN_NOT_OK(CheckAttrs(relation, attrs));
  // Stripped partitions list exactly the non-unique rows.
  PositionListIndex pli =
      PositionListIndex::FromEncoded(relation, attrs.ToIndices());
  std::vector<bool> unique(relation.num_rows(), true);
  for (const auto& cluster : pli.clusters()) {
    for (size_t row : cluster) unique[row] = false;
  }
  return unique;
}

Result<double> IdentifiableFraction(const Relation& relation,
                                    AttributeSet attrs) {
  EncodedRelation encoded = EncodedRelation::Encode(relation);
  return IdentifiableFraction(encoded, attrs);
}

Result<double> IdentifiableFraction(const EncodedRelation& relation,
                                    AttributeSet attrs) {
  METALEAK_ASSIGN_OR_RETURN(std::vector<bool> unique,
                            UniqueRows(relation, attrs));
  if (unique.empty()) return 0.0;
  size_t count = 0;
  for (bool u : unique) count += u ? 1 : 0;
  return static_cast<double>(count) / static_cast<double>(unique.size());
}

Result<double> IdentifiableByAnySubset(const Relation& relation,
                                       size_t max_subset_size) {
  EncodedRelation encoded = EncodedRelation::Encode(relation);
  return IdentifiableByAnySubset(encoded, max_subset_size);
}

Result<std::vector<bool>> IdentifiableRowsForSubsets(
    PliCache& cache, const std::vector<AttributeSet>& subsets) {
  const EncodedRelation& relation = cache.encoded();
  const size_t n = relation.num_rows();
  std::vector<bool> identifiable(n, false);
  if (n == 0 || subsets.empty()) return identifiable;

  // Chunk the subset sweep; each chunk ORs its subsets' uniqueness flags
  // into a private bitmap, and the chunk bitmaps are OR-merged. OR is
  // insensitive to both chunking and merge order, so the result matches
  // the serial sweep at any thread count. Grain depends on the subset
  // count only. Bitmaps are packed 64 rows to a word, so the per-subset
  // complement-and-OR and the chunk merges each touch n/64 words instead
  // of n bytes.
  struct Partial {
    Status status;
    std::vector<uint64_t> bits;
  };
  const size_t words = BitsetWords(n);
  const uint64_t tail_mask = BitsetTailMask(n);
  const size_t grain = std::max<size_t>(1, subsets.size() / 256);
  Partial merged = ParallelReduce<Partial>(
      0, subsets.size(), grain, Partial{Status::OK(), {}},
      [&](size_t lo, size_t hi) {
        Partial p;
        std::vector<uint64_t> in_cluster;
        for (size_t s = lo; s < hi; ++s) {
          Status status = CheckAttrs(relation, subsets[s]);
          if (!status.ok()) {
            // Bail before touching the bitmap: an erroring chunk may
            // return bits shorter than `words` (possibly empty).
            p.status = std::move(status);
            return p;
          }
          // Cached extension: pli(prefix) ∩ pli(last attribute), built
          // once per subset across the whole process, not per call.
          const PositionListIndex* pli = cache.Get(subsets[s]);
          if (pli->num_stripped_rows() == n) continue;  // no unique rows
          if (p.bits.empty()) p.bits.assign(words, 0);
          if (pli->num_clusters() == 0) {
            // Every row unique under this subset.
            std::fill(p.bits.begin(), p.bits.end(), ~uint64_t{0});
            p.bits[words - 1] &= tail_mask;
            continue;
          }
          // Unique rows = rows absent from every stripped cluster.
          in_cluster.assign(words, 0);
          for (const auto cl : pli->clusters()) {
            for (size_t row : cl) {
              in_cluster[row >> 6] |= uint64_t{1} << (row & 63);
            }
          }
          BitsetOrNotInto(p.bits.data(), in_cluster.data(), words);
          p.bits[words - 1] &= tail_mask;
        }
        return p;
      },
      [words](Partial acc, Partial chunk) {
        // Either side can carry short (or empty) bits: the identity
        // accumulator, a chunk that errored out early, or a chunk whose
        // subsets had no unique rows. Normalize both to `words` before
        // OR-merging.
        if (acc.bits.size() < words) acc.bits.resize(words, 0);
        if (chunk.bits.size() < words) chunk.bits.resize(words, 0);
        if (acc.status.ok() && !chunk.status.ok()) {
          acc.status = chunk.status;
        }
        BitsetOrInto(acc.bits.data(), chunk.bits.data(), words);
        return acc;
      });
  METALEAK_RETURN_NOT_OK(merged.status);
  if (!merged.bits.empty()) {
    BitsetForEach(merged.bits.data(), merged.bits.size(),
                  [&](size_t row) { identifiable[row] = true; });
  }
  return identifiable;
}

namespace {

// Both IdentifiableRows overloads. The dictionaries answer first, before
// any partition is built: no row is identifiable in an empty relation or
// at width 0, and every row is when some column is a key, one whose
// every code (NULL included) occurs once. Adding attributes refines the
// partition, so uniqueness under A is preserved under every superset of
// A: a key makes every row identifiable at any width, and the sweep
// checks only the subsets of size exactly min(width, m). It runs on
// `cache`, or on one built here when `cache` is null.
Result<std::vector<bool>> IdentifiableRowsOf(const EncodedRelation& relation,
                                             size_t width, PliCache* cache) {
  const size_t m = relation.num_columns();
  const size_t n = relation.num_rows();
  METALEAK_RETURN_NOT_OK(CheckAttributeCount(m));
  if (m == 0 || n == 0 || width == 0) {
    return std::vector<bool>(n, false);
  }
  for (size_t c = 0; c < m; ++c) {
    if (relation.IsKey(c)) return std::vector<bool>(n, true);
  }
  std::optional<PliCache> own;
  if (cache == nullptr) cache = &own.emplace(&relation);
  const size_t k = std::min(width, m);
  if (k == 2) {
    // The dominant sweep width takes the direct counting path (see
    // CountingPairSweep); pairs over budget still go through the cache.
    return IdentifiableRowsWidth2(*cache);
  }
  return IdentifiableRowsForSubsets(*cache, SubsetsOfSize(m, k));
}

}  // namespace

Result<std::vector<bool>> IdentifiableRows(PliCache& cache, size_t width) {
  return IdentifiableRowsOf(cache.encoded(), width, &cache);
}

Result<std::vector<bool>> IdentifiableRows(const EncodedRelation& relation,
                                           size_t width) {
  return IdentifiableRowsOf(relation, width, nullptr);
}

Result<double> IdentifiableByAnySubset(const EncodedRelation& relation,
                                       size_t max_subset_size) {
  size_t m = relation.num_columns();
  if (m == 0 || relation.num_rows() == 0) return 0.0;
  METALEAK_ASSIGN_OR_RETURN(std::vector<bool> identifiable,
                            IdentifiableRows(relation, max_subset_size));
  size_t count = 0;
  for (bool b : identifiable) count += b ? 1 : 0;
  return static_cast<double>(count) /
         static_cast<double>(identifiable.size());
}

Result<double> IdentifiableByAnySubset(PliCache& cache,
                                       size_t max_subset_size) {
  const size_t m = cache.encoded().num_columns();
  if (m == 0 || cache.encoded().num_rows() == 0) return 0.0;
  METALEAK_ASSIGN_OR_RETURN(std::vector<bool> identifiable,
                            IdentifiableRows(cache, max_subset_size));
  size_t count = 0;
  for (bool b : identifiable) count += b ? 1 : 0;
  return static_cast<double>(count) /
         static_cast<double>(identifiable.size());
}

Result<std::vector<AttributeSet>> DiscoverUniqueColumnCombinations(
    const Relation& relation, size_t max_size) {
  EncodedRelation encoded = EncodedRelation::Encode(relation);
  return DiscoverUniqueColumnCombinations(encoded, max_size);
}

Result<std::vector<AttributeSet>> DiscoverUniqueColumnCombinations(
    const EncodedRelation& relation, size_t max_size) {
  METALEAK_RETURN_NOT_OK(CheckAttributeCount(relation.num_columns()));
  PliCache cache(&relation);
  return DiscoverUniqueColumnCombinations(cache, max_size);
}

Result<std::vector<AttributeSet>> DiscoverUniqueColumnCombinations(
    PliCache& cache, size_t max_size) {
  const size_t m = cache.encoded().num_columns();
  METALEAK_RETURN_NOT_OK(CheckAttributeCount(m));
  std::vector<AttributeSet> uccs;
  // A candidate is non-minimal iff some known (strictly smaller) UCC is a
  // subset of it.
  auto covered_by_known = [&](AttributeSet attrs) {
    for (AttributeSet known : uccs) {
      if (attrs.ContainsAll(known)) return true;
    }
    return false;
  };
  for (size_t k = 1; k <= std::min(max_size, m); ++k) {
    // Minimality only filters against smaller (previous-level) UCCs —
    // equal-size subsets cannot contain one another — so the level's
    // survivors can be checked concurrently and appended in lexicographic
    // order afterwards.
    std::vector<AttributeSet> candidates;
    ForEachSubset(m, k, [&](AttributeSet attrs) {
      if (!covered_by_known(attrs)) candidates.push_back(attrs);
    });
    std::vector<char> is_ucc(candidates.size(), 0);
    const size_t grain = std::max<size_t>(1, candidates.size() / 256);
    ParallelFor(0, candidates.size(), grain, [&](size_t i) {
      // Cached extension of the width-(k-1) prefix: one intersection per
      // candidate instead of a k-column FromEncoded rebuild.
      is_ucc[i] = cache.Get(candidates[i])->num_clusters() == 0;
    });
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (is_ucc[i]) uccs.push_back(candidates[i]);
    }
  }
  return uccs;
}

}  // namespace metaleak
