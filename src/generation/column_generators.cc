#include "generation/column_generators.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <type_traits>

#include "common/flat_id_table.h"
#include "common/macros.h"
#include "common/radix_sort.h"

namespace metaleak {

namespace {

// Per-thread scratch for the generators. The Monte-Carlo loop calls them
// thousands of times; reusing the arenas makes every call after the
// first allocation-free (same idiom as the PliCache scratch).
struct GeneratorScratch {
  std::vector<uint32_t> code_rank;    // per-code rank table (kCodes LHS)
  std::vector<uint32_t> ranks;        // per-row rank of one LHS column
  std::vector<uint32_t> ids;          // folded composite-LHS group ids
  FlatIdTable groups;                 // composite key -> group id
  std::vector<char> flags;            // lazily-sampled bits
  std::vector<uint32_t> code_map;     // FD group -> code mapping
  std::vector<double> real_map;       // FD group -> double mapping
  std::vector<uint32_t> group_end;    // ND/DD rank -> end of its rows
  std::vector<uint32_t> by_group;     // ND/DD rows bucketed by LHS rank
  FlatIdTable moved;                  // ND Fisher-Yates position -> id
  std::vector<uint32_t> moved_index;  // ND id -> domain index there now
  std::vector<uint32_t> pool_codes;   // ND filled slots of one group
  std::vector<double> pool_reals;     // ND filled slots of one group
  std::vector<size_t> idx;            // order-statistic / Floyd draws
  std::vector<uint32_t> target_codes; // OD/OFD rank -> code targets
  std::vector<double> target_reals;   // OD/OFD rank -> double targets
};

GeneratorScratch& Scratch() {
  thread_local GeneratorScratch scratch;
  return scratch;
}

// Counting sort of rows [0, num_rows) by rank: afterwards s.by_group
// lists the rows in (rank, row) order and s.group_end[g] is one past
// rank g's rows.
void BucketRowsByRank(const uint32_t* ranks, uint32_t distinct,
                      size_t num_rows, GeneratorScratch& s) {
  s.group_end.assign(static_cast<size_t>(distinct) + 1, 0);
  for (size_t r = 0; r < num_rows; ++r) ++s.group_end[ranks[r] + 1];
  for (uint32_t g = 0; g < distinct; ++g) {
    s.group_end[g + 1] += s.group_end[g];
  }
  s.by_group.resize(num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    s.by_group[s.group_end[ranks[r]]++] = static_cast<uint32_t>(r);
  }
}

// The ND kernel (Section IV-B): writes out[r] for the LHS ranks
// ranks[0, num_rows) over `distinct` values. T is double for a
// continuous domain and a code type (code = domain index + 1) for a
// categorical one.
//
// Rows are bucketed by rank with a counting sort and visited group by
// group in ascending rank, in row order within a group. A group's pool
// of `take` slots fills lazily: its filled slots are the prefix
// pool[0, f). A row draws u = UniformIndex(take) and reuses slot u if
// u < f; otherwise it fills slot f. The first row of a group always
// fills, so it draws no u. A categorical fill is one step of a sparse
// Fisher-Yates shuffle of the domain indices: positions [0, f) hold the
// group's values so far, and the step swaps position
// f + UniformIndex(|Dom(Y)| - f) into position f. Only moved positions
// are stored, at most two per fill. A continuous fill is a fresh
// UniformDouble.
template <typename T>
void LazyNdPools(const uint32_t* ranks, uint32_t distinct, size_t num_rows,
                 const Domain& domain, size_t max_fanout, Rng* rng,
                 T* out) {
  constexpr bool kReal = std::is_same_v<T, double>;
  METALEAK_DCHECK(domain.is_continuous() == kReal);
  GeneratorScratch& s = Scratch();
  const size_t k = std::max<size_t>(1, max_fanout);
  const size_t domain_size = kReal ? 0 : domain.values().size();
  const size_t take = kReal ? k : std::min(k, domain_size);
  METALEAK_DCHECK(take > 0 || num_rows == 0);

  BucketRowsByRank(ranks, distinct, num_rows, s);

  // Id of Fisher-Yates position p, seeded with p on its first touch.
  auto position = [&s](size_t p) {
    const uint32_t id = s.moved.IdOf(p);
    if (id == s.moved_index.size()) {
      s.moved_index.push_back(static_cast<uint32_t>(p));
    }
    return id;
  };
  auto fill = [&](size_t f) {
    if constexpr (kReal) {
      return rng->UniformDouble(domain.lo(), domain.hi());
    } else {
      const uint32_t at_pos =
          position(f + rng->UniformIndex(domain_size - f));
      const uint32_t at_f = position(f);
      const uint32_t index = s.moved_index[at_pos];
      s.moved_index[at_pos] = s.moved_index[at_f];
      return index + 1;
    }
  };
  auto& pool = [&s]() -> auto& {
    if constexpr (kReal) {
      return s.pool_reals;
    } else {
      return s.pool_codes;
    }
  }();

  size_t begin = 0;
  for (uint32_t g = 0; g < distinct; ++g) {
    const size_t end = s.group_end[g];
    const size_t slots = std::min(take, end - begin);
    if (pool.size() < slots) pool.resize(slots);
    if constexpr (!kReal) {
      s.moved.Reset(2 * slots);
      s.moved_index.clear();
    }
    size_t f = 0;
    for (size_t i = begin; i < end; ++i) {
      const uint32_t row = s.by_group[i];
      if (f > 0) {
        const size_t u = rng->UniformIndex(take);
        if (u < f) {
          out[row] = static_cast<T>(pool[u]);
          continue;
        }
      }
      pool[f] = fill(f);
      out[row] = static_cast<T>(pool[f++]);
    }
    begin = end;
  }
}

// The DD kernel (Section IV-D): writes out[r] for the LHS ranks
// ranks[0, num_rows) over `distinct` values. Rows are bucketed by rank
// with a counting sort and walked in (LHS, row) order, so tied rows take
// their steps in row order and the seed alone fixes the chain.
// Each row draws one UniformDouble: from the rhs_delta ball around its
// predecessor's RHS, clipped to the domain (the whole domain if the clip
// is empty), when its LHS lies within lhs_epsilon of the predecessor's,
// and from the whole domain otherwise. `x_of(row)` is a row's numeric
// LHS; tied rows share it, so it is read once per rank.
template <typename XOf>
void DdChain(const uint32_t* ranks, uint32_t distinct, size_t num_rows,
             XOf x_of, const Domain& domain, double lhs_epsilon,
             double rhs_delta, Rng* rng, double* out) {
  GeneratorScratch& s = Scratch();
  BucketRowsByRank(ranks, distinct, num_rows, s);
  double prev_x = 0.0;
  double prev_y = 0.0;
  size_t begin = 0;
  for (uint32_t g = 0; g < distinct; ++g) {
    const size_t end = s.group_end[g];
    const double x = x_of(s.by_group[begin]);
    for (size_t i = begin; i < end; ++i) {
      double lo = domain.lo();
      double hi = domain.hi();
      if (i > 0 && std::abs(x - prev_x) <= lhs_epsilon) {
        lo = std::max(domain.lo(), prev_y - rhs_delta);
        hi = std::min(domain.hi(), prev_y + rhs_delta);
        if (lo > hi) {
          lo = domain.lo();
          hi = domain.hi();
        }
      }
      prev_y = rng->UniformDouble(lo, hi);
      prev_x = x;
      out[s.by_group[i]] = prev_y;
    }
    begin = end;
  }
}

}  // namespace

uint32_t RankEncodedColumn(const EncodedBatch& batch, size_t col,
                           size_t num_rows, std::vector<uint32_t>* ranks) {
  ranks->resize(num_rows);
  if (batch.kind(col) == EncodedBatch::ColumnKind::kCodes) {
    std::vector<uint32_t>& code_rank = Scratch().code_rank;
    return batch.WithCodes(col, [&](const auto* codes) -> uint32_t {
      uint32_t max_code = 0;
      for (size_t r = 0; r < num_rows; ++r) {
        max_code = std::max<uint32_t>(max_code, codes[r]);
      }
      code_rank.assign(static_cast<size_t>(max_code) + 1, 0);
      for (size_t r = 0; r < num_rows; ++r) code_rank[codes[r]] = 1;
      uint32_t running = 0;
      for (uint32_t c = 0; c <= max_code; ++c) {
        uint32_t present = code_rank[c];
        code_rank[c] = running;
        running += present;
      }
      for (size_t r = 0; r < num_rows; ++r) {
        (*ranks)[r] = code_rank[codes[r]];
      }
      return running;
    });
  }
  return RadixRankDoubles(batch.reals(col).data(), num_rows, ranks->data());
}

uint32_t FoldLhsGroupsEncoded(const EncodedBatch& batch,
                              const std::vector<size_t>& lhs_columns,
                              size_t num_rows, std::vector<uint32_t>* ids) {
  GeneratorScratch& s = Scratch();
  ids->assign(num_rows, 0);
  uint32_t* id = ids->data();
  uint32_t num_groups = 1;
  for (size_t col : lhs_columns) {
    if (batch.kind(col) == EncodedBatch::ColumnKind::kCodes) {
      batch.WithCodes(col, [&](const auto* codes) {
        uint32_t max_code = 0;
        for (size_t r = 0; r < num_rows; ++r) {
          max_code = std::max<uint32_t>(max_code, codes[r]);
        }
        const uint64_t stride = uint64_t{max_code} + 1;
        s.groups.Reset(std::min<uint64_t>(num_rows, num_groups * stride));
        for (size_t r = 0; r < num_rows; ++r) {
          id[r] = s.groups.IdOf(id[r] * stride + codes[r]);
        }
      });
    } else {
      // A double has no dense code, so number the column's values by
      // first occurrence, then fold (group, value id) pairs. While every
      // row is still in group 0, the value ids are the groups.
      const double* xs = batch.reals(col).data();
      s.ranks.resize(num_rows);
      uint32_t* value_id = num_groups == 1 ? id : s.ranks.data();
      s.groups.Reset(num_rows);
      for (size_t r = 0; r < num_rows; ++r) {
        value_id[r] = s.groups.IdOf(RankKey(xs[r]));
      }
      if (num_groups > 1) {
        const uint64_t distinct = s.groups.size();
        s.groups.Reset(std::min<uint64_t>(num_rows, num_groups * distinct));
        for (size_t r = 0; r < num_rows; ++r) {
          id[r] = s.groups.IdOf(id[r] * distinct + value_id[r]);
        }
      }
    }
    num_groups = s.groups.size();
  }
  return num_groups;
}

namespace {

// `count` non-decreasing order statistics over `domain`, into
// s.target_codes (codes of i.i.d. domain indices, sorted) or
// s.target_reals (i.i.d. uniform doubles, sorted).
void SortedSamplesEncoded(const Domain& domain, size_t count, Rng* rng,
                          GeneratorScratch& s) {
  if (domain.is_continuous()) {
    s.target_reals.resize(count);
    for (double& x : s.target_reals) {
      x = rng->UniformDouble(domain.lo(), domain.hi());
    }
    RadixSortDoubles(s.target_reals.data(), count);
    return;
  }
  const size_t k = domain.values().size();
  METALEAK_DCHECK(k > 0);
  s.idx.resize(count);
  for (size_t& i : s.idx) i = rng->UniformIndex(k);
  std::sort(s.idx.begin(), s.idx.end());
  s.target_codes.resize(count);
  for (size_t i = 0; i < count; ++i) {
    s.target_codes[i] = static_cast<uint32_t>(s.idx[i]) + 1;
  }
}

// `count` strictly increasing targets where the domain permits: a
// categorical domain of at least `count` values is sampled without
// replacement. Continuous draws are distinct almost surely; a smaller
// categorical domain falls back to SortedSamplesEncoded's
// non-decreasing assignment (the forced transitions of Section IV-E).
void StrictSortedSamplesEncoded(const Domain& domain, size_t count,
                                Rng* rng, GeneratorScratch& s) {
  if (domain.is_continuous()) {
    SortedSamplesEncoded(domain, count, rng, s);
    return;
  }
  const size_t k = domain.values().size();
  if (k >= count) {
    s.idx.resize(count);
    rng->SampleWithoutReplacement(k, count, s.idx.data());
    std::sort(s.idx.begin(), s.idx.end());
    s.target_codes.resize(count);
    for (size_t i = 0; i < count; ++i) {
      s.target_codes[i] = static_cast<uint32_t>(s.idx[i]) + 1;
    }
    return;
  }
  SortedSamplesEncoded(domain, count, rng, s);
}

void GenerateOrderedColumnEncoded(size_t lhs_column, const Domain& domain,
                                  size_t num_rows, bool strict, Rng* rng,
                                  EncodedBatch* batch, size_t target) {
  METALEAK_DCHECK(rng != nullptr);
  GeneratorScratch& s = Scratch();
  uint32_t distinct = RankEncodedColumn(*batch, lhs_column, num_rows,
                                        &s.ranks);
  if (strict) {
    StrictSortedSamplesEncoded(domain, distinct, rng, s);
  } else {
    SortedSamplesEncoded(domain, distinct, rng, s);
  }
  if (batch->kind(target) == EncodedBatch::ColumnKind::kCodes) {
    batch->WithMutableCodes(target, [&](auto* out) {
      for (size_t r = 0; r < num_rows; ++r) {
        out[r] = s.target_codes[s.ranks[r]];
      }
    });
  } else {
    std::vector<double>& out = batch->reals(target);
    for (size_t r = 0; r < num_rows; ++r) {
      out[r] = s.target_reals[s.ranks[r]];
    }
  }
}

}  // namespace

void GenerateRootColumnEncoded(const Domain& domain, size_t num_rows,
                               Rng* rng, EncodedBatch* batch,
                               size_t target) {
  METALEAK_DCHECK(rng != nullptr);
  if (batch->kind(target) == EncodedBatch::ColumnKind::kCodes) {
    METALEAK_DCHECK(domain.is_categorical());
    const size_t k = domain.values().size();
    batch->WithMutableCodes(target, [&](auto* out) {
      for (size_t r = 0; r < num_rows; ++r) {
        out[r] = static_cast<uint32_t>(rng->UniformIndex(k)) + 1;
      }
    });
  } else {
    std::vector<double>& out = batch->reals(target);
    for (size_t r = 0; r < num_rows; ++r) {
      out[r] = rng->UniformDouble(domain.lo(), domain.hi());
    }
  }
}

void GenerateFdColumnEncoded(const std::vector<size_t>& lhs_columns,
                             const Domain& domain, size_t num_rows,
                             Rng* rng, EncodedBatch* batch,
                             size_t target) {
  METALEAK_DCHECK(rng != nullptr);
  GeneratorScratch& s = Scratch();
  uint32_t num_groups = FoldLhsGroupsEncoded(*batch, lhs_columns, num_rows,
                                             &s.ids);
  s.flags.assign(num_groups, 0);
  if (batch->kind(target) == EncodedBatch::ColumnKind::kCodes) {
    const size_t k = domain.values().size();
    s.code_map.resize(num_groups);
    batch->WithMutableCodes(target, [&](auto* out) {
      for (size_t r = 0; r < num_rows; ++r) {
        uint32_t id = s.ids[r];
        if (!s.flags[id]) {
          s.flags[id] = 1;
          s.code_map[id] = static_cast<uint32_t>(rng->UniformIndex(k)) + 1;
        }
        out[r] = s.code_map[id];
      }
    });
  } else {
    s.real_map.resize(num_groups);
    std::vector<double>& out = batch->reals(target);
    for (size_t r = 0; r < num_rows; ++r) {
      uint32_t id = s.ids[r];
      if (!s.flags[id]) {
        s.flags[id] = 1;
        s.real_map[id] = rng->UniformDouble(domain.lo(), domain.hi());
      }
      out[r] = s.real_map[id];
    }
  }
}

void GenerateAfdColumnEncoded(const std::vector<size_t>& lhs_columns,
                              const Domain& domain, size_t num_rows,
                              double g3_error, Rng* rng,
                              EncodedBatch* batch, size_t target) {
  GenerateFdColumnEncoded(lhs_columns, domain, num_rows, rng, batch,
                          target);
  const double p = std::clamp(g3_error, 0.0, 1.0);
  if (batch->kind(target) == EncodedBatch::ColumnKind::kCodes) {
    const size_t k = domain.values().size();
    batch->WithMutableCodes(target, [&](auto* out) {
      for (size_t r = 0; r < num_rows; ++r) {
        if (rng->Bernoulli(p)) {
          out[r] = static_cast<uint32_t>(rng->UniformIndex(k)) + 1;
        }
      }
    });
  } else {
    std::vector<double>& out = batch->reals(target);
    for (size_t r = 0; r < num_rows; ++r) {
      if (rng->Bernoulli(p)) {
        out[r] = rng->UniformDouble(domain.lo(), domain.hi());
      }
    }
  }
}

void GenerateNdColumnEncoded(size_t lhs_column, const Domain& domain,
                             size_t num_rows, size_t max_fanout, Rng* rng,
                             EncodedBatch* batch, size_t target) {
  METALEAK_DCHECK(rng != nullptr);
  GeneratorScratch& s = Scratch();
  const uint32_t distinct =
      RankEncodedColumn(*batch, lhs_column, num_rows, &s.ranks);
  if (batch->kind(target) == EncodedBatch::ColumnKind::kCodes) {
    batch->WithMutableCodes(target, [&](auto* out) {
      LazyNdPools(s.ranks.data(), distinct, num_rows, domain, max_fanout,
                  rng, out);
    });
  } else {
    LazyNdPools(s.ranks.data(), distinct, num_rows, domain, max_fanout, rng,
                batch->reals(target).data());
  }
}

void GenerateOdColumnEncoded(size_t lhs_column, const Domain& domain,
                             size_t num_rows, Rng* rng, EncodedBatch* batch,
                             size_t target) {
  GenerateOrderedColumnEncoded(lhs_column, domain, num_rows,
                               /*strict=*/false, rng, batch, target);
}

void GenerateOfdColumnEncoded(size_t lhs_column, const Domain& domain,
                              size_t num_rows, Rng* rng,
                              EncodedBatch* batch, size_t target) {
  GenerateOrderedColumnEncoded(lhs_column, domain, num_rows,
                               /*strict=*/true, rng, batch, target);
}

Status GenerateDdColumnEncoded(size_t lhs_column, const Domain& domain,
                               const std::vector<double>& lhs_code_numeric,
                               size_t num_rows, double lhs_epsilon,
                               double rhs_delta, Rng* rng,
                               EncodedBatch* batch, size_t target) {
  METALEAK_DCHECK(rng != nullptr);
  if (domain.is_categorical()) {
    return Status::TypeError(
        "differential generation requires a continuous target domain");
  }
  GeneratorScratch& s = Scratch();
  const uint32_t distinct =
      RankEncodedColumn(*batch, lhs_column, num_rows, &s.ranks);
  double* out = batch->reals(target).data();
  if (batch->kind(lhs_column) == EncodedBatch::ColumnKind::kCodes) {
    const CodeColumnView view = batch->code_view(lhs_column);
    DdChain(
        s.ranks.data(), distinct, num_rows,
        [&](uint32_t row) { return lhs_code_numeric[view.at(row)]; },
        domain, lhs_epsilon, rhs_delta, rng, out);
  } else {
    const double* xs = batch->reals(lhs_column).data();
    DdChain(
        s.ranks.data(), distinct, num_rows,
        [xs](uint32_t row) { return xs[row]; }, domain, lhs_epsilon,
        rhs_delta, rng, out);
  }
  return Status::OK();
}

}  // namespace metaleak
