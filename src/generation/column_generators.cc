#include "generation/column_generators.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/flat_id_table.h"
#include "common/macros.h"
#include "common/radix_sort.h"

namespace metaleak {

namespace {

// Sorted distinct values of a column (Value total order).
std::vector<Value> SortedDistinct(const std::vector<Value>& column) {
  std::vector<Value> vals = column;
  std::sort(vals.begin(), vals.end());
  vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
  return vals;
}

// Local dictionary encoding of one generated column: codes[r] is the rank
// of column[r] among the sorted distinct values. Pools and mappings below
// index vectors by these dense codes instead of hashing `Value`s.
std::vector<uint32_t> EncodeByRank(const std::vector<Value>& column,
                                   const std::vector<Value>& distinct) {
  std::vector<uint32_t> codes;
  codes.reserve(column.size());
  for (const Value& v : column) {
    codes.push_back(static_cast<uint32_t>(
        std::lower_bound(distinct.begin(), distinct.end(), v) -
        distinct.begin()));
  }
  return codes;
}

// Folds the per-column codes of a composite LHS into one dense group id
// per row (same fold as PositionListIndex::FromEncoded). The empty LHS
// (constant FD {} -> A) yields a single group. Group ids are numbered by
// first occurrence in row order, so lazy sampling keyed by id draws from
// the RNG in exactly the row-scan order the Value-hash path used.
std::pair<std::vector<uint32_t>, uint32_t> FoldLhsGroups(
    const std::vector<const std::vector<Value>*>& lhs_columns,
    size_t num_rows) {
  std::vector<uint32_t> ids(num_rows, 0);
  uint32_t num_groups = 1;
  FlatIdTable groups;
  for (const std::vector<Value>* col : lhs_columns) {
    std::vector<Value> distinct = SortedDistinct(*col);
    std::vector<uint32_t> codes = EncodeByRank(*col, distinct);
    groups.Reset(std::min<uint64_t>(
        num_rows, static_cast<uint64_t>(num_groups) * distinct.size()));
    for (size_t r = 0; r < num_rows; ++r) {
      ids[r] = groups.IdOf(static_cast<uint64_t>(ids[r]) * distinct.size() +
                           codes[r]);
    }
    num_groups = groups.size();
  }
  return {std::move(ids), num_groups};
}

// `count` non-decreasing order statistics over `domain`.
std::vector<Value> SortedSamples(const Domain& domain, size_t count,
                                 Rng* rng) {
  std::vector<Value> out;
  out.reserve(count);
  if (domain.is_continuous()) {
    std::vector<double> xs(count);
    for (double& x : xs) x = rng->UniformDouble(domain.lo(), domain.hi());
    std::sort(xs.begin(), xs.end());
    for (double x : xs) out.push_back(Value::Real(x));
    return out;
  }
  const std::vector<Value>& vals = domain.values();
  METALEAK_DCHECK(!vals.empty());
  std::vector<size_t> idx(count);
  for (size_t& i : idx) i = rng->UniformIndex(vals.size());
  std::sort(idx.begin(), idx.end());
  for (size_t i : idx) out.push_back(vals[i]);
  return out;
}

// `count` strictly increasing values where possible (see header).
std::vector<Value> StrictSortedSamples(const Domain& domain, size_t count,
                                       Rng* rng) {
  if (domain.is_continuous()) {
    // Continuous uniforms are distinct almost surely; re-draw collisions.
    std::vector<double> xs(count);
    for (double& x : xs) x = rng->UniformDouble(domain.lo(), domain.hi());
    std::sort(xs.begin(), xs.end());
    std::vector<Value> out;
    out.reserve(count);
    for (double x : xs) out.push_back(Value::Real(x));
    return out;
  }
  const std::vector<Value>& vals = domain.values();
  if (vals.size() >= count) {
    std::vector<size_t> picked = rng->SampleWithoutReplacement(vals.size(),
                                                               count);
    std::sort(picked.begin(), picked.end());
    std::vector<Value> out;
    out.reserve(count);
    for (size_t i : picked) out.push_back(vals[i]);
    return out;
  }
  // Domain too small for a strict walk: forced transitions collapse to the
  // non-decreasing assignment.
  return SortedSamples(domain, count, rng);
}

}  // namespace

std::vector<Value> GenerateRootColumn(const Domain& domain, size_t num_rows,
                                      Rng* rng) {
  METALEAK_DCHECK(rng != nullptr);
  std::vector<Value> out;
  out.reserve(num_rows);
  for (size_t r = 0; r < num_rows; ++r) out.push_back(domain.Sample(rng));
  return out;
}

std::vector<Value> GenerateFdColumn(
    const std::vector<const std::vector<Value>*>& lhs_columns,
    const Domain& domain, size_t num_rows, Rng* rng) {
  METALEAK_DCHECK(rng != nullptr);
  std::vector<Value> out;
  out.reserve(num_rows);
  auto [ids, num_groups] = FoldLhsGroups(lhs_columns, num_rows);
  // One lazily-sampled target per LHS group, indexed by dense group id.
  std::vector<Value> mapping(num_groups, Value::Null());
  std::vector<bool> sampled(num_groups, false);
  for (size_t r = 0; r < num_rows; ++r) {
    uint32_t id = ids[r];
    if (!sampled[id]) {
      mapping[id] = domain.Sample(rng);
      sampled[id] = true;
    }
    out.push_back(mapping[id]);
  }
  return out;
}

std::vector<Value> GenerateAfdColumn(
    const std::vector<const std::vector<Value>*>& lhs_columns,
    const Domain& domain, size_t num_rows, double g3_error, Rng* rng) {
  std::vector<Value> out =
      GenerateFdColumn(lhs_columns, domain, num_rows, rng);
  // The epsilon fraction of correctly-scattered violations (Section IV-A):
  // re-drawn rows are independent of the mapping.
  for (size_t r = 0; r < num_rows; ++r) {
    if (rng->Bernoulli(std::clamp(g3_error, 0.0, 1.0))) {
      out[r] = domain.Sample(rng);
    }
  }
  return out;
}

std::vector<Value> GenerateNdColumn(const std::vector<Value>& lhs_column,
                                    const Domain& domain, size_t num_rows,
                                    size_t max_fanout, Rng* rng) {
  METALEAK_DCHECK(rng != nullptr);
  METALEAK_DCHECK(lhs_column.size() == num_rows);
  size_t k = std::max<size_t>(1, max_fanout);
  std::vector<Value> distinct = SortedDistinct(lhs_column);
  std::vector<uint32_t> codes = EncodeByRank(lhs_column, distinct);
  // Per-LHS-value pools in one flat arena with constant stride: every
  // pool has the same size (min(k, |Dom(Y)|) when categorical, k
  // otherwise), so pool i is pools[i*take, (i+1)*take). Pools fill
  // lazily in row-scan order, so RNG consumption is identical to the
  // per-pool-vector layout this replaces.
  const size_t take = domain.is_categorical()
                          ? std::min(k, domain.values().size())
                          : k;
  std::vector<Value> pools(distinct.size() * take, Value::Null());
  std::vector<char> filled(distinct.size(), 0);
  std::vector<Value> out;
  out.reserve(num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    const uint32_t code = codes[r];
    Value* pool = pools.data() + code * take;
    if (!filled[code]) {
      filled[code] = 1;
      if (domain.is_categorical()) {
        const std::vector<Value>& vals = domain.values();
        // Sampling without replacement from Dom(Y): the hyper-geometric
        // selection in the paper's ND analysis.
        size_t j = 0;
        for (size_t i : rng->SampleWithoutReplacement(vals.size(), take)) {
          pool[j++] = vals[i];
        }
      } else {
        for (size_t i = 0; i < take; ++i) pool[i] = domain.Sample(rng);
      }
    }
    out.push_back(pool[rng->UniformIndex(take)]);
  }
  return out;
}

namespace {

std::vector<Value> GenerateOrderedColumn(const std::vector<Value>& lhs_column,
                                         const Domain& domain,
                                         size_t num_rows, bool strict,
                                         Rng* rng) {
  METALEAK_DCHECK(rng != nullptr);
  METALEAK_DCHECK(lhs_column.size() == num_rows);
  std::vector<Value> distinct = SortedDistinct(lhs_column);
  std::vector<Value> targets =
      strict ? StrictSortedSamples(domain, distinct.size(), rng)
             : SortedSamples(domain, distinct.size(), rng);
  // Map the i-th smallest LHS value to the i-th order statistic: this is
  // exactly the interval-partition assignment of Section IV-C and keeps
  // the order dependency satisfied by construction. The rank codes *are*
  // the mapping — targets is indexed directly by code.
  std::vector<uint32_t> codes = EncodeByRank(lhs_column, distinct);
  std::vector<Value> out;
  out.reserve(num_rows);
  for (uint32_t code : codes) out.push_back(targets[code]);
  return out;
}

}  // namespace

std::vector<Value> GenerateOdColumn(const std::vector<Value>& lhs_column,
                                    const Domain& domain, size_t num_rows,
                                    Rng* rng) {
  return GenerateOrderedColumn(lhs_column, domain, num_rows,
                               /*strict=*/false, rng);
}

std::vector<Value> GenerateOfdColumn(const std::vector<Value>& lhs_column,
                                     const Domain& domain, size_t num_rows,
                                     Rng* rng) {
  return GenerateOrderedColumn(lhs_column, domain, num_rows,
                               /*strict=*/true, rng);
}

Result<std::vector<Value>> GenerateDdColumn(
    const std::vector<Value>& lhs_column, const Domain& domain,
    size_t num_rows, double lhs_epsilon, double rhs_delta, Rng* rng) {
  METALEAK_DCHECK(rng != nullptr);
  if (domain.is_categorical()) {
    return Status::TypeError(
        "differential generation requires a continuous target domain");
  }
  if (lhs_column.size() != num_rows) {
    return Status::Invalid("LHS column size mismatch");
  }
  // Order rows by LHS value; walk the chain generating each RHS relative
  // to its predecessor when the LHS values are proximal (Markov process).
  std::vector<size_t> order(num_rows);
  for (size_t i = 0; i < num_rows; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return lhs_column[a] < lhs_column[b];
  });

  std::vector<Value> out(num_rows);
  double prev_x = 0.0;
  double prev_y = 0.0;
  bool has_prev = false;
  for (size_t pos = 0; pos < num_rows; ++pos) {
    size_t row = order[pos];
    double x = lhs_column[row].is_numeric() ? lhs_column[row].AsNumeric()
                                            : 0.0;
    double y;
    if (has_prev && std::abs(x - prev_x) <= lhs_epsilon) {
      double lo = std::max(domain.lo(), prev_y - rhs_delta);
      double hi = std::min(domain.hi(), prev_y + rhs_delta);
      if (lo > hi) {
        lo = domain.lo();
        hi = domain.hi();
      }
      y = rng->UniformDouble(lo, hi);
    } else {
      y = rng->UniformDouble(domain.lo(), domain.hi());
    }
    out[row] = Value::Real(y);
    prev_x = x;
    prev_y = y;
    has_prev = true;
  }
  return out;
}

// --- Encoded (code-path) generators --------------------------------------

namespace {

// Per-thread scratch for the encoded generators. The Monte-Carlo loop
// calls these thousands of times; reusing the arenas makes every call
// after the first allocation-free (same idiom as the PliCache scratch).
struct EncodedScratch {
  std::vector<uint32_t> code_rank;    // per-code rank table (kCodes LHS)
  std::vector<uint32_t> ranks;        // per-row rank of one LHS column
  std::vector<uint32_t> ids;          // folded composite-LHS group ids
  FlatIdTable groups;                 // composite key -> group id
  std::vector<char> flags;            // lazily-sampled / lazily-filled bits
  std::vector<uint32_t> code_map;     // FD group -> code mapping
  std::vector<double> real_map;       // FD group -> double mapping
  std::vector<uint32_t> code_pool;    // ND flat pools (codes)
  std::vector<double> real_pool;      // ND flat pools (doubles)
  std::vector<size_t> idx;            // order-statistic / Floyd draws
  std::vector<uint32_t> target_codes; // OD/OFD rank -> code targets
  std::vector<double> target_reals;   // OD/OFD rank -> double targets
  std::vector<size_t> order;          // DD row order
};

EncodedScratch& Scratch() {
  thread_local EncodedScratch scratch;
  return scratch;
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
  EncodedScratch& s = Scratch();
  ids->assign(num_rows, 0);
  uint32_t num_groups = 1;
  for (size_t col : lhs_columns) {
    const uint32_t distinct =
        RankEncodedColumn(batch, col, num_rows, &s.ranks);
    s.groups.Reset(std::min<uint64_t>(
        num_rows, static_cast<uint64_t>(num_groups) * distinct));
    for (size_t r = 0; r < num_rows; ++r) {
      (*ids)[r] = s.groups.IdOf(
          static_cast<uint64_t>((*ids)[r]) * distinct + s.ranks[r]);
    }
    num_groups = s.groups.size();
  }
  return num_groups;
}

namespace {

// SortedSamples into s.target_codes / s.target_reals.
void SortedSamplesEncoded(const Domain& domain, size_t count, Rng* rng,
                          EncodedScratch& s) {
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

// StrictSortedSamples into s.target_codes / s.target_reals.
void StrictSortedSamplesEncoded(const Domain& domain, size_t count,
                                Rng* rng, EncodedScratch& s) {
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
  EncodedScratch& s = Scratch();
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
  EncodedScratch& s = Scratch();
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
  EncodedScratch& s = Scratch();
  const size_t k = std::max<size_t>(1, max_fanout);
  uint32_t distinct = RankEncodedColumn(*batch, lhs_column, num_rows,
                                        &s.ranks);
  const bool categorical = domain.is_categorical();
  const size_t take =
      categorical ? std::min(k, domain.values().size()) : k;
  s.flags.assign(distinct, 0);
  if (categorical) {
    const size_t domain_size = domain.values().size();
    s.code_pool.assign(static_cast<size_t>(distinct) * take, 0);
    s.idx.resize(take);
    batch->WithMutableCodes(target, [&](auto* out) {
      for (size_t r = 0; r < num_rows; ++r) {
        const uint32_t rank = s.ranks[r];
        uint32_t* pool =
            s.code_pool.data() + static_cast<size_t>(rank) * take;
        if (!s.flags[rank]) {
          s.flags[rank] = 1;
          rng->SampleWithoutReplacement(domain_size, take, s.idx.data());
          for (size_t j = 0; j < take; ++j) {
            pool[j] = static_cast<uint32_t>(s.idx[j]) + 1;
          }
        }
        out[r] = pool[rng->UniformIndex(take)];
      }
    });
  } else {
    s.real_pool.assign(static_cast<size_t>(distinct) * take, 0.0);
    std::vector<double>& out = batch->reals(target);
    for (size_t r = 0; r < num_rows; ++r) {
      const uint32_t rank = s.ranks[r];
      double* pool = s.real_pool.data() + static_cast<size_t>(rank) * take;
      if (!s.flags[rank]) {
        s.flags[rank] = 1;
        for (size_t i = 0; i < take; ++i) {
          pool[i] = rng->UniformDouble(domain.lo(), domain.hi());
        }
      }
      out[r] = pool[rng->UniformIndex(take)];
    }
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
  EncodedScratch& s = Scratch();
  s.order.resize(num_rows);
  for (size_t i = 0; i < num_rows; ++i) s.order[i] = i;
  const bool lhs_codes =
      batch->kind(lhs_column) == EncodedBatch::ColumnKind::kCodes;
  // Codes are assigned in ascending Value order, so sorting by code (or
  // by raw double) makes every comparator decision identical to sorting
  // the decoded Values — same permutation, same Markov chain.
  if (lhs_codes) {
    batch->WithCodes(lhs_column, [&](const auto* codes) {
      std::sort(s.order.begin(), s.order.end(),
                [&](size_t a, size_t b) { return codes[a] < codes[b]; });
    });
  } else {
    const std::vector<double>& xs = batch->reals(lhs_column);
    std::sort(s.order.begin(), s.order.end(),
              [&](size_t a, size_t b) { return xs[a] < xs[b]; });
  }

  const CodeColumnView lhs_view =
      lhs_codes ? batch->code_view(lhs_column) : CodeColumnView{};
  std::vector<double>& out = batch->reals(target);
  double prev_x = 0.0;
  double prev_y = 0.0;
  bool has_prev = false;
  for (size_t pos = 0; pos < num_rows; ++pos) {
    size_t row = s.order[pos];
    double x;
    if (lhs_codes) {
      x = lhs_code_numeric[lhs_view.at(row)];
    } else {
      x = batch->reals(lhs_column)[row];
    }
    double y;
    if (has_prev && std::abs(x - prev_x) <= lhs_epsilon) {
      double lo = std::max(domain.lo(), prev_y - rhs_delta);
      double hi = std::min(domain.hi(), prev_y + rhs_delta);
      if (lo > hi) {
        lo = domain.lo();
        hi = domain.hi();
      }
      y = rng->UniformDouble(lo, hi);
    } else {
      y = rng->UniformDouble(domain.lo(), domain.hi());
    }
    out[row] = y;
    prev_x = x;
    prev_y = y;
    has_prev = true;
  }
  return Status::OK();
}

}  // namespace metaleak
