#include "reference/round_kernel_reference.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "common/macros.h"

namespace metaleak {
namespace reference {

std::vector<size_t> SampleWithoutReplacement(Rng* rng, size_t n, size_t k) {
  METALEAK_DCHECK(k <= n);
  std::unordered_set<size_t> chosen;
  chosen.reserve(k);
  std::vector<size_t> out;
  out.reserve(k);
  for (size_t j = n - k; j < n; ++j) {
    size_t t = rng->UniformIndex(j + 1);
    if (chosen.insert(t).second) {
      out.push_back(t);
    } else {
      chosen.insert(j);
      out.push_back(j);
    }
  }
  return out;
}

uint32_t RankReals(const std::vector<double>& xs,
                   std::vector<uint32_t>* ranks) {
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  ranks->resize(xs.size());
  for (size_t r = 0; r < xs.size(); ++r) {
    (*ranks)[r] = static_cast<uint32_t>(
        std::lower_bound(sorted.begin(), sorted.end(), xs[r]) -
        sorted.begin());
  }
  return static_cast<uint32_t>(sorted.size());
}

uint32_t RankBatchColumn(const EncodedBatch& batch, size_t col,
                         size_t num_rows, std::vector<uint32_t>* ranks) {
  if (batch.kind(col) == EncodedBatch::ColumnKind::kReals) {
    const std::vector<double>& reals = batch.reals(col);
    return RankReals(
        std::vector<double>(reals.begin(), reals.begin() + num_rows), ranks);
  }
  const CodeColumnView view = batch.code_view(col);
  uint32_t max_code = 0;
  for (size_t r = 0; r < num_rows; ++r) {
    max_code = std::max(max_code, view.at(r));
  }
  std::vector<uint32_t> code_rank(static_cast<size_t>(max_code) + 1, 0);
  for (size_t r = 0; r < num_rows; ++r) code_rank[view.at(r)] = 1;
  uint32_t running = 0;
  for (uint32_t& slot : code_rank) {
    const uint32_t present = slot;
    slot = running;
    running += present;
  }
  ranks->resize(num_rows);
  for (size_t r = 0; r < num_rows; ++r) (*ranks)[r] = code_rank[view.at(r)];
  return running;
}

uint32_t FoldLhsGroups(const EncodedBatch& batch,
                       const std::vector<size_t>& lhs_columns,
                       size_t num_rows, std::vector<uint32_t>* ids) {
  ids->assign(num_rows, 0);
  uint32_t num_groups = 1;
  std::vector<uint32_t> ranks;
  for (size_t col : lhs_columns) {
    const uint32_t distinct = RankBatchColumn(batch, col, num_rows, &ranks);
    std::unordered_map<uint64_t, uint32_t> remap;
    remap.reserve(num_rows);
    for (size_t r = 0; r < num_rows; ++r) {
      const uint64_t key =
          static_cast<uint64_t>((*ids)[r]) * distinct + ranks[r];
      auto it =
          remap.emplace(key, static_cast<uint32_t>(remap.size())).first;
      (*ids)[r] = it->second;
    }
    num_groups = static_cast<uint32_t>(remap.size());
  }
  return num_groups;
}

void SortReals(std::vector<double>* xs) { std::sort(xs->begin(), xs->end()); }

std::vector<Value> PoolFirstNdColumn(const std::vector<Value>& lhs_column,
                                     const Domain& domain, size_t num_rows,
                                     size_t max_fanout, Rng* rng) {
  METALEAK_DCHECK(lhs_column.size() == num_rows);
  const size_t k = std::max<size_t>(1, max_fanout);
  std::vector<Value> distinct = lhs_column;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  // One flat arena with constant stride: pool i is
  // pools[i * take, (i + 1) * take).
  const size_t take = domain.is_categorical()
                          ? std::min(k, domain.values().size())
                          : k;
  std::vector<Value> pools(distinct.size() * take, Value::Null());
  std::vector<char> filled(distinct.size(), 0);
  std::vector<Value> out;
  out.reserve(num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    const size_t code =
        std::lower_bound(distinct.begin(), distinct.end(), lhs_column[r]) -
        distinct.begin();
    Value* pool = pools.data() + code * take;
    if (!filled[code]) {
      filled[code] = 1;
      if (domain.is_categorical()) {
        const std::vector<Value>& vals = domain.values();
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

std::vector<Value> SortDdColumn(const std::vector<Value>& lhs_column,
                                const Domain& domain, size_t num_rows,
                                double lhs_epsilon, double rhs_delta,
                                Rng* rng) {
  METALEAK_DCHECK(domain.is_continuous());
  METALEAK_DCHECK(lhs_column.size() == num_rows);
  std::vector<size_t> order(num_rows);
  for (size_t i = 0; i < num_rows; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return lhs_column[a] < lhs_column[b];
  });

  std::vector<Value> out(num_rows);
  double prev_x = 0.0;
  double prev_y = 0.0;
  bool has_prev = false;
  for (size_t row : order) {
    const double x =
        lhs_column[row].is_numeric() ? lhs_column[row].AsNumeric() : 0.0;
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

namespace {

// One continuous attribute's eps-match and top-1 counts: every real row
// binary-searches the sorted non-NULL generated values for its nearest
// neighbour.
void ScoreAttribute(const std::vector<double>& real_numeric,
                    const std::vector<double>& syn, double epsilon,
                    size_t* eps_matches, size_t* top1_hits) {
  std::vector<double> sorted;
  for (double s : syn) {
    if (!std::isnan(s)) sorted.push_back(s);
  }
  std::sort(sorted.begin(), sorted.end());
  if (sorted.empty()) return;
  for (size_t r = 0; r < real_numeric.size(); ++r) {
    const double x = real_numeric[r];
    if (std::isnan(x)) continue;
    auto it = std::lower_bound(sorted.begin(), sorted.end(), x);
    double mindist = std::numeric_limits<double>::infinity();
    if (it != sorted.end()) mindist = *it - x;
    if (it != sorted.begin()) mindist = std::min(mindist, x - *(it - 1));
    if (mindist <= epsilon) ++*eps_matches;
    const double aligned = syn[r];
    if (!std::isnan(aligned) && std::abs(x - aligned) <= mindist) {
      ++*top1_hits;
    }
  }
}

}  // namespace

std::vector<double> NnLinkageCells(const EncodedRelation& real,
                                   const std::vector<Domain>& domains,
                                   const LeakageOptions& options,
                                   const EncodedBatch& batch,
                                   std::vector<bool>* present) {
  const size_t m = real.num_columns();
  const size_t n = real.num_rows();
  std::vector<double> cells(2 * m, 0.0);
  present->assign(2 * m, false);
  const std::vector<EncodedBatch::ColumnKind> kinds =
      ColumnKindsForDomains(domains);
  for (size_t c = 0; c < m; ++c) {
    if (real.schema().attribute(c).semantic != SemanticType::kContinuous) {
      continue;
    }
    double epsilon = 0.0;
    if (options.absolute_epsilon.has_value()) {
      epsilon = *options.absolute_epsilon;
    } else {
      Result<Domain> domain = real.DomainOf(c);
      epsilon = domain.ok() ? options.epsilon_fraction * domain->range() : 0.0;
    }
    const std::vector<double> by_code = real.dictionary(c).NumericByCode();
    const CodeColumnView col = real.column_view(c);
    std::vector<double> real_numeric(n);
    for (size_t r = 0; r < n; ++r) real_numeric[r] = by_code[col.at(r)];
    std::vector<double> syn(n);
    if (kinds[c] == EncodedBatch::ColumnKind::kCodes) {
      const std::vector<Value>& values = domains[c].values();
      for (size_t r = 0; r < n; ++r) {
        const uint32_t code = batch.code_at(c, r);
        syn[r] = code != 0 && values[code - 1].is_numeric()
                     ? values[code - 1].AsNumeric()
                     : std::numeric_limits<double>::quiet_NaN();
      }
    } else {
      for (size_t r = 0; r < n; ++r) syn[r] = batch.reals(c)[r];
    }
    size_t eps_matches = 0;
    size_t top1_hits = 0;
    ScoreAttribute(real_numeric, syn, epsilon, &eps_matches, &top1_hits);
    cells[c] = static_cast<double>(eps_matches);
    cells[m + c] = static_cast<double>(top1_hits);
    (*present)[c] = true;
    (*present)[m + c] = true;
  }
  return cells;
}

}  // namespace reference
}  // namespace metaleak
