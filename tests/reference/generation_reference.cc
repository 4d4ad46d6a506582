#include "reference/generation_reference.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/macros.h"
#include "metadata/dependency_graph.h"

namespace metaleak {
namespace reference {

namespace {

// Sorted distinct values of a column (Value total order).
std::vector<Value> SortedDistinct(const std::vector<Value>& column) {
  std::vector<Value> vals = column;
  std::sort(vals.begin(), vals.end());
  vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
  return vals;
}

// codes[r] is the rank of column[r] among the sorted distinct values.
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

// One group id per row for the composite LHS, numbered by the first row
// of each distinct tuple of LHS values. The empty LHS is one group.
std::vector<uint32_t> FoldLhsGroups(
    const std::vector<const std::vector<Value>*>& lhs_columns,
    size_t num_rows) {
  std::map<std::vector<Value>, uint32_t> group_of;
  std::vector<uint32_t> ids(num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    std::vector<Value> key;
    for (const std::vector<Value>* col : lhs_columns) key.push_back((*col)[r]);
    ids[r] = group_of.emplace(std::move(key), group_of.size()).first->second;
  }
  return ids;
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
  std::vector<size_t> idx(count);
  for (size_t& i : idx) i = rng->UniformIndex(vals.size());
  std::sort(idx.begin(), idx.end());
  for (size_t i : idx) out.push_back(vals[i]);
  return out;
}

// `count` strictly increasing values where the domain has enough of them.
std::vector<Value> StrictSortedSamples(const Domain& domain, size_t count,
                                       Rng* rng) {
  if (domain.is_continuous() || domain.values().size() < count) {
    return SortedSamples(domain, count, rng);
  }
  const std::vector<Value>& vals = domain.values();
  std::vector<size_t> picked = rng->SampleWithoutReplacement(vals.size(),
                                                             count);
  std::sort(picked.begin(), picked.end());
  std::vector<Value> out;
  out.reserve(count);
  for (size_t i : picked) out.push_back(vals[i]);
  return out;
}

// Row ids in (LHS value, row) order.
std::vector<size_t> RowsByLhs(const std::vector<Value>& lhs_column) {
  std::vector<size_t> rows(lhs_column.size());
  std::iota(rows.begin(), rows.end(), 0);
  std::stable_sort(rows.begin(), rows.end(), [&](size_t a, size_t b) {
    return lhs_column[a] < lhs_column[b];
  });
  return rows;
}

std::vector<Value> GenerateOrderedColumn(const std::vector<Value>& lhs_column,
                                         const Domain& domain,
                                         size_t num_rows, bool strict,
                                         Rng* rng) {
  METALEAK_DCHECK(lhs_column.size() == num_rows);
  const std::vector<Value> distinct = SortedDistinct(lhs_column);
  const std::vector<Value> targets =
      strict ? StrictSortedSamples(domain, distinct.size(), rng)
             : SortedSamples(domain, distinct.size(), rng);
  std::vector<Value> out;
  out.reserve(num_rows);
  for (uint32_t rank : EncodeByRank(lhs_column, distinct)) {
    out.push_back(targets[rank]);
  }
  return out;
}

// Re-derives each column's physical type from its values: a column
// mixing ints and doubles becomes doubles, and, when `stringify` (the
// chase's rule), a column mixing strings and numbers becomes strings.
void RelaxTypes(bool stringify, std::vector<std::vector<Value>>* columns,
                std::vector<Attribute>* attrs) {
  for (size_t c = 0; c < columns->size(); ++c) {
    bool has_double = false;
    bool has_int = false;
    bool has_string = false;
    for (const Value& v : (*columns)[c]) {
      has_double |= v.is_double();
      has_int |= v.is_int();
      has_string |= v.is_string();
    }
    if (stringify && has_string && (has_int || has_double)) {
      for (Value& v : (*columns)[c]) {
        if (!v.is_null() && !v.is_string()) v = Value::Str(v.ToString());
      }
      (*attrs)[c].type = DataType::kString;
    } else if (has_string) {
      (*attrs)[c].type = DataType::kString;
    } else if (has_double && has_int) {
      for (Value& v : (*columns)[c]) {
        if (v.is_int()) v = Value::Real(static_cast<double>(v.AsInt()));
      }
      (*attrs)[c].type = DataType::kDouble;
    } else if (has_double) {
      (*attrs)[c].type = DataType::kDouble;
    } else if (has_int) {
      (*attrs)[c].type = DataType::kInt64;
    }
  }
}

}  // namespace

std::vector<Value> GenerateRootColumn(const Domain& domain, size_t num_rows,
                                      Rng* rng) {
  std::vector<Value> out;
  out.reserve(num_rows);
  for (size_t r = 0; r < num_rows; ++r) out.push_back(domain.Sample(rng));
  return out;
}

std::vector<Value> GenerateFdColumn(
    const std::vector<const std::vector<Value>*>& lhs_columns,
    const Domain& domain, size_t num_rows, Rng* rng) {
  const std::vector<uint32_t> ids = FoldLhsGroups(lhs_columns, num_rows);
  std::vector<std::optional<Value>> mapping(num_rows);
  std::vector<Value> out;
  out.reserve(num_rows);
  for (uint32_t id : ids) {
    if (!mapping[id].has_value()) mapping[id] = domain.Sample(rng);
    out.push_back(*mapping[id]);
  }
  return out;
}

std::vector<Value> GenerateAfdColumn(
    const std::vector<const std::vector<Value>*>& lhs_columns,
    const Domain& domain, size_t num_rows, double g3_error, Rng* rng) {
  std::vector<Value> out =
      GenerateFdColumn(lhs_columns, domain, num_rows, rng);
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
  METALEAK_DCHECK(lhs_column.size() == num_rows);
  const size_t k = std::max<size_t>(1, max_fanout);
  const size_t domain_size =
      domain.is_categorical() ? domain.values().size() : 0;
  const size_t take = domain.is_categorical() ? std::min(k, domain_size) : k;
  const std::vector<size_t> rows = RowsByLhs(lhs_column);
  std::vector<Value> out(num_rows);
  // The group's filled slots, and its Fisher-Yates permutation of the
  // domain indices stored as the positions it has moved.
  std::vector<Value> pool;
  std::unordered_map<size_t, size_t> moved;
  auto index_at = [&moved](size_t p) {
    auto it = moved.find(p);
    return it == moved.end() ? p : it->second;
  };
  for (size_t i = 0; i < num_rows; ++i) {
    const size_t row = rows[i];
    if (i == 0 || lhs_column[rows[i - 1]] < lhs_column[row]) {
      pool.clear();
      moved.clear();
    } else {
      const size_t u = rng->UniformIndex(take);
      if (u < pool.size()) {
        out[row] = pool[u];
        continue;
      }
    }
    const size_t f = pool.size();
    if (domain.is_categorical()) {
      const size_t p = f + rng->UniformIndex(domain_size - f);
      const size_t at_p = index_at(p);
      moved[p] = index_at(f);
      moved[f] = at_p;
      pool.push_back(domain.values()[at_p]);
    } else {
      pool.push_back(
          Value::Real(rng->UniformDouble(domain.lo(), domain.hi())));
    }
    out[row] = pool.back();
  }
  return out;
}

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
  if (domain.is_categorical()) {
    return Status::TypeError(
        "differential generation requires a continuous target domain");
  }
  if (lhs_column.size() != num_rows) {
    return Status::Invalid("LHS column size mismatch");
  }
  std::vector<Value> out(num_rows);
  double prev_x = 0.0;
  double prev_y = 0.0;
  const std::vector<size_t> rows = RowsByLhs(lhs_column);
  for (size_t i = 0; i < num_rows; ++i) {
    const Value& v = lhs_column[rows[i]];
    const double x = v.is_numeric() ? v.AsNumeric() : 0.0;
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
    out[rows[i]] = Value::Real(prev_y);
  }
  return out;
}

Result<GenerationOutcome> GenerateSyntheticValuePath(
    const MetadataPackage& metadata, size_t num_rows, Rng* rng,
    const GenerationOptions& options) {
  if (rng == nullptr) {
    return Status::Invalid("rng must not be null");
  }
  METALEAK_ASSIGN_OR_RETURN(std::vector<Domain> domains,
                            metadata.RequireDomains());
  const size_t m = metadata.schema.num_attributes();

  DependencySet usable;
  if (!options.ignore_dependencies) {
    usable = metadata.dependencies;
  }
  DependencyGraph plan =
      DependencyGraph::Build(m, usable, options.allowed_kinds);

  std::vector<std::vector<Value>> columns(m);
  for (const GenerationStep& step : plan.steps()) {
    const size_t target = step.attribute;
    const Domain& domain = domains[target];
    const bool has_distribution =
        target < metadata.distributions.size() &&
        metadata.distributions[target].has_value();
    if (!step.via.has_value()) {
      if (has_distribution) {
        std::vector<Value> col;
        col.reserve(num_rows);
        for (size_t r = 0; r < num_rows; ++r) {
          col.push_back(metadata.distributions[target]->Sample(rng));
        }
        columns[target] = std::move(col);
      } else {
        columns[target] = GenerateRootColumn(domain, num_rows, rng);
      }
      continue;
    }
    const Dependency& dep = *step.via;
    std::vector<const std::vector<Value>*> lhs_columns;
    for (size_t i : dep.lhs.ToIndices()) lhs_columns.push_back(&columns[i]);
    switch (dep.kind) {
      case DependencyKind::kFunctional:
        columns[target] =
            GenerateFdColumn(lhs_columns, domain, num_rows, rng);
        break;
      case DependencyKind::kApproximateFunctional:
        columns[target] = GenerateAfdColumn(lhs_columns, domain, num_rows,
                                            dep.g3_error, rng);
        break;
      case DependencyKind::kNumerical:
        columns[target] = GenerateNdColumn(*lhs_columns[0], domain,
                                           num_rows, dep.max_fanout, rng);
        break;
      case DependencyKind::kOrder:
        columns[target] =
            GenerateOdColumn(*lhs_columns[0], domain, num_rows, rng);
        break;
      case DependencyKind::kOrderedFunctional:
        columns[target] =
            GenerateOfdColumn(*lhs_columns[0], domain, num_rows, rng);
        break;
      case DependencyKind::kDifferential: {
        Result<std::vector<Value>> col =
            GenerateDdColumn(*lhs_columns[0], domain, num_rows,
                             dep.lhs_epsilon, dep.rhs_delta, rng);
        // A DD onto a categorical RHS draws from the domain instead.
        columns[target] = col.ok() ? std::move(col).ValueUnsafe()
                                   : GenerateRootColumn(domain, num_rows, rng);
        break;
      }
    }
  }

  std::vector<Attribute> attrs = metadata.schema.attributes();
  RelaxTypes(/*stringify=*/false, &columns, &attrs);
  METALEAK_ASSIGN_OR_RETURN(
      Relation rel,
      Relation::Make(Schema(std::move(attrs)), std::move(columns)));
  return GenerationOutcome{std::move(rel), std::move(plan)};
}

Result<Relation> ApplyCfds(const Relation& relation,
                           const std::vector<ConditionalFd>& cfds,
                           const std::vector<Domain>& domains, Rng* rng) {
  if (rng == nullptr) return Status::Invalid("rng must not be null");
  const size_t m = relation.num_columns();
  if (domains.size() != m) {
    return Status::Invalid("domains not parallel to schema");
  }
  for (const ConditionalFd& cfd : cfds) {
    if (cfd.condition_attr >= m || cfd.rhs >= m) {
      return Status::OutOfRange("CFD attribute out of range");
    }
    for (size_t i : cfd.lhs.ToIndices()) {
      if (i >= m) return Status::OutOfRange("CFD LHS attribute out of range");
    }
  }

  std::vector<std::vector<Value>> columns;
  columns.reserve(m);
  for (size_t c = 0; c < m; ++c) columns.push_back(relation.column(c));

  std::vector<size_t> order;  // constants first, then variables
  for (size_t i = 0; i < cfds.size(); ++i) {
    if (cfds[i].rhs_is_constant) order.push_back(i);
  }
  for (size_t i = 0; i < cfds.size(); ++i) {
    if (!cfds[i].rhs_is_constant) order.push_back(i);
  }
  std::vector<std::unordered_map<size_t, Value>> mappings(cfds.size());
  const size_t max_passes = 2 * m + 4;
  for (size_t pass = 0; pass < max_passes; ++pass) {
    bool changed = false;
    // written[r*m + a] marks cells already claimed this pass.
    std::vector<bool> written(relation.num_rows() * m, false);
    for (size_t oi : order) {
      const ConditionalFd& cfd = cfds[oi];
      for (size_t r = 0; r < relation.num_rows(); ++r) {
        if (columns[cfd.condition_attr][r] != cfd.condition_value) continue;
        if (written[r * m + cfd.rhs]) continue;
        Value desired;
        if (cfd.rhs_is_constant) {
          desired = cfd.rhs_value;
        } else {
          size_t key = 0x811C9DC5u;
          for (size_t i : cfd.lhs.ToIndices()) {
            key ^= columns[i][r].Hash();
            key *= 0x01000193u;
          }
          auto it = mappings[oi].find(key);
          if (it == mappings[oi].end()) {
            it = mappings[oi].emplace(key, domains[cfd.rhs].Sample(rng))
                     .first;
          }
          desired = it->second;
        }
        written[r * m + cfd.rhs] = true;
        if (columns[cfd.rhs][r] != desired) {
          columns[cfd.rhs][r] = desired;
          changed = true;
        }
      }
    }
    if (!changed) break;
  }

  std::vector<Attribute> attrs = relation.schema().attributes();
  RelaxTypes(/*stringify=*/true, &columns, &attrs);
  return Relation::Make(Schema(std::move(attrs)), std::move(columns));
}

}  // namespace reference
}  // namespace metaleak
