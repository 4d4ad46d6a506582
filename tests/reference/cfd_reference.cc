#include "reference/cfd_reference.h"

#include <unordered_map>
#include <unordered_set>

#include "data/encoded_relation.h"
#include "discovery/validators.h"
#include "partition/pli_cache.h"

namespace metaleak {
namespace reference {

namespace {

Status CheckCfdAttrs(const Relation& relation, const ConditionalFd& cfd) {
  size_t n = relation.num_columns();
  if (cfd.condition_attr >= n || cfd.rhs >= n) {
    return Status::OutOfRange("CFD attribute index out of range");
  }
  for (size_t i : cfd.lhs.ToIndices()) {
    if (i >= n) return Status::OutOfRange("CFD LHS index out of range");
  }
  if (!cfd.rhs_is_constant && cfd.lhs.empty()) {
    return Status::Invalid("variable CFD needs a non-empty LHS");
  }
  return Status::OK();
}

// Rows where the condition attribute equals the condition value.
std::vector<size_t> MatchingRows(const Relation& relation,
                                 const ConditionalFd& cfd) {
  std::vector<size_t> rows;
  const std::vector<Value>& col = relation.column(cfd.condition_attr);
  for (size_t r = 0; r < col.size(); ++r) {
    if (col[r] == cfd.condition_value) rows.push_back(r);
  }
  return rows;
}

}  // namespace

Result<bool> ValidateCfd(const Relation& relation,
                         const ConditionalFd& cfd) {
  METALEAK_RETURN_NOT_OK(CheckCfdAttrs(relation, cfd));
  std::vector<size_t> rows = MatchingRows(relation, cfd);
  if (rows.empty()) return true;  // vacuous
  if (cfd.rhs_is_constant) {
    for (size_t r : rows) {
      if (relation.at(r, cfd.rhs) != cfd.rhs_value) return false;
    }
    return true;
  }
  Relation scope = relation.SelectRows(rows);
  EncodedRelation encoded = EncodedRelation::Encode(scope);
  PliCache cache(&encoded);
  return ValidateFd(&cache, cfd.lhs, cfd.rhs);
}

Result<std::vector<ConditionalFd>> DiscoverCfds(
    const Relation& relation, const CfdDiscoveryOptions& options) {
  std::vector<ConditionalFd> out;
  const size_t m = relation.num_columns();
  if (m == 0 || relation.num_rows() == 0) return out;
  EncodedRelation encoded = EncodedRelation::Encode(relation);
  PliCache cache(&encoded);

  // Distinct non-null values per attribute (candidates for conditions).
  std::vector<std::vector<Value>> distinct(m);
  for (size_t c = 0; c < m; ++c) {
    std::unordered_set<Value> seen;
    for (const Value& v : relation.column(c)) {
      if (!v.is_null() && seen.insert(v).second) {
        distinct[c].push_back(v);
      }
    }
  }

  // --- Constant CFDs: [X=x] => A = a -----------------------------------
  for (size_t x = 0; x < m; ++x) {
    if (distinct[x].size() > options.max_condition_distinct) continue;
    for (size_t a = 0; a < m; ++a) {
      if (a == x) continue;
      if (options.skip_global_fds &&
          ValidateFd(&cache, AttributeSet::Single(x), a)) {
        continue;  // the whole FD holds; constants add nothing
      }
      // Group rows by X value; pure groups yield constant CFDs.
      std::unordered_map<Value, Value> first_a;
      std::unordered_map<Value, size_t> support;
      std::unordered_set<Value> impure;
      for (size_t r = 0; r < relation.num_rows(); ++r) {
        const Value& xv = relation.at(r, x);
        if (xv.is_null()) continue;
        const Value& av = relation.at(r, a);
        auto [it, inserted] = first_a.emplace(xv, av);
        support[xv]++;
        if (!inserted && it->second != av) impure.insert(xv);
      }
      for (const Value& xv : distinct[x]) {
        if (impure.count(xv) != 0) continue;
        if (support[xv] < options.min_support) continue;
        auto it = first_a.find(xv);
        if (it == first_a.end() || it->second.is_null()) continue;
        out.push_back(
            ConditionalFd::Constant(x, xv, a, it->second, support[xv]));
      }
    }
  }

  // --- Variable CFDs: [C=c] => (X -> A) ---------------------------------
  for (size_t c = 0; c < m; ++c) {
    if (distinct[c].size() > options.max_condition_distinct) continue;
    for (const Value& cv : distinct[c]) {
      std::vector<size_t> rows;
      for (size_t r = 0; r < relation.num_rows(); ++r) {
        if (relation.at(r, c) == cv) rows.push_back(r);
      }
      if (rows.size() < options.min_support) continue;
      Relation scope = relation.SelectRows(rows);
      EncodedRelation scope_encoded = EncodedRelation::Encode(scope);
      PliCache scope_cache(&scope_encoded);
      for (size_t x = 0; x < m; ++x) {
        if (x == c) continue;
        for (size_t a = 0; a < m; ++a) {
          if (a == x || a == c) continue;
          if (options.skip_global_fds &&
              ValidateFd(&cache, AttributeSet::Single(x), a)) {
            continue;
          }
          if (ValidateFd(&scope_cache, AttributeSet::Single(x), a)) {
            out.push_back(ConditionalFd::Variable(
                c, cv, AttributeSet::Single(x), a, rows.size()));
          }
        }
      }
    }
  }
  return out;
}

}  // namespace reference
}  // namespace metaleak
