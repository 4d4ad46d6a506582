#include "reference/differential_reference.h"

#include <algorithm>
#include <deque>
#include <utility>
#include <vector>

namespace metaleak {
namespace reference {

Result<double> ComputeMinimalDelta(const Relation& relation, size_t lhs,
                                   size_t rhs, double eps) {
  if (lhs >= relation.num_columns() || rhs >= relation.num_columns()) {
    return Status::OutOfRange("attribute index out of range");
  }
  if (eps < 0.0) {
    return Status::Invalid("differential epsilon must be non-negative");
  }
  std::vector<std::pair<double, double>> pts;
  const std::vector<Value>& x = relation.column(lhs);
  const std::vector<Value>& y = relation.column(rhs);
  for (size_t r = 0; r < relation.num_rows(); ++r) {
    if (x[r].is_null() || y[r].is_null()) continue;
    if (!x[r].is_numeric() || !y[r].is_numeric()) {
      return Status::TypeError(
          "differential dependencies require numeric attributes");
    }
    pts.emplace_back(x[r].AsNumeric(), y[r].AsNumeric());
  }
  if (pts.size() < 2) return 0.0;
  std::sort(pts.begin(), pts.end());
  // For every j, the window [lo, j) holds the points within eps on the
  // lhs; the deques keep the window's rhs minimum and maximum in front.
  double delta = 0.0;
  std::deque<size_t> min_dq;
  std::deque<size_t> max_dq;
  size_t lo = 0;
  for (size_t j = 0; j < pts.size(); ++j) {
    while (lo < j && pts[j].first - pts[lo].first > eps) {
      if (!min_dq.empty() && min_dq.front() == lo) min_dq.pop_front();
      if (!max_dq.empty() && max_dq.front() == lo) max_dq.pop_front();
      ++lo;
    }
    if (!min_dq.empty()) {
      delta = std::max(delta, pts[j].second - pts[min_dq.front()].second);
    }
    if (!max_dq.empty()) {
      delta = std::max(delta, pts[max_dq.front()].second - pts[j].second);
    }
    while (!min_dq.empty() && pts[min_dq.back()].second >= pts[j].second) {
      min_dq.pop_back();
    }
    min_dq.push_back(j);
    while (!max_dq.empty() && pts[max_dq.back()].second <= pts[j].second) {
      max_dq.pop_back();
    }
    max_dq.push_back(j);
  }
  return delta;
}

}  // namespace reference
}  // namespace metaleak
