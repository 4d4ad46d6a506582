#include "stats.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace metaleak::e2e {

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

std::array<double, 3> Quartiles(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const long ld = static_cast<long>(xs.size());
  const long m = ld + 1;
  std::array<double, 3> out{};
  for (long i = 1; i < 4; ++i) {
    long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    out[i - 1] = (xs[j - 1] * static_cast<double>(4 - delta) +
                  xs[j] * static_cast<double>(delta)) /
                 4.0;
  }
  return out;
}

namespace {

// 1-based nearest rank of the p-th percentile of n samples. The epsilon
// keeps p * n / 100 from rounding up past an exact integer (99.9 * 10000).
size_t NearestRank(double p, size_t n) {
  const double rank = std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

}  // namespace

double Percentile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  return xs[NearestRank(p, xs.size()) - 1];
}

std::optional<double> TailPercentile(size_t n) {
  for (double p : {99.9, 99.0, 90.0}) {
    if (n > 0 && n - NearestRank(p, n) >= 10) return p;
  }
  return std::nullopt;
}

std::string ModuleOf(const std::string& name) {
  return name.substr(0, name.find('.'));
}

std::unordered_map<uint64_t, int64_t> SelfTimesNs(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::unordered_map<uint64_t, int64_t> self;
  for (const SpanRecord& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>>& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_lo = 0;
      int64_t cur_hi = 0;
      bool open = false;
      auto flush = [&] {
        if (open) covered += std::max<int64_t>(0, cur_hi - cur_lo);
      };
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
        } else {
          flush();
          cur_lo = lo;
          cur_hi = hi;
          open = true;
        }
      }
      flush();
    }
    self[s.id] = s.duration_ns() - covered;
  }
  return self;
}

double Coverage(const std::vector<SpanRecord>& spans,
                const std::unordered_map<uint64_t, int64_t>& self_ns) {
  double total = 0.0;
  double uncovered = 0.0;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) continue;
    total += static_cast<double>(s.duration_ns());
    uncovered += static_cast<double>(self_ns.at(s.id));
  }
  return total > 0.0 ? 1.0 - uncovered / total : 0.0;
}

double PerPass(const std::vector<std::pair<uint64_t, double>>& entries,
               const std::vector<uint64_t>& requests) {
  std::map<uint64_t, double> totals;
  for (const auto& [request, value] : entries) totals[request] += value;
  double pass = totals.count(0) != 0 ? totals[0] : 0.0;
  if (!requests.empty()) {
    std::vector<double> per_request;
    per_request.reserve(requests.size());
    for (uint64_t r : requests) {
      auto it = totals.find(r);
      per_request.push_back(it == totals.end() ? 0.0 : it->second);
    }
    pass += Median(std::move(per_request));
  }
  return pass;
}

}  // namespace metaleak::e2e
