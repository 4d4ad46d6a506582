#include "common/math_util.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/macros.h"

namespace metaleak {

double LogGamma(double x) { return std::lgamma(x); }

double LogChoose(int64_t n, int64_t k) {
  if (k < 0 || k > n || n < 0) {
    return -std::numeric_limits<double>::infinity();
  }
  if (k == 0 || k == n) return 0.0;
  return LogGamma(static_cast<double>(n) + 1.0) -
         LogGamma(static_cast<double>(k) + 1.0) -
         LogGamma(static_cast<double>(n - k) + 1.0);
}

double Choose(int64_t n, int64_t k) {
  double lc = LogChoose(n, k);
  if (std::isinf(lc)) return 0.0;
  return std::exp(lc);
}

double BinomialExpectation(int64_t n, double p) {
  return static_cast<double>(n) * p;
}

double BinomialAtLeastOne(int64_t n, double p) {
  METALEAK_DCHECK(p >= 0.0 && p <= 1.0);
  if (n <= 0) return 0.0;
  // 1 - (1-p)^n via expm1/log1p for numerical stability at small p.
  return -std::expm1(static_cast<double>(n) * std::log1p(-p));
}

double HypergeometricExpectation(int64_t population, int64_t successes,
                                 int64_t draws) {
  if (population <= 0) return 0.0;
  return static_cast<double>(draws) * static_cast<double>(successes) /
         static_cast<double>(population);
}

double HypergeometricAtLeastOne(int64_t population, int64_t successes,
                                int64_t draws) {
  if (population <= 0 || draws <= 0 || successes <= 0) return 0.0;
  if (draws + successes > population) return 1.0;  // pigeonhole: overlap
  double log_p0 = LogChoose(population - successes, draws) -
                  LogChoose(population, draws);
  return -std::expm1(log_p0);
}

double HypergeometricPmf(int64_t population, int64_t successes,
                         int64_t draws, int64_t k) {
  if (k < 0 || k > draws || k > successes) return 0.0;
  if (draws - k > population - successes) return 0.0;
  double lp = LogChoose(successes, k) +
              LogChoose(population - successes, draws - k) -
              LogChoose(population, draws);
  return std::exp(lp);
}

double IntervalOverlap(double a_lo, double a_hi, double b_lo, double b_hi) {
  double lo = std::max(a_lo, b_lo);
  double hi = std::min(a_hi, b_hi);
  return std::max(0.0, hi - lo);
}

namespace {

// Shared accumulation for both count-buffer types: one sum of the counts,
// then the log terms in index order.
template <typename Count>
double ShannonEntropyBitsImpl(const Count* counts, size_t n) {
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) total += static_cast<double>(counts[i]);
  if (total == 0.0) return 0.0;
  double entropy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double p = static_cast<double>(counts[i]) / total;
    if (p > 0.0) entropy -= p * std::log2(p);
  }
  return entropy;
}

}  // namespace

double ShannonEntropyBits(const std::vector<size_t>& counts) {
  return ShannonEntropyBitsImpl(counts.data(), counts.size());
}

double ShannonEntropyBits(const uint32_t* counts, size_t n) {
  return ShannonEntropyBitsImpl(counts, n);
}

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double Variance(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  double m = Mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size() - 1);
}

double StdDev(const std::vector<double>& xs) {
  return std::sqrt(Variance(xs));
}

void WelfordAccumulator::Add(double x) {
  ++count_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double WelfordAccumulator::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double WelfordAccumulator::stddev() const { return std::sqrt(variance()); }

double MeanSquaredError(const std::vector<double>& a,
                        const std::vector<double>& b) {
  METALEAK_DCHECK(a.size() == b.size());
  if (a.empty()) return 0.0;
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    acc += d * d;
  }
  return acc / static_cast<double>(a.size());
}

double Quantile(std::vector<double> xs, double q) {
  METALEAK_DCHECK(!xs.empty());
  METALEAK_DCHECK(q >= 0.0 && q <= 1.0);
  std::sort(xs.begin(), xs.end());
  if (xs.size() == 1) return xs[0];
  double pos = q * static_cast<double>(xs.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, xs.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

}  // namespace metaleak
