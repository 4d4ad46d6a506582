// Probability and statistics helpers backing the paper's analytical models.
//
// The privacy analysis in Sections III-IV of the paper reduces to a handful
// of distributions: binomial expectations (random / FD-informed generation),
// the hypergeometric distribution (numerical dependencies) and interval
// overlap ratios (order / differential dependencies). These are implemented
// here once, in log-space where overflow is possible, and reused by both the
// analytical model and the tests that cross-check Monte-Carlo results.
#ifndef METALEAK_COMMON_MATH_UTIL_H_
#define METALEAK_COMMON_MATH_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace metaleak {

/// ln Gamma(x) for x > 0 (thin wrapper over std::lgamma, kept here so all
/// combinatorics flows through one audited entry point).
double LogGamma(double x);

/// ln C(n, k); -inf when k > n or k < 0. Exact in log space for large n.
double LogChoose(int64_t n, int64_t k);

/// C(n, k) as a double; may overflow to +inf for huge arguments.
double Choose(int64_t n, int64_t k);

/// Binomial(n, p) expectation: n * p.
double BinomialExpectation(int64_t n, double p);

/// P[Binomial(n, p) >= 1] = 1 - (1-p)^n, computed stably for tiny p.
double BinomialAtLeastOne(int64_t n, double p);

/// Hypergeometric expectation: drawing n items from a population of N that
/// contains K successes has expectation n*K/N.
double HypergeometricExpectation(int64_t population, int64_t successes,
                                 int64_t draws);

/// P[Hypergeometric(N, K, n) >= 1] = 1 - C(N-K, n)/C(N, n).
/// This is the paper's "probability of finding at least one correct
/// mapping" for numerical dependencies (Section IV-B).
double HypergeometricAtLeastOne(int64_t population, int64_t successes,
                                int64_t draws);

/// Hypergeometric PMF P[X = k].
double HypergeometricPmf(int64_t population, int64_t successes,
                         int64_t draws, int64_t k);

/// Length of the overlap of intervals [a_lo, a_hi] and [b_lo, b_hi];
/// zero when disjoint or inverted.
double IntervalOverlap(double a_lo, double a_hi, double b_lo, double b_hi);

/// Shannon entropy in bits of the empirical distribution given by a
/// histogram of counts: -sum p_i log2 p_i with p_i = counts[i] / total.
/// Zero counts contribute nothing; 0 for an empty histogram. The terms
/// are subtracted in index order; a count below 256 computes its term
/// once per call and reuses it, which changes no bit of the sum. This is
/// THE entropy definition of the library — the analytical models
/// (ValueDistribution::EntropyBits) and the empirical
/// InfoTheoreticEstimator both route through it, so their log-sums can
/// never drift apart.
double ShannonEntropyBits(const std::vector<size_t>& counts);

/// Same, over the uint32 count buffers the SIMD histogram kernels fill.
double ShannonEntropyBits(const uint32_t* counts, size_t n);

/// --- Descriptive statistics over samples -------------------------------

/// Arithmetic mean; 0 for an empty input.
double Mean(const std::vector<double>& xs);

/// Unbiased sample variance (n-1 denominator); 0 for n < 2.
double Variance(const std::vector<double>& xs);

/// Population standard deviation of the sample variance above.
double StdDev(const std::vector<double>& xs);

/// Streaming mean / variance accumulator (Welford's algorithm).
///
/// Folding the same values in the same order produces bit-identical
/// results regardless of how they were computed, which the experiment
/// runner relies on for its parity guarantee between the fused scan and
/// EvaluateLeakage on the decoded batch: both scorers feed their
/// per-round statistics through this accumulator in ascending round
/// order.
class WelfordAccumulator {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  /// 0 for an empty accumulator.
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  /// Unbiased sample variance (n-1 denominator); 0 for n < 2.
  double variance() const;
  /// sqrt(variance()).
  double stddev() const;

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Mean of element-wise squared differences. Requires equal sizes.
double MeanSquaredError(const std::vector<double>& a,
                        const std::vector<double>& b);

/// Linearly interpolated quantile, q in [0,1]. Requires non-empty input.
double Quantile(std::vector<double> xs, double q);

}  // namespace metaleak

#endif  // METALEAK_COMMON_MATH_UTIL_H_
