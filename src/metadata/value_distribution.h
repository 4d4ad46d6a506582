// ValueDistribution: an attribute's empirical value distribution, as it
// would be disclosed in metadata.
//
// This models a *stronger* disclosure than the paper analyzes: the paper
// assumes "the distribution remains undisclosed" and the adversary
// samples uniformly. Sharing distributions lets the adversary sample
// from the real marginal instead, and the A6 ablation quantifies how
// much extra leakage that causes — evidence for keeping distributions
// (and domains) private.
#ifndef METALEAK_METADATA_VALUE_DISTRIBUTION_H_
#define METALEAK_METADATA_VALUE_DISTRIBUTION_H_

#include <cstddef>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "data/encoded_relation.h"
#include "data/value.h"

namespace metaleak {

/// Equi-width histogram over a numeric column.
struct Histogram {
  double lo = 0.0;
  double hi = 0.0;
  /// counts[i] covers [lo + i*w, lo + (i+1)*w) with w = (hi-lo)/buckets;
  /// the last bucket is closed at hi.
  std::vector<size_t> counts;

  size_t total() const;
  /// Index of the bucket containing x (clamped to the edges).
  size_t BucketOf(double x) const;
  /// Probability mass of bucket i (0 if the histogram is empty).
  double Mass(size_t i) const;
};

/// Frequency table over a categorical column (non-null values), ordered
/// by Value's total order for determinism.
struct FrequencyTable {
  std::vector<Value> values;
  std::vector<size_t> counts;

  size_t total() const;
};

/// Running sums of `counts`: entry i is counts[0] + ... + counts[i].
std::vector<size_t> CumulativeCounts(const std::vector<size_t>& counts);

/// One weighted draw over the counts behind `cumulative` (non-empty, with
/// a positive total): draws UniformIndex(total) and returns the first i
/// with draw < cumulative[i], by binary search. That is the entry a walk
/// summing the counts stops at, so zero-count entries are never picked.
size_t DrawCumulative(const std::vector<size_t>& cumulative, Rng* rng);

class ValueDistribution {
 public:
  ValueDistribution() = default;

  /// Categorical marginal from an explicit frequency table.
  static Result<ValueDistribution> Categorical(FrequencyTable table);

  /// Continuous marginal from an equi-width histogram. Invalid when it is
  /// empty, inverted, or a bound is NaN or infinite.
  static Result<ValueDistribution> Continuous(Histogram histogram);

  /// The marginal of one attribute, read straight off the dictionary
  /// encoding: a frequency table for categorical attributes (the
  /// dictionary already holds each distinct value with its frequency in
  /// Value total order), a `buckets`-bin equi-width histogram over the
  /// non-null numeric values for continuous ones.
  static Result<ValueDistribution> FromEncoded(
      const EncodedRelation& relation, size_t attribute,
      size_t buckets = 16);

  bool is_categorical() const { return categorical_; }
  const FrequencyTable& frequency_table() const { return freq_; }
  const Histogram& histogram() const { return hist_; }
  /// CumulativeCounts of the frequency table's or the histogram's counts.
  const std::vector<size_t>& cumulative_counts() const { return cumulative_; }

  /// Draws a value from the disclosed marginal: weighted choice for
  /// categorical; bucket by mass then uniform within the bucket for
  /// continuous. O(log entries) per draw (DrawCumulative).
  Value Sample(Rng* rng) const;

  /// Probability (mass) of drawing exactly `v` (categorical) or the
  /// bucket containing `v` (continuous).
  double MassOf(const Value& v) const;

  /// Exact Shannon entropy in bits of the disclosed marginal, straight
  /// off the stored frequency table (categorical) or histogram bucket
  /// counts (continuous). Routed through ShannonEntropyBits so the
  /// analytical models and the empirical InfoTheoreticEstimator share
  /// one log-sum definition instead of each recomputing their own.
  double EntropyBits() const;

  friend bool operator==(const ValueDistribution& a,
                         const ValueDistribution& b);

 private:
  bool categorical_ = true;
  FrequencyTable freq_;
  Histogram hist_;
  std::vector<size_t> cumulative_;
};

}  // namespace metaleak

#endif  // METALEAK_METADATA_VALUE_DISTRIBUTION_H_
