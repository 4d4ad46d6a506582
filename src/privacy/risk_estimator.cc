#include "privacy/risk_estimator.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/math_util.h"
#include "common/parallel.h"
#include "common/radix_sort.h"
#include "data/code_column.h"
#include "metadata/dependency.h"

namespace metaleak {

namespace {

Status CheckContext(const RiskContext& ctx) {
  if (ctx.real == nullptr || ctx.syn_schema == nullptr ||
      ctx.domains == nullptr) {
    return Status::Invalid("risk context missing real/schema/domains");
  }
  const size_t m = ctx.real->num_columns();
  if (m != ctx.syn_schema->num_attributes() || m != ctx.domains->size()) {
    return Status::Invalid("relations have different arity");
  }
  for (size_t c = 0; c < m; ++c) {
    if (ctx.real->schema().attribute(c).name !=
        ctx.syn_schema->attribute(c).name) {
      return Status::Invalid("attribute name mismatch at index " +
                             std::to_string(c));
    }
  }
  return Status::OK();
}

// Joint code-pair counts of two equal-length code columns (a, b) by a
// stable two-pass counting sort, shared by the conditional-entropy and
// MI computations. BucketRowsBy groups the row ids by b code;
// ForEachJointCount then walks those buckets in ascending b and
// scatters each row's b code into its a code's bucket, so every a
// bucket holds its b codes in ascending order and one run-length pass
// emits the nonzero (x, y, count) cells in ascending (x, y) order. That
// canonical order fixes the summation order of every sum over the
// cells. Bucket sizes come from counts the callers already hold
// (dictionary counts, the generated-side histogram), which must be the
// exact per-code row counts of the columns. Linear in rows plus codes;
// the buffers are reused across calls, so use one counter per thread.
class JointCounter {
 public:
  // Groups the rows of `b` by code; b_counts[y] is the number of rows
  // whose b code is y. Stays valid across ForEachJointCount calls.
  template <typename Count>
  void BucketRowsBy(const CodeColumnView& b, const Count* b_counts,
                    uint32_t num_b) {
    const size_t n = b.size;
    METALEAK_DCHECK(n < std::numeric_limits<uint32_t>::max());
    rows_by_b_.resize(n);
    b_ends_.resize(num_b);
    StartOffsets(b_counts, num_b, b_ends_.data());
    b.With([&](const auto* bp) {
      for (size_t r = 0; r < n; ++r) {
        rows_by_b_[b_ends_[bp[r]]++] = static_cast<uint32_t>(r);
      }
    });
    METALEAK_DCHECK(num_b == 0 || b_ends_[num_b - 1] == n);
  }

  // Hands sink(x, y, count) every nonzero joint count of (a, b) in
  // ascending (x, y) order, b being the column last bucketed;
  // a_counts[x] is the number of rows whose a code is x.
  template <typename Count, typename Sink>
  void ForEachJointCount(const CodeColumnView& a, const Count* a_counts,
                         uint32_t num_a, Sink&& sink) {
    METALEAK_DCHECK(a.size == rows_by_b_.size());
    b_by_a_.resize(a.size);
    a_ends_.resize(num_a);
    StartOffsets(a_counts, num_a, a_ends_.data());
    a.With([&](const auto* ap) {
      uint32_t i = 0;
      for (uint32_t y = 0; y < b_ends_.size(); ++y) {
        for (const uint32_t end = b_ends_[y]; i < end; ++i) {
          b_by_a_[a_ends_[ap[rows_by_b_[i]]]++] = y;
        }
      }
    });
    METALEAK_DCHECK(num_a == 0 || a_ends_[num_a - 1] == a.size);
    uint32_t i = 0;
    for (uint32_t x = 0; x < num_a; ++x) {
      const uint32_t end = a_ends_[x];
      while (i < end) {
        const uint32_t y = b_by_a_[i];
        const uint32_t run_start = i;
        while (++i < end && b_by_a_[i] == y) {
        }
        sink(x, y, i - run_start);
      }
    }
  }

 private:
  // offsets[k] = counts[0] + ... + counts[k - 1]: bucket k's first slot.
  template <typename Count>
  static void StartOffsets(const Count* counts, uint32_t num,
                           uint32_t* offsets) {
    uint32_t total = 0;
    for (uint32_t k = 0; k < num; ++k) {
      offsets[k] = total;
      total += static_cast<uint32_t>(counts[k]);
    }
  }

  std::vector<uint32_t> rows_by_b_;  // row ids grouped by b code
  std::vector<uint32_t> b_by_a_;     // b codes grouped by a code
  std::vector<uint32_t> b_ends_;     // per b code, its bucket's end
  std::vector<uint32_t> a_ends_;     // per a code, write cursor, then end
};

JointCounter& ThreadJointCounter() {
  thread_local JointCounter counter;
  return counter;
}

// Entropy of the disclosed non-null marginal (codes 1..K), matching the
// frequency table ValueDistribution::FromEncoded reads off the same
// dictionary.
double MarginalEntropyBits(const ColumnDictionary& dict) {
  std::vector<size_t> counts;
  counts.reserve(dict.num_codes() > 0 ? dict.num_codes() - 1 : 0);
  for (uint32_t code = 1; code < dict.num_codes(); ++code) {
    counts.push_back(dict.count(code));
  }
  return ShannonEntropyBits(counts);
}

// What the conditional-entropy cells read besides the joint counts:
// per attribute, whether some disclosed single-attribute LHS is a key
// (see CondEntropyCell) and otherwise its distinct disclosed
// single-attribute LHSs in ascending order (FD, OD and ND on one pair
// bound the same quantity, so each LHS is scored once), and per LHS
// column that some attribute counts against, H over all its codes with
// NULL (code 0) as its own symbol. Each H is computed once per column
// rather than once per (rhs, lhs) pair.
struct CondEntropyInputs {
  std::vector<bool> key_lhs;              // [rhs]
  std::vector<std::vector<size_t>> lhss;  // [rhs], empty when key_lhs
  std::vector<double> lhs_entropy;        // [column], counted LHSs only
};

// Collects the LHS lists serially, then computes the LHS entropies as
// one pool task per column. No metadata means no cells.
CondEntropyInputs PlanCondEntropy(const EncodedRelation& real,
                                  const MetadataPackage* metadata) {
  const size_t m = real.num_columns();
  CondEntropyInputs in;
  in.key_lhs.assign(m, false);
  in.lhss.resize(m);
  in.lhs_entropy.assign(m, 0.0);
  if (metadata == nullptr) return in;
  for (const Dependency& dep : metadata->dependencies.all()) {
    if (dep.rhs >= m || dep.lhs.size() != 1) continue;
    const size_t lhs = dep.lhs.ToIndices()[0];
    if (lhs >= m) continue;
    in.lhss[dep.rhs].push_back(lhs);
    if (real.IsKey(lhs)) in.key_lhs[dep.rhs] = true;
  }
  std::vector<bool> is_lhs(m, false);
  for (size_t c = 0; c < m; ++c) {
    std::vector<size_t>& lhss = in.lhss[c];
    if (in.key_lhs[c]) {
      lhss.clear();
      continue;
    }
    std::sort(lhss.begin(), lhss.end());
    lhss.erase(std::unique(lhss.begin(), lhss.end()), lhss.end());
    for (const size_t lhs : lhss) is_lhs[lhs] = true;
  }
  ParallelFor(0, m, 1, [&](size_t c) {
    if (is_lhs[c]) {
      in.lhs_entropy[c] = ShannonEntropyBits(real.dictionary(c).counts());
    }
  });
  return in;
}

// min over the disclosed single-attribute LHSs a of c of
// H(a, c) - H(a), over all rows with NULL (code 0) participating as its
// own symbol, all against one bucketing of c's rows. A key LHS answers
// 0 with no counting, exactly: its joint counts with c are its own n
// unit counts in code order, so H(a, c) and H(a) subtract the same
// terms in the same order and their difference is +0.0, which the clamp
// and the min keep.
RiskMeasureCell CondEntropyCell(const EncodedRelation& real,
                                const CondEntropyInputs& in, size_t c) {
  RiskMeasureCell cell;
  if (in.key_lhs[c]) return RiskMeasureCell{0.0, true};
  const std::vector<size_t>& lhss = in.lhss[c];
  if (lhss.empty()) return cell;

  const ColumnDictionary& dict_b = real.dictionary(c);
  JointCounter& joint = ThreadJointCounter();
  joint.BucketRowsBy(real.column_view(c), dict_b.counts().data(),
                     dict_b.num_codes());
  std::vector<size_t> joint_counts;
  for (const size_t lhs : lhss) {
    const ColumnDictionary& dict_a = real.dictionary(lhs);
    joint_counts.clear();
    joint.ForEachJointCount(real.column_view(lhs), dict_a.counts().data(),
                            dict_a.num_codes(),
                            [&](uint32_t, uint32_t, uint32_t count) {
                              joint_counts.push_back(count);
                            });
    // Clamped at 0: the difference is mathematically non-negative but
    // the two log-sums round independently.
    const double h = std::max(
        0.0, ShannonEntropyBits(joint_counts) - in.lhs_entropy[lhs]);
    if (!cell.present || h < cell.value) cell = RiskMeasureCell{h, true};
  }
  return cell;
}

// The batch-independent info-theoretic columns over `real`, entropy
// then conditional entropy, one pool task per column. The bound
// estimator and the cached profile both read them from here, so they
// can never disagree. No package means no conditional-entropy cells.
// A column's task counts one joint per LHS, so the tasks start in
// descending order of LHS count (ties by index): the heaviest columns
// go first and the light ones fill in behind them. Each task writes only
// its own column's cells, so the order changes no cell.
std::vector<RiskProfileMeasure> ProfileMeasures(
    const EncodedRelation& real, const MetadataPackage* metadata) {
  const size_t m = real.num_columns();
  const InfoTheoreticEstimator& info = InfoTheoreticEstimator::Instance();
  std::vector<RiskProfileMeasure> out(2);
  RiskProfileMeasure& entropy = out[0];
  RiskProfileMeasure& cond = out[1];
  entropy.estimator = info.name();
  entropy.measure = info.measures()[InfoTheoreticEstimator::kEntropyIndex].key;
  entropy.cells.resize(m);
  cond.estimator = info.name();
  cond.measure =
      info.measures()[InfoTheoreticEstimator::kCondEntropyIndex].key;
  cond.cells.resize(m);
  const CondEntropyInputs inputs = PlanCondEntropy(real, metadata);
  std::vector<size_t> order(m);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return inputs.lhss[a].size() > inputs.lhss[b].size();
  });
  ParallelFor(0, m, 1, [&](size_t i) {
    const size_t c = order[i];
    entropy.cells[c] =
        RiskMeasureCell{MarginalEntropyBits(real.dictionary(c)), true};
    cond.cells[c] = CondEntropyCell(real, inputs, c);
  });
  return out;
}

// The cells of the info-theoretic measure `index` in `profile`; Invalid
// when the column is missing or does not hold one cell per attribute.
Result<const std::vector<RiskMeasureCell>*> ProfileColumn(
    const std::vector<RiskProfileMeasure>& profile, size_t index,
    size_t num_attributes) {
  const InfoTheoreticEstimator& info = InfoTheoreticEstimator::Instance();
  const std::string& key = info.measures()[index].key;
  for (const RiskProfileMeasure& column : profile) {
    if (column.estimator != info.name() || column.measure != key) continue;
    if (column.cells.size() != num_attributes) {
      return Status::Invalid("profile measure " + key + " has " +
                             std::to_string(column.cells.size()) +
                             " cells for " + std::to_string(num_attributes) +
                             " attributes");
    }
    return &column.cells;
  }
  return Status::Invalid("profile measures lack " + info.name() + "/" + key);
}

// Equi-width generation-domain bin of x, clamped into [0, kMiBins).
// inv_width == 0 marks a degenerate (empty-range) domain: one bin.
uint32_t MiBinOf(double lo, double inv_width, double x) {
  constexpr uint32_t kBins = InfoTheoreticEstimator::kMiBins;
  if (inv_width <= 0.0 || x <= lo) return 0;
  const double b = (x - lo) * inv_width;
  if (b >= static_cast<double>(kBins - 1)) return kBins - 1;
  return static_cast<uint32_t>(b);
}

// MI from joint counts: sum p_xy log2(c_xy * n / (c_x * c_y)).
double MiFromCounts(const std::vector<uint32_t>& joint, uint32_t num_a,
                    uint32_t num_b, const uint64_t* a_counts,
                    const uint64_t* b_counts, uint64_t n) {
  if (n == 0) return 0.0;
  const double dn = static_cast<double>(n);
  double mi = 0.0;
  for (uint32_t x = 0; x < num_a; ++x) {
    if (a_counts[x] == 0) continue;
    const uint32_t* row = joint.data() + static_cast<size_t>(x) * num_b;
    const double cx = static_cast<double>(a_counts[x]);
    for (uint32_t y = 0; y < num_b; ++y) {
      if (row[y] == 0) continue;
      const double cxy = static_cast<double>(row[y]);
      mi += (cxy / dn) *
            std::log2(cxy * dn / (cx * static_cast<double>(b_counts[y])));
    }
  }
  return mi;
}

// --- MatchRateEstimator --------------------------------------------------

class MatchRateBound : public BoundRiskEstimator {
 public:
  explicit MatchRateBound(EncodedLeakageContext ctx) : ctx_(std::move(ctx)) {}

  Status Evaluate(const EncodedBatch& batch,
                  RiskMeasureCell* cells) const override {
    const size_t m = ctx_.num_attributes();
    thread_local std::vector<AttributeRoundStats> stats;
    stats.assign(m, AttributeRoundStats{});
    METALEAK_RETURN_NOT_OK(ctx_.Evaluate(batch, stats.data()));
    for (size_t c = 0; c < m; ++c) {
      cells[MatchRateEstimator::kMatchesIndex * m + c] =
          RiskMeasureCell{static_cast<double>(stats[c].matches), true};
      cells[MatchRateEstimator::kMseIndex * m + c] =
          stats[c].has_mse ? RiskMeasureCell{stats[c].mse, true}
                           : RiskMeasureCell{};
    }
    return Status::OK();
  }

  const EncodedLeakageContext* leakage_context() const override {
    return &ctx_;
  }

 private:
  EncodedLeakageContext ctx_;
};

// --- InfoTheoreticEstimator ----------------------------------------------

class InfoTheoreticBound : public BoundRiskEstimator {
 public:
  static constexpr uint32_t kSkipBin = 0xFFFFFFFFu;

  struct Attr {
    RiskMeasureCell entropy;
    RiskMeasureCell cond_entropy;
    bool mi_codes = false;  // joint over (dict code, domain code) pairs
    // Code-pair MI inputs.
    CodeColumnView real_codes;
    uint32_t real_num_codes = 0;
    uint32_t syn_num_codes = 0;
    const size_t* real_counts = nullptr;  // dict counts incl. NULL
    // Bin MI inputs (real-stored columns).
    std::vector<uint32_t> real_bins;  // per row; kSkipBin = NULL/non-num
    double bin_lo = 0.0;
    double bin_inv_width = 0.0;  // 0 = degenerate range, everything bin 0
  };

  InfoTheoreticBound(std::vector<Attr> attrs, size_t num_rows)
      : attrs_(std::move(attrs)), num_rows_(num_rows) {}

  Status Evaluate(const EncodedBatch& batch,
                  RiskMeasureCell* cells) const override {
    const size_t m = attrs_.size();
    METALEAK_RETURN_NOT_OK(CheckAlignedBatch(batch, m, num_rows_));
    for (size_t c = 0; c < m; ++c) {
      const Attr& attr = attrs_[c];
      cells[InfoTheoreticEstimator::kEntropyIndex * m + c] = attr.entropy;
      cells[InfoTheoreticEstimator::kCondEntropyIndex * m + c] =
          attr.cond_entropy;
      cells[InfoTheoreticEstimator::kMiIndex * m + c] =
          RiskMeasureCell{attr.mi_codes ? CodeMi(attr, batch, c)
                                        : BinMi(attr, batch, c),
                          true};
    }
    return Status::OK();
  }

 private:
  double CodeMi(const Attr& attr, const EncodedBatch& batch,
                size_t c) const {
    const size_t n = batch.num_rows();
    const uint32_t num_a = attr.real_num_codes;
    const uint32_t num_b = attr.syn_num_codes;
    // Generated-side marginal by one counting pass; real-side marginal
    // straight off the dictionary counts.
    thread_local std::vector<uint32_t> syn_counts;
    syn_counts.assign(num_b, 0);
    const CodeColumnView syn = batch.code_view(c);
    HistogramCodes(syn, syn_counts.data());
    const double dn = static_cast<double>(n);
    double mi = 0.0;
    JointCounter& joint = ThreadJointCounter();
    joint.BucketRowsBy(syn, syn_counts.data(), num_b);
    joint.ForEachJointCount(
        attr.real_codes, attr.real_counts, num_a,
        [&](uint32_t x, uint32_t y, uint32_t count) {
          const double cxy = static_cast<double>(count);
          mi += (cxy / dn) *
                std::log2(cxy * dn /
                          (static_cast<double>(attr.real_counts[x]) *
                           static_cast<double>(syn_counts[y])));
        });
    return mi;
  }

  double BinMi(const Attr& attr, const EncodedBatch& batch,
               size_t c) const {
    constexpr uint32_t kBins = InfoTheoreticEstimator::kMiBins;
    const std::vector<double>& syn = batch.reals(c);
    const size_t n = attr.real_bins.size();
    thread_local std::vector<uint32_t> joint;
    joint.assign(static_cast<size_t>(kBins) * kBins, 0);
    uint64_t included = 0;
    for (size_t r = 0; r < n; ++r) {
      const uint32_t rb = attr.real_bins[r];
      if (rb == kSkipBin) continue;
      const double s = syn[r];
      if (std::isnan(s)) continue;
      joint[static_cast<size_t>(rb) * kBins +
            MiBinOf(attr.bin_lo, attr.bin_inv_width, s)]++;
      ++included;
    }
    uint64_t row_sums[kBins] = {0};
    uint64_t col_sums[kBins] = {0};
    for (uint32_t x = 0; x < kBins; ++x) {
      for (uint32_t y = 0; y < kBins; ++y) {
        const uint32_t v = joint[static_cast<size_t>(x) * kBins + y];
        row_sums[x] += v;
        col_sums[y] += v;
      }
    }
    return MiFromCounts(joint, kBins, kBins, row_sums, col_sums, included);
  }

  std::vector<Attr> attrs_;
  size_t num_rows_;
};

// --- NnLinkageEstimator --------------------------------------------------

class NnLinkageBound : public BoundRiskEstimator {
 public:
  struct Attr {
    bool active = false;  // continuous attributes only
    double epsilon = 0.0;
    CodeColumnView real_codes;
    // Real code -> numeric, NaN for NULL and non-numeric codes. The
    // dictionary numbers codes in ascending Value order, so the non-NaN
    // entries ascend: walking codes 1..K visits the real values in order.
    std::vector<double> real_by_code;
    const size_t* real_counts = nullptr;  // rows per real code
    bool coded = false;
    std::vector<double> code_numeric;  // syn code -> numeric, NaN = NULL
  };

  NnLinkageBound(std::vector<Attr> attrs, size_t num_rows)
      : attrs_(std::move(attrs)), num_rows_(num_rows) {}

  Status Evaluate(const EncodedBatch& batch,
                  RiskMeasureCell* cells) const override {
    const size_t m = attrs_.size();
    METALEAK_RETURN_NOT_OK(CheckAlignedBatch(batch, m, num_rows_));
    for (size_t c = 0; c < m; ++c) {
      const Attr& attr = attrs_[c];
      RiskMeasureCell& eps_cell =
          cells[NnLinkageEstimator::kEpsMatchesIndex * m + c];
      RiskMeasureCell& top1_cell =
          cells[NnLinkageEstimator::kTop1HitsIndex * m + c];
      if (!attr.active) {
        eps_cell = RiskMeasureCell{};
        top1_cell = RiskMeasureCell{};
        continue;
      }
      size_t eps_matches = 0;
      size_t top1_hits = 0;
      ScoreAttribute(attr, batch, c, &eps_matches, &top1_hits);
      eps_cell = RiskMeasureCell{static_cast<double>(eps_matches), true};
      top1_cell = RiskMeasureCell{static_cast<double>(top1_hits), true};
    }
    return Status::OK();
  }

 private:
  // Invokes fn with a row -> synthetic value accessor for column c (NaN
  // where the generator emitted NULL), dispatching once on the storage.
  template <typename Fn>
  static void WithSynValues(const Attr& attr, const EncodedBatch& batch,
                            size_t c, Fn&& fn) {
    if (attr.coded) {
      batch.WithCodes(c, [&](const auto* codes) {
        fn([&](size_t r) { return attr.code_numeric[codes[r]]; });
      });
    } else {
      const double* reals = batch.reals(c).data();
      fn([&](size_t r) { return reals[r]; });
    }
  }

  // Sorts the non-NULL generated values as ordered keys, then one merge
  // walk over the real codes in ascending value order gives each code its
  // nearest-neighbor distance: the first generated value not below x and
  // the last one below it, the two neighbors std::lower_bound would find.
  // Epsilon links add the code's row count; top-1 hits need the aligned
  // generated value, so one row pass reads each row's code distance.
  void ScoreAttribute(const Attr& attr, const EncodedBatch& batch, size_t c,
                      size_t* eps_matches, size_t* top1_hits) const {
    const size_t n = batch.num_rows();
    // keys: the sorted generated values. words: the radix scratch, then
    // the per-code distances (bit_cast doubles), which is why it holds
    // max(n, codes) words.
    thread_local std::vector<uint64_t> keys;
    thread_local std::vector<uint64_t> words;
    keys.resize(n);
    size_t len = 0;
    WithSynValues(attr, batch, c, [&](auto syn_at) {
      for (size_t r = 0; r < n; ++r) {
        const double s = syn_at(r);
        if (!std::isnan(s)) keys[len++] = OrderedKey(s);
      }
    });
    if (len == 0) return;
    const size_t num_codes = attr.real_by_code.size();
    words.resize(std::max(len, num_codes));
    RadixSortKeys(keys.data(), words.data(), len);

    size_t p = 0;
    for (size_t code = 0; code < num_codes; ++code) {
      const double x = attr.real_by_code[code];
      if (std::isnan(x)) continue;
      while (p < len && FromOrderedKey(keys[p]) < x) ++p;
      double mindist = std::numeric_limits<double>::infinity();
      if (p < len) mindist = FromOrderedKey(keys[p]) - x;
      if (p > 0) mindist = std::min(mindist, x - FromOrderedKey(keys[p - 1]));
      if (mindist <= attr.epsilon) *eps_matches += attr.real_counts[code];
      words[code] = std::bit_cast<uint64_t>(mindist);
    }

    WithSynValues(attr, batch, c, [&](auto syn_at) {
      attr.real_codes.With([&](const auto* real) {
        size_t hits = 0;
        for (size_t r = 0; r < n; ++r) {
          const uint32_t code = real[r];
          const double x = attr.real_by_code[code];
          if (std::isnan(x)) continue;
          const double aligned = syn_at(r);
          // The adversary's top-1 link is correct when the index-aligned
          // value ties the nearest-neighbor distance (ties count).
          if (!std::isnan(aligned) &&
              std::abs(x - aligned) <= std::bit_cast<double>(words[code])) {
            ++hits;
          }
        }
        *top1_hits = hits;
      });
    });
  }

  std::vector<Attr> attrs_;
  size_t num_rows_;
};

}  // namespace

// --- MatchRateEstimator --------------------------------------------------

const MatchRateEstimator& MatchRateEstimator::Instance() {
  static const MatchRateEstimator instance;
  return instance;
}

const std::string& MatchRateEstimator::name() const {
  static const std::string name = "match_rate";
  return name;
}

const std::vector<RiskMeasureSpec>& MatchRateEstimator::measures() const {
  static const std::vector<RiskMeasureSpec> specs = {
      {"matches", "Def 2.2/2.3 matches"},
      {"mse", "MSE"},
  };
  return specs;
}

Result<std::unique_ptr<BoundRiskEstimator>> MatchRateEstimator::Bind(
    const RiskContext& ctx) const {
  METALEAK_RETURN_NOT_OK(CheckContext(ctx));
  METALEAK_ASSIGN_OR_RETURN(
      EncodedLeakageContext leakage_ctx,
      EncodedLeakageContext::Build(*ctx.real, *ctx.syn_schema, *ctx.domains,
                                   ctx.leakage));
  return std::unique_ptr<BoundRiskEstimator>(
      new MatchRateBound(std::move(leakage_ctx)));
}

// --- InfoTheoreticEstimator ----------------------------------------------

const InfoTheoreticEstimator& InfoTheoreticEstimator::Instance() {
  static const InfoTheoreticEstimator instance;
  return instance;
}

const std::string& InfoTheoreticEstimator::name() const {
  static const std::string name = "info_theoretic";
  return name;
}

const std::vector<RiskMeasureSpec>& InfoTheoreticEstimator::measures()
    const {
  static const std::vector<RiskMeasureSpec> specs = {
      {"entropy_bits", "H(attr) [bits]"},
      {"cond_entropy_bits", "min H(attr | disclosed dep) [bits]"},
      {"mi_bits", "MI(real; gen) [bits]"},
  };
  return specs;
}

Result<std::unique_ptr<BoundRiskEstimator>> InfoTheoreticEstimator::Bind(
    const RiskContext& ctx) const {
  METALEAK_RETURN_NOT_OK(CheckContext(ctx));
  const EncodedRelation& real = *ctx.real;
  const size_t m = real.num_columns();
  const std::vector<EncodedBatch::ColumnKind> kinds =
      ColumnKindsForDomains(*ctx.domains);
  std::vector<RiskProfileMeasure> computed;
  const std::vector<RiskProfileMeasure>* profile = ctx.profile_measures;
  if (profile == nullptr) {
    computed = ProfileMeasures(real, ctx.metadata);
    profile = &computed;
  }
  METALEAK_ASSIGN_OR_RETURN(const std::vector<RiskMeasureCell>* entropy,
                            ProfileColumn(*profile, kEntropyIndex, m));
  METALEAK_ASSIGN_OR_RETURN(const std::vector<RiskMeasureCell>* cond,
                            ProfileColumn(*profile, kCondEntropyIndex, m));
  // One pool task per column, each writing only its own Attr.
  std::vector<InfoTheoreticBound::Attr> attrs(m);
  ParallelFor(0, m, 1, [&](size_t c) {
    InfoTheoreticBound::Attr& attr = attrs[c];
    const ColumnDictionary& dict = real.dictionary(c);
    attr.entropy = (*entropy)[c];
    attr.cond_entropy = (*cond)[c];
    if (kinds[c] == EncodedBatch::ColumnKind::kCodes) {
      attr.mi_codes = true;
      attr.real_codes = real.column_view(c);
      attr.real_num_codes = dict.num_codes();
      attr.syn_num_codes =
          static_cast<uint32_t>((*ctx.domains)[c].values().size()) + 1;
      attr.real_counts = dict.counts().data();
    } else {
      const Domain& domain = (*ctx.domains)[c];
      attr.bin_lo = domain.lo();
      attr.bin_inv_width =
          domain.range() > 0.0
              ? static_cast<double>(kMiBins) / domain.range()
              : 0.0;
      const std::vector<double> by_code = dict.NumericByCode();
      const CodeColumnView col = real.column_view(c);
      attr.real_bins.resize(real.num_rows());
      for (size_t r = 0; r < real.num_rows(); ++r) {
        const double x = by_code[col.at(r)];
        attr.real_bins[r] =
            std::isnan(x)
                ? InfoTheoreticBound::kSkipBin
                : MiBinOf(attr.bin_lo, attr.bin_inv_width, x);
      }
    }
  });
  return std::unique_ptr<BoundRiskEstimator>(
      new InfoTheoreticBound(std::move(attrs), real.num_rows()));
}

// --- NnLinkageEstimator --------------------------------------------------

const NnLinkageEstimator& NnLinkageEstimator::Instance() {
  static const NnLinkageEstimator instance;
  return instance;
}

const std::string& NnLinkageEstimator::name() const {
  static const std::string name = "nn_linkage";
  return name;
}

const std::vector<RiskMeasureSpec>& NnLinkageEstimator::measures() const {
  static const std::vector<RiskMeasureSpec> specs = {
      {"nn_eps_matches", "NN eps-ball links"},
      {"nn_top1_hits", "NN top-1 correct links"},
  };
  return specs;
}

Result<std::unique_ptr<BoundRiskEstimator>> NnLinkageEstimator::Bind(
    const RiskContext& ctx) const {
  METALEAK_RETURN_NOT_OK(CheckContext(ctx));
  const EncodedRelation& real = *ctx.real;
  const size_t m = real.num_columns();
  const std::vector<EncodedBatch::ColumnKind> kinds =
      ColumnKindsForDomains(*ctx.domains);
  // One pool task per column, each writing only its own Attr.
  std::vector<NnLinkageBound::Attr> attrs(m);
  ParallelFor(0, m, 1, [&](size_t c) {
    if (real.schema().attribute(c).semantic != SemanticType::kContinuous) {
      return;
    }
    NnLinkageBound::Attr& attr = attrs[c];
    attr.active = true;
    // Same epsilon policy as the Def 2.3 scan.
    if (ctx.leakage.absolute_epsilon.has_value()) {
      attr.epsilon = *ctx.leakage.absolute_epsilon;
    } else {
      Result<Domain> domain = real.DomainOf(c);
      attr.epsilon =
          domain.ok() ? ctx.leakage.epsilon_fraction * domain->range() : 0.0;
    }
    const ColumnDictionary& dict = real.dictionary(c);
    attr.real_codes = real.column_view(c);
    attr.real_by_code = dict.NumericByCode();
    attr.real_counts = dict.counts().data();
    if (kinds[c] == EncodedBatch::ColumnKind::kCodes) {
      attr.coded = true;
      const std::vector<Value>& domain_values = (*ctx.domains)[c].values();
      attr.code_numeric.assign(domain_values.size() + 1,
                               std::numeric_limits<double>::quiet_NaN());
      for (size_t i = 0; i < domain_values.size(); ++i) {
        if (domain_values[i].is_numeric()) {
          attr.code_numeric[i + 1] = domain_values[i].AsNumeric();
        }
      }
    }
  });
  return std::unique_ptr<BoundRiskEstimator>(
      new NnLinkageBound(std::move(attrs), real.num_rows()));
}

// --- Registry ------------------------------------------------------------

RiskEstimatorRegistry::RiskEstimatorRegistry(
    std::vector<const RiskEstimator*> estimators)
    : estimators_(std::move(estimators)) {}

const RiskEstimatorRegistry& RiskEstimatorRegistry::Default() {
  static const RiskEstimatorRegistry registry(
      {&MatchRateEstimator::Instance()});
  return registry;
}

const RiskEstimatorRegistry& RiskEstimatorRegistry::All() {
  static const RiskEstimatorRegistry registry(
      {&MatchRateEstimator::Instance(),
       &InfoTheoreticEstimator::Instance(),
       &NnLinkageEstimator::Instance()});
  return registry;
}

size_t RiskEstimatorRegistry::total_measures() const {
  size_t total = 0;
  for (const RiskEstimator* est : estimators_) {
    total += est->measures().size();
  }
  return total;
}

// --- Profile measures ----------------------------------------------------

Result<std::vector<RiskProfileMeasure>> ComputeProfileMeasures(
    const EncodedRelation& real, const MetadataPackage& metadata) {
  return ProfileMeasures(real, &metadata);
}

}  // namespace metaleak
