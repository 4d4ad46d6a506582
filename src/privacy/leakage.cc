#include "privacy/leakage.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "common/parallel.h"
#include "common/simd.h"
#include "data/domain.h"

namespace metaleak {

namespace {

Status CheckAligned(const Relation& real, const Relation& synthetic) {
  if (real.num_columns() != synthetic.num_columns()) {
    return Status::Invalid("relations have different arity");
  }
  if (real.num_rows() != synthetic.num_rows()) {
    return Status::Invalid(
        "index-aligned leakage needs equal row counts (got " +
        std::to_string(real.num_rows()) + " vs " +
        std::to_string(synthetic.num_rows()) + ")");
  }
  for (size_t c = 0; c < real.num_columns(); ++c) {
    if (real.schema().attribute(c).name !=
        synthetic.schema().attribute(c).name) {
      return Status::Invalid("attribute name mismatch at index " +
                             std::to_string(c));
    }
  }
  return Status::OK();
}

Status CheckAttribute(const Relation& real, size_t attribute) {
  if (attribute >= real.num_columns()) {
    return Status::OutOfRange("attribute index out of range");
  }
  return Status::OK();
}

// Numeric equality across physical types: the synthetic generator emits
// doubles for continuous domains even when the real column is int64.
bool ValuesMatchCategorical(const Value& real, const Value& syn) {
  if (real == syn) return true;
  if (real.is_numeric() && syn.is_numeric()) {
    return real.AsNumeric() == syn.AsNumeric();
  }
  return false;
}

// The order of ValuesMatchCategorical's match keys: NULL, then numerics
// by AsNumeric(), then strings. Value order refines it, so a sorted
// dictionary and a sorted domain both list their keys in ascending order,
// and the NaN-free entries one value matches sit next to each other.
bool MatchKeyLess(const Value& a, const Value& b) {
  auto rank = [](const Value& v) {
    if (v.is_null()) return 0;
    if (v.is_numeric()) return 1;
    return 2;
  };
  const int ra = rank(a);
  const int rb = rank(b);
  if (ra != rb) return ra < rb;
  if (ra == 1) return a.AsNumeric() < b.AsNumeric();
  if (ra == 2) return a.AsString() < b.AsString();
  return false;
}

}  // namespace

size_t LeakageReport::TotalCategoricalMatches() const {
  size_t total = 0;
  for (const AttributeLeakage& a : attributes) {
    if (a.semantic == SemanticType::kCategorical) total += a.matches;
  }
  return total;
}

Result<AttributeLeakage> LeakageReport::ForAttribute(size_t attribute) const {
  // Reports built by EvaluateLeakage hold attribute i at index i; answer
  // from the index and keep the scan only for hand-assembled reports.
  if (attribute < attributes.size() &&
      attributes[attribute].attribute == attribute) {
    return attributes[attribute];
  }
  for (const AttributeLeakage& a : attributes) {
    if (a.attribute == attribute) return a;
  }
  return Status::OutOfRange("no leakage entry for attribute " +
                            std::to_string(attribute));
}

Result<size_t> CountCategoricalMatches(const Relation& real,
                                       const Relation& synthetic,
                                       size_t attribute) {
  METALEAK_RETURN_NOT_OK(CheckAligned(real, synthetic));
  METALEAK_RETURN_NOT_OK(CheckAttribute(real, attribute));
  size_t matches = 0;
  for (size_t r = 0; r < real.num_rows(); ++r) {
    const Value& rv = real.at(r, attribute);
    if (rv.is_null()) continue;
    const Value& sv = synthetic.at(r, attribute);
    // A synthetic NULL is never a match: the adversary produced no guess
    // for the cell. Stated explicitly so both this path and the code
    // path (where NULL is code 0 and real cells never translate to 0)
    // agree by construction rather than by accident of Value equality.
    if (sv.is_null()) continue;
    if (ValuesMatchCategorical(rv, sv)) ++matches;
  }
  return matches;
}

Result<size_t> CountContinuousMatches(const Relation& real,
                                      const Relation& synthetic,
                                      size_t attribute, double epsilon) {
  METALEAK_RETURN_NOT_OK(CheckAligned(real, synthetic));
  METALEAK_RETURN_NOT_OK(CheckAttribute(real, attribute));
  if (epsilon < 0.0) {
    return Status::Invalid("epsilon must be non-negative");
  }
  size_t matches = 0;
  for (size_t r = 0; r < real.num_rows(); ++r) {
    const Value& rv = real.at(r, attribute);
    const Value& sv = synthetic.at(r, attribute);
    if (rv.is_null() || !rv.is_numeric()) continue;
    if (sv.is_null() || !sv.is_numeric()) continue;
    if (std::abs(rv.AsNumeric() - sv.AsNumeric()) <= epsilon) ++matches;
  }
  return matches;
}

Result<double> AttributeMse(const Relation& real, const Relation& synthetic,
                            size_t attribute) {
  METALEAK_RETURN_NOT_OK(CheckAligned(real, synthetic));
  METALEAK_RETURN_NOT_OK(CheckAttribute(real, attribute));
  double acc = 0.0;
  size_t n = 0;
  for (size_t r = 0; r < real.num_rows(); ++r) {
    const Value& rv = real.at(r, attribute);
    const Value& sv = synthetic.at(r, attribute);
    if (rv.is_null() || !rv.is_numeric()) continue;
    if (sv.is_null() || !sv.is_numeric()) continue;
    double d = rv.AsNumeric() - sv.AsNumeric();
    acc += d * d;
    ++n;
  }
  if (n == 0) return 0.0;
  return acc / static_cast<double>(n);
}

LeakageReport AssembleLeakageReport(
    const std::vector<LeakageAttributeMeta>& meta,
    const AttributeRoundStats* stats) {
  LeakageReport report;
  report.attributes.reserve(meta.size());
  for (size_t c = 0; c < meta.size(); ++c) {
    AttributeLeakage entry;
    entry.attribute = meta[c].attribute;
    entry.name = meta[c].name;
    entry.semantic = meta[c].semantic;
    entry.rows_compared = meta[c].rows_compared;
    entry.matches = stats[c].matches;
    if (stats[c].has_mse) entry.mse = stats[c].mse;
    entry.match_rate = meta[c].rows_compared == 0
                           ? 0.0
                           : static_cast<double>(entry.matches) /
                                 static_cast<double>(meta[c].rows_compared);
    report.attributes.push_back(std::move(entry));
  }
  return report;
}

Result<LeakageReport> EvaluateLeakage(const Relation& real,
                                      const Relation& synthetic,
                                      const LeakageOptions& options) {
  METALEAK_RETURN_NOT_OK(CheckAligned(real, synthetic));
  const size_t m = real.num_columns();
  std::vector<LeakageAttributeMeta> meta(m);
  std::vector<AttributeRoundStats> stats(m);
  for (size_t c = 0; c < m; ++c) {
    const Attribute& attr = real.schema().attribute(c);
    meta[c].attribute = c;
    meta[c].name = attr.name;
    meta[c].semantic = attr.semantic;

    size_t compared = 0;
    for (size_t r = 0; r < real.num_rows(); ++r) {
      if (!real.at(r, c).is_null()) ++compared;
    }
    meta[c].rows_compared = compared;

    if (attr.semantic == SemanticType::kCategorical) {
      METALEAK_ASSIGN_OR_RETURN(stats[c].matches,
                                CountCategoricalMatches(real, synthetic, c));
    } else {
      double epsilon;
      if (options.absolute_epsilon.has_value()) {
        epsilon = *options.absolute_epsilon;
      } else {
        Result<Domain> domain = ExtractDomain(real, c);
        epsilon = domain.ok() ? options.epsilon_fraction * domain->range()
                              : 0.0;
      }
      METALEAK_ASSIGN_OR_RETURN(
          stats[c].matches,
          CountContinuousMatches(real, synthetic, c, epsilon));
      METALEAK_ASSIGN_OR_RETURN(stats[c].mse,
                                AttributeMse(real, synthetic, c));
      stats[c].has_mse = true;
    }
  }
  return AssembleLeakageReport(meta, stats.data());
}

// --- Code-path evaluator -------------------------------------------------

Result<EncodedLeakageContext> EncodedLeakageContext::Build(
    const EncodedRelation& real, const Schema& syn_schema,
    const std::vector<Domain>& domains, const LeakageOptions& options) {
  const size_t m = real.num_columns();
  if (m != syn_schema.num_attributes() || m != domains.size()) {
    return Status::Invalid("relations have different arity");
  }
  for (size_t c = 0; c < m; ++c) {
    if (real.schema().attribute(c).name != syn_schema.attribute(c).name) {
      return Status::Invalid("attribute name mismatch at index " +
                             std::to_string(c));
    }
  }

  EncodedLeakageContext ctx;
  ctx.num_rows_ = real.num_rows();
  const std::vector<EncodedBatch::ColumnKind> kinds =
      ColumnKindsForDomains(domains);

  // One pool task per column, each writing only its own plan and its own
  // first refusal reason; the reasons fold in column order below, so the
  // lowest offending column names the Invalid at every pool size.
  ctx.attrs_.resize(m);
  std::vector<const char*> refusal(m, nullptr);
  ParallelFor(0, m, 1, [&](size_t c) {
    auto refuse = [&refusal, c](const char* reason) {
      if (refusal[c] == nullptr) refusal[c] = reason;
    };
    const ColumnDictionary& dict = real.dictionary(c);
    const CodeColumnView real_column = real.column_view(c);
    AttrPlan& plan = ctx.attrs_[c];
    const Attribute& attr = real.schema().attribute(c);
    plan.name = attr.name;
    plan.semantic = attr.semantic;
    plan.kind = kinds[c];
    plan.rows_compared = real.num_rows() - dict.null_count();

    const bool categorical = attr.semantic == SemanticType::kCategorical;
    if (plan.kind == EncodedBatch::ColumnKind::kCodes) {
      // A NaN matches nothing and has no place in Value order, so it
      // would stall the merge walk below at its position.
      for (const Value& v : domains[c].values()) {
        if (v.is_double() && std::isnan(v.AsDouble())) {
          refuse("NaN value in a generation domain");
          return;
        }
      }
    }
    if (categorical &&
        plan.kind == EncodedBatch::ColumnKind::kCodes) {
      // Translate each distinct real value into the generation domain
      // once (Def 2.2's match predicate, including the cross-type
      // numeric equality), then gather per row. The translation is
      // stored at the batch column's width, with that width's all-ones
      // value as the no-match sentinel, so the per-round compare is a
      // symmetric narrow scan.
      const std::vector<Value>& domain_values = domains[c].values();
      const CodeWidth width =
          CodeWidthForNumCodes(domain_values.size() + 1);
      const uint32_t sentinel = CodeWidthSentinel(width);
      std::vector<uint32_t> translate(dict.num_codes(), sentinel);
      // One merge walk: codes 1..K ascend in Value order, and so does the
      // domain (Domain::Categorical keeps it sorted and deduplicated).
      // Value order sorts numerics by AsNumeric() and strings by their
      // bytes, so both sides' match keys ascend too. The entries a real
      // value matches form one run of equal keys: a numeric matches
      // every numeric of the same AsNumeric() (Int 3 and Real 3.0, the
      // cross-type case), a string only itself, a NULL entry nothing.
      // The cursor stays at the run's start, since int64 codes above
      // 2^53 can share one key.
      size_t lo = 0;
      for (uint32_t code = 1; code < dict.num_codes(); ++code) {
        const Value& rv = dict.decode(code);
        while (lo < domain_values.size() &&
               MatchKeyLess(domain_values[lo], rv)) {
          ++lo;
        }
        size_t hi = lo;
        while (hi < domain_values.size() &&
               ValuesMatchCategorical(rv, domain_values[hi])) {
          ++hi;
        }
        if (hi == lo) continue;
        translate[code] = static_cast<uint32_t>(hi);  // the run's last
        if (hi - lo > 1) {
          // E.g. Int(3) and Real(3.0) both disclosed: one real cell
          // matches two distinct synthetic codes, which a single
          // translated code cannot express.
          refuse("real value matches several domain entries cross-type");
        }
      }
      plan.real_codes.Reset(width);
      plan.real_codes.reserve(real.num_rows());
      for (size_t r = 0; r < real.num_rows(); ++r) {
        plan.real_codes.push_back(translate[real_column.at(r)]);
      }
      return;
    }

    // Numeric comparisons: per-row real numeric view (NaN = the row is
    // skipped / can never match).
    std::vector<double> by_code = dict.NumericByCode();
    plan.real_numeric.resize(real.num_rows());
    for (size_t r = 0; r < real.num_rows(); ++r) {
      plan.real_numeric[r] = by_code[real_column.at(r)];
    }

    if (!categorical) {
      // NaN is a *value* to EvaluateLeakage (it reaches the MSE sum) but
      // a skip marker here; refuse rather than diverge.
      for (uint32_t code = 1; code < dict.num_codes(); ++code) {
        if (std::isnan(by_code[code]) && dict.decode(code).is_numeric()) {
          refuse("NaN value in a continuous real column");
        }
      }
      if (options.absolute_epsilon.has_value()) {
        plan.epsilon = *options.absolute_epsilon;
      } else {
        Result<Domain> domain = real.DomainOf(c);
        plan.epsilon =
            domain.ok() ? options.epsilon_fraction * domain->range() : 0.0;
      }
      if (plan.kind == EncodedBatch::ColumnKind::kCodes) {
        const std::vector<Value>& domain_values = domains[c].values();
        plan.code_numeric.assign(domain_values.size() + 1,
                                 std::numeric_limits<double>::quiet_NaN());
        for (size_t i = 0; i < domain_values.size(); ++i) {
          if (domain_values[i].is_numeric()) {
            plan.code_numeric[i + 1] = domain_values[i].AsNumeric();
          }
        }
      }
    }
  });
  for (size_t c = 0; c < m; ++c) {
    if (refusal[c] != nullptr) {
      return Status::Invalid("leakage scan cannot score attribute '" +
                             ctx.attrs_[c].name + "' (column " +
                             std::to_string(c) + "): " + refusal[c]);
    }
  }
  return ctx;
}

Status CheckAlignedBatch(const EncodedBatch& batch, size_t num_columns,
                         size_t num_rows) {
  if (batch.num_columns() != num_columns) {
    return Status::Invalid("relations have different arity");
  }
  if (batch.num_rows() != num_rows) {
    return Status::Invalid(
        "index-aligned leakage needs equal row counts (got " +
        std::to_string(num_rows) + " vs " +
        std::to_string(batch.num_rows()) + ")");
  }
  return Status::OK();
}

Status EncodedLeakageContext::Evaluate(const EncodedBatch& batch,
                                       AttributeRoundStats* stats) const {
  METALEAK_RETURN_NOT_OK(CheckAlignedBatch(batch, attrs_.size(), num_rows_));
  const size_t n = num_rows_;
  const size_t m = attrs_.size();
  // All four scans dispatch through the SIMD kernel layer; every kernel
  // is byte-identical to the scalar loop it replaced (including NaN
  // handling and the row-order MSE accumulation), so the code-vs-value
  // golden parity is preserved at any dispatch level.
  //
  // Rows are walked in L2-sized tiles with the per-attribute stats
  // carried across tiles. Tile lengths are multiples of the kernels'
  // 4-row lane grouping, so the carried scans are bit-identical to one
  // full-length pass at every dispatch level.
  const SimdLevel level = ActiveSimdLevel();
  constexpr size_t kTileRows = 16384;  // multiple of 4
  thread_local std::vector<EpsilonBallStats> balls;
  balls.assign(m, EpsilonBallStats{});
  for (size_t c = 0; c < m; ++c) stats[c] = AttributeRoundStats{};

  for (size_t lo = 0; lo < n; lo += kTileRows) {
    const size_t len = std::min(kTileRows, n - lo);
    for (size_t c = 0; c < m; ++c) {
      const AttrPlan& plan = attrs_[c];
      if (plan.semantic == SemanticType::kCategorical) {
        if (plan.kind == EncodedBatch::ColumnKind::kCodes) {
          // A synthetic NULL (code 0) never matches: real cells
          // translate to domain codes >= 1 or the sentinel.
          stats[c].matches +=
              CountEqualCodes(level, plan.real_codes.view().Slice(lo, len),
                              batch.code_view(c).Slice(lo, len));
        } else {
          // NaN real entries (NULL / non-numeric) fail every comparison.
          stats[c].matches +=
              CountEqualF64(level, plan.real_numeric.data() + lo,
                            batch.reals(c).data() + lo, len);
        }
        continue;
      }
      // Continuous: epsilon-ball matches + MSE accumulated in row order
      // with EvaluateLeakage's exact skip predicate.
      if (plan.kind == EncodedBatch::ColumnKind::kCodes) {
        EpsilonBallMseCodedInto(level, plan.real_numeric.data() + lo,
                                batch.code_view(c).Slice(lo, len),
                                plan.code_numeric.data(), plan.epsilon,
                                &balls[c]);
      } else {
        EpsilonBallMseInto(level, plan.real_numeric.data() + lo,
                           batch.reals(c).data() + lo, len, plan.epsilon,
                           &balls[c]);
      }
    }
  }

  for (size_t c = 0; c < m; ++c) {
    const AttrPlan& plan = attrs_[c];
    if (plan.semantic == SemanticType::kCategorical) continue;
    const EpsilonBallStats& ball = balls[c];
    stats[c].matches = ball.matches;
    stats[c].mse = ball.compared == 0
                       ? 0.0
                       : ball.sum_squares / static_cast<double>(ball.compared);
    stats[c].has_mse = true;
  }
  return Status::OK();
}

EncodedLeakageContext::AttributeView EncodedLeakageContext::ViewAttribute(
    size_t attribute) const {
  const AttrPlan& plan = attrs_[attribute];
  AttributeView view;
  view.semantic = plan.semantic;
  view.kind = plan.kind;
  view.epsilon = plan.epsilon;
  if (!plan.real_codes.empty()) view.real_codes = plan.real_codes.view();
  if (!plan.real_numeric.empty()) {
    view.real_numeric = plan.real_numeric.data();
  }
  if (!plan.code_numeric.empty()) {
    view.code_numeric = plan.code_numeric.data();
  }
  return view;
}

std::vector<LeakageAttributeMeta> EncodedLeakageContext::AttributeMetas()
    const {
  std::vector<LeakageAttributeMeta> meta(attrs_.size());
  for (size_t c = 0; c < attrs_.size(); ++c) {
    meta[c].attribute = c;
    meta[c].name = attrs_[c].name;
    meta[c].semantic = attrs_[c].semantic;
    meta[c].rows_compared = attrs_[c].rows_compared;
  }
  return meta;
}

Result<LeakageReport> EncodedLeakageContext::EvaluateReport(
    const EncodedBatch& batch) const {
  std::vector<AttributeRoundStats> stats(attrs_.size());
  METALEAK_RETURN_NOT_OK(Evaluate(batch, stats.data()));
  return AssembleLeakageReport(AttributeMetas(), stats.data());
}

}  // namespace metaleak
