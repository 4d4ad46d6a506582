// Privacy-leakage metrics: Definitions 2.2 and 2.3 of the paper.
//
// Leakage is evaluated *index-aligned*: tuple i of the synthetic relation
// is compared against tuple i of the real relation, because in VFL the
// tuple identities are fixed by the private-set-intersection alignment
// (Section II-B). Categorical attributes leak on exact value match;
// continuous attributes leak when the synthetic value lands within an
// epsilon ball of the real value; MSE is reported as the paper's
// aggregate error indicator for continuous attributes.
#ifndef METALEAK_PRIVACY_LEAKAGE_H_
#define METALEAK_PRIVACY_LEAKAGE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/domain.h"
#include "data/encoded_batch.h"
#include "data/encoded_relation.h"
#include "data/relation.h"
#include "data/schema.h"

namespace metaleak {

/// Per-attribute leakage measurement.
struct AttributeLeakage {
  size_t attribute = 0;
  std::string name;
  SemanticType semantic = SemanticType::kCategorical;
  /// Rows compared (real NULLs are skipped — an undisclosed value cannot
  /// be leaked).
  size_t rows_compared = 0;
  /// Def 2.2 / 2.3 match count (exact for categorical, epsilon-ball for
  /// continuous).
  size_t matches = 0;
  /// matches / rows_compared (0 when nothing compared).
  double match_rate = 0.0;
  /// Mean squared error over compared rows; only set for continuous
  /// attributes.
  std::optional<double> mse;
};

struct LeakageOptions {
  /// Epsilon for Def 2.3, as a fraction of the attribute's observed real
  /// range (used when `absolute_epsilon` is unset).
  double epsilon_fraction = 0.01;
  /// Absolute epsilon overriding the fractional policy.
  std::optional<double> absolute_epsilon;
};

struct LeakageReport {
  std::vector<AttributeLeakage> attributes;

  /// Total matches across categorical attributes.
  size_t TotalCategoricalMatches() const;
  /// The entry for `attribute`; OutOfRange if missing.
  Result<AttributeLeakage> ForAttribute(size_t attribute) const;
};

/// Counts Def-2.2 matches for one categorical attribute.
Result<size_t> CountCategoricalMatches(const Relation& real,
                                       const Relation& synthetic,
                                       size_t attribute);

/// Counts Def-2.3 matches for one continuous attribute with threshold
/// `epsilon` under the absolute-difference metric d(x, y) = |x - y|.
Result<size_t> CountContinuousMatches(const Relation& real,
                                      const Relation& synthetic,
                                      size_t attribute, double epsilon);

/// MSE of one continuous attribute over rows where the real value is
/// non-null.
Result<double> AttributeMse(const Relation& real, const Relation& synthetic,
                            size_t attribute);

/// Full per-attribute evaluation. The relations must have identical arity
/// and row counts (index alignment); attribute names must agree.
Result<LeakageReport> EvaluateLeakage(const Relation& real,
                                      const Relation& synthetic,
                                      const LeakageOptions& options = {});

/// One Monte-Carlo round's raw numbers for one attribute: everything the
/// experiment runner needs to accumulate, without a LeakageReport's
/// strings. EvaluateLeakage and the fused scan both reduce a round to
/// this struct, so the runner's Welford fold is shared and bit-identical.
struct AttributeRoundStats {
  size_t matches = 0;
  double mse = 0.0;
  bool has_mse = false;  // set for continuous attributes
};

/// Static per-attribute identity shared by every report assembler: who
/// the attribute is and how many rows Def 2.2/2.3 can compare (real
/// NULLs excluded). EvaluateLeakage and the fused scan both reduce a
/// round to (meta, AttributeRoundStats) pairs and hand them to
/// AssembleLeakageReport, so exactly one place turns raw accumulator
/// columns into a LeakageReport.
struct LeakageAttributeMeta {
  size_t attribute = 0;
  std::string name;
  SemanticType semantic = SemanticType::kCategorical;
  size_t rows_compared = 0;
};

/// The single assembly point from raw round statistics to a
/// LeakageReport. `stats` must hold meta.size() entries.
LeakageReport AssembleLeakageReport(
    const std::vector<LeakageAttributeMeta>& meta,
    const AttributeRoundStats* stats);

/// Code-path leakage evaluator: everything about R_real that Def 2.2/2.3
/// need, resolved once against a *generation-domain* batch layout so each
/// round is a branch-free scan over dense codes and doubles.
///
///   * Categorical attributes over code-stored columns compare the
///     synthetic code against a per-row translation of the real cell into
///     generation-domain codes (real cells matching no domain value get a
///     sentinel that never equals a synthetic code — including the NULL
///     code 0, so a synthetic NULL is never a match). The translation is
///     stored at the same narrow width the batch column uses (the
///     width-selection rule keeps the all-ones sentinel free at every
///     width), so the compare kernel streams narrow on both sides.
///   * Continuous attributes compare raw doubles under the epsilon ball
///     and accumulate the MSE in row order, skipping exactly the rows
///     EvaluateLeakage skips (real/synthetic NULL or non-numeric).
///
/// Evaluate() walks the rows in L2-sized tiles, carrying the per-
/// attribute statistics across tiles; tile boundaries are multiples of
/// the kernels' 4-row lane grouping, so the tiled scan is bit-identical
/// to one full-length pass.
///
/// Build() fails with the Status EvaluateLeakage would produce for a
/// structural mismatch (arity, attribute names), and with Invalid for the
/// value patterns one translated code or one skip marker cannot express:
/// a real value matching several domain entries cross-type (Int(3) and
/// Real(3.0) both disclosed), or a NaN in a coded domain or a continuous
/// real column. Build() resolves one attribute per pool task; the Invalid
/// names the lowest offending attribute and its first reason, as a serial
/// build would.
class EncodedLeakageContext {
 public:
  /// Sentinel for real cells with no generation-domain code (NULLs and
  /// out-of-domain values); never equals any synthetic code. Stored
  /// per-width as the all-ones value (CodeWidthSentinel), which the
  /// width-selection rule keeps out of every code domain.
  static constexpr uint32_t kNoMatchCode = 0xFFFFFFFFu;

  /// `real` is the encoded real relation, `syn_schema` the schema the
  /// generator emits (names must match), `domains` the generation
  /// domains the batch is coded against.
  static Result<EncodedLeakageContext> Build(
      const EncodedRelation& real, const Schema& syn_schema,
      const std::vector<Domain>& domains,
      const LeakageOptions& options = {});

  /// Always true: Build() refuses what the scan cannot score.
  bool supported() const { return true; }
  size_t num_attributes() const { return attrs_.size(); }
  size_t num_rows() const { return num_rows_; }

  /// Scores one generated batch into `stats` (an array of
  /// num_attributes() entries). Thread-safe: the context is read-only.
  Status Evaluate(const EncodedBatch& batch,
                  AttributeRoundStats* stats) const;

  /// Convenience wrapper producing a full LeakageReport (adapter
  /// boundary for Relation-level callers like the VFL attack).
  Result<LeakageReport> EvaluateReport(const EncodedBatch& batch) const;

  /// The per-attribute identity rows this context resolved at Build
  /// time, in attribute order — the `meta` argument for
  /// AssembleLeakageReport and for risk estimators that label their
  /// measure columns.
  std::vector<LeakageAttributeMeta> AttributeMetas() const;

  /// Dense read-only view of one attribute's resolved tables, for
  /// per-cell consumers (tuple risk) that score rows rather than whole
  /// attributes. Pointers stay valid while the context lives; only the
  /// tables the attribute's comparison actually reads are non-null.
  struct AttributeView {
    SemanticType semantic = SemanticType::kCategorical;
    EncodedBatch::ColumnKind kind = EncodedBatch::ColumnKind::kCodes;
    double epsilon = 0.0;
    CodeColumnView real_codes;             // categorical x codes, per row
    const double* real_numeric = nullptr;  // per row, NaN = skip
    const double* code_numeric = nullptr;  // synthetic code -> numeric
  };
  AttributeView ViewAttribute(size_t attribute) const;

 private:
  struct AttrPlan {
    std::string name;
    SemanticType semantic = SemanticType::kCategorical;
    EncodedBatch::ColumnKind kind = EncodedBatch::ColumnKind::kCodes;
    double epsilon = 0.0;
    size_t rows_compared = 0;
    CodeColumn real_codes;  // categorical x codes, per row, batch width
    std::vector<double> real_numeric;   // per row, NaN = skip
    std::vector<double> code_numeric;   // synthetic code -> numeric, NaN
  };

  std::vector<AttrPlan> attrs_;
  size_t num_rows_ = 0;
};

/// Invalid unless `batch` has `num_columns` columns and `num_rows` rows:
/// the index-aligned shape every per-round scorer bound to a real
/// relation (EncodedLeakageContext, the risk estimators) requires.
Status CheckAlignedBatch(const EncodedBatch& batch, size_t num_columns,
                         size_t num_rows);

}  // namespace metaleak

#endif  // METALEAK_PRIVACY_LEAKAGE_H_
