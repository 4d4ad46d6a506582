#include "privacy/tuple_risk.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <utility>

#include "common/parallel.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "data/domain.h"
#include "data/encoded_batch.h"
#include "data/encoded_relation.h"
#include "generation/generation_engine.h"
#include "privacy/identifiability.h"

namespace metaleak {

namespace {

// Whether the synthetic cell matches the real cell under the paper's
// per-type semantics.
bool CellMatches(const Value& real, const Value& syn,
                 SemanticType semantic, double epsilon) {
  if (real.is_null()) return false;
  if (semantic == SemanticType::kCategorical) {
    if (real == syn) return true;
    return real.is_numeric() && syn.is_numeric() &&
           real.AsNumeric() == syn.AsNumeric();
  }
  if (!real.is_numeric() || !syn.is_numeric()) return false;
  return std::abs(real.AsNumeric() - syn.AsNumeric()) <= epsilon;
}

}  // namespace

std::vector<size_t> TupleRiskReport::TopIdentifiable(size_t count) const {
  std::vector<size_t> out;
  for (const TupleRisk& t : tuples) {
    if (out.size() >= count) break;
    if (t.identifiable) out.push_back(t.row);
  }
  return out;
}

std::string TupleRiskReport::ToString(size_t count) const {
  TablePrinter printer("Highest-risk tuples");
  printer.SetHeader({"Row", "Mean matched attrs", "Max in a round",
                     ">=50% reconstructed", "Identifiable (Def 2.1)"});
  for (size_t i = 0; i < std::min(count, tuples.size()); ++i) {
    const TupleRisk& t = tuples[i];
    printer.AddRow({std::to_string(t.row),
                    FormatDouble(t.mean_matched_attributes, 3),
                    std::to_string(t.max_matched_attributes),
                    FormatDouble(100.0 * t.half_reconstructed_rate, 1) +
                        "%",
                    t.identifiable ? "yes" : "no"});
  }
  return printer.ToString();
}

Result<TupleRiskReport> AnalyzeTupleRisk(const Relation& real,
                                         const MetadataPackage& metadata,
                                         const TupleRiskOptions& options) {
  if (options.rounds == 0) {
    return Status::Invalid("tuple risk analysis needs at least one round");
  }
  const size_t n = real.num_rows();
  const size_t m = real.num_columns();
  if (n == 0 || m == 0) {
    return Status::Invalid("cannot analyze an empty relation");
  }

  // One dictionary encoding shared by the epsilon extraction below and
  // every per-subset uniqueness scan in the identifiability pass.
  EncodedRelation encoded = EncodedRelation::Encode(real);

  // Per-attribute epsilon for continuous cells.
  std::vector<double> epsilons(m, 0.0);
  for (size_t c = 0; c < m; ++c) {
    if (real.schema().attribute(c).semantic != SemanticType::kContinuous) {
      continue;
    }
    if (options.leakage.absolute_epsilon.has_value()) {
      epsilons[c] = *options.leakage.absolute_epsilon;
    } else {
      Result<Domain> domain = encoded.DomainOf(c);
      epsilons[c] = domain.ok()
                        ? options.leakage.epsilon_fraction * domain->range()
                        : 0.0;
    }
  }
  // Non-null attribute counts per row (the "half reconstructed" base),
  // read column-major off the dense code vectors: code 0 is the reserved
  // NULL slot, so no Value is materialized.
  static_assert(ColumnDictionary::kNullCode == 0,
                "non-null cells are the codes != 0");
  std::vector<uint32_t> non_null(n, 0);
  for (size_t c = 0; c < m; ++c) {
    encoded.column_view(c).With([&](const auto* codes) {
      for (size_t r = 0; r < n; ++r) non_null[r] += codes[r] != 0;
    });
  }

  std::vector<double> total_matched(n, 0.0);
  std::vector<size_t> max_matched(n, 0);
  std::vector<size_t> half_rounds(n, 0);

  // Code path: resolve the generation plan and the per-cell leakage
  // tables once, then score every round as a scan over dense codes and
  // doubles — no Relation is materialized. Packages or value patterns
  // the encoded pipeline cannot reproduce fall back to the boxed-Value
  // loop below (this analysis never index-checks schemas itself, so a
  // context build error also just means "use the reference path").
  std::optional<GenerationContext> gen_ctx;
  std::optional<EncodedLeakageContext> leak_ctx;
  {
    Result<GenerationContext> built = GenerationContext::Build(metadata);
    if (built.ok() && built->encodable()) {
      Result<EncodedLeakageContext> leak = EncodedLeakageContext::Build(
          encoded, built->schema(), built->domains(), options.leakage);
      if (leak.ok() && leak->supported()) {
        gen_ctx.emplace(std::move(*built));
        leak_ctx.emplace(std::move(*leak));
      }
    }
  }
  std::vector<EncodedLeakageContext::AttributeView> views;
  if (leak_ctx.has_value()) {
    views.reserve(m);
    for (size_t c = 0; c < m; ++c) views.push_back(leak_ctx->ViewAttribute(c));
  }

  auto score_round = [&](auto&& cell_matched) {
    // Each tuple's match count only touches its own accumulator slots,
    // so the per-tuple scan fans out over the pool.
    ParallelForChunks(0, n, 1024, [&](size_t lo, size_t hi) {
      for (size_t r = lo; r < hi; ++r) {
        size_t matched = 0;
        for (size_t c = 0; c < m; ++c) {
          if (cell_matched(r, c)) ++matched;
        }
        total_matched[r] += static_cast<double>(matched);
        max_matched[r] = std::max(max_matched[r], matched);
        if (non_null[r] > 0 && 2 * matched >= non_null[r]) {
          ++half_rounds[r];
        }
      }
    });
  };

  Rng rng(options.seed);
  EncodedBatch batch;
  for (size_t round = 0; round < options.rounds; ++round) {
    Rng round_rng = rng.Fork();
    if (gen_ctx.has_value()) {
      METALEAK_RETURN_NOT_OK(
          GenerateEncoded(*gen_ctx, n, &round_rng, &batch));
      // Column-major scoring: each chunk counts matched attributes per
      // row one column at a time (exact integer counts, so the result is
      // identical to the row-major cell loop), then finalizes its rows'
      // accumulators. NaN on either side of a real compare (NULL /
      // non-numeric) never matches, exactly like the per-cell predicate.
      ParallelForChunks(0, n, 1024, [&](size_t lo, size_t hi) {
        const size_t len = hi - lo;
        std::vector<uint32_t> matched(len, 0);
        for (size_t c = 0; c < m; ++c) {
          const EncodedLeakageContext::AttributeView& v = views[c];
          if (v.kind == EncodedBatch::ColumnKind::kCodes) {
            const CodeColumnView syn_codes = batch.code_view(c).Slice(lo, len);
            if (v.semantic == SemanticType::kCategorical) {
              v.real_codes.Slice(lo, len).With([&](const auto* real) {
                syn_codes.With([&](const auto* syn) {
                  for (size_t i = 0; i < len; ++i) {
                    matched[i] += real[i] == syn[i];
                  }
                });
              });
            } else {
              const double* real = v.real_numeric + lo;
              syn_codes.With([&](const auto* syn) {
                for (size_t i = 0; i < len; ++i) {
                  matched[i] +=
                      std::abs(real[i] - v.code_numeric[syn[i]]) <= v.epsilon;
                }
              });
            }
            continue;
          }
          const double* real = v.real_numeric + lo;
          const double* syn = batch.reals(c).data() + lo;
          if (v.semantic == SemanticType::kCategorical) {
            for (size_t i = 0; i < len; ++i) matched[i] += real[i] == syn[i];
          } else {
            for (size_t i = 0; i < len; ++i) {
              matched[i] += std::abs(real[i] - syn[i]) <= v.epsilon;
            }
          }
        }
        for (size_t i = 0; i < len; ++i) {
          const size_t r = lo + i;
          const size_t row_matched = matched[i];
          total_matched[r] += static_cast<double>(row_matched);
          max_matched[r] = std::max(max_matched[r], row_matched);
          if (non_null[r] > 0 && 2 * row_matched >= non_null[r]) {
            ++half_rounds[r];
          }
        }
      });
      continue;
    }
    METALEAK_ASSIGN_OR_RETURN(
        GenerationOutcome outcome,
        GenerateSynthetic(metadata, n, &round_rng));
    score_round([&](size_t r, size_t c) {
      return CellMatches(real.at(r, c), outcome.relation.at(r, c),
                         real.schema().attribute(c).semantic, epsilons[c]);
    });
  }

  // Per-row identifiability at the configured width: the shared parallel
  // subset sweep (uniqueness is monotone in the subset, so width-k
  // subsets cover all narrower ones).
  METALEAK_ASSIGN_OR_RETURN(
      std::vector<bool> identifiable,
      IdentifiableRows(encoded, options.identifiability_max_width));

  TupleRiskReport report;
  report.tuples.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    TupleRisk t;
    t.row = r;
    t.mean_matched_attributes =
        total_matched[r] / static_cast<double>(options.rounds);
    t.max_matched_attributes = max_matched[r];
    t.half_reconstructed_rate =
        static_cast<double>(half_rounds[r]) /
        static_cast<double>(options.rounds);
    t.identifiable = identifiable[r];
    report.tuples.push_back(t);
  }
  std::stable_sort(report.tuples.begin(), report.tuples.end(),
                   [](const TupleRisk& a, const TupleRisk& b) {
                     return a.mean_matched_attributes >
                            b.mean_matched_attributes;
                   });
  return report;
}

}  // namespace metaleak
