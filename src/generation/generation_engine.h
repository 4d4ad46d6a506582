// GenerationEngine: builds a full synthetic relation R_syn from a
// MetadataPackage, following the dependency graph (Section V).
//
// GenerationContext resolves a (metadata, options) pair once: the plan,
// the domains, the batch layout and the code-mapped distribution
// samplers. GenerateEncoded then writes each round's dense domain codes
// and raw doubles into a reusable EncodedBatch arena, and
// MaterializeRelation decodes a batch into a Relation only at the
// adapter boundary (GenerateSynthetic). This is the library's one way to
// draw R_syn; tests/reference/ keeps the boxed-Value generator it
// replaced as the oracle a decoded batch must equal bit for bit.
//
// A package that contradicts itself (a disclosed distribution whose
// kind or support disagrees with its attribute's domain) clears
// encodable(), and GenerateEncoded and GenerateSynthetic return Invalid
// naming fallback_reason(). MetadataPackage::Deserialize turns such
// packages away at the boundary.
#ifndef METALEAK_GENERATION_GENERATION_ENGINE_H_
#define METALEAK_GENERATION_GENERATION_ENGINE_H_

#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "data/encoded_batch.h"
#include "data/relation.h"
#include "metadata/dependency_graph.h"
#include "metadata/metadata_package.h"

namespace metaleak {

struct GenerationOptions {
  /// Restrict which dependency classes may drive generation; empty = all
  /// disclosed classes. The evaluation uses singleton lists to isolate a
  /// class (Tables III/IV columns: Rand / FD / OD / ND).
  std::vector<DependencyKind> allowed_kinds;
  /// Force pure random generation even if dependencies are disclosed.
  bool ignore_dependencies = false;
};

/// Result of one generation run.
struct GenerationOutcome {
  Relation relation;
  /// The plan used (root vs. dependency edge per attribute).
  DependencyGraph plan;
};

class GenerationContext;
Status GenerateEncoded(const GenerationContext& ctx, size_t num_rows,
                       Rng* rng, EncodedBatch* batch);

/// Everything the per-round generation loop needs, resolved once per
/// (metadata, options) pair: the generation plan, the domains, the batch
/// column layout, per-code numeric tables for DD, and code-mapped
/// distribution samplers. Building the context also checks that the
/// package's distributions agree with its domains (encodable()).
class GenerationContext {
 public:
  /// Resolves plan + domains. Fails on a package of more than 64
  /// attributes (the plan tracks placed attributes in an AttributeSet)
  /// and on missing or non-finite domains; a distribution that disagrees
  /// with its domain does NOT fail the build but clears encodable(), and
  /// GenerateEncoded reports it.
  static Result<GenerationContext> Build(const MetadataPackage& metadata,
                                         const GenerationOptions& options =
                                             {});

  const Schema& schema() const { return schema_; }
  const std::vector<Domain>& domains() const { return domains_; }
  const DependencyGraph& plan() const { return *plan_; }
  const std::vector<EncodedBatch::ColumnKind>& kinds() const {
    return kinds_;
  }
  const std::vector<CodeWidth>& widths() const { return widths_; }
  size_t num_attributes() const { return domains_.size(); }

  /// Per-code numeric view of a code-stored column's domain: entry 0
  /// (NULL) and non-numeric entries are 0.0, the `is_numeric() ?
  /// AsNumeric() : 0.0` convention of the DD walk. Empty for
  /// real-stored columns.
  const std::vector<double>& code_numeric(size_t c) const {
    return code_numeric_[c];
  }

  /// True when every disclosed distribution GenerateEncoded samples
  /// agrees with its attribute's domain; otherwise fallback_reason() says
  /// which disagreement was found and GenerateEncoded returns Invalid.
  bool encodable() const { return encodable_; }
  const std::string& fallback_reason() const { return fallback_reason_; }

 private:
  friend Status GenerateEncoded(const GenerationContext&, size_t, Rng*,
                                EncodedBatch*);

  // ValueDistribution::Sample draw-for-draw, emitting codes (categorical
  // frequency table whose support maps into the domain) or raw doubles
  // (histogram).
  struct DistSampler {
    bool categorical = false;
    std::vector<size_t> cumulative;  // running frequency / bucket counts
    std::vector<uint32_t> codes;  // frequency index -> domain code
    double lo = 0.0;              // histogram range
    double hi = 0.0;

    uint32_t SampleCode(Rng* rng) const;
    double SampleReal(Rng* rng) const;
  };

  Schema schema_;
  std::vector<Domain> domains_;
  std::optional<DependencyGraph> plan_;
  std::vector<EncodedBatch::ColumnKind> kinds_;
  std::vector<CodeWidth> widths_;  // batch code-column widths, per attr
  std::vector<std::vector<size_t>> step_lhs_;  // aligned with plan steps
  std::vector<std::optional<DistSampler>> dist_;     // per attribute
  std::vector<std::vector<double>> code_numeric_;    // per attribute
  bool encodable_ = true;
  std::string fallback_reason_;
};

/// Runs the encoded generators over the context's plan, filling `batch`
/// (re-configured and resized in place; a thread that owns its batch
/// allocates only on the first round). Invalid when the context is not
/// encodable: "package is not encodable: " + fallback_reason().
Status GenerateEncoded(const GenerationContext& ctx, size_t num_rows,
                       Rng* rng, EncodedBatch* batch);

/// Generates `num_rows` synthetic tuples from disclosed metadata:
/// GenerateEncoded, then MaterializeRelation. Requires the package to
/// disclose every attribute domain (the adversary cannot sample values
/// otherwise); returns Invalid when domains are missing or the package
/// is not encodable.
Result<GenerationOutcome> GenerateSynthetic(const MetadataPackage& metadata,
                                            size_t num_rows, Rng* rng,
                                            const GenerationOptions& options =
                                                {});

}  // namespace metaleak

#endif  // METALEAK_GENERATION_GENERATION_ENGINE_H_
