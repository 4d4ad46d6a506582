// DependencyGraph: turns a dependency set into a generation plan.
//
// Section V of the paper: "The dependencies form a directed graph between
// the attributes which is used for generation." The adversary generates
// attributes in an order where every attribute is produced either from its
// domain (a *root*) or through exactly one chosen dependency whose LHS
// attributes were generated earlier.
#ifndef METALEAK_METADATA_DEPENDENCY_GRAPH_H_
#define METALEAK_METADATA_DEPENDENCY_GRAPH_H_

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/schema.h"
#include "metadata/dependency_set.h"

namespace metaleak {

/// One step of the generation plan.
struct GenerationStep {
  size_t attribute = 0;
  /// The dependency used to derive this attribute; nullopt for roots
  /// (generated directly from the attribute's domain).
  std::optional<Dependency> via;
};

/// A fully ordered plan covering every attribute exactly once.
class DependencyGraph {
 public:
  /// Builds a plan for `num_attributes` attributes from `deps`; at most
  /// AttributeSet::kMaxAttributes (GenerationContext::Build refuses a
  /// wider package).
  ///
  /// Edge selection: for each attribute the highest-priority applicable
  /// dependency is chosen, with priority FD > OFD > OD > AFD > ND > DD
  /// (stronger constraints first, mirroring the paper's analysis order).
  /// `allowed` restricts which kinds may be used (empty = all). Cycles are
  /// broken deterministically by making the smallest-index attribute of
  /// the cycle a root.
  static DependencyGraph Build(
      size_t num_attributes, const DependencySet& deps,
      const std::vector<DependencyKind>& allowed = {});

  const std::vector<GenerationStep>& steps() const { return steps_; }

  /// Step count equals the attribute count by construction.
  size_t size() const { return steps_.size(); }

  /// The step generating `attribute`.
  const GenerationStep& StepFor(size_t attribute) const;

  /// Count of non-root steps (attributes derived via a dependency).
  size_t num_derived() const;

  std::string ToString(const Schema& schema) const;

 private:
  explicit DependencyGraph(std::vector<GenerationStep> steps);

  std::vector<GenerationStep> steps_;
  std::vector<size_t> step_of_attribute_;
};

}  // namespace metaleak

#endif  // METALEAK_METADATA_DEPENDENCY_GRAPH_H_
