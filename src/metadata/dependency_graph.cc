#include "metadata/dependency_graph.h"

#include <algorithm>
#include <sstream>

#include "common/macros.h"

namespace metaleak {

namespace {

// Lower value = preferred.
int KindPriority(DependencyKind kind) {
  switch (kind) {
    case DependencyKind::kFunctional:
      return 0;
    case DependencyKind::kOrderedFunctional:
      return 1;
    case DependencyKind::kOrder:
      return 2;
    case DependencyKind::kApproximateFunctional:
      return 3;
    case DependencyKind::kNumerical:
      return 4;
    case DependencyKind::kDifferential:
      return 5;
  }
  return 6;
}

bool KindAllowed(DependencyKind kind,
                 const std::vector<DependencyKind>& allowed) {
  if (allowed.empty()) return true;
  return std::find(allowed.begin(), allowed.end(), kind) != allowed.end();
}

}  // namespace

DependencyGraph::DependencyGraph(std::vector<GenerationStep> steps)
    : steps_(std::move(steps)) {
  step_of_attribute_.resize(steps_.size());
  for (size_t i = 0; i < steps_.size(); ++i) {
    METALEAK_DCHECK(steps_[i].attribute < steps_.size());
    step_of_attribute_[steps_[i].attribute] = i;
  }
}

DependencyGraph DependencyGraph::Build(
    size_t num_attributes, const DependencySet& deps,
    const std::vector<DependencyKind>& allowed) {
  // `placed` could never cover a wider schema, and the loop below would
  // append root steps forever.
  METALEAK_DCHECK(num_attributes <= AttributeSet::kMaxAttributes);
  std::vector<GenerationStep> steps;
  steps.reserve(num_attributes);
  AttributeSet placed;

  // Candidate edges per RHS attribute, best priority first.
  std::vector<std::vector<Dependency>> candidates(num_attributes);
  for (const Dependency& d : deps) {
    if (d.rhs >= num_attributes) continue;
    if (!KindAllowed(d.kind, allowed)) continue;
    if (d.lhs.Contains(d.rhs)) continue;  // trivial
    candidates[d.rhs].push_back(d);
  }
  for (auto& cs : candidates) {
    std::stable_sort(cs.begin(), cs.end(),
                     [](const Dependency& a, const Dependency& b) {
                       if (KindPriority(a.kind) != KindPriority(b.kind)) {
                         return KindPriority(a.kind) < KindPriority(b.kind);
                       }
                       // Prefer smaller LHS (cheaper, more informative).
                       return a.lhs.size() < b.lhs.size();
                     });
  }

  while (placed.size() < num_attributes) {
    // 1) Place every attribute whose best satisfiable dependency has all
    //    LHS attributes already placed.
    bool progressed = false;
    for (size_t a = 0; a < num_attributes; ++a) {
      if (placed.Contains(a)) continue;
      for (const Dependency& d : candidates[a]) {
        if (placed.ContainsAll(d.lhs)) {
          steps.push_back(GenerationStep{a, d});
          placed = placed.With(a);
          progressed = true;
          break;
        }
      }
    }
    if (progressed) continue;

    // 2) No attribute can be derived: pick the smallest unplaced attribute
    //    with no candidates as a root; if every unplaced attribute has
    //    candidates we are in a cycle — break it at the smallest index.
    size_t root = num_attributes;
    for (size_t a = 0; a < num_attributes; ++a) {
      if (!placed.Contains(a) && candidates[a].empty()) {
        root = a;
        break;
      }
    }
    if (root == num_attributes) {
      for (size_t a = 0; a < num_attributes; ++a) {
        if (!placed.Contains(a)) {
          root = a;
          break;
        }
      }
    }
    METALEAK_DCHECK(root < num_attributes);
    steps.push_back(GenerationStep{root, std::nullopt});
    placed = placed.With(root);
  }

  return DependencyGraph(std::move(steps));
}

const GenerationStep& DependencyGraph::StepFor(size_t attribute) const {
  METALEAK_DCHECK(attribute < steps_.size());
  return steps_[step_of_attribute_[attribute]];
}

size_t DependencyGraph::num_derived() const {
  size_t n = 0;
  for (const GenerationStep& s : steps_) {
    if (s.via.has_value()) ++n;
  }
  return n;
}

std::string DependencyGraph::ToString(const Schema& schema) const {
  std::ostringstream os;
  for (const GenerationStep& s : steps_) {
    os << schema.attribute(s.attribute).name << ": ";
    if (s.via.has_value()) {
      os << "via " << s.via->ToString(schema);
    } else {
      os << "root (from domain)";
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace metaleak
