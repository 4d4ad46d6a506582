// AdversarySimulator: what a curious VFL participant can do with the
// metadata it received.
//
// The adversary holds a MetadataPackage from the counterpart and the
// aligned row count (known after PSI). It reconstructs a synthetic
// relation and — for evaluation purposes only — the simulator scores the
// reconstruction against the real aligned slice with the paper's leakage
// definitions.
#ifndef METALEAK_VFL_ATTACK_H_
#define METALEAK_VFL_ATTACK_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "data/relation.h"
#include "generation/generation_engine.h"
#include "metadata/metadata_package.h"
#include "privacy/leakage.h"

namespace metaleak {

struct AttackResult {
  DisclosureLevel level = DisclosureLevel::kNames;
  /// Whether reconstruction was possible at all (it is not below the
  /// names+domains level: without domains there is nothing to sample).
  bool reconstructed = false;
  LeakageReport leakage;
};

/// Reconstructs R_syn from `received` metadata and scores it against the
/// real aligned slice. Returns Invalid when the package lacks domains or
/// the leakage scan cannot score it (EncodedLeakageContext::Build).
Result<LeakageReport> SimulateReconstruction(
    const MetadataPackage& received, const Relation& real_aligned,
    uint64_t seed, const GenerationOptions& options = {});

/// Runs the reconstruction at every disclosure level (restricting
/// `full_metadata` each time) and reports leakage per level. Levels
/// below names+domains yield reconstructed=false with empty leakage.
Result<std::vector<AttackResult>> SweepDisclosureLevels(
    const MetadataPackage& full_metadata, const Relation& real_aligned,
    uint64_t seed);

}  // namespace metaleak

#endif  // METALEAK_VFL_ATTACK_H_
