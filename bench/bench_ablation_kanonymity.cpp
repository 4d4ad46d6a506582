// A7 — Ablation: k-anonymity as the mitigation the paper references.
//
// Sweeps k on the echocardiogram replica's demographic quasi-identifier
// and traces: minimum group size achieved, identifiable-tuple fraction
// (Definition 2.1), rows suppressed, and residual utility (distinct
// values kept in the generalized quasi-identifier).
#include <cstdio>

#include "common/string_util.h"
#include "common/table_printer.h"
#include "data/datasets/echocardiogram.h"
#include "data/encoded_relation.h"
#include "privacy/anonymization.h"
#include "privacy/identifiability.h"

using namespace metaleak;

int main() {
  Relation real = datasets::Echocardiogram();
  // Quasi-identifier: age + group (what a curious party could link on).
  AttributeSet qi = AttributeSet::Of({2, 11});

  Result<double> before = IdentifiableFraction(real, qi);
  if (!before.ok()) return 1;
  std::printf(
      "Before anonymization: %.1f%% of tuples identifiable via the "
      "(age, group) quasi-identifier.\n\n",
      100.0 * *before);

  TablePrinter table(
      "A7: K-ANONYMIZATION SWEEP (quasi-identifier = {age, group})");
  table.SetHeader({"k", "Min group size", "Identifiable fraction",
                   "Rows suppressed", "Distinct age labels kept",
                   "Passes"});
  for (size_t k : {2u, 3u, 4u, 8u, 16u, 32u}) {
    AnonymizationOptions options;
    options.k = k;
    options.initial_bins = 16;
    Result<AnonymizationResult> result = Anonymize(real, qi, options);
    if (!result.ok()) {
      std::fprintf(stderr, "anonymization failed at k=%zu: %s\n", k,
                   result.status().ToString().c_str());
      return 1;
    }
    Result<size_t> min_group = MinGroupSize(result->relation, qi);
    Result<double> frac = IdentifiableFraction(result->relation, qi);
    if (!min_group.ok() || !frac.ok()) return 1;
    const size_t age_labels = EncodedRelation::Encode(result->relation)
                                  .dictionary(2)
                                  .num_distinct();
    table.AddRow({std::to_string(k), std::to_string(*min_group),
                  FormatDouble(*frac, 4),
                  std::to_string(result->suppressed_rows),
                  std::to_string(age_labels),
                  std::to_string(result->passes)});
  }
  table.Print();
  std::printf(
      "\nReading: identifiability drops to 0 at every k (the anonymizer's\n"
      "guarantee); the cost curve is the shrinking distinct-label count\n"
      "and, at large k, suppressed rows — the utility price of hiding\n"
      "tuples the paper's Definition 2.1 would otherwise expose.\n");
  return 0;
}
