// dependency_discovery: a tour of the profiling substrate.
//
// Shows TANE on the echocardiogram replica level by level, the stripped
// partitions it works on, g3 errors for approximate dependencies, and
// the pairwise discovery of order / numerical / differential
// dependencies — the metadata the privacy analysis is about.
#include <cstdio>

#include "common/string_util.h"
#include "common/table_printer.h"
#include "data/datasets/echocardiogram.h"
#include "discovery/rfd_discovery.h"
#include "discovery/tane.h"
#include "discovery/validators.h"
#include "metadata/dependency_set.h"
#include "partition/pli_cache.h"

using namespace metaleak;  // Example code; library code never does this.

int main() {
  Relation relation = datasets::Echocardiogram();
  std::printf("Dataset: echocardiogram replica, %zu rows x %zu attrs\n\n",
              relation.num_rows(), relation.num_columns());

  // 1) The representation: stripped partitions.
  std::printf("== Stripped partitions (TANE's PLIs) ==\n");
  const EncodedRelation encoded = EncodedRelation::Encode(relation);
  PliCache cache(&encoded);
  for (size_t c = 0; c < relation.num_columns(); ++c) {
    const PositionListIndex* pli = cache.Get(AttributeSet::Single(c));
    std::printf(
        "  %-24s %3zu classes, %3zu stripped clusters, %3zu rows in "
        "clusters\n",
        relation.schema().attribute(c).name.c_str(), pli->num_classes(),
        pli->num_clusters(), pli->num_stripped_rows());
  }

  // 2) TANE at increasing LHS sizes.
  std::printf("\n== TANE: minimal FDs by LHS size ==\n");
  for (size_t max_lhs : {1u, 2u, 3u}) {
    TaneOptions options;
    options.max_lhs_size = max_lhs;
    options.include_constant_columns = false;
    Result<TaneResult> result = DiscoverFds(relation, options);
    if (!result.ok()) return 1;
    std::printf("  max |LHS| = %zu: %zu minimal FDs (%zu lattice nodes)\n",
                max_lhs, result->dependencies.size(),
                result->stats.nodes_visited);
  }
  TaneOptions options;
  options.max_lhs_size = 1;
  options.include_constant_columns = false;
  Result<TaneResult> fds = DiscoverFds(relation, options);
  if (!fds.ok()) return 1;
  std::printf("\n  Single-attribute FDs:\n");
  for (const Dependency& d : fds->dependencies) {
    std::printf("    %s\n", d.ToString(relation.schema()).c_str());
  }

  // 3) Approximate FDs: near-dependencies with small g3 error.
  std::printf("\n== Approximate FDs (g3 <= 0.10) ==\n");
  TaneOptions afd_options;
  afd_options.max_lhs_size = 1;
  afd_options.max_g3_error = 0.10;
  afd_options.include_constant_columns = false;
  Result<TaneResult> afds = DiscoverFds(relation, afd_options);
  if (!afds.ok()) return 1;
  for (const Dependency& d : afds->dependencies) {
    if (d.kind == DependencyKind::kApproximateFunctional) {
      std::printf("    %s\n", d.ToString(relation.schema()).c_str());
    }
  }

  // 4) The relaxed classes, all running on the shared lattice kernel.
  std::printf("\n== Order dependencies ==\n");
  LatticeSearchStats od_stats;
  Result<DependencySet> ods = DiscoverOds(relation, {}, &od_stats);
  if (!ods.ok()) return 1;
  for (const Dependency& d : *ods) {
    std::printf("    %s\n", d.ToString(relation.schema()).c_str());
  }

  std::printf("\n== Ordered functional dependencies ==\n");
  LatticeSearchStats ofd_stats;
  Result<DependencySet> ofds = DiscoverOfds(relation, {}, &ofd_stats);
  if (!ofds.ok()) return 1;
  for (const Dependency& d : *ofds) {
    std::printf("    %s\n", d.ToString(relation.schema()).c_str());
  }

  std::printf("\n== Numerical dependencies ==\n");
  LatticeSearchStats nd_stats;
  Result<DependencySet> nds = DiscoverNds(relation, {}, &nd_stats);
  if (!nds.ok()) return 1;
  for (const Dependency& d : *nds) {
    std::printf("    %s\n", d.ToString(relation.schema()).c_str());
  }

  std::printf("\n== Differential dependencies (eps = 5%% of range) ==\n");
  LatticeSearchStats dd_stats;
  Result<DependencySet> dds = DiscoverDds(relation, {}, &dd_stats);
  if (!dds.ok()) return 1;
  for (const Dependency& d : *dds) {
    std::printf("    %s\n", d.ToString(relation.schema()).c_str());
  }

  // 5) Multi-attribute LHS search: the same kernel, max_lhs raised.
  std::printf("\n== Multi-attribute ODs (max |LHS| = 2) ==\n");
  OdDiscoveryOptions wide_od;
  wide_od.max_lhs = 2;
  Result<DependencySet> wide_ods = DiscoverOds(relation, wide_od);
  if (!wide_ods.ok()) return 1;
  size_t wide_count = 0;
  for (const Dependency& d : *wide_ods) {
    if (d.lhs.size() > 1) {
      std::printf("    %s\n", d.ToString(relation.schema()).c_str());
      ++wide_count;
    }
  }
  std::printf("    (%zu beyond the single-attribute ODs)\n", wide_count);

  // 6) The kernel's per-class search statistics.
  std::printf("\n== Lattice-search statistics ==\n");
  TablePrinter stats_table;
  stats_table.SetHeader({"Search", "Nodes", "Pruned", "Validations",
                         "PLI hit rate"});
  auto add_stats = [&](const char* name, const LatticeSearchStats& s) {
    stats_table.AddRow({name, std::to_string(s.nodes_visited),
                        std::to_string(s.candidates_pruned),
                        std::to_string(s.validator_invocations),
                        FormatDouble(s.PliCacheHitRate(), 3)});
  };
  add_stats("FD (|LHS|<=1)", fds->stats);
  add_stats("AFD", afds->stats);
  add_stats("OD", od_stats);
  add_stats("OFD", ofd_stats);
  add_stats("ND", nd_stats);
  add_stats("DD", dd_stats);
  std::printf("%s", stats_table.ToString().c_str());

  std::printf(
      "\nEach of these is exactly the metadata whose privacy cost the\n"
      "paper analyzes; see the bench/ binaries for the leakage tables.\n");
  return 0;
}
