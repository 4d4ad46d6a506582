// metadata_audit: a command-line privacy audit for a CSV dataset.
//
// Usage: metadata_audit [file.csv]
//
// Registers the relation with an AuditService once and serves every
// stage — profiling, identifiability, measured leakage, tuple risk —
// from that session's snapshot: one encoding, one discovery pass, one
// partition cache shared across the stages (the old version re-encoded
// the relation in each of them). The footer prints the cache counters so
// the sharing is visible. Without an argument it audits the bundled
// echocardiogram replica.
#include <cmath>
#include <cstdio>
#include <string>

#include "common/string_util.h"
#include "common/table_printer.h"
#include "data/csv_loader.h"
#include "data/datasets/echocardiogram.h"
#include "data/domain.h"
#include "privacy/analytical.h"
#include "privacy/experiment.h"
#include "privacy/identifiability.h"
#include "privacy/tuple_risk.h"
#include "service/audit_service.h"

using namespace metaleak;  // Example code; library code never does this.

int main(int argc, char** argv) {
  Relation relation;
  if (argc > 1) {
    Result<Relation> loaded = LoadCsvRelationFile(argv[1]);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", argv[1],
                   loaded.status().ToString().c_str());
      return 1;
    }
    relation = std::move(loaded).ValueUnsafe();
    std::printf("Auditing %s: %zu rows x %zu attributes\n\n", argv[1],
                relation.num_rows(), relation.num_columns());
  } else {
    relation = datasets::Echocardiogram();
    std::printf(
        "No input given; auditing the bundled echocardiogram replica "
        "(%zu rows x %zu attributes).\n\n",
        relation.num_rows(), relation.num_columns());
  }

  // 1) Register once; profiling happens here and only here.
  ServiceOptions service_options;
  service_options.discovery.discover_afds = true;
  AuditService service(service_options);
  Result<SessionId> session = service.Register(relation);
  if (!session.ok()) {
    std::fprintf(stderr, "registration failed: %s\n",
                 session.status().ToString().c_str());
    return 1;
  }
  Result<std::shared_ptr<const RelationSnapshot>> snapshot =
      service.Snapshot(*session);
  if (!snapshot.ok()) return 1;
  const MetadataPackage& metadata = (*snapshot)->profile().metadata;

  std::printf("== Discovered metadata ==\n");
  for (const Attribute& a : metadata.schema.attributes()) {
    std::printf("  %-24s %-8s %s\n", a.name.c_str(),
                DataTypeToString(a.type).c_str(),
                SemanticTypeToString(a.semantic).c_str());
  }
  std::printf("  %zu dependencies:\n",
              metadata.dependencies.size());
  for (const Dependency& d : metadata.dependencies) {
    std::printf("    %s\n", d.ToString(metadata.schema).c_str());
  }

  // 2) Identifiability (Definition 2.1), on the snapshot's shared
  //    partition cache: the width-1 sweep seeds the width-2 extensions.
  std::printf("\n== Identifiability (GDPR Art. 5 / Definition 2.1) ==\n");
  for (size_t k = 1; k <= std::min<size_t>(2, relation.num_columns());
       ++k) {
    Result<double> frac =
        IdentifiableByAnySubset((*snapshot)->pli_cache(), k);
    if (frac.ok()) {
      std::printf(
          "  %.1f%% of tuples identifiable via some %zu-attribute "
          "subset\n",
          100.0 * *frac, k);
    }
  }

  // 3) Expected leakage per attribute if names+domains are shared —
  //    precomputed analytically in the snapshot's leakage profile.
  std::printf("\n== Expected leakage from names+domains alone ==\n");
  TablePrinter table;
  table.SetHeader({"Attribute", "Domain", "E[matches]", "Risk"});
  Result<std::vector<Domain>> domains = metadata.RequireDomains();
  if (!domains.ok()) return 1;
  const LeakageProfile& leakage = (*snapshot)->leakage();
  for (size_t c = 0; c < relation.num_columns(); ++c) {
    const AttributeExpectation& attr = leakage.attributes[c];
    std::string domain_str = (*domains)[c].is_categorical()
                                 ? "|D|=" + FormatDouble(
                                                (*domains)[c].Size(), 0)
                                 : (*domains)[c].ToString();
    table.AddRow({attr.name, domain_str,
                  FormatDouble(attr.expected_random_matches, 3),
                  attr.domain_leaks ? "LEAK EXPECTED" : "low"});
  }
  table.Print();

  // 4) Does adding FDs/RFDs make it worse? Measure, against the same
  //    snapshot (no re-encoding per method).
  std::printf("\n== Measured leakage: random vs dependency-informed ==\n");
  ExperimentConfig config;
  config.rounds = 200;
  const std::vector<GenerationMethod> methods = {
      GenerationMethod::kRandom, GenerationMethod::kFd,
      GenerationMethod::kOd, GenerationMethod::kNd};
  std::vector<MethodResult> results;
  for (GenerationMethod method : methods) {
    Result<MethodResult> run =
        service.MeasureLeakage(*session, method, config);
    if (!run.ok()) {
      std::fprintf(stderr, "experiment failed: %s\n",
                   run.status().ToString().c_str());
      return 1;
    }
    results.push_back(std::move(*run));
  }
  TablePrinter measured;
  measured.SetHeader(
      {"Attribute", "Random", "FD", "OD", "ND", "Verdict"});
  for (size_t c = 0; c < relation.num_columns(); ++c) {
    std::vector<std::string> row = {
        metadata.schema.attribute(c).name};
    double random_mean = 0.0;
    double max_dep = 0.0;
    for (size_t m = 0; m < results.size(); ++m) {
      Result<MethodAttributeResult> a = results[m].ForAttribute(c);
      if (!a.ok() || (!a->covered && m != 0)) {
        row.push_back("NA");
        continue;
      }
      row.push_back(FormatDouble(a->mean_matches, 2));
      if (m == 0) {
        random_mean = a->mean_matches;
      } else {
        max_dep = std::max(max_dep, a->mean_matches);
      }
    }
    double slack = 3.0 * std::sqrt(std::max(1.0, random_mean));
    row.push_back(max_dep > random_mean + slack ? "deps leak MORE"
                                                : "deps add ~nothing");
    measured.AddRow(std::move(row));
  }
  measured.Print();

  // 5) Which tuples are most at risk (Section V's targeted-advertising
  //    discussion: a correct reconstruction is valuable per tuple).
  TupleRiskOptions risk_options;
  risk_options.rounds = 100;
  Result<TupleRiskReport> risk = service.TupleRisk(*session, risk_options);
  if (risk.ok()) {
    std::printf("\n== Highest-risk tuples (mean reconstructed attrs) ==\n");
    std::fputs(risk->ToString(5).c_str(), stdout);
  }

  // 6) What the session sharing bought: one snapshot, many queries.
  const PliCache& cache = (*snapshot)->pli_cache();
  ServiceStats stats = service.stats();
  std::printf("\n== Cache observability ==\n");
  std::printf(
      "  PLI cache: %llu hits / %llu misses across discovery + "
      "identifiability\n",
      static_cast<unsigned long long>(cache.hits()),
      static_cast<unsigned long long>(cache.misses()));
  std::printf(
      "  Snapshot cache: %llu hits, %llu misses, %llu evictions\n",
      static_cast<unsigned long long>(stats.snapshot_hits),
      static_cast<unsigned long long>(stats.snapshot_misses),
      static_cast<unsigned long long>(stats.snapshot_evictions));

  std::printf(
      "\nRecommendation: share attribute names and dependencies; treat\n"
      "domain disclosure as the actual risk surface (paper Section VI).\n");
  return 0;
}
