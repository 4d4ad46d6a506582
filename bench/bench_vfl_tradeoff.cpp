// E5 — the VFL utility-vs-privacy trade-off, run on the N-party
// federation topology.
//
// Three axes, all written to BENCH_vfl.json:
//
//   1. Topology parity gate: the 2-node full-disclosure topology must
//      reproduce the pre-refactor two-party RunScenario orchestration
//      bit-identically ("topology_parity": "ok"; any disagreement exits
//      non-zero).
//   2. Policy Pareto sweep on the fintech federation: utility (joint
//      model accuracy) vs leakage (coalition reconstruction match rate)
//      per candidate MetadataPolicy. The acceptance number is
//      "pareto_frontier_points" >= 3 with distinct trade-offs.
//   3. Coalition scaling: leakage as the attacker coalition grows from 1
//      to 3 parties in a fully-connected 4-party federation, plus
//      Align/train/attack wall-clock at 10k-50k rows. The timings go to
//      the JSON only, so stdout is the same on every run of a build.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/simd.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "data/datasets/fintech.h"
#include "vfl/attack.h"
#include "vfl/logistic_regression.h"
#include "vfl/scenario.h"
#include "vfl/topology.h"

namespace metaleak {
namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// --- Axis 1: two-party parity gate --------------------------------------------

// The pre-refactor RunScenario orchestration, rebuilt from the two-party
// primitives it used. RunScenario itself now routes through
// FederationTopology; this is the golden reference it must match.
Result<ScenarioOutcome> ReferenceRunScenario(const Party& party_a,
                                             const Party& party_b,
                                             const ScenarioOptions& options) {
  ScenarioOutcome outcome;
  METALEAK_ASSIGN_OR_RETURN(std::vector<PsiToken> tokens_a,
                            party_a.PsiTokens(options.psi_salt));
  METALEAK_ASSIGN_OR_RETURN(std::vector<PsiToken> tokens_b,
                            party_b.PsiTokens(options.psi_salt));
  METALEAK_ASSIGN_OR_RETURN(PsiResult psi,
                            IntersectTokens(tokens_a, tokens_b));
  outcome.intersection_size = psi.size();
  if (psi.size() == 0) return Status::Invalid("PSI intersection is empty");

  METALEAK_ASSIGN_OR_RETURN(Relation slice_a,
                            party_a.AlignedFeatures(psi.rows_a));
  METALEAK_ASSIGN_OR_RETURN(Relation slice_b,
                            party_b.AlignedFeatures(psi.rows_b));
  METALEAK_ASSIGN_OR_RETURN(
      size_t label_col,
      slice_a.schema().RequireIndex(options.label_attribute));
  std::vector<int> labels;
  for (size_t r = 0; r < slice_a.num_rows(); ++r) {
    const Value& v = slice_a.at(r, label_col);
    labels.push_back(
        !v.is_null() && v.is_numeric() && v.AsNumeric() >= 0.5 ? 1 : 0);
  }
  std::vector<size_t> a_cols;
  for (size_t c = 0; c < slice_a.num_columns(); ++c) {
    if (c != label_col) a_cols.push_back(c);
  }
  Relation features_a = slice_a.Project(a_cols);

  METALEAK_ASSIGN_OR_RETURN(
      VflModel joint, TrainVerticalLogisticRegression(features_a, slice_b,
                                                      labels, options.train));
  METALEAK_ASSIGN_OR_RETURN(outcome.joint_accuracy,
                            Accuracy(joint, features_a, slice_b, labels));
  Schema const_schema(
      {{"__const", DataType::kInt64, SemanticType::kCategorical}});
  std::vector<std::vector<Value>> const_col(1);
  const_col[0].assign(features_a.num_rows(), Value::Int(0));
  METALEAK_ASSIGN_OR_RETURN(
      Relation const_b, Relation::Make(const_schema, std::move(const_col)));
  METALEAK_ASSIGN_OR_RETURN(
      VflModel solo, TrainVerticalLogisticRegression(features_a, const_b,
                                                     labels, options.train));
  METALEAK_ASSIGN_OR_RETURN(outcome.party_a_only_accuracy,
                            Accuracy(solo, features_a, const_b, labels));
  METALEAK_ASSIGN_OR_RETURN(
      MetadataPackage shared_b,
      party_b.ShareMetadata(DisclosureLevel::kWithRfds));
  METALEAK_ASSIGN_OR_RETURN(
      outcome.leakage_by_level,
      SweepDisclosureLevels(shared_b, slice_b, options.attack_seed));
  return outcome;
}

bool OutcomesBitIdentical(const ScenarioOutcome& a,
                          const ScenarioOutcome& b) {
  if (a.intersection_size != b.intersection_size ||
      a.joint_accuracy != b.joint_accuracy ||
      a.party_a_only_accuracy != b.party_a_only_accuracy ||
      a.leakage_by_level.size() != b.leakage_by_level.size()) {
    return false;
  }
  for (size_t i = 0; i < a.leakage_by_level.size(); ++i) {
    const AttackResult& x = a.leakage_by_level[i];
    const AttackResult& y = b.leakage_by_level[i];
    if (x.level != y.level || x.reconstructed != y.reconstructed ||
        x.leakage.attributes.size() != y.leakage.attributes.size()) {
      return false;
    }
    for (size_t c = 0; c < x.leakage.attributes.size(); ++c) {
      const AttributeLeakage& p = x.leakage.attributes[c];
      const AttributeLeakage& q = y.leakage.attributes[c];
      if (p.matches != q.matches || p.rows_compared != q.rows_compared ||
          p.match_rate != q.match_rate ||
          p.mse.has_value() != q.mse.has_value() ||
          (p.mse.has_value() && *p.mse != *q.mse)) {
        return false;
      }
    }
  }
  return true;
}

bool CheckTopologyParity() {
  datasets::FintechScenario s = datasets::Fintech();
  Party bank("bank", s.bank, "customer_id");
  Party ecom("ecommerce", s.ecommerce, "customer_id");
  ScenarioOptions options;
  options.train.epochs = 120;
  auto reference = ReferenceRunScenario(bank, ecom, options);
  auto topology = RunScenario(bank, ecom, options);
  if (!reference.ok() || !topology.ok()) {
    std::fprintf(stderr, "parity scenario failed: %s / %s\n",
                 reference.status().ToString().c_str(),
                 topology.status().ToString().c_str());
    return false;
  }
  return OutcomesBitIdentical(*reference, *topology);
}

// --- Axis 2: policy Pareto sweep ----------------------------------------------

std::vector<MetadataPolicy> CandidatePolicies() {
  std::vector<MetadataPolicy> policies;
  policies.push_back(MetadataPolicy::FullDisclosure());

  MetadataPolicy no_deps =
      MetadataPolicy::AtLevel(DisclosureLevel::kWithRfds, "suppress-deps");
  no_deps.transforms = {MetadataTransform::SuppressDependencies()};
  policies.push_back(no_deps);

  policies.push_back(MetadataPolicy::AtLevel(
      DisclosureLevel::kNamesAndDomains, "domains-only"));

  MetadataPolicy gen_weak = MetadataPolicy::AtLevel(
      DisclosureLevel::kNamesAndDomains, "generalize-weak");
  gen_weak.transforms = {MetadataTransform::GeneralizeDomains(0.5, 8)};
  policies.push_back(gen_weak);

  MetadataPolicy gen_strong = MetadataPolicy::AtLevel(
      DisclosureLevel::kNamesAndDomains, "generalize-strong");
  gen_strong.transforms = {MetadataTransform::GeneralizeDomains(2.0, 32, 4)};
  policies.push_back(gen_strong);

  MetadataPolicy dp = MetadataPolicy::AtLevel(
      DisclosureLevel::kWithDistributions, "dp-distributions");
  dp.transforms = {
      MetadataTransform::DpNoiseDistributions(0.5, 0xD15C105EULL, 0.05)};
  policies.push_back(dp);

  policies.push_back(
      MetadataPolicy::AtLevel(DisclosureLevel::kNames, "names-only"));
  return policies;
}

struct ParetoAxis {
  std::vector<ParetoPoint> points;
  size_t frontier_points = 0;
  size_t distinct_tradeoffs = 0;
};

Result<ParetoAxis> RunParetoSweep() {
  datasets::FintechFederationOptions data_options;
  data_options.population = 1500;
  datasets::FintechFederationScenario s =
      datasets::FintechFederation(data_options);

  FederationTopology topo;
  size_t bank = topo.AddParty(Party("bank", s.bank, "customer_id"));
  size_t ecom = topo.AddParty(Party("ecommerce", s.ecommerce, "customer_id"));
  size_t telco = topo.AddParty(Party("telco", s.telco, "customer_id"));
  METALEAK_RETURN_NOT_OK(
      topo.AddEdge(ecom, bank, MetadataPolicy::FullDisclosure()));
  METALEAK_RETURN_NOT_OK(
      topo.AddEdge(telco, bank, MetadataPolicy::FullDisclosure()));

  TopologyOptions options;
  options.label_party = bank;
  options.train.epochs = 120;
  options.attack_rounds = 8;

  CoalitionSpec spec;
  spec.attackers = {bank};

  ParetoAxis axis;
  METALEAK_ASSIGN_OR_RETURN(
      axis.points,
      SweepPolicyPareto(topo, options, spec, CandidatePolicies()));
  std::set<std::pair<double, double>> distinct;
  for (const ParetoPoint& p : axis.points) {
    if (p.on_frontier) {
      ++axis.frontier_points;
      distinct.insert({p.joint_accuracy, p.leakage_rate});
    }
  }
  axis.distinct_tradeoffs = distinct.size();
  return axis;
}

// --- Axis 3: coalition sizes and row scaling ----------------------------------

struct CoalitionRecord {
  size_t size = 0;
  std::string attackers;
  std::string victims;
  double leakage_rate = 0.0;
  double categorical_rate = 0.0;
};

struct ScalingRecord {
  size_t rows = 0;
  size_t intersection = 0;
  double align_ms = 0.0;
  double utility_ms = 0.0;
  double coalition_ms = 0.0;
};

// Fully-connected federation: everyone disclosed to everyone at full
// level, so any attacker subset has every remaining party as a victim.
Result<FederationTopology> FullMesh(
    const datasets::FintechFederationScenario& s) {
  FederationTopology topo;
  topo.AddParty(Party("bank", s.bank, "customer_id"));
  topo.AddParty(Party("ecommerce", s.ecommerce, "customer_id"));
  topo.AddParty(Party("telco", s.telco, "customer_id"));
  topo.AddParty(Party("insurer", s.insurer, "customer_id"));
  for (size_t from = 0; from < 4; ++from) {
    for (size_t to = 0; to < 4; ++to) {
      if (from == to) continue;
      METALEAK_RETURN_NOT_OK(
          topo.AddEdge(from, to, MetadataPolicy::FullDisclosure()));
    }
  }
  return topo;
}

std::string JoinNames(const FederationTopology& topo,
                      const std::vector<size_t>& parties) {
  std::string out;
  for (size_t p : parties) {
    if (!out.empty()) out += "+";
    out += topo.party(p).name();
  }
  return out;
}

Result<std::vector<CoalitionRecord>> RunCoalitionSizes() {
  datasets::FintechFederationOptions data_options;
  data_options.population = 1500;
  datasets::FintechFederationScenario s =
      datasets::FintechFederation(data_options);
  METALEAK_ASSIGN_OR_RETURN(FederationTopology topo, FullMesh(s));

  TopologyOptions options;
  options.attack_rounds = 8;
  METALEAK_ASSIGN_OR_RETURN(TopologyAlignment alignment,
                            topo.Align(options));

  // Coalition grows one party at a time: bank, bank+ecommerce,
  // bank+ecommerce+telco.
  std::vector<CoalitionRecord> records;
  std::vector<size_t> attackers;
  for (size_t next : {0u, 1u, 2u}) {
    attackers.push_back(next);
    CoalitionSpec spec;
    spec.attackers = attackers;
    METALEAK_ASSIGN_OR_RETURN(CoalitionOutcome outcome,
                              topo.EvaluateCoalition(alignment, spec, options));
    CoalitionRecord record;
    record.size = attackers.size();
    record.attackers = JoinNames(topo, outcome.attackers);
    record.victims = JoinNames(topo, outcome.victims);
    if (outcome.monte_carlo.has_value()) {
      record.leakage_rate = outcome.monte_carlo->overall_match_rate;
      record.categorical_rate = outcome.monte_carlo->categorical_match_rate;
    }
    records.push_back(std::move(record));
  }
  return records;
}

Result<std::vector<ScalingRecord>> RunRowScaling() {
  std::vector<ScalingRecord> records;
  for (size_t rows : {10000u, 25000u, 50000u}) {
    datasets::FintechFederationOptions data_options;
    data_options.population = rows;
    datasets::FintechFederationScenario s =
        datasets::FintechFederation(data_options);

    FederationTopology topo;
    size_t bank = topo.AddParty(Party("bank", s.bank, "customer_id"));
    size_t ecom =
        topo.AddParty(Party("ecommerce", s.ecommerce, "customer_id"));
    size_t telco = topo.AddParty(Party("telco", s.telco, "customer_id"));
    METALEAK_RETURN_NOT_OK(
        topo.AddEdge(ecom, bank, MetadataPolicy::FullDisclosure()));
    METALEAK_RETURN_NOT_OK(
        topo.AddEdge(telco, bank, MetadataPolicy::FullDisclosure()));

    TopologyOptions options;
    options.label_party = bank;
    options.train.epochs = 60;

    ScalingRecord record;
    record.rows = rows;

    auto start = std::chrono::steady_clock::now();
    METALEAK_ASSIGN_OR_RETURN(TopologyAlignment alignment,
                              topo.Align(options));
    record.align_ms = MsSince(start);
    record.intersection = alignment.intersection_size();

    start = std::chrono::steady_clock::now();
    METALEAK_ASSIGN_OR_RETURN(UtilityOutcome utility,
                              topo.EvaluateUtility(alignment, options));
    record.utility_ms = MsSince(start);
    (void)utility;

    CoalitionSpec spec;
    spec.attackers = {bank};
    start = std::chrono::steady_clock::now();
    METALEAK_ASSIGN_OR_RETURN(
        CoalitionOutcome outcome,
        topo.EvaluateCoalition(alignment, spec, options));
    record.coalition_ms = MsSince(start);
    (void)outcome;

    records.push_back(record);
  }
  return records;
}

int Main() {
  std::printf("N-PARTY FEDERATION: policy Pareto sweep and coalition "
              "adversaries\n\n");

  // 1) Parity gate.
  const bool parity_ok = CheckTopologyParity();
  std::printf("two-party topology parity: %s\n\n",
              parity_ok ? "ok" : "MISMATCH");
  if (!parity_ok) {
    std::fprintf(stderr,
                 "parity FAILED: the 2-node topology does not reproduce "
                 "RunScenario\n");
  }

  // 2) Pareto sweep.
  auto pareto = RunParetoSweep();
  if (!pareto.ok()) {
    std::fprintf(stderr, "pareto sweep failed: %s\n",
                 pareto.status().ToString().c_str());
    return 1;
  }
  TablePrinter table(
      "Utility vs leakage per policy (bank attacks ecommerce+telco)");
  table.SetHeader({"Policy", "Joint accuracy", "Leakage rate", "Mean MSE",
                   "Frontier"});
  for (const ParetoPoint& p : pareto->points) {
    table.AddRow({p.policy_name, FormatDouble(p.joint_accuracy, 4),
                  p.reconstructed ? FormatDouble(p.leakage_rate, 4) : "0 (no "
                                                                      "recon)",
                  p.mean_mse.has_value() ? FormatDouble(*p.mean_mse, 1) : "-",
                  p.on_frontier ? "*" : ""});
  }
  table.Print();
  std::printf("frontier points: %zu (%zu distinct trade-offs)\n\n",
              pareto->frontier_points, pareto->distinct_tradeoffs);
  const bool frontier_ok = pareto->distinct_tradeoffs >= 3;
  if (!frontier_ok) {
    std::fprintf(stderr,
                 "pareto FAILED: fewer than 3 distinct frontier points\n");
  }

  // 3) Coalition sizes + row scaling.
  auto coalitions = RunCoalitionSizes();
  if (!coalitions.ok()) {
    std::fprintf(stderr, "coalition axis failed: %s\n",
                 coalitions.status().ToString().c_str());
    return 1;
  }
  TablePrinter coalition_table("Leakage vs coalition size (full mesh)");
  coalition_table.SetHeader(
      {"Size", "Attackers", "Victims", "Overall rate", "Categorical rate"});
  for (const CoalitionRecord& r : *coalitions) {
    coalition_table.AddRow({std::to_string(r.size), r.attackers, r.victims,
                            FormatDouble(r.leakage_rate, 4),
                            FormatDouble(r.categorical_rate, 4)});
  }
  coalition_table.Print();
  std::printf("\n");

  auto scaling = RunRowScaling();
  if (!scaling.ok()) {
    std::fprintf(stderr, "row-scaling axis failed: %s\n",
                 scaling.status().ToString().c_str());
    return 1;
  }
  TablePrinter scale_table(
      "Alignment vs rows (3-party topology; timings in BENCH_vfl.json)");
  scale_table.SetHeader({"Rows", "Intersection"});
  for (const ScalingRecord& r : *scaling) {
    scale_table.AddRow(
        {std::to_string(r.rows), std::to_string(r.intersection)});
  }
  scale_table.Print();

  // --- JSON artifact ----------------------------------------------------
  std::ofstream json("BENCH_vfl.json");
  json << "{\n  " << BenchMetadataJson() << ",\n  \"topology_parity\": \""
       << (parity_ok ? "ok" : "MISMATCH")
       << "\",\n  \"pareto_frontier_points\": " << pareto->distinct_tradeoffs
       << ",\n  \"pareto\": [\n";
  for (size_t i = 0; i < pareto->points.size(); ++i) {
    const ParetoPoint& p = pareto->points[i];
    json << "    {\"policy\": \"" << p.policy_name
         << "\", \"joint_accuracy\": " << p.joint_accuracy
         << ", \"leakage_rate\": " << p.leakage_rate
         << ", \"reconstructed\": " << (p.reconstructed ? "true" : "false")
         << ", \"on_frontier\": " << (p.on_frontier ? "true" : "false")
         << "}" << (i + 1 < pareto->points.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"coalitions\": [\n";
  for (size_t i = 0; i < coalitions->size(); ++i) {
    const CoalitionRecord& r = (*coalitions)[i];
    json << "    {\"size\": " << r.size << ", \"attackers\": \""
         << r.attackers << "\", \"victims\": \"" << r.victims
         << "\", \"leakage_rate\": " << r.leakage_rate
         << ", \"categorical_rate\": " << r.categorical_rate << "}"
         << (i + 1 < coalitions->size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"benchmarks\": [\n";
  for (size_t i = 0; i < scaling->size(); ++i) {
    const ScalingRecord& r = (*scaling)[i];
    json << "    {\"rows\": " << r.rows
         << ", \"intersection\": " << r.intersection
         << ", \"align_ms\": " << r.align_ms
         << ", \"train_ms\": " << r.utility_ms
         << ", \"attack_ms\": " << r.coalition_ms << "}"
         << (i + 1 < scaling->size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("\nwrote BENCH_vfl.json (parity %s, %zu distinct frontier "
              "points)\n",
              parity_ok ? "ok" : "MISMATCH", pareto->distinct_tradeoffs);
  return parity_ok && frontier_ok ? 0 : 1;
}

}  // namespace
}  // namespace metaleak

int main() { return metaleak::Main(); }
