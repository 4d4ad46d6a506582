// Thread-scaling bench for the shared parallel runtime (common/parallel.h).
//
// Times five representative hot paths — TANE lattice search, DD minimal-
// delta validation, the Monte-Carlo experiment runner, and two per-column
// set-up stages (dictionary encoding, and the three estimator binds on a
// discovered package) — at 1/2/4/8 pool threads on synthetic data, and
// writes the measurements to BENCH_parallel.json in the working directory
// (one record per op x thread count: op, rows, threads, ms, speedup vs 1
// thread).
//
// Results are workload-identical across thread counts (chunking depends
// only on the grain), so the numbers measure pure scheduling/scaling
// behaviour. On machines with fewer hardware cores than the requested
// thread count the speedup saturates at the core count.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/simd.h"
#include "common/parallel.h"
#include "data/datasets/synthetic.h"
#include "data/encoded_relation.h"
#include "discovery/discovery_engine.h"
#include "discovery/tane.h"
#include "discovery/validators.h"
#include "generation/generation_engine.h"
#include "privacy/experiment.h"
#include "privacy/risk_estimator.h"

namespace metaleak {
namespace {

struct BenchRecord {
  std::string op;
  size_t rows = 0;
  size_t threads = 0;
  double ms = 0.0;
  double speedup = 1.0;
};

constexpr size_t kThreadCounts[] = {1, 2, 4, 8};
constexpr int kReps = 3;  // keep the best (least-disturbed) repetition

// Times `fn` (already-validated workload; aborts on failure inside) and
// returns the best-of-kReps wall time in milliseconds.
template <typename Fn>
double TimeMs(Fn&& fn) {
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    fn();
    auto stop = std::chrono::steady_clock::now();
    double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    if (rep == 0 || ms < best) best = ms;
  }
  return best;
}

// Runs `fn` once per thread count and appends the scaling records.
template <typename Fn>
void RunOp(const std::string& op, size_t rows, Fn&& fn,
           std::vector<BenchRecord>& out) {
  double baseline_ms = 0.0;
  for (size_t threads : kThreadCounts) {
    SetGlobalThreadCount(threads);
    BenchRecord rec;
    rec.op = op;
    rec.rows = rows;
    rec.threads = threads;
    rec.ms = TimeMs(fn);
    if (threads == 1) baseline_ms = rec.ms;
    rec.speedup = rec.ms > 0.0 ? baseline_ms / rec.ms : 1.0;
    std::printf("%-24s rows=%zu threads=%zu  %9.2f ms  speedup %.2fx\n",
                op.c_str(), rows, threads, rec.ms, rec.speedup);
    out.push_back(rec);
  }
  SetGlobalThreadCount(0);
}

int Main() {
  std::vector<BenchRecord> records;

  // --- TANE on a 50k-row categorical relation ---------------------------
  constexpr size_t kTaneRows = 50000;
  Relation tane_rel = std::move(datasets::SyntheticUniform(
                                    kTaneRows, /*num_categorical=*/6,
                                    /*num_continuous=*/0,
                                    /*domain_size=*/24, /*seed=*/7))
                          .ValueOrDie();
  EncodedRelation tane_enc = EncodedRelation::Encode(tane_rel);
  TaneOptions tane_options;
  tane_options.max_lhs_size = 3;
  tane_options.max_g3_error = 0.05;
  RunOp(
      "tane_fd_afd", kTaneRows,
      [&] {
        auto result = DiscoverFds(tane_enc, tane_options);
        if (!result.ok()) std::abort();
      },
      records);

  // --- DD minimal-delta validation on 50k continuous rows ---------------
  constexpr size_t kDdRows = 50000;
  Relation dd_rel = std::move(datasets::SyntheticUniform(
                                  kDdRows, /*num_categorical=*/0,
                                  /*num_continuous=*/2,
                                  /*domain_size=*/8, /*seed=*/11))
                        .ValueOrDie();
  EncodedRelation dd_enc = EncodedRelation::Encode(dd_rel);
  RunOp(
      "dd_minimal_delta", kDdRows,
      [&] {
        auto delta = ComputeMinimalDelta(dd_enc, 0, 1, /*eps=*/5.0);
        if (!delta.ok()) std::abort();
      },
      records);

  // --- Monte-Carlo experiment rounds ------------------------------------
  constexpr size_t kExpRows = 5000;
  Relation exp_rel = std::move(datasets::SyntheticUniform(
                                   kExpRows, /*num_categorical=*/3,
                                   /*num_continuous=*/2,
                                   /*domain_size=*/12, /*seed=*/3))
                         .ValueOrDie();
  auto report = ProfileRelation(exp_rel);
  if (!report.ok()) std::abort();
  ExperimentConfig config;
  config.rounds = 16;
  config.threads = 0;  // follow the global pool size set by RunOp
  RunOp(
      "experiment_rounds", kExpRows,
      [&] {
        auto result = RunMethod(exp_rel, report->metadata,
                                GenerationMethod::kRandom, config);
        if (!result.ok()) std::abort();
      },
      records);

  // --- Per-column set-up: encode ----------------------------------------
  constexpr size_t kEncodeRows = 200000;
  Relation encode_rel =
      std::move(datasets::SyntheticZipfScale(kEncodeRows, /*seed=*/21))
          .ValueOrDie();
  RunOp(
      "encode", kEncodeRows,
      [&] {
        EncodedRelation encoded = EncodedRelation::Encode(encode_rel);
        if (encoded.num_rows() != kEncodeRows) std::abort();
      },
      records);

  // --- Per-column set-up: the three estimator binds ---------------------
  // On a discovered package, as an audit binds them once for all its
  // methods.
  constexpr size_t kBindRows = 100000;
  Relation bind_rel =
      std::move(datasets::SyntheticZipfScale(kBindRows, /*seed=*/21))
          .ValueOrDie();
  EncodedRelation bind_enc = EncodedRelation::Encode(bind_rel);
  auto bind_report = ProfileRelation(bind_enc);
  if (!bind_report.ok()) std::abort();
  auto gen = GenerationContext::Build(bind_report->metadata);
  if (!gen.ok()) std::abort();
  RiskContext rctx;
  rctx.real = &bind_enc;
  rctx.syn_schema = &gen->schema();
  rctx.domains = &gen->domains();
  rctx.metadata = &bind_report->metadata;
  RunOp(
      "estimator_bind", kBindRows,
      [&] {
        for (const RiskEstimator* est :
             RiskEstimatorRegistry::All().estimators()) {
          if (!est->Bind(rctx).ok()) std::abort();
        }
      },
      records);

  std::ofstream json("BENCH_parallel.json");
  json << "{\n  " << BenchMetadataJson() << ",\n  \"benchmarks\": [\n";
  for (size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    json << "    {\"op\": \"" << r.op << "\", \"rows\": " << r.rows
         << ", \"threads\": " << r.threads << ", \"ms\": " << r.ms
         << ", \"speedup\": " << r.speedup << "}"
         << (i + 1 < records.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("wrote BENCH_parallel.json (%zu records)\n", records.size());
  return 0;
}

}  // namespace
}  // namespace metaleak

int main() { return metaleak::Main(); }
