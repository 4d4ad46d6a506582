// Million-row scale bench: bandwidth proportional to real cardinality.
//
// Runs the full encode -> PLI build -> width-2 identifiability sweep ->
// fused leakage scan -> attack round pipeline over the Zipf-skewed wide
// schema (datasets::SyntheticZipfScale) at 200k / 500k / 1M rows, twice
// per scale: once with the adaptive u8/u16/u32 code widths the
// dictionaries naturally select, and once with the storage floor forced
// to u32 (the pre-adaptive layout). Before reporting any speedup the two
// runs are checked byte-identical — encoding fingerprints, sweep
// verdicts, and the bitwise accumulated leakage stats — and a thread
// axis re-runs the parallel stages at 1 and 8 threads expecting the same
// digests. Any mismatch exits non-zero.
//
// Results go to BENCH_scale.json: per-op rows/sec at each scale on both
// width axes, the narrow-over-u32 leakage-scan speedups, the
// "width_parity" / "thread_parity" gates CI greps for, and
// encode_rows_per_s_ratio_200k_over_1m — narrow encode throughput at 200k
// over that at 1M, which CI holds at <= 1.5 so an encode that scales
// superlinearly in the row count fails the build. Setting
// METALEAK_SCALE_SMOKE=1 cuts the round counts for CI smoke runs without
// changing the row counts or the gates.
//
// A second artifact, BENCH_leakage.json, covers the risk-estimator
// layer over the same fixtures: per-estimator Evaluate() throughput at
// every scale, the "estimator_parity" gate (MatchRateEstimator cells
// bitwise equal to the direct fused scan; engine measure columns
// bitwise identical at 1 vs 8 threads), the "analytical_bands" gate
// (uniform-generation entropy, independence MI bias, Def 2.2/2.3
// expected matches, and NN-linkage rates against their closed-form
// predictions), a rows/sec floor for the histogram-based estimator at
// 500k rows, and a rows/sec floor for the NN-linkage estimator at 1M
// rows ("nn_linkage_floor_1m").
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/math_util.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/simd.h"
#include "data/code_column.h"
#include "data/datasets/synthetic.h"
#include "data/encoded_batch.h"
#include "data/encoded_relation.h"
#include "data/relation.h"
#include "generation/generation_engine.h"
#include "metadata/metadata_package.h"
#include "partition/position_list_index.h"
#include "privacy/analytical.h"
#include "privacy/experiment.h"
#include "privacy/identifiability.h"
#include "privacy/leakage.h"
#include "privacy/risk_estimator.h"

namespace metaleak {
namespace {

struct BenchRecord {
  std::string op;
  std::string width;  // "narrow" or "u32"
  size_t rows = 0;
  double ms = 0.0;
  double rows_per_sec = 0.0;
};

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Everything one width axis needs, built under the active width floor.
struct Pipeline {
  EncodedRelation encoded;
  GenerationContext gen;
  EncodedLeakageContext leakage;
  std::vector<EncodedBatch> pool;
  double encode_ms = 0.0;
};

Pipeline BuildPipeline(const Relation& real, const MetadataPackage& metadata,
                       size_t pool_size) {
  auto start = std::chrono::steady_clock::now();
  EncodedRelation encoded = EncodedRelation::Encode(real);
  const double encode_ms = MsSince(start);

  GenerationContext gen =
      std::move(GenerationContext::Build(metadata)).ValueOrDie();
  if (!gen.encodable()) {
    std::fprintf(stderr, "scale fixture is not encodable\n");
    std::exit(1);
  }
  EncodedLeakageContext leakage =
      std::move(EncodedLeakageContext::Build(encoded, gen.schema(),
                                             gen.domains(), {}))
          .ValueOrDie();
  // Deterministic batch pool: both width axes fork the same seeds, so
  // the generated codes are value-identical and only the storage width
  // differs — exactly the comparison the parity gate needs.
  std::vector<EncodedBatch> pool(pool_size);
  Rng rng(11);
  for (EncodedBatch& batch : pool) {
    Rng round_rng = rng.Fork();
    if (!GenerateEncoded(gen, real.num_rows(), &round_rng, &batch).ok()) {
      std::abort();
    }
  }
  Pipeline p{std::move(encoded), std::move(gen), std::move(leakage),
             std::move(pool), encode_ms};
  return p;
}

// Accumulated leakage stats over `rounds` scans cycling the pool.
// Returns the total; *ms gets the wall time of the scan loop.
std::vector<AttributeRoundStats> RunScan(const Pipeline& p, size_t rounds,
                                         double* ms) {
  const size_t m = p.leakage.num_attributes();
  std::vector<AttributeRoundStats> stats(m);
  std::vector<AttributeRoundStats> total(m);
  auto start = std::chrono::steady_clock::now();
  for (size_t round = 0; round < rounds; ++round) {
    if (!p.leakage.Evaluate(p.pool[round % p.pool.size()], stats.data())
             .ok()) {
      std::abort();
    }
    for (size_t c = 0; c < m; ++c) {
      total[c].matches += stats[c].matches;
      total[c].mse += stats[c].mse;
      total[c].has_mse = stats[c].has_mse;
    }
  }
  *ms = MsSince(start);
  return total;
}

bool BitEqual(double a, double b) {
  uint64_t x, y;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

bool MeasuresBitIdentical(const std::vector<RiskMeasureStats>& a,
                          const std::vector<RiskMeasureStats>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].estimator != b[i].estimator || a[i].measure != b[i].measure ||
        a[i].active != b[i].active || a[i].rounds != b[i].rounds ||
        a[i].mean.size() != b[i].mean.size() ||
        a[i].stddev.size() != b[i].stddev.size()) {
      return false;
    }
    for (size_t c = 0; c < a[i].mean.size(); ++c) {
      if (!BitEqual(a[i].mean[c], b[i].mean[c]) ||
          !BitEqual(a[i].stddev[c], b[i].stddev[c])) {
        return false;
      }
    }
  }
  return true;
}

bool StatsBitIdentical(const std::vector<AttributeRoundStats>& a,
                       const std::vector<AttributeRoundStats>& b) {
  if (a.size() != b.size()) return false;
  for (size_t c = 0; c < a.size(); ++c) {
    uint64_t x, y;
    std::memcpy(&x, &a[c].mse, sizeof(x));
    std::memcpy(&y, &b[c].mse, sizeof(y));
    if (a[c].matches != b[c].matches || x != y ||
        a[c].has_mse != b[c].has_mse) {
      return false;
    }
  }
  return true;
}

// Column-width census of an encoding, e.g. "u8:4 u16:5 u32:5".
std::string WidthCensus(const EncodedRelation& enc) {
  size_t by_width[3] = {0, 0, 0};
  for (size_t c = 0; c < enc.num_columns(); ++c) {
    switch (enc.column_width(c)) {
      case CodeWidth::kU8: ++by_width[0]; break;
      case CodeWidth::kU16: ++by_width[1]; break;
      case CodeWidth::kU32: ++by_width[2]; break;
    }
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "u8:%zu u16:%zu u32:%zu", by_width[0],
                by_width[1], by_width[2]);
  return buf;
}

int Main() {
  const bool smoke = std::getenv("METALEAK_SCALE_SMOKE") != nullptr;
  struct Scale {
    size_t rows;
    size_t scan_rounds;
    size_t attack_rounds;
  };
  const std::vector<Scale> kScales = {
      {200000, smoke ? 4u : 20u, smoke ? 1u : 4u},
      {500000, smoke ? 3u : 12u, smoke ? 1u : 3u},
      {1000000, smoke ? 2u : 8u, smoke ? 1u : 2u},
  };
  const size_t pool_size = smoke ? 1 : 2;

  std::vector<BenchRecord> records;
  bool width_parity_ok = true;
  bool thread_parity_ok = true;
  double scan_speedup_200k = 0.0;
  double scan_speedup_500k = 0.0;
  double scan_speedup_1m = 0.0;
  double encode_rows_per_sec_200k = 0.0;
  double encode_rows_per_sec_1m = 0.0;

  std::vector<BenchRecord> est_records;
  bool estimator_parity_ok = true;
  bool bands_ok = true;
  double info_rows_per_sec_500k = 0.0;
  double info_rows_per_sec_1m = 0.0;
  double nn_rows_per_sec_1m = 0.0;

  for (const Scale& scale : kScales) {
    const size_t rows = scale.rows;
    Relation real =
        std::move(datasets::SyntheticZipfScale(rows, /*seed=*/21))
            .ValueOrDie();
    const size_t m = real.num_columns();

    // Metadata: schema + per-attribute domains, no dependency classes —
    // the attack round measured here is the Def 2.2/2.3 baseline
    // (generate from domains, score the fused leakage scan).
    EncodedRelation for_domains = EncodedRelation::Encode(real);
    MetadataPackage metadata;
    metadata.schema = real.schema();
    metadata.num_rows = rows;
    for (size_t c = 0; c < m; ++c) {
      metadata.domains.push_back(
          std::move(for_domains.DomainOf(c)).ValueOrDie());
    }

    auto run_axis = [&](const char* width_name) {
      Pipeline p = BuildPipeline(real, metadata, pool_size);
      auto record = [&](const char* op, double ms) {
        records.push_back({op, width_name, rows,  ms,
                           static_cast<double>(rows) / (ms / 1000.0)});
      };
      record("encode", p.encode_ms);

      auto start = std::chrono::steady_clock::now();
      size_t clusters = 0;
      for (size_t c = 0; c < m; ++c) {
        clusters +=
            PositionListIndex::FromEncoded(p.encoded, {c}).num_clusters();
      }
      if (clusters == SIZE_MAX) std::abort();
      record("pli_build", MsSince(start));

      start = std::chrono::steady_clock::now();
      std::vector<bool> verdicts =
          std::move(IdentifiableRows(p.encoded, 2)).ValueOrDie();
      record("sweep_width2", MsSince(start));

      double scan_ms = 0.0;
      std::vector<AttributeRoundStats> totals =
          RunScan(p, scale.scan_rounds, &scan_ms);
      records.push_back(
          {"leakage_scan", width_name, rows, scan_ms,
           static_cast<double>(rows * scale.scan_rounds) /
               (scan_ms / 1000.0)});

      start = std::chrono::steady_clock::now();
      {
        EncodedBatch batch;
        std::vector<AttributeRoundStats> stats(p.leakage.num_attributes());
        Rng rng(23);
        for (size_t round = 0; round < scale.attack_rounds; ++round) {
          Rng round_rng = rng.Fork();
          if (!GenerateEncoded(p.gen, rows, &round_rng, &batch).ok()) {
            std::abort();
          }
          if (!p.leakage.Evaluate(batch, stats.data()).ok()) std::abort();
        }
      }
      const double attack_ms = MsSince(start);
      records.push_back(
          {"attack_round", width_name, rows, attack_ms,
           static_cast<double>(rows * scale.attack_rounds) /
               (attack_ms / 1000.0)});

      struct AxisOut {
        uint64_t fingerprint;
        std::string census;
        std::vector<bool> verdicts;
        std::vector<AttributeRoundStats> totals;
        double scan_ms;
        Pipeline pipeline;
      };
      return AxisOut{p.encoded.Fingerprint(), WidthCensus(p.encoded),
                     std::move(verdicts),     std::move(totals),
                     scan_ms,                 std::move(p)};
    };

    std::printf("scale: %zu rows x %zu attrs\n", rows, m);
    auto narrow = run_axis("narrow");
    const double encode_rows_per_sec =
        static_cast<double>(rows) / (narrow.pipeline.encode_ms / 1000.0);
    if (rows == 200000) encode_rows_per_sec_200k = encode_rows_per_sec;
    if (rows == 1000000) encode_rows_per_sec_1m = encode_rows_per_sec;
    SetCodeWidthFloorOverride(CodeWidth::kU32);
    auto wide = run_axis("u32");
    ClearCodeWidthFloorOverride();
    std::printf("  widths narrow [%s] | forced [%s]\n",
                narrow.census.c_str(), wide.census.c_str());

    // --- Width parity: byte-identical results on both axes ------------
    if (narrow.fingerprint != wide.fingerprint) {
      std::fprintf(stderr, "width parity FAILED: fingerprints\n");
      width_parity_ok = false;
    }
    if (narrow.verdicts != wide.verdicts) {
      std::fprintf(stderr, "width parity FAILED: sweep verdicts\n");
      width_parity_ok = false;
    }
    if (!StatsBitIdentical(narrow.totals, wide.totals)) {
      std::fprintf(stderr, "width parity FAILED: leakage stats\n");
      width_parity_ok = false;
    }

    const double scan_speedup = wide.scan_ms / narrow.scan_ms;
    if (rows == 200000) scan_speedup_200k = scan_speedup;
    if (rows == 500000) scan_speedup_500k = scan_speedup;
    if (rows == 1000000) scan_speedup_1m = scan_speedup;
    std::printf(
        "  leakage scan x%zu  u32 %8.1f ms | narrow %8.1f ms  (%.2fx)\n",
        scale.scan_rounds, wide.scan_ms, narrow.scan_ms, scan_speedup);

    // --- Thread axis: 1 vs 8 threads, identical digests ---------------
    {
      const Pipeline& p = narrow.pipeline;
      std::vector<AttributeRoundStats> stats1(p.leakage.num_attributes());
      std::vector<AttributeRoundStats> stats8(p.leakage.num_attributes());
      SetGlobalThreadCount(1);
      std::vector<bool> verdicts1 =
          std::move(IdentifiableRows(p.encoded, 2)).ValueOrDie();
      if (!p.leakage.Evaluate(p.pool[0], stats1.data()).ok()) std::abort();
      SetGlobalThreadCount(8);
      std::vector<bool> verdicts8 =
          std::move(IdentifiableRows(p.encoded, 2)).ValueOrDie();
      if (!p.leakage.Evaluate(p.pool[0], stats8.data()).ok()) std::abort();
      SetGlobalThreadCount(0);
      if (verdicts1 != verdicts8 || !StatsBitIdentical(stats1, stats8)) {
        std::fprintf(stderr,
                     "thread parity FAILED at %zu rows: 1 vs 8 threads\n",
                     rows);
        thread_parity_ok = false;
      }
    }

    // --- Risk estimator layer: throughput, parity, analytical bands ---
    {
      const Pipeline& p = narrow.pipeline;
      RiskContext rctx;
      rctx.real = &p.encoded;
      rctx.syn_schema = &p.gen.schema();
      rctx.domains = &p.gen.domains();
      rctx.metadata = &metadata;
      const RiskEstimatorRegistry& registry = RiskEstimatorRegistry::All();
      std::vector<std::unique_ptr<BoundRiskEstimator>> bound;
      size_t info_idx = 0, nn_idx = 0;
      for (size_t e = 0; e < registry.estimators().size(); ++e) {
        const RiskEstimator* est = registry.estimators()[e];
        if (est->name() == InfoTheoreticEstimator::Instance().name()) {
          info_idx = e;
        }
        if (est->name() == NnLinkageEstimator::Instance().name()) {
          nn_idx = e;
        }
        bound.push_back(std::move(est->Bind(rctx)).ValueOrDie());
      }

      // Per-estimator Evaluate() throughput cycling the batch pool.
      for (size_t e = 0; e < bound.size(); ++e) {
        const RiskEstimator* est = registry.estimators()[e];
        std::vector<RiskMeasureCell> cells(est->measures().size() * m);
        auto start = std::chrono::steady_clock::now();
        for (size_t round = 0; round < scale.scan_rounds; ++round) {
          if (!bound[e]
                   ->Evaluate(p.pool[round % p.pool.size()], cells.data())
                   .ok()) {
            std::abort();
          }
        }
        const double ms = MsSince(start);
        const double rps =
            static_cast<double>(rows * scale.scan_rounds) / (ms / 1000.0);
        est_records.push_back(
            {"estimator_" + est->name(), "narrow", rows, ms, rps});
        if (est->name() == InfoTheoreticEstimator::Instance().name()) {
          if (rows == 500000) info_rows_per_sec_500k = rps;
          if (rows == 1000000) info_rows_per_sec_1m = rps;
        }
        if (est->name() == NnLinkageEstimator::Instance().name() &&
            rows == 1000000) {
          nn_rows_per_sec_1m = rps;
        }
      }

      // Parity: MatchRateEstimator cells reproduce the direct fused scan
      // bitwise, and the entropy column equals a straight dictionary
      // recomputation through the shared ShannonEntropyBits definition.
      std::vector<AttributeRoundStats> direct(m);
      if (!p.leakage.Evaluate(p.pool[0], direct.data()).ok()) std::abort();
      std::vector<RiskMeasureCell> mr(2 * m);
      if (!bound[0]->Evaluate(p.pool[0], mr.data()).ok()) std::abort();
      for (size_t c = 0; c < m; ++c) {
        const RiskMeasureCell& matches =
            mr[MatchRateEstimator::kMatchesIndex * m + c];
        const RiskMeasureCell& mse =
            mr[MatchRateEstimator::kMseIndex * m + c];
        if (!matches.present ||
            !BitEqual(matches.value,
                      static_cast<double>(direct[c].matches)) ||
            mse.present != direct[c].has_mse ||
            (mse.present && !BitEqual(mse.value, direct[c].mse))) {
          std::fprintf(stderr,
                       "estimator parity FAILED at %zu rows: match-rate "
                       "cells vs fused scan (attr %zu)\n",
                       rows, c);
          estimator_parity_ok = false;
        }
      }
      std::vector<RiskMeasureCell> info(3 * m);
      std::vector<RiskMeasureCell> nn(2 * m);
      if (!bound[info_idx]->Evaluate(p.pool[0], info.data()).ok()) {
        std::abort();
      }
      if (!bound[nn_idx]->Evaluate(p.pool[0], nn.data()).ok()) std::abort();
      for (size_t c = 0; c < m; ++c) {
        const ColumnDictionary& dict = p.encoded.dictionary(c);
        std::vector<size_t> counts;
        for (uint32_t code = 1; code < dict.num_codes(); ++code) {
          counts.push_back(dict.count(code));
        }
        const RiskMeasureCell& h_cell =
            info[InfoTheoreticEstimator::kEntropyIndex * m + c];
        if (!h_cell.present ||
            !BitEqual(h_cell.value, ShannonEntropyBits(counts))) {
          std::fprintf(stderr,
                       "estimator parity FAILED at %zu rows: entropy cell "
                       "vs dictionary recomputation (attr %zu)\n",
                       rows, c);
          estimator_parity_ok = false;
        }
      }

      // Parity: engine-streamed measure columns are bit-identical at 1
      // and 8 threads with the full registry (checked once, at 200k).
      if (rows == 200000) {
        ExperimentConfig cfg;
        cfg.rounds = smoke ? 2 : 4;
        cfg.seed = 20260809;
        cfg.estimators = &registry;
        ExperimentEngine eng(p.encoded, metadata);
        cfg.threads = 1;
        MethodResult r1 =
            std::move(eng.Run(GenerationMethod::kRandom, cfg)).ValueOrDie();
        cfg.threads = 8;
        MethodResult r8 =
            std::move(eng.Run(GenerationMethod::kRandom, cfg)).ValueOrDie();
        if (!MeasuresBitIdentical(r1.measures, r8.measures)) {
          std::fprintf(stderr,
                       "estimator parity FAILED at %zu rows: engine "
                       "measures 1 vs 8 threads\n",
                       rows);
          estimator_parity_ok = false;
        }
      }

      // Analytical tolerance bands: the closed-form models the paper's
      // Section III builds on, checked against the empirical estimator
      // output on the Zipf fixture.
      constexpr double kLn2 = 0.6931471805599453;
      const double n = static_cast<double>(rows);
      auto band_fail = [&](size_t c, const char* what, double got,
                           double want, double tol) {
        std::fprintf(stderr,
                     "analytical band FAILED at %zu rows, attr %zu: %s = "
                     "%g vs %g (tol %g)\n",
                     rows, c, what, got, want, tol);
        bands_ok = false;
      };
      for (size_t c = 0; c < m; ++c) {
        const Domain& dom = *metadata.domains[c];
        const size_t compared =
            rows - p.encoded.dictionary(c).null_count();
        double bias_mi, h_syn_cap;
        if (dom.is_categorical()) {
          // Generated marginal is uniform over |D| values: its empirical
          // entropy sits below log2|D| by the plug-in (Miller-Madow)
          // bias, (|D|-1)/(2N ln 2) bits to first order.
          const double K = static_cast<double>(dom.values().size());
          std::vector<uint32_t> counts(dom.values().size() + 1, 0);
          HistogramCodes(p.pool[0].code_view(c), counts.data());
          const double h_syn =
              ShannonEntropyBits(counts.data(), counts.size());
          const double bias_h = (K - 1.0) / (2.0 * n * kLn2);
          const double gap = std::log2(K) - h_syn;
          if (gap < -1e-9 || gap > 3.0 * bias_h + 0.1) {
            band_fail(c, "uniform-generation entropy gap", gap, 0.0,
                      3.0 * bias_h + 0.1);
          }
          const double k_real =
              static_cast<double>(p.encoded.dictionary(c).num_codes() - 1);
          bias_mi = (k_real - 1.0) * (K - 1.0) / (2.0 * n * kLn2);
          h_syn_cap = h_syn;
        } else {
          // Real-stored columns bin both sides into kMiBins cells.
          const double bins =
              static_cast<double>(InfoTheoreticEstimator::kMiBins);
          bias_mi = (bins - 1.0) * (bins - 1.0) / (2.0 * n * kLn2);
          h_syn_cap = std::log2(bins);
        }
        // Real and generated columns are independent, so the true MI is
        // 0 and the plug-in estimate concentrates at its bias. When the
        // joint table outgrows the sample the bias bound is vacuous and
        // the information inequality MI <= min(H) takes over.
        const double h_real =
            info[InfoTheoreticEstimator::kEntropyIndex * m + c].value;
        const double mi =
            info[InfoTheoreticEstimator::kMiIndex * m + c].value;
        const double mi_band = std::min(3.0 * bias_mi + 0.01,
                                        std::min(h_real, h_syn_cap) + 1e-6);
        if (mi < -1e-9 || mi > mi_band) {
          band_fail(c, "independence MI", mi, 0.0, mi_band);
        }
        // Def 2.2/2.3 expected matches vs the streamed scan mean.
        const double expected =
            dom.is_categorical()
                ? ExpectedRandomCategoricalMatches(compared, dom)
                : ExpectedRandomContinuousMatches(
                      compared, dom, LeakageOptions().epsilon_fraction *
                                         dom.range());
        const double measured =
            static_cast<double>(narrow.totals[c].matches) /
            static_cast<double>(scale.scan_rounds);
        const double tol = std::max(5.0 * std::sqrt(expected + 1.0),
                                    0.35 * expected + 3.0);
        if (std::abs(measured - expected) > tol) {
          band_fail(c, "Def 2.2/2.3 matches", measured, expected, tol);
        }
        // NN linkage: a uniform batch of N values over the domain leaves
        // almost no real value outside every epsilon ball, and the
        // aligned draw is the true nearest neighbor only ~once.
        if (dom.is_continuous()) {
          const RiskMeasureCell& eps_cell =
              nn[NnLinkageEstimator::kEpsMatchesIndex * m + c];
          const RiskMeasureCell& top1_cell =
              nn[NnLinkageEstimator::kTop1HitsIndex * m + c];
          if (!eps_cell.present ||
              eps_cell.value < 0.99 * static_cast<double>(compared)) {
            band_fail(c, "NN epsilon-ball rate",
                      eps_cell.value / static_cast<double>(compared), 1.0,
                      0.01);
          }
          if (!top1_cell.present || top1_cell.value > 64.0) {
            band_fail(c, "NN top-1 hits", top1_cell.value, 1.0, 64.0);
          }
        }
      }
    }
  }

  char encode_ratio[32];
  std::snprintf(encode_ratio, sizeof(encode_ratio), "%.2f",
                encode_rows_per_sec_200k / encode_rows_per_sec_1m);
  std::ofstream json("BENCH_scale.json");
  json << "{\n  " << BenchMetadataJson()
       << ",\n  \"width_parity\": \""
       << (width_parity_ok ? "ok" : "MISMATCH")
       << "\",\n  \"thread_parity\": \""
       << (thread_parity_ok ? "ok" : "MISMATCH")
       << "\",\n  \"narrow_leakage_scan_speedup_200k\": " << scan_speedup_200k
       << ",\n  \"narrow_leakage_scan_speedup_500k\": " << scan_speedup_500k
       << ",\n  \"narrow_leakage_scan_speedup_1m\": " << scan_speedup_1m
       << ",\n  \"encode_rows_per_s_ratio_200k_over_1m\": " << encode_ratio
       << ",\n  \"benchmarks\": [\n";
  for (size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    json << "    {\"op\": \"" << r.op << "\", \"width\": \"" << r.width
         << "\", \"rows\": " << r.rows << ", \"ms\": " << r.ms
         << ", \"rows_per_sec\": " << r.rows_per_sec << "}"
         << (i + 1 < records.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf(
      "wrote BENCH_scale.json (%zu records, narrow scan speedup 500k "
      "%.2fx, 1M %.2fx, encode rows/s 200k over 1M %s)\n",
      records.size(), scan_speedup_500k, scan_speedup_1m, encode_ratio);

  // Histogram-estimator floor: the info-theoretic pass must stay within
  // an order of magnitude of the fused scan. Every joint, the fixture's
  // two >= 200k-cardinality columns included, goes through the linear
  // ordered joint-count kernel, measured at 2.2M-3.6M rows/sec at 500k
  // rows on a shared 4-vCPU x86-64 host (the per-pair hash-map joint it
  // replaced ran 0.48M); the floor sits at about half the lower reading,
  // so a return of the slow path fails here.
  const double kInfoFloor500k = 1.0e6;
  const bool floor_ok = info_rows_per_sec_500k >= kInfoFloor500k;
  if (!floor_ok) {
    std::fprintf(stderr,
                 "info-theoretic estimator FLOOR failed at 500k rows: "
                 "%.0f rows/sec < %.0f\n",
                 info_rows_per_sec_500k, kInfoFloor500k);
  }
  // NN-linkage floor at the 1M-row reference size: one radix sort of
  // the generated values and one merge walk per continuous attribute.
  // The per-row binary search it replaced ran 1.12M-1.39M rows/sec on a
  // shared 4-vCPU x86-64 host; the merge walk measured 3.8M-4.0M on the
  // same host (smoke and full configs), and the floor sits at about half
  // the lower reading, so a return of the per-row search fails here.
  const double kNnFloor1m = 1.9e6;
  const bool nn_floor_ok = nn_rows_per_sec_1m >= kNnFloor1m;
  if (!nn_floor_ok) {
    std::fprintf(stderr,
                 "NN-linkage estimator FLOOR failed at 1M rows: "
                 "%.0f rows/sec < %.0f\n",
                 nn_rows_per_sec_1m, kNnFloor1m);
  }
  std::ofstream leak_json("BENCH_leakage.json");
  leak_json << "{\n  " << BenchMetadataJson()
            << ",\n  \"estimator_parity\": \""
            << (estimator_parity_ok ? "ok" : "MISMATCH")
            << "\",\n  \"analytical_bands\": \""
            << (bands_ok ? "ok" : "OUT_OF_BAND")
            << "\",\n  \"hist_estimator_floor_500k\": \""
            << (floor_ok ? "ok" : "LOW")
            << "\",\n  \"nn_linkage_floor_1m\": \""
            << (nn_floor_ok ? "ok" : "LOW")
            << "\",\n  \"info_theoretic_rows_per_sec_500k\": "
            << info_rows_per_sec_500k
            << ",\n  \"info_theoretic_rows_per_sec_1m\": "
            << info_rows_per_sec_1m
            << ",\n  \"nn_linkage_rows_per_sec_1m\": " << nn_rows_per_sec_1m
            << ",\n  \"benchmarks\": [\n";
  for (size_t i = 0; i < est_records.size(); ++i) {
    const BenchRecord& r = est_records[i];
    leak_json << "    {\"op\": \"" << r.op << "\", \"width\": \"" << r.width
              << "\", \"rows\": " << r.rows << ", \"ms\": " << r.ms
              << ", \"rows_per_sec\": " << r.rows_per_sec << "}"
              << (i + 1 < est_records.size() ? "," : "") << "\n";
  }
  leak_json << "  ]\n}\n";
  std::printf(
      "wrote BENCH_leakage.json (%zu records, parity %s, bands %s, "
      "info-theoretic 500k %.2fM rows/sec, NN-linkage 1M %.2fM rows/sec)\n",
      est_records.size(), estimator_parity_ok ? "ok" : "MISMATCH",
      bands_ok ? "ok" : "OUT_OF_BAND", info_rows_per_sec_500k / 1e6,
      nn_rows_per_sec_1m / 1e6);
  return (width_parity_ok && thread_parity_ok && estimator_parity_ok &&
          bands_ok && floor_ok && nn_floor_ok)
             ? 0
             : 1;
}

}  // namespace
}  // namespace metaleak

int main() { return metaleak::Main(); }
