// Attack-pipeline bench: the experiment runner's two ways of scoring a
// round, end to end at 10k-200k rows. Every round generates on the code
// path (GenerateEncoded into an EncodedBatch arena). The "code" axis
// scores it with the fused leakage scan over translated codes; the
// "value" axis (ExperimentConfig::use_value_path) times the decoded
// round: the same generation, then MaterializeRelation and
// EvaluateLeakage on the boxed relation.
//
// Before timing anything the bench asserts the two axes produce
// bit-identical experiment results (same per-round seeds, means,
// stddevs, MSEs); any disagreement exits non-zero. The generated batches
// themselves are held to the boxed-Value generator of tests/reference/
// by tests/generation_oracle_test.cc. Results go to
// BENCH_generation.json, including the fused-scan speedup over the
// decoded round at each row count ("codepath_speedup_50k" is the 50k-row
// entry). Three records time one generator class alone: GenerateEncoded
// rounds on a plan that keeps only that class's dependencies, one
// thread. nd_plan_zipf_100k runs the
// ND-only plan of SyntheticZipfScale(100000, 21), the package the
// deps_audit_100k workload profiles; dd_plan_50k and fd_plan_50k run the
// DD-only and FD-only plans of the 50k-row planted fixture. Two more,
// rng_draws and rng_draws_std, time 10M mixed UniformIndex(16) /
// UniformDouble draws through Rng and through std::mt19937_64 with the
// standard distributions, the oracle Rng reproduces; "rng_parity" is "ok"
// only when the two streams are equal, and the bench exits non-zero
// otherwise.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/simd.h"
#include "data/datasets/synthetic.h"
#include "data/domain.h"
#include "data/encoded_batch.h"
#include "data/encoded_relation.h"
#include "discovery/discovery_engine.h"
#include "generation/generation_engine.h"
#include "privacy/experiment.h"
#include "privacy/leakage.h"

namespace metaleak {
namespace {

struct Fixture {
  Relation real;
  MetadataPackage metadata;
};

// One planted-structure relation per row count: a categorical base, a
// continuous base, a monotone derivation (FD + OD) and a bounded-fanout
// derivation (ND), so every timed method generates through a real
// dependency.
Fixture MakeFixture(size_t rows) {
  datasets::SyntheticConfig config;
  config.num_rows = rows;
  config.seed = 7;
  datasets::SyntheticAttribute a;
  a.name = "a";
  a.kind = datasets::SyntheticAttribute::Kind::kCategoricalBase;
  a.domain_size = 16;
  datasets::SyntheticAttribute b;
  b.name = "b";
  b.kind = datasets::SyntheticAttribute::Kind::kContinuousBase;
  b.lo = 0;
  b.hi = 1000;
  datasets::SyntheticAttribute c;
  c.name = "c";
  c.kind = datasets::SyntheticAttribute::Kind::kDerivedMonotone;
  c.source = 1;
  c.domain_size = 0;
  datasets::SyntheticAttribute d;
  d.name = "d";
  d.kind = datasets::SyntheticAttribute::Kind::kDerivedBoundedFanout;
  d.source = 0;
  d.domain_size = 24;
  d.fanout = 3;
  config.attributes = {a, b, c, d};

  Fixture fixture{std::move(datasets::Synthetic(config)).ValueOrDie(), {}};
  fixture.metadata =
      std::move(ProfileRelation(fixture.real, DiscoveryOptions{}))
          .ValueOrDie()
          .metadata;
  return fixture;
}

const std::vector<GenerationMethod> kMethods = {
    GenerationMethod::kRandom,
    GenerationMethod::kFd,
    GenerationMethod::kNd,
    GenerationMethod::kOd,
};

bool BitIdentical(const std::vector<MethodResult>& a,
                  const std::vector<MethodResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t m = 0; m < a.size(); ++m) {
    if (a[m].round_seeds != b[m].round_seeds) return false;
    if (a[m].attributes.size() != b[m].attributes.size()) return false;
    for (size_t c = 0; c < a[m].attributes.size(); ++c) {
      const MethodAttributeResult& x = a[m].attributes[c];
      const MethodAttributeResult& y = b[m].attributes[c];
      if (x.mean_matches != y.mean_matches ||
          x.stddev_matches != y.stddev_matches ||
          x.covered != y.covered ||
          x.mean_mse.has_value() != y.mean_mse.has_value()) {
        return false;
      }
      if (x.mean_mse.has_value() && *x.mean_mse != *y.mean_mse) {
        return false;
      }
    }
  }
  return true;
}

struct BenchRecord {
  std::string path;
  size_t rows = 0;
  size_t rounds = 0;
  double ms = 0.0;
  double rounds_per_sec = 0.0;
  double rows_per_sec = 0.0;
  double ns_per_draw = 0.0;  // the RNG records only
};

// Times the fused Def 2.2/2.3 leakage scan (EncodedLeakageContext::
// Evaluate) over pre-generated batches, with the kernels forced to
// scalar and to the best supported level. Returns {scalar_ms, simd_ms}
// and reports bitwise parity of the accumulated per-attribute stats.
struct LeakageScanAxis {
  double scalar_ms = 0.0;
  double simd_ms = 0.0;
  bool parity_ok = true;
};

LeakageScanAxis TimeLeakageScan(const Fixture& fixture, size_t rounds) {
  LeakageScanAxis axis;
  const size_t n = fixture.real.num_rows();
  EncodedRelation encoded = EncodedRelation::Encode(fixture.real);
  GenerationContext gen =
      std::move(GenerationContext::Build(fixture.metadata)).ValueOrDie();
  EncodedLeakageContext ctx =
      std::move(EncodedLeakageContext::Build(encoded, gen.schema(),
                                             gen.domains(), {}))
          .ValueOrDie();

  // Pre-generate a small pool of batches and cycle through it, so the
  // timed loop is the scan alone, not the generator.
  constexpr size_t kPool = 8;
  std::vector<EncodedBatch> pool(kPool);
  Rng rng(11);
  for (EncodedBatch& batch : pool) {
    Rng round_rng = rng.Fork();
    if (!GenerateEncoded(gen, n, &round_rng, &batch).ok()) std::abort();
  }

  const size_t m = ctx.num_attributes();
  std::vector<AttributeRoundStats> stats(m);
  auto run = [&](double* ms) {
    // Accumulated totals over every round, for the parity check.
    std::vector<AttributeRoundStats> total(m);
    auto start = std::chrono::steady_clock::now();
    for (size_t round = 0; round < rounds; ++round) {
      if (!ctx.Evaluate(pool[round % kPool], stats.data()).ok()) {
        std::abort();
      }
      for (size_t c = 0; c < m; ++c) {
        total[c].matches += stats[c].matches;
        total[c].mse += stats[c].mse;
        total[c].has_mse = stats[c].has_mse;
      }
    }
    auto stop = std::chrono::steady_clock::now();
    *ms = std::chrono::duration<double, std::milli>(stop - start).count();
    return total;
  };

  SetSimdLevelOverride(SimdLevel::kScalar);
  const std::vector<AttributeRoundStats> scalar_total = run(&axis.scalar_ms);
  SetSimdLevelOverride(SupportedSimdLevel());
  const std::vector<AttributeRoundStats> simd_total = run(&axis.simd_ms);
  ClearSimdLevelOverride();

  for (size_t c = 0; c < m; ++c) {
    // Bitwise double comparison: the kernels promise byte-identical
    // accumulation, not just approximate agreement.
    uint64_t a, b;
    std::memcpy(&a, &scalar_total[c].mse, sizeof(a));
    std::memcpy(&b, &simd_total[c].mse, sizeof(b));
    if (scalar_total[c].matches != simd_total[c].matches || a != b ||
        scalar_total[c].has_mse != simd_total[c].has_mse) {
      axis.parity_ok = false;
    }
  }
  return axis;
}

// Times `draws` mixed draws, UniformIndex(16) then UniformDouble(0, 1000),
// through Rng and through its standard-library oracle. Each side records
// its outputs (a double as its bits) into a block; the blocks are
// compared off the clock.
struct RngDrawAxis {
  double rng_ms = 0.0;
  double std_ms = 0.0;
  bool parity_ok = true;
};

RngDrawAxis TimeRngDraws(size_t draws) {
  constexpr size_t kBlock = size_t{1} << 16;
  std::vector<uint64_t> lib(kBlock);
  std::vector<uint64_t> oracle(kBlock);
  Rng rng(21);
  std::mt19937_64 engine(21);
  std::uniform_int_distribution<size_t> index(0, 15);
  std::uniform_real_distribution<double> real(0.0, 1000.0);
  RngDrawAxis axis;
  auto ms_since = [](std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  for (size_t done = 0; done < draws; done += kBlock) {
    const size_t n = std::min(kBlock, draws - done) & ~size_t{1};
    auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < n; i += 2) {
      lib[i] = rng.UniformIndex(16);
      lib[i + 1] = std::bit_cast<uint64_t>(rng.UniformDouble(0.0, 1000.0));
    }
    axis.rng_ms += ms_since(start);
    start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < n; i += 2) {
      oracle[i] = index(engine);
      oracle[i + 1] = std::bit_cast<uint64_t>(real(engine));
    }
    axis.std_ms += ms_since(start);
    if (!std::equal(lib.begin(), lib.begin() + n, oracle.begin())) {
      axis.parity_ok = false;
    }
  }
  return axis;
}

// Times `rounds` GenerateEncoded calls of `rows` rows on the plan of
// `metadata` that keeps only dependencies of `kind`. Exits if that plan
// generates no column through such a dependency.
BenchRecord TimePlan(const char* path, const MetadataPackage& metadata,
                     DependencyKind kind, size_t rows, size_t rounds) {
  GenerationOptions options;
  options.allowed_kinds = {kind};
  GenerationContext gen =
      std::move(GenerationContext::Build(metadata, options)).ValueOrDie();
  const bool drives = std::any_of(
      gen.plan().steps().begin(), gen.plan().steps().end(),
      [](const GenerationStep& step) { return step.via.has_value(); });
  if (!gen.encodable() || !drives) {
    std::fprintf(stderr, "%s: no encodable plan step of its class\n", path);
    std::exit(1);
  }

  EncodedBatch batch;
  Rng rng(21);
  auto start = std::chrono::steady_clock::now();
  for (size_t round = 0; round < rounds; ++round) {
    Rng round_rng = rng.Fork();
    if (!GenerateEncoded(gen, rows, &round_rng, &batch).ok()) std::abort();
  }
  auto stop = std::chrono::steady_clock::now();
  BenchRecord r;
  r.path = path;
  r.rows = rows;
  r.rounds = rounds;
  r.ms = std::chrono::duration<double, std::milli>(stop - start).count();
  r.rounds_per_sec = static_cast<double>(rounds) / (r.ms / 1000.0);
  r.rows_per_sec =
      static_cast<double>(rounds * rows) / (r.ms / 1000.0);
  return r;
}

int Main() {
  struct Size {
    size_t rows;
    size_t rounds;
  };
  const std::vector<Size> kSizes = {{10000, 60}, {50000, 100}, {200000, 20}};
  std::vector<BenchRecord> records;
  double speedup_50k = 0.0;
  double simd_scan_50k = 0.0;
  bool simd_parity_ok = true;

  constexpr size_t kRngDraws = 10000000;
  const RngDrawAxis draws = TimeRngDraws(kRngDraws);
  if (!draws.parity_ok) {
    std::fprintf(stderr, "RNG parity FAILED: Rng and its std oracle drew "
                         "different streams\n");
  }
  for (auto [path, ms] : {std::pair{"rng_draws", draws.rng_ms},
                          std::pair{"rng_draws_std", draws.std_ms}}) {
    BenchRecord r;
    r.path = path;
    r.rows = kRngDraws;
    r.rounds = 1;
    r.ms = ms;
    r.rounds_per_sec = 1000.0 / ms;
    r.rows_per_sec = static_cast<double>(kRngDraws) / (ms / 1000.0);
    r.ns_per_draw = ms * 1e6 / static_cast<double>(kRngDraws);
    records.push_back(std::move(r));
  }
  std::printf("RNG, %zu mixed draws: Rng %.2f ns | std %.2f ns a draw "
              "(%.2fx)\n\n",
              kRngDraws, records[0].ns_per_draw, records[1].ns_per_draw,
              draws.std_ms / draws.rng_ms);

  for (const Size& size : kSizes) {
    Fixture fixture = MakeFixture(size.rows);
    std::printf("dataset: planted synthetic, %zu rows x %zu attrs\n",
                fixture.real.num_rows(), fixture.real.num_columns());

    // Every method must generate: a package the code path cannot draw
    // would fail both axes alike.
    auto ctx = GenerationContext::Build(fixture.metadata);
    if (!ctx.ok() || !ctx->encodable()) {
      std::fprintf(stderr, "bench fixture is not encodable\n");
      return 1;
    }

    ExperimentEngine engine(fixture.real, fixture.metadata);
    ExperimentConfig config;
    config.rounds = size.rounds;
    config.threads = 1;

    auto time_sweep = [&](bool value_path, double* ms)
        -> Result<std::vector<MethodResult>> {
      config.use_value_path = value_path;
      auto start = std::chrono::steady_clock::now();
      auto result = engine.RunAll(kMethods, config);
      auto stop = std::chrono::steady_clock::now();
      *ms = std::chrono::duration<double, std::milli>(stop - start).count();
      return result;
    };

    double code_ms = 0.0;
    double value_ms = 0.0;
    auto code = time_sweep(false, &code_ms);
    auto value = time_sweep(true, &value_ms);
    if (!code.ok() || !value.ok()) {
      std::fprintf(stderr, "experiment failed\n");
      return 1;
    }
    if (!BitIdentical(*code, *value)) {
      std::fprintf(stderr, "parity FAILED at %zu rows: the fused scan and "
                           "the decoded round disagree\n",
                   size.rows);
      return 1;
    }

    const double total_rounds =
        static_cast<double>(size.rounds * kMethods.size());
    auto record = [&](const char* path, double ms) {
      BenchRecord r;
      r.path = path;
      r.rows = size.rows;
      r.rounds = size.rounds;
      r.ms = ms;
      r.rounds_per_sec = total_rounds / (ms / 1000.0);
      r.rows_per_sec =
          total_rounds * static_cast<double>(size.rows) / (ms / 1000.0);
      records.push_back(std::move(r));
    };
    record("code", code_ms);
    record("value", value_ms);

    const double speedup = value_ms / code_ms;
    if (size.rows == 50000) speedup_50k = speedup;
    std::printf(
        "  %zu rounds x %zu methods  value %8.1f ms | code %8.1f ms  "
        "(%.2fx)\n",
        size.rounds, kMethods.size(), value_ms, code_ms, speedup);

    // --- SIMD axis: the fused leakage scan, scalar vs dispatched ------
    const LeakageScanAxis scan = TimeLeakageScan(fixture, 100);
    if (!scan.parity_ok) {
      std::fprintf(stderr,
                   "SIMD parity FAILED at %zu rows: leakage scan\n",
                   size.rows);
      simd_parity_ok = false;
    }
    const double scan_speedup = scan.scalar_ms / scan.simd_ms;
    if (size.rows == 50000) simd_scan_50k = scan_speedup;
    std::printf(
        "  leakage scan x100       scalar %7.1f ms | simd %7.1f ms  "
        "(%.2fx)\n\n",
        scan.scalar_ms, scan.simd_ms, scan_speedup);
    auto scan_record = [&](const char* path, double ms) {
      BenchRecord r;
      r.path = path;
      r.rows = size.rows;
      r.rounds = 100;
      r.ms = ms;
      r.rounds_per_sec = 100.0 / (ms / 1000.0);
      r.rows_per_sec =
          100.0 * static_cast<double>(size.rows) / (ms / 1000.0);
      records.push_back(std::move(r));
    };
    scan_record("leakage_scan_scalar", scan.scalar_ms);
    scan_record("leakage_scan_simd", scan.simd_ms);
  }

  {
    Relation zipf = std::move(datasets::SyntheticZipfScale(100000, 21))
                        .ValueOrDie();
    const MetadataPackage zipf_metadata =
        std::move(ProfileRelation(zipf, DiscoveryOptions{}))
            .ValueOrDie()
            .metadata;
    const Fixture planted = MakeFixture(50000);
    for (const BenchRecord& r :
         {TimePlan("nd_plan_zipf_100k", zipf_metadata,
                   DependencyKind::kNumerical, 100000, 10),
          TimePlan("dd_plan_50k", planted.metadata,
                   DependencyKind::kDifferential, 50000, 100),
          TimePlan("fd_plan_50k", planted.metadata,
                   DependencyKind::kFunctional, 50000, 100)}) {
      std::printf("%s x %zu rounds: %.1f ms (%.2f ms/round)\n",
                  r.path.c_str(), r.rounds, r.ms,
                  r.ms / static_cast<double>(r.rounds));
      records.push_back(r);
    }
  }

  std::ofstream json("BENCH_generation.json");
  json << "{\n  " << BenchMetadataJson()
       << ",\n  \"codepath_speedup_50k\": " << speedup_50k
       << ",\n  \"simd_parity\": \""
       << (simd_parity_ok ? "ok" : "MISMATCH")
       << "\",\n  \"simd_leakage_scan_speedup_50k\": " << simd_scan_50k
       << ",\n  \"rng_parity\": \""
       << (draws.parity_ok ? "ok" : "MISMATCH")
       << "\",\n  \"benchmarks\": [\n";
  for (size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    json << "    {\"path\": \"" << r.path << "\", \"rows\": " << r.rows
         << ", \"rounds\": " << r.rounds << ", \"ms\": " << r.ms
         << ", \"rounds_per_sec\": " << r.rounds_per_sec
         << ", \"rows_per_sec\": " << r.rows_per_sec;
    if (r.ns_per_draw > 0.0) json << ", \"ns_per_draw\": " << r.ns_per_draw;
    json << "}"
         << (i + 1 < records.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("wrote BENCH_generation.json (%zu records, 50k speedup "
              "%.2fx, 50k simd scan %.2fx)\n",
              records.size(), speedup_50k, simd_scan_50k);
  return simd_parity_ok && draws.parity_ok ? 0 : 1;
}

}  // namespace
}  // namespace metaleak

int main() { return metaleak::Main(); }
