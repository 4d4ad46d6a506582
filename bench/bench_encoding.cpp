// Encoding-layer microbenchmarks: legacy Value-path vs dictionary-coded
// PLI construction and G3 computation (google-benchmark). The code path
// is the one every pipeline entry point now uses; the Value path is kept
// for agreement testing, and this bench quantifies the gap (the target
// regime is the 50k-row synthetic dataset, where code-path PLI
// construction should be at least 2x faster).
#include <benchmark/benchmark.h>

#include "data/datasets/synthetic.h"
#include "data/encoded_relation.h"
#include "partition/position_list_index.h"

namespace metaleak {
namespace {

Relation UniformRelation(size_t rows, size_t cats, size_t conts,
                         size_t domain) {
  return std::move(
             datasets::SyntheticUniform(rows, cats, conts, domain, 1234))
      .ValueOrDie();
}

// --- One-time encoding cost ---------------------------------------------------

void BM_EncodeRelation(benchmark::State& state) {
  Relation rel = UniformRelation(static_cast<size_t>(state.range(0)), 3, 2,
                                 64);
  for (auto _ : state) {
    EncodedRelation encoded = EncodedRelation::Encode(rel);
    benchmark::DoNotOptimize(encoded.Fingerprint());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncodeRelation)->Arg(1000)->Arg(10000)->Arg(50000);

// --- Single-column PLI: Value hashing vs counting over codes ------------------

void BM_PliFromColumnValuePath(benchmark::State& state) {
  Relation rel = UniformRelation(static_cast<size_t>(state.range(0)), 1, 0,
                                 64);
  for (auto _ : state) {
    PositionListIndex pli = PositionListIndex::FromColumn(rel.column(0));
    benchmark::DoNotOptimize(pli.num_clusters());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PliFromColumnValuePath)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_PliFromColumnCodePath(benchmark::State& state) {
  Relation rel = UniformRelation(static_cast<size_t>(state.range(0)), 1, 0,
                                 64);
  EncodedRelation encoded = EncodedRelation::Encode(rel);
  const std::vector<uint32_t> codes = encoded.column(0).ToU32();
  for (auto _ : state) {
    PositionListIndex pli = PositionListIndex::FromCodes(
        codes, encoded.dictionary(0).num_codes());
    benchmark::DoNotOptimize(pli.num_clusters());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PliFromColumnCodePath)->Arg(1000)->Arg(10000)->Arg(50000);

// --- Multi-column PLI: tuple hashing vs code folding --------------------------

void BM_PliFromColumnsValuePath(benchmark::State& state) {
  Relation rel = UniformRelation(static_cast<size_t>(state.range(0)), 3, 0,
                                 16);
  for (auto _ : state) {
    PositionListIndex pli =
        PositionListIndex::FromColumns(rel, {0, 1, 2});
    benchmark::DoNotOptimize(pli.num_clusters());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PliFromColumnsValuePath)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_PliFromColumnsCodePath(benchmark::State& state) {
  Relation rel = UniformRelation(static_cast<size_t>(state.range(0)), 3, 0,
                                 16);
  EncodedRelation encoded = EncodedRelation::Encode(rel);
  for (auto _ : state) {
    PositionListIndex pli =
        PositionListIndex::FromEncoded(encoded, {0, 1, 2});
    benchmark::DoNotOptimize(pli.num_clusters());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PliFromColumnsCodePath)->Arg(1000)->Arg(10000)->Arg(50000);

// --- G3 error on partitions built from each representation --------------------

void BM_G3ValuePath(benchmark::State& state) {
  Relation rel = UniformRelation(static_cast<size_t>(state.range(0)), 2, 0,
                                 16);
  for (auto _ : state) {
    PositionListIndex x = PositionListIndex::FromColumn(rel.column(0));
    PositionListIndex a = PositionListIndex::FromColumn(rel.column(1));
    benchmark::DoNotOptimize(x.G3Error(a));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_G3ValuePath)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_G3CodePath(benchmark::State& state) {
  Relation rel = UniformRelation(static_cast<size_t>(state.range(0)), 2, 0,
                                 16);
  EncodedRelation encoded = EncodedRelation::Encode(rel);
  const std::vector<uint32_t> x_codes = encoded.column(0).ToU32();
  const std::vector<uint32_t> a_codes = encoded.column(1).ToU32();
  for (auto _ : state) {
    PositionListIndex x = PositionListIndex::FromCodes(
        x_codes, encoded.dictionary(0).num_codes());
    PositionListIndex a = PositionListIndex::FromCodes(
        a_codes, encoded.dictionary(1).num_codes());
    benchmark::DoNotOptimize(x.G3Error(a));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_G3CodePath)->Arg(1000)->Arg(10000)->Arg(50000);

}  // namespace
}  // namespace metaleak

BENCHMARK_MAIN();
