// Encoding-layer microbenchmarks (google-benchmark): the one-time
// dictionary encoding, and the PLI construction and G3 computation every
// pipeline entry point runs on its dense codes. The boxed-Value PLI
// builders are test oracles (tests/reference/pli_reference.h) and are not
// timed here.
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

// --- Single-column PLI: counting over codes -----------------------------------

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

// --- Multi-column PLI: code folding -------------------------------------------

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

// --- G3 error on partitions built from codes ----------------------------------

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
