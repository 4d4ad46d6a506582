// Agreement suite for the flat CSR partition layout.
//
// Reimplements the pre-CSR nested-vector partition engine (the exact
// algorithms: ascending-code cluster order, first-occurrence intersect
// ordering, small-side probe pick) and asserts the CSR engine produces
// byte-identical clusters, probe tables, G3Error and MaxFanout on the
// employee, echocardiogram, and planted-dependency synthetic datasets,
// at thread counts 1 and 8. Any divergence here means the layout change
// altered observable results, not just performance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/parallel.h"
#include "data/datasets/echocardiogram.h"
#include "data/datasets/employee.h"
#include "data/datasets/synthetic.h"
#include "data/encoded_relation.h"
#include "partition/position_list_index.h"

namespace metaleak {
namespace {

// --- Legacy nested-vector reference engine -----------------------------------

constexpr int64_t kLegacyUnique = -1;

struct LegacyPli {
  std::vector<std::vector<size_t>> clusters;
  size_t num_rows = 0;

  size_t stripped_rows() const {
    size_t total = 0;
    for (const auto& c : clusters) total += c.size();
    return total;
  }

  std::vector<int64_t> ProbeTable() const {
    std::vector<int64_t> probe(num_rows, kLegacyUnique);
    for (size_t c = 0; c < clusters.size(); ++c) {
      for (size_t row : clusters[c]) probe[row] = static_cast<int64_t>(c);
    }
    return probe;
  }
};

LegacyPli LegacyFromCodes(const std::vector<uint32_t>& codes,
                          uint32_t num_codes) {
  LegacyPli out;
  out.num_rows = codes.size();
  std::vector<uint32_t> counts(num_codes, 0);
  for (uint32_t code : codes) ++counts[code];
  std::vector<uint32_t> slot(num_codes, UINT32_MAX);
  uint32_t next_slot = 0;
  for (uint32_t code = 0; code < num_codes; ++code) {
    if (counts[code] >= 2) slot[code] = next_slot++;
  }
  out.clusters.resize(next_slot);
  for (size_t r = 0; r < codes.size(); ++r) {
    uint32_t s = slot[codes[r]];
    if (s != UINT32_MAX) out.clusters[s].push_back(r);
  }
  return out;
}

LegacyPli LegacyFromEncoded(const EncodedRelation& relation,
                            const std::vector<size_t>& columns) {
  if (columns.size() == 1) {
    return LegacyFromCodes(relation.column(columns[0]).ToU32(),
                           relation.dictionary(columns[0]).num_codes());
  }
  const size_t n = relation.num_rows();
  const std::vector<uint32_t> first = relation.column(columns[0]).ToU32();
  std::vector<uint64_t> ids(first.begin(), first.end());
  uint64_t num_groups = relation.dictionary(columns[0]).num_codes();
  std::unordered_map<uint64_t, uint64_t> remap;
  for (size_t i = 1; i < columns.size(); ++i) {
    const std::vector<uint32_t> codes = relation.column(columns[i]).ToU32();
    const uint64_t nc = relation.dictionary(columns[i]).num_codes();
    remap.clear();
    for (size_t r = 0; r < n; ++r) {
      uint64_t key = ids[r] * nc + codes[r];
      auto it = remap.emplace(key, remap.size()).first;
      ids[r] = it->second;
    }
    num_groups = remap.size();
  }
  LegacyPli out;
  out.num_rows = n;
  std::vector<uint32_t> counts(num_groups, 0);
  for (uint64_t id : ids) ++counts[id];
  std::vector<uint32_t> slot(num_groups, UINT32_MAX);
  uint32_t next_slot = 0;
  for (uint64_t g = 0; g < num_groups; ++g) {
    if (counts[g] >= 2) slot[g] = next_slot++;
  }
  out.clusters.resize(next_slot);
  for (size_t r = 0; r < n; ++r) {
    uint32_t s = slot[ids[r]];
    if (s != UINT32_MAX) out.clusters[s].push_back(r);
  }
  return out;
}

// Mirrors PositionListIndex::Intersect: iterate the operand with fewer
// stripped rows, probe the other, emit subclusters in first-occurrence
// order of the probe class.
LegacyPli LegacyIntersect(const LegacyPli& a, const LegacyPli& b) {
  const bool b_smaller = b.stripped_rows() < a.stripped_rows();
  const LegacyPli& iter = b_smaller ? b : a;
  const LegacyPli& probe_side = b_smaller ? a : b;
  std::vector<int64_t> probe = probe_side.ProbeTable();
  LegacyPli out;
  out.num_rows = a.num_rows;
  std::unordered_map<int64_t, std::vector<size_t>> split;
  std::vector<int64_t> touched;
  for (const auto& cluster : iter.clusters) {
    split.clear();
    touched.clear();
    for (size_t row : cluster) {
      int64_t id = probe[row];
      if (id == kLegacyUnique) continue;
      auto [it, inserted] = split.try_emplace(id);
      if (inserted) touched.push_back(id);
      it->second.push_back(row);
    }
    for (int64_t id : touched) {
      if (split[id].size() >= 2) out.clusters.push_back(std::move(split[id]));
    }
  }
  return out;
}

double LegacyG3Error(const LegacyPli& x, const LegacyPli& y) {
  if (x.num_rows == 0) return 0.0;
  std::vector<int64_t> probe = y.ProbeTable();
  size_t violations = 0;
  std::unordered_map<int64_t, size_t> counts;
  for (const auto& cluster : x.clusters) {
    counts.clear();
    size_t unique_rows = 0;
    size_t max_count = 0;
    for (size_t row : cluster) {
      int64_t id = probe[row];
      if (id == kLegacyUnique) {
        ++unique_rows;
        continue;
      }
      size_t c = ++counts[id];
      if (c > max_count) max_count = c;
    }
    if (unique_rows > 0 && max_count == 0) max_count = 1;
    violations += cluster.size() - max_count;
  }
  return static_cast<double>(violations) / static_cast<double>(x.num_rows);
}

size_t LegacyMaxFanout(const LegacyPli& x, const LegacyPli& y) {
  std::vector<int64_t> probe = y.ProbeTable();
  size_t max_fanout = x.num_rows > 0 ? 1 : 0;
  std::unordered_map<int64_t, size_t> seen;
  for (const auto& cluster : x.clusters) {
    seen.clear();
    size_t distinct = 0;
    for (size_t row : cluster) {
      int64_t id = probe[row];
      if (id == kLegacyUnique) {
        ++distinct;
      } else if (++seen[id] == 1) {
        ++distinct;
      }
    }
    if (distinct > max_fanout) max_fanout = distinct;
  }
  return max_fanout;
}

// --- Fixtures ----------------------------------------------------------------

Relation PlantedSynthetic() {
  datasets::SyntheticConfig cfg;
  cfg.num_rows = 300;
  cfg.seed = 11;
  using Kind = datasets::SyntheticAttribute::Kind;
  cfg.attributes = {
      {.name = "cat", .kind = Kind::kCategoricalBase, .domain_size = 6},
      {.name = "cont", .kind = Kind::kContinuousBase, .lo = 0, .hi = 100},
      {.name = "mono", .kind = Kind::kDerivedMonotone, .domain_size = 0,
       .source = 1},
      {.name = "pool", .kind = Kind::kDerivedBoundedFanout, .domain_size = 8,
       .source = 0, .fanout = 2},
      {.name = "near", .kind = Kind::kDerivedApproximate, .domain_size = 6,
       .source = 0, .violation_rate = 0.05},
  };
  return std::move(datasets::Synthetic(cfg)).ValueOrDie();
}

void ExpectSamePartition(const LegacyPli& legacy,
                         const PositionListIndex& csr) {
  ASSERT_EQ(legacy.num_rows, csr.num_rows());
  ASSERT_EQ(legacy.clusters.size(), csr.num_clusters());
  EXPECT_EQ(legacy.stripped_rows(), csr.num_stripped_rows());
  // Byte-identical cluster contents in identical order.
  EXPECT_EQ(legacy.clusters, csr.ToNestedClusters());
  // Byte-identical probe tables (modulo the int64 -> int32 narrowing).
  std::vector<int64_t> legacy_probe = legacy.ProbeTable();
  const std::vector<int32_t>& csr_probe = csr.probe_table();
  ASSERT_EQ(legacy_probe.size(), csr_probe.size());
  for (size_t r = 0; r < legacy_probe.size(); ++r) {
    EXPECT_EQ(legacy_probe[r], static_cast<int64_t>(csr_probe[r]))
        << "probe mismatch at row " << r;
  }
}

// Thread-count parameterized: every comparison must hold at pool sizes 1
// and 8. The partition kernels are serial loops, so the pool size must
// not reach their results.
class CsrAgreementTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override { SetGlobalThreadCount(GetParam()); }
  void TearDown() override { SetGlobalThreadCount(0); }
};

TEST_P(CsrAgreementTest, AgreesOnAllDatasets) {
  const std::vector<Relation> datasets = {
      datasets::Employee(), datasets::Echocardiogram(), PlantedSynthetic()};
  for (const Relation& rel : datasets) {
    EncodedRelation encoded = EncodedRelation::Encode(rel);
    const size_t m = encoded.num_columns();

    // Single-column partitions.
    std::vector<LegacyPli> legacy_singles;
    std::vector<PositionListIndex> csr_singles;
    for (size_t c = 0; c < m; ++c) {
      legacy_singles.push_back(LegacyFromEncoded(encoded, {c}));
      csr_singles.push_back(PositionListIndex::FromEncoded(encoded, {c}));
      ExpectSamePartition(legacy_singles.back(), csr_singles.back());
    }

    // Pairwise: direct two-column builds, intersections, and the scalar
    // kernels both engines expose.
    IntersectionScratch scratch;
    for (size_t a = 0; a < m; ++a) {
      for (size_t b = a + 1; b < m; ++b) {
        LegacyPli legacy_direct = LegacyFromEncoded(encoded, {a, b});
        PositionListIndex csr_direct =
            PositionListIndex::FromEncoded(encoded, {a, b});
        ExpectSamePartition(legacy_direct, csr_direct);

        LegacyPli legacy_inter =
            LegacyIntersect(legacy_singles[a], legacy_singles[b]);
        PositionListIndex csr_inter =
            csr_singles[a].Intersect(csr_singles[b], &scratch);
        ExpectSamePartition(legacy_inter, csr_inter);

        EXPECT_EQ(LegacyG3Error(legacy_singles[a], legacy_singles[b]),
                  csr_singles[a].G3Error(csr_singles[b]));
        EXPECT_EQ(LegacyMaxFanout(legacy_singles[a], legacy_singles[b]),
                  csr_singles[a].MaxFanout(csr_singles[b]));
      }
    }

    // A few wider sets exercise the multi-column fold and chained
    // intersections.
    if (m >= 3) {
      std::vector<size_t> triple = {0, 1, 2};
      ExpectSamePartition(LegacyFromEncoded(encoded, triple),
                          PositionListIndex::FromEncoded(encoded, triple));
      LegacyPli legacy_chain = LegacyIntersect(
          LegacyIntersect(legacy_singles[0], legacy_singles[1]),
          legacy_singles[2]);
      PositionListIndex csr_chain = csr_singles[0]
                                        .Intersect(csr_singles[1], &scratch)
                                        .Intersect(csr_singles[2], &scratch);
      ExpectSamePartition(legacy_chain, csr_chain);
    }
  }
}

TEST_P(CsrAgreementTest, ScratchReuseLeavesNoResidue) {
  // One scratch across many interleaved intersections of very different
  // shapes must give the same results as fresh scratch every time.
  EncodedRelation encoded =
      EncodedRelation::Encode(datasets::Echocardiogram());
  const size_t m = encoded.num_columns();
  std::vector<PositionListIndex> singles;
  for (size_t c = 0; c < m; ++c) {
    singles.push_back(PositionListIndex::FromEncoded(encoded, {c}));
  }
  IntersectionScratch reused;
  for (size_t a = 0; a < m; ++a) {
    for (size_t b = 0; b < m; ++b) {
      if (a == b) continue;
      PositionListIndex with_reuse = singles[a].Intersect(singles[b], &reused);
      PositionListIndex fresh = singles[a].Intersect(singles[b]);
      EXPECT_EQ(with_reuse.ToNestedClusters(), fresh.ToNestedClusters());
      EXPECT_EQ(with_reuse.cluster_offsets(), fresh.cluster_offsets());
      EXPECT_EQ(with_reuse.rows(), fresh.rows());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, CsrAgreementTest, ::testing::Values(1, 8));

}  // namespace
}  // namespace metaleak
