#include "partition/position_list_index.h"

#include <algorithm>

#include "common/flat_id_table.h"
#include "common/macros.h"

namespace metaleak {

namespace {

constexpr uint32_t kNoSlot = UINT32_MAX;

}  // namespace

PositionListIndex::PositionListIndex(std::vector<Row> rows,
                                     std::vector<uint32_t> offsets,
                                     size_t num_rows)
    : rows_(std::move(rows)),
      offsets_(std::move(offsets)),
      num_rows_(num_rows),
      probe_(std::make_shared<ProbeState>()) {
  METALEAK_DCHECK(!offsets_.empty());
  METALEAK_DCHECK(offsets_.front() == 0);
  METALEAK_DCHECK(offsets_.back() == rows_.size());
}

PositionListIndex PositionListIndex::FromCodes(
    const std::vector<uint32_t>& codes, uint32_t num_codes) {
  return FromCodes(CodeColumnView{codes.data(), codes.size(), CodeWidth::kU32},
                   num_codes);
}

PositionListIndex PositionListIndex::FromCodes(const CodeColumnView& codes,
                                               uint32_t num_codes) {
  const size_t n = codes.size;
  METALEAK_DCHECK(n < UINT32_MAX);
#ifndef NDEBUG
  for (size_t r = 0; r < n; ++r) METALEAK_DCHECK(codes.at(r) < num_codes);
#endif
  // Pass 1: occurrences per code, streamed at the column's stored width.
  std::vector<uint32_t> counts(num_codes, 0);
  HistogramCodes(codes, counts.data());
  // Cluster slots for codes occurring >= 2 times (ascending code order);
  // singletons are stripped. The prefix sums become the CSR offsets.
  std::vector<uint32_t> slot(num_codes, kNoSlot);
  std::vector<uint32_t> offsets;
  offsets.push_back(0);
  uint32_t next_slot = 0;
  uint32_t total = 0;
  for (uint32_t code = 0; code < num_codes; ++code) {
    if (counts[code] >= 2) {
      slot[code] = next_slot++;
      total += counts[code];
      offsets.push_back(total);
    }
  }
  // Pass 2: scatter rows into the arena; the ascending row scan keeps each
  // cluster's members in ascending order.
  std::vector<Row> rows(total);
  std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  codes.With([&](const auto* p) {
    for (size_t r = 0; r < n; ++r) {
      const uint32_t s = slot[p[r]];
      if (s != kNoSlot) rows[cursor[s]++] = static_cast<Row>(r);
    }
  });
  return PositionListIndex(std::move(rows), std::move(offsets), n);
}

PositionListIndex PositionListIndex::FromCsrArrays(
    std::vector<Row> rows, std::vector<uint32_t> offsets, size_t num_rows) {
  METALEAK_DCHECK(!offsets.empty() && offsets.front() == 0);
  METALEAK_DCHECK(offsets.back() == rows.size());
#ifndef NDEBUG
  for (size_t c = 0; c + 1 < offsets.size(); ++c) {
    METALEAK_DCHECK(offsets[c + 1] - offsets[c] >= 2);
    for (uint32_t i = offsets[c] + 1; i < offsets[c + 1]; ++i) {
      METALEAK_DCHECK(rows[i - 1] < rows[i]);
    }
  }
#endif
  return PositionListIndex(std::move(rows), std::move(offsets), num_rows);
}

PositionListIndex PositionListIndex::FromEncoded(
    const EncodedRelation& relation, const std::vector<size_t>& columns) {
  if (columns.size() == 1) {
    return FromCodes(relation.column_view(columns[0]),
                     relation.dictionary(columns[0]).num_codes());
  }
  const size_t n = relation.num_rows();
  if (columns.empty() || n == 0) {
    return Identity(n);
  }
  METALEAK_DCHECK(n < UINT32_MAX);
  // Fold columns into running group ids numbered by first occurrence in
  // row order, the fold FoldLhsGroupsEncoded runs. After each pass the
  // ids are dense in [0, num_groups) with num_groups <= n, so the
  // combined key id * num_codes + code stays well below 2^64.
  std::vector<uint32_t> ids(n);
  relation.column_view(columns[0]).With([&](const auto* p) {
    for (size_t r = 0; r < n; ++r) ids[r] = p[r];
  });
  uint32_t num_groups = relation.dictionary(columns[0]).num_codes();
  FlatIdTable groups;
  for (size_t i = 1; i < columns.size(); ++i) {
    const uint64_t nc = relation.dictionary(columns[i]).num_codes();
    groups.Reset(std::min<uint64_t>(n, num_groups * nc));
    relation.column_view(columns[i]).With([&](const auto* p) {
      for (size_t r = 0; r < n; ++r) {
        ids[r] = groups.IdOf(ids[r] * nc + p[r]);
      }
    });
    num_groups = groups.size();
  }
  // The folded ids are codes in [0, num_groups): group them as one column.
  return FromCodes(ids, num_groups);
}

PositionListIndex PositionListIndex::Identity(size_t num_rows) {
  METALEAK_DCHECK(num_rows < UINT32_MAX);
  if (num_rows < 2) {
    return PositionListIndex({}, {0}, num_rows);
  }
  std::vector<Row> rows(num_rows);
  for (size_t r = 0; r < num_rows; ++r) rows[r] = static_cast<Row>(r);
  return PositionListIndex(std::move(rows),
                           {0, static_cast<uint32_t>(num_rows)}, num_rows);
}

std::vector<PositionListIndex::Cluster> PositionListIndex::ToNestedClusters()
    const {
  std::vector<Cluster> out;
  out.reserve(num_clusters());
  for (size_t c = 0; c < num_clusters(); ++c) {
    out.push_back(cluster(c).ToVector());
  }
  return out;
}

const std::vector<int32_t>& PositionListIndex::probe_table() const {
  std::call_once(probe_->once, [this] {
    METALEAK_DCHECK(num_clusters() < static_cast<size_t>(INT32_MAX));
    std::vector<int32_t>& table = probe_->table;
    table.assign(num_rows_, kUnique);
    for (size_t c = 0; c < num_clusters(); ++c) {
      const int32_t id = static_cast<int32_t>(c);
      for (size_t row : cluster(c)) table[row] = id;
    }
  });
  return probe_->table;
}

PositionListIndex PositionListIndex::Intersect(
    const PositionListIndex& other) const {
  IntersectionScratch scratch;
  return Intersect(other, &scratch);
}

PositionListIndex PositionListIndex::Intersect(
    const PositionListIndex& other, IntersectionScratch* scratch) const {
  METALEAK_DCHECK(num_rows_ == other.num_rows_);
  METALEAK_DCHECK(scratch != nullptr);
  // Small-side pick: iterate the operand with fewer stripped rows and
  // probe the other, so the scan is bounded by the smaller side. The pick
  // depends only on sizes, keeping the output deterministic.
  const bool other_smaller = other.rows_.size() < rows_.size();
  const PositionListIndex& iter = other_smaller ? other : *this;
  const PositionListIndex& probe_side = other_smaller ? *this : other;

  const std::vector<int32_t>& probe = probe_side.probe_table();

  // Grow-only workspace; `counts` is all zero on entry and restored to all
  // zero before returning (via `touched`), so reuse across calls is free.
  std::vector<uint32_t>& counts = scratch->counts;
  std::vector<uint32_t>& cursor = scratch->cursor;
  std::vector<uint32_t>& touched = scratch->touched;
  if (counts.size() < probe_side.num_clusters()) {
    counts.resize(probe_side.num_clusters(), 0);
    cursor.resize(probe_side.num_clusters(), 0);
  }
  touched.clear();

  std::vector<Row> out_rows;
  std::vector<uint32_t> out_offsets;
  out_offsets.push_back(0);
  // For each iterated cluster, split rows by the probe side's class. Rows
  // landing on kUnique are singletons in the product; drop them. Output
  // subclusters appear in first-occurrence order of the probe class
  // within the cluster — deterministic, and row order inside each
  // subcluster stays ascending because the cluster scan is ascending.
  for (const ClusterView cl : iter.clusters()) {
    touched.clear();
    for (const Row row : cl) {
      const int32_t id = probe[row];
      if (id == kUnique) continue;
      if (counts[id]++ == 0) touched.push_back(static_cast<uint32_t>(id));
    }
    uint32_t total = static_cast<uint32_t>(out_rows.size());
    for (uint32_t id : touched) {
      if (counts[id] >= 2) {
        cursor[id] = total;
        total += counts[id];
        out_offsets.push_back(total);
      } else {
        cursor[id] = kNoSlot;
      }
    }
    out_rows.resize(total);
    for (const Row row : cl) {
      const int32_t id = probe[row];
      if (id == kUnique || cursor[id] == kNoSlot) continue;
      out_rows[cursor[id]++] = row;
    }
    for (uint32_t id : touched) counts[id] = 0;
  }
  return PositionListIndex(std::move(out_rows), std::move(out_offsets),
                           num_rows_);
}

bool PositionListIndex::Refines(const PositionListIndex& other,
                                RowPair* witness) const {
  METALEAK_DCHECK(num_rows_ == other.num_rows_);
  const std::vector<int32_t>& probe = other.probe_table();
  for (const ClusterView cl : clusters()) {
    // A stripped (size >= 2) cluster holding a row that is unique in
    // `other`, or in another class of it than the first row, has two rows
    // disagreeing on the RHS: violation, witnessed by the first such row.
    const Row* rows = cl.begin();
    const int32_t first = probe[rows[0]];
    for (size_t i = 1; i < cl.size(); ++i) {
      if (first != kUnique && probe[rows[i]] == first) continue;
      if (witness != nullptr) *witness = {rows[0], rows[i]};
      return false;
    }
  }
  return true;
}

double PositionListIndex::G3Error(const PositionListIndex& other) const {
  METALEAK_DCHECK(num_rows_ == other.num_rows_);
  if (num_rows_ == 0) return 0.0;
  const std::vector<int32_t>& probe = other.probe_table();
  // Each cluster keeps its largest class of `other` and loses the rest.
  std::vector<uint32_t> counts(other.num_clusters(), 0);
  std::vector<uint32_t> touched;
  size_t violations = 0;
  for (const ClusterView cl : clusters()) {
    touched.clear();
    size_t unique_rows = 0;
    size_t max_count = 0;
    for (const Row row : cl) {
      const int32_t id = probe[row];
      if (id == kUnique) {
        // Singleton in `other`: its own class of size 1.
        ++unique_rows;
        continue;
      }
      if (counts[id]++ == 0) touched.push_back(static_cast<uint32_t>(id));
      if (counts[id] > max_count) max_count = counts[id];
    }
    for (uint32_t id : touched) counts[id] = 0;
    if (unique_rows > 0 && max_count == 0) max_count = 1;
    violations += cl.size() - max_count;
  }
  return static_cast<double>(violations) / static_cast<double>(num_rows_);
}

size_t PositionListIndex::MaxFanout(const PositionListIndex& other,
                                    size_t bound) const {
  METALEAK_DCHECK(num_rows_ == other.num_rows_);
  size_t max_fanout = num_rows_ > 0 ? 1 : 0;
  if (max_fanout > bound) return max_fanout;
  const std::vector<int32_t>& probe = other.probe_table();
  std::vector<uint32_t> seen(other.num_clusters(), 0);
  std::vector<uint32_t> touched;
  for (const ClusterView cl : clusters()) {
    touched.clear();
    size_t distinct = 0;
    for (const Row row : cl) {
      const int32_t id = probe[row];
      if (id == kUnique) {
        ++distinct;  // each RHS-singleton is its own value
      } else if (seen[id]++ == 0) {
        touched.push_back(static_cast<uint32_t>(id));
        ++distinct;
      }
      // Past the bound the answer is settled; `seen` dies with the call.
      if (distinct > bound) return distinct;
    }
    for (uint32_t id : touched) seen[id] = 0;
    if (distinct > max_fanout) max_fanout = distinct;
  }
  return max_fanout;
}

}  // namespace metaleak
