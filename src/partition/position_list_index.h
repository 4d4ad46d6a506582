// Position list indexes (stripped partitions), the TANE representation.
//
// A PLI for an attribute set X partitions the row indices of a relation by
// equality on X, *stripping* singleton clusters (a row alone in its cluster
// can never witness an FD violation). TANE's key facts, used throughout:
//
//   * FD X -> A holds  iff  pli(X) refines pli(A)
//                      iff  Error(pli(X), probe(A)) == 0
//   * pli(X ∪ Y) = Intersect(pli(X), pli(Y))
//   * g3 error of X -> A = (minimum #rows to delete so the FD holds) / N,
//     computable per-cluster from the majority Y-class.
//
// Layout: one flat CSR arena. All cluster members live in a single
// contiguous `rows` array; `cluster_offsets` (num_clusters + 1 entries)
// delimits the clusters. There are no per-cluster allocations — building
// a PLI costs exactly two vector allocations regardless of cluster count,
// clusters iterate as cache-friendly spans (`ClusterView`), and rows are
// 32-bit, so a partition scan touches half the memory the old
// vector-of-vectors layout did. Cluster ordering is unchanged from the
// nested layout (ascending code / first-occurrence order, ascending rows
// within each cluster), so downstream output is bit-identical.
//
// The row -> cluster-id probe table is built lazily, once, and cached on
// the PLI (partitions are immutable after construction); `Refines`,
// `G3Error`, `MaxFanout` and `Intersect` all read it directly, one load
// per row, instead of materializing a fresh table per call, and each runs
// as one serial loop (the lattice already spreads its candidates over the
// pool). `Intersect` additionally takes an optional caller-owned
// `IntersectionScratch` so a level-wise lattice pass reuses one
// probe/count workspace across every candidate instead of allocating per
// intersection, and it iterates whichever operand has fewer stripped rows
// (probing the other), which bounds the scan by the smaller side.
//
// NULL semantics: NULL equals NULL (one cluster), matching the library-wide
// convention documented in value.h.
#ifndef METALEAK_PARTITION_POSITION_LIST_INDEX_H_
#define METALEAK_PARTITION_POSITION_LIST_INDEX_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "common/macros.h"
#include "data/code_column.h"
#include "data/encoded_relation.h"

namespace metaleak {

/// Reusable workspace for PositionListIndex::Intersect. Holding one of
/// these across many intersections (e.g. one per worker thread during a
/// lattice level) makes each call allocation-free apart from the result
/// arrays. The invariant between calls is that `counts` is all zero;
/// Intersect restores it before returning.
struct IntersectionScratch {
  std::vector<uint32_t> counts;   // per probe-side cluster: rows seen
  std::vector<uint32_t> cursor;   // per probe-side cluster: write cursor
  std::vector<uint32_t> touched;  // probe ids hit, first-occurrence order
};

class PositionListIndex {
 public:
  /// Rows are 32-bit inside the arena (a relation beyond 4B rows is far
  /// outside scope and DCHECK-guarded in every builder).
  using Row = uint32_t;

  /// Nested-cluster spelling (ToNestedClusters), the agreement tests'
  /// canonical form.
  using Cluster = std::vector<size_t>;

  /// One cluster as a span over the CSR arena. Cheap to copy; iterates
  /// the member rows in stored (ascending) order.
  class ClusterView {
   public:
    ClusterView(const Row* begin, const Row* end)
        : begin_(begin), end_(end) {}
    const Row* begin() const { return begin_; }
    const Row* end() const { return end_; }
    size_t size() const { return static_cast<size_t>(end_ - begin_); }
    size_t operator[](size_t i) const {
      METALEAK_DCHECK(i < size());
      return static_cast<size_t>(begin_[i]);
    }
    std::vector<size_t> ToVector() const {
      return std::vector<size_t>(begin_, end_);
    }

   private:
    const Row* begin_;
    const Row* end_;
  };

  /// Random-access range of ClusterViews over one PLI (valid while the
  /// PLI is alive). Supports indexing and range-for.
  class ClusterList {
   public:
    class iterator {
     public:
      iterator(const ClusterList* list, size_t index)
          : list_(list), index_(index) {}
      ClusterView operator*() const { return (*list_)[index_]; }
      iterator& operator++() {
        ++index_;
        return *this;
      }
      friend bool operator==(const iterator& a, const iterator& b) {
        return a.index_ == b.index_;
      }
      friend bool operator!=(const iterator& a, const iterator& b) {
        return a.index_ != b.index_;
      }

     private:
      const ClusterList* list_;
      size_t index_;
    };

    size_t size() const { return pli_->num_clusters(); }
    bool empty() const { return size() == 0; }
    ClusterView operator[](size_t c) const { return pli_->cluster(c); }
    iterator begin() const { return iterator(this, 0); }
    iterator end() const { return iterator(this, size()); }

   private:
    friend class PositionListIndex;
    explicit ClusterList(const PositionListIndex* pli) : pli_(pli) {}
    const PositionListIndex* pli_;
  };

  /// Builds the PLI of one dictionary-encoded column by counting-style
  /// grouping over the dense codes: two O(N) passes, no hashing, and the
  /// clusters are scattered straight into the CSR arena. Codes must lie
  /// in [0, num_codes). Clusters come out in ascending code order with
  /// ascending row indices — fully deterministic.
  static PositionListIndex FromCodes(const std::vector<uint32_t>& codes,
                                     uint32_t num_codes);

  /// Width-tagged variant of FromCodes streaming the codes at their
  /// stored width (u8/u16/u32). The u32-vector overload above forwards
  /// here.
  static PositionListIndex FromCodes(const CodeColumnView& codes,
                                     uint32_t num_codes);

  /// Builds the PLI of a set of columns of an encoded relation. Single
  /// columns use FromCodes; larger sets fold the per-column codes into
  /// dense group ids column by column, numbered by first occurrence
  /// through a FlatIdTable (renumbering keeps ids < N, so the fold never
  /// overflows and never hashes a `Value`), and group the ids with
  /// FromCodes.
  static PositionListIndex FromEncoded(const EncodedRelation& relation,
                                       const std::vector<size_t>& columns);

  /// The identity PLI over `num_rows` rows: one cluster with every row
  /// (the PLI of the empty attribute set).
  static PositionListIndex Identity(size_t num_rows);

  /// Wraps already-canonical CSR arrays as a PLI: `offsets` has one entry
  /// per cluster plus the trailing total, clusters appear in ascending
  /// code order, every cluster has >= 2 rows in ascending order. This is
  /// the emission path of the in-place maintenance layer
  /// (pli_maintenance.h), which guarantees the canonical form; the
  /// invariants are DCHECK-checked here.
  static PositionListIndex FromCsrArrays(std::vector<Row> rows,
                                         std::vector<uint32_t> offsets,
                                         size_t num_rows);

  /// Product partition pli(X ∪ Y) from pli(X) (this) and pli(Y) (other).
  /// Probe-table intersection over the CSR arena, O(stripped rows of the
  /// smaller operand) given both probe tables are built. The overload
  /// with `scratch` reuses the caller's workspace (see
  /// IntersectionScratch); without it a transient workspace is used.
  PositionListIndex Intersect(const PositionListIndex& other) const;
  PositionListIndex Intersect(const PositionListIndex& other,
                              IntersectionScratch* scratch) const;

  /// Number of stripped (size >= 2) clusters.
  size_t num_clusters() const { return offsets_.size() - 1; }

  /// Total rows contained in stripped clusters.
  size_t num_stripped_rows() const { return rows_.size(); }

  /// Rows of the underlying relation.
  size_t num_rows() const { return num_rows_; }

  /// Number of equivalence classes including the stripped singletons:
  /// |π_X| = num_clusters + (num_rows - num_stripped_rows).
  size_t num_classes() const {
    return num_clusters() + (num_rows_ - rows_.size());
  }

  /// Cluster `c` as a span over the arena.
  ClusterView cluster(size_t c) const {
    METALEAK_DCHECK(c < num_clusters());
    return ClusterView(rows_.data() + offsets_[c],
                       rows_.data() + offsets_[c + 1]);
  }

  /// All clusters, in stored order.
  ClusterList clusters() const { return ClusterList(this); }

  /// Clusters materialized as nested vectors (tests and debugging; the
  /// hot paths iterate ClusterViews instead).
  std::vector<Cluster> ToNestedClusters() const;

  /// The flat CSR arrays (agreement tests, benches).
  const std::vector<Row>& rows() const { return rows_; }
  const std::vector<uint32_t>& cluster_offsets() const { return offsets_; }

  /// Probe table: row -> cluster id, or kUnique for stripped singletons.
  /// Built lazily on first use and cached for the PLI's lifetime (thread
  /// safe; copies share the cache). Used to test refinement, to compute
  /// g3 / fan-out against another partition, and by Intersect.
  static constexpr int32_t kUnique = -1;
  const std::vector<int32_t>& probe_table() const;

  /// Two rows of one relation; a failed refinement names one as its
  /// witness.
  struct RowPair {
    Row first = 0;
    Row second = 0;
    friend bool operator==(const RowPair& a, const RowPair& b) {
      return a.first == b.first && a.second == b.second;
    }
  };

  /// True iff this partition refines `other`: every cluster of this lies
  /// inside one class of `other`. FD X->A holds iff pli(X).Refines(pli(A)).
  /// On failure, a non-null `witness` receives two rows that agree on
  /// this partition and lie in different classes of `other`: in the
  /// first violating cluster (stored order), its first row and the first
  /// later row whose `other`-class differs.
  bool Refines(const PositionListIndex& other,
               RowPair* witness = nullptr) const;

  /// g3 error of the FD (X = this) -> (A = other): the minimum fraction of
  /// rows that must be removed for the FD to hold (Kivinen–Mannila g3, the
  /// definition AFDs use in the paper, Section IV-A).
  double G3Error(const PositionListIndex& other) const;

  /// Maximum number of distinct `other`-classes seen within one cluster of
  /// this partition — the minimal fan-out K for a numerical dependency
  /// X ->(<=K) A (Section IV-B). Returns 1 when every cluster is pure.
  /// The exact K when K <= `bound`; otherwise some value above `bound`,
  /// returned as soon as one cluster's distinct count exceeds it.
  size_t MaxFanout(const PositionListIndex& other,
                   size_t bound = std::numeric_limits<size_t>::max()) const;

 private:
  // Lazily-built probe table. Shared (not deep-copied) between copies of
  // a PLI: the table is written exactly once, inside call_once, so
  // sharing is safe and keeps PositionListIndex cheaply copyable.
  struct ProbeState {
    std::once_flag once;
    std::vector<int32_t> table;
  };

  PositionListIndex(std::vector<Row> rows, std::vector<uint32_t> offsets,
                    size_t num_rows);

  std::vector<Row> rows_;         // concatenated cluster members
  std::vector<uint32_t> offsets_; // cluster c = rows_[offsets_[c]..offsets_[c+1])
  size_t num_rows_ = 0;
  std::shared_ptr<ProbeState> probe_;
};

}  // namespace metaleak

#endif  // METALEAK_PARTITION_POSITION_LIST_INDEX_H_
