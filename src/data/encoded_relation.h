// EncodedRelation: dictionary-encoded columnar view of a Relation.
//
// Every hot path in the library — PLI construction, TANE's lattice
// search, OD/ND/DD validation, identifiability scans, leakage setup —
// ultimately groups or compares cells. Doing that on `Value` (a
// std::variant) costs a hash + variant dispatch per cell. TANE-style
// systems instead operate on *integer-coded* columns; this layer computes
// that coding once per relation and lets every consumer run on dense
// integer codes. Columns are stored at the narrowest code width that
// fits their dictionary (see data/code_column.h), so scans stream 1-4
// bytes per cell instead of a fixed 4.
//
// Coding scheme, per column:
//   * code 0 is reserved for NULL (whether or not the column contains
//     NULLs), preserving the library-wide NULL == NULL convention from
//     value.h: all NULL cells share one code, exactly one equivalence
//     class.
//   * distinct non-null values get codes 1..K assigned in ascending
//     `Value` order. Columns are uniformly typed (Relation::Make /
//     AppendRow enforce this), so `Value`'s total order is a strict total
//     order within a column and the assignment is *order-preserving*:
//     code(a) < code(b) iff a < b, and code(a) == code(b) iff a == b.
//     Order-dependency checks can therefore compare codes directly.
//
// The dictionaries double as precomputed per-column statistics: sorted
// distinct values (= the categorical Domain), value frequencies (= the
// frequency table / marginal), and min/max of the numeric values
// (= the continuous Domain) all read straight out of the dictionary
// instead of re-scanning the column.
#ifndef METALEAK_DATA_ENCODED_RELATION_H_
#define METALEAK_DATA_ENCODED_RELATION_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/result.h"
#include "data/code_column.h"
#include "data/domain.h"
#include "data/relation.h"
#include "data/schema.h"
#include "data/value.h"

namespace metaleak {

/// Per-column code book. decode(0) is always NULL; decode(1..K) lists the
/// distinct non-null values in ascending Value order.
class ColumnDictionary {
 public:
  /// The reserved NULL code.
  static constexpr uint32_t kNullCode = 0;

  /// Number of codes including the reserved NULL slot; valid codes are
  /// [0, num_codes()).
  uint32_t num_codes() const {
    return static_cast<uint32_t>(values_.size());
  }

  /// Distinct non-null values in the column (== num_codes() - 1).
  size_t num_distinct() const { return values_.size() - 1; }

  /// True when the column actually contains NULL cells (code 0 occurs).
  bool has_null() const { return null_count_ > 0; }
  size_t null_count() const { return null_count_; }

  /// The value behind `code` (NULL for code 0).
  const Value& decode(uint32_t code) const { return values_[code]; }

  /// Occurrences of `code` in the column. counts(0) == null_count().
  size_t count(uint32_t code) const { return counts_[code]; }

  /// Every code's occurrences, indexed by code (parallel to the codes).
  const std::vector<size_t>& counts() const { return counts_; }

  /// Sorted distinct non-null values — the categorical domain, for free.
  /// The returned view skips the NULL slot.
  std::vector<Value> DistinctValues() const {
    return std::vector<Value>(values_.begin() + 1, values_.end());
  }

  /// Per-code numeric view: out[code] is the numeric value behind
  /// `code`, or NaN for NULL and non-numeric entries. Lets batch-style
  /// consumers (the code-path leakage evaluators, tuple risk) compare
  /// cells without decoding a Value per row.
  std::vector<double> NumericByCode() const;

  /// Assembles a dictionary from canonical parts: `values` must start
  /// with Value::Null() and continue with the distinct non-null values in
  /// ascending Value order; `counts` is parallel (counts[0] = NULL
  /// occurrences). Used by the delta layer when it publishes a snapshot —
  /// the result is indistinguishable from the dictionary Encode builds.
  static ColumnDictionary FromSortedParts(std::vector<Value> values,
                                          std::vector<size_t> counts);

 private:
  friend class EncodedRelation;

  std::vector<Value> values_;   // values_[0] == Value::Null()
  std::vector<size_t> counts_;  // parallel to values_
  size_t null_count_ = 0;
};

/// The dictionary-encoded relation. Construction (`Encode`) is
/// O(n + D log D) per column for n rows and D distinct values: a typed
/// hash-dedup pass, a sort of the D distinct values only, and a linear
/// code-emit pass, with one pool task per column. Afterwards every
/// consumer works on dense codes. The encoding keeps a non-owning pointer
/// to its source relation, which only the experiment engine's decoded
/// round (ExperimentConfig::use_value_path) and RelationSnapshot::
/// relation() read; while those may run, the source must outlive the
/// encoding. An encoding with no source relation can instead decode its
/// own on first use (DecodeSourceOnFirstUse).
class EncodedRelation {
 public:
  EncodedRelation() = default;

  /// Encodes `relation`. Never fails: every Value is encodable.
  static EncodedRelation Encode(const Relation& relation);

  /// Assembles an encoding from already-canonical parts: per-column code
  /// vectors and dictionaries in the exact form Encode would produce
  /// (NULL code 0, dense order-preserving codes, counts populated). The
  /// fingerprint is recomputed with Encode's mixing sequence, so equal
  /// content yields an equal fingerprint regardless of which path built
  /// it. `source` may be null when no backing Relation exists yet.
  /// Columns are re-narrowed to their dictionary's natural width.
  static EncodedRelation FromParts(Schema schema,
                                   std::vector<std::vector<uint32_t>> codes,
                                   std::vector<ColumnDictionary> dicts,
                                   const Relation* source);

  /// FromParts for callers that already hold narrow columns (the delta
  /// layer's publish path). Column widths are kept as-is; they must fit
  /// the dictionaries.
  static EncodedRelation FromParts(Schema schema,
                                   std::vector<CodeColumn> columns,
                                   std::vector<ColumnDictionary> dicts,
                                   const Relation* source);

  /// Re-points the non-owning source pointer, e.g. after the caller
  /// materializes (and takes ownership of) the decoded relation. Drops a
  /// decode that DecodeSourceOnFirstUse armed.
  void set_source(const Relation* source);

  /// Makes source() return Decode() of this encoding, built by its first
  /// call under std::call_once and kept from then on: concurrent first
  /// calls all get the same pointer, and copies of the encoding share
  /// it. The encoding must decode, i.e. every dictionary value matches
  /// its attribute's type and is not NaN, as in every encoding of a
  /// Relation and every DeltaRelation publish; a decode error aborts.
  void DecodeSourceOnFirstUse();

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  /// The source relation this encoding was built from (non-owning; null
  /// for an encoding assembled without one), or after
  /// DecodeSourceOnFirstUse the decoded rows, which the first call
  /// builds. Profiling, auditing, tuple risk and the fused rounds never
  /// read it.
  const Relation* source() const;

  /// Width-tagged view of column `c`'s native narrow storage — the
  /// bandwidth-proportional access path every consumer reads codes
  /// through.
  CodeColumnView column_view(size_t c) const { return columns_[c].view(); }

  /// Column `c`'s narrow storage.
  const CodeColumn& column(size_t c) const { return columns_[c]; }

  /// Storage width of column `c`.
  CodeWidth column_width(size_t c) const { return columns_[c].width(); }

  /// Code of cell (row, col).
  uint32_t code_at(size_t row, size_t col) const {
    return columns_[col].at(row);
  }

  const ColumnDictionary& dictionary(size_t c) const { return dicts_[c]; }

  /// True iff column `c` is a key: every code, NULL included, occurs once,
  /// so its distinct non-null values plus one for a NULL number the rows.
  /// A column with two NULLs is not a key. Read off the dictionary.
  bool IsKey(size_t c) const {
    const ColumnDictionary& dict = dicts_[c];
    return dict.num_distinct() + (dict.has_null() ? 1 : 0) == num_rows_;
  }

  /// True iff cell (row, col) is NULL.
  bool is_null(size_t row, size_t col) const {
    return columns_[col].at(row) == ColumnDictionary::kNullCode;
  }

  /// Rebuilds the original relation from codes + dictionaries. Round-trip
  /// identity: Decode(Encode(r)) == r.
  Result<Relation> Decode() const;

  /// Stable 64-bit fingerprint of the encoded content (schema shape,
  /// dictionaries, code vectors). Two relations with equal fingerprints
  /// encode the same data; used to key PLI caches across relations.
  uint64_t Fingerprint() const { return fingerprint_; }

  /// The attribute's domain, read from the dictionary: distinct non-null
  /// values for categorical attributes, numeric [min, max] for continuous
  /// ones. Matches ExtractDomain(relation, c) exactly.
  Result<Domain> DomainOf(size_t c) const;

  /// All attribute domains (see DomainOf).
  Result<std::vector<Domain>> Domains() const;

 private:
  // Mixes schema shape, dictionaries, and code vectors with Encode's
  // sequence. Codes are mixed as widened u64 values, so the fingerprint
  // is independent of storage width.
  uint64_t ComputeFingerprint() const;

  // The rows DecodeSourceOnFirstUse builds on the first source() call.
  struct DecodedSource {
    std::once_flag once;
    std::optional<Relation> relation;
  };

  Schema schema_;
  size_t num_rows_ = 0;
  std::vector<CodeColumn> columns_;  // [column], narrow storage
  std::vector<ColumnDictionary> dicts_;
  uint64_t fingerprint_ = 0;
  const Relation* source_ = nullptr;
  std::shared_ptr<DecodedSource> decoded_source_;
};

}  // namespace metaleak

#endif  // METALEAK_DATA_ENCODED_RELATION_H_
