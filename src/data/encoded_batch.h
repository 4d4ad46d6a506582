// EncodedBatch: a reusable, dictionary-coded generation target.
//
// The attack pipeline's Monte-Carlo loop (generate R_syn, score leakage,
// repeat) used to materialize a boxed `Value` Relation per round. An
// EncodedBatch is the columnar arena the encoded generators write into
// instead: categorical columns hold dense codes into the *generation
// domain* (code 0 is reserved for NULL, matching
// ColumnDictionary::kNullCode; code i+1 means domain.values()[i]), and
// continuous columns hold raw doubles. Code columns are stored at the
// narrowest width that fits their domain (data/code_column.h), so the
// leakage scans stream 1-4 bytes per cell. Configure() fixes the
// per-column storage kind and width; ResetRows() re-arms the arena for
// the next round while keeping each column's capacity, so a thread that
// owns a batch allocates only on its first round.
#ifndef METALEAK_DATA_ENCODED_BATCH_H_
#define METALEAK_DATA_ENCODED_BATCH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.h"
#include "data/code_column.h"
#include "data/domain.h"
#include "data/relation.h"
#include "data/schema.h"

namespace metaleak {

class EncodedBatch {
 public:
  /// Storage kind of one column: dense domain codes (categorical
  /// domains) or raw doubles (continuous domains).
  enum class ColumnKind : uint8_t { kCodes, kReals };

  /// Sets the column layout; `widths` is parallel to `kinds` and gives
  /// each code column's storage width (ignored for kReals columns).
  /// Existing storage is kept when the layout is unchanged (the reuse
  /// fast path) and rebuilt otherwise.
  void Configure(const std::vector<ColumnKind>& kinds,
                 const std::vector<CodeWidth>& widths);

  /// Layout with every code column at full u32 width.
  void Configure(const std::vector<ColumnKind>& kinds);

  /// Resizes every column to `num_rows`, keeping capacity.
  void ResetRows(size_t num_rows);

  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const { return num_rows_; }

  ColumnKind kind(size_t c) const { return columns_[c].kind; }

  /// Narrow code storage of column `c` (meaningful for kCodes columns).
  const CodeColumn& code_column(size_t c) const { return columns_[c].codes; }
  CodeColumn& code_column(size_t c) { return columns_[c].codes; }

  /// Width-tagged read view of column `c`'s codes.
  CodeColumnView code_view(size_t c) const { return columns_[c].codes.view(); }

  /// Single-cell code access; set_code widens the column if needed.
  uint32_t code_at(size_t c, size_t r) const { return columns_[c].codes.at(r); }
  void set_code(size_t c, size_t r, uint32_t code) {
    columns_[c].codes.set(r, code);
  }

  /// Invokes fn with the typed mutable code pointer of column `c` —
  /// the bulk-write path for the encoded generators. The column's size
  /// and width must not change inside fn.
  template <typename Fn>
  decltype(auto) WithMutableCodes(size_t c, Fn&& fn) {
    return columns_[c].codes.WithMutable(std::forward<Fn>(fn));
  }

  /// Invokes fn with the typed const code pointer of column `c`.
  template <typename Fn>
  decltype(auto) WithCodes(size_t c, Fn&& fn) const {
    return columns_[c].codes.With(std::forward<Fn>(fn));
  }

  std::vector<double>& reals(size_t c) { return columns_[c].reals; }
  const std::vector<double>& reals(size_t c) const {
    return columns_[c].reals;
  }

 private:
  struct Column {
    ColumnKind kind = ColumnKind::kCodes;
    CodeColumn codes;
    std::vector<double> reals;
  };

  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

/// The storage width each generation domain implies for its code
/// column: narrowest width fitting codes 0..|domain| (NULL plus one
/// code per domain value). kReals columns get u32 as a don't-care.
std::vector<CodeWidth> CodeWidthsForDomains(const std::vector<Domain>& domains);

/// The storage kind each generation domain implies: codes for
/// categorical domains, raw doubles for continuous ones. Every consumer
/// of an EncodedBatch (generators, CFD repair, leakage evaluators)
/// derives its column layout through this one function so the layouts
/// always agree.
std::vector<EncodedBatch::ColumnKind> ColumnKindsForDomains(
    const std::vector<Domain>& domains);

/// Decodes a batch into a boxed-Value Relation over `schema`, relaxing
/// the physical types to what the cells hold (continuous domains produce
/// doubles regardless of the disclosed type; mixed int/double columns
/// coerce to double). `domains` must be
/// the generation domains the batch was coded against. This is the
/// adapter boundary: Relation-returning public APIs call it once after
/// the encoded generators finish.
Result<Relation> MaterializeRelation(const Schema& schema,
                                     const std::vector<Domain>& domains,
                                     const EncodedBatch& batch);

}  // namespace metaleak

#endif  // METALEAK_DATA_ENCODED_BATCH_H_
