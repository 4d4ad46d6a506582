// Relation: columnar, schema-typed tuple storage.
//
// This is the R_real / R_syn object from the paper. Storage is columnar
// (one Value vector per attribute) because every downstream consumer —
// partition construction, domain extraction, generation, leakage metrics —
// iterates attribute-wise.
#ifndef METALEAK_DATA_RELATION_H_
#define METALEAK_DATA_RELATION_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "data/schema.h"
#include "data/value.h"

namespace metaleak {

class Relation {
 public:
  Relation() = default;

  /// Builds a relation from columnar data. Fails if column count mismatches
  /// the schema, columns have ragged lengths, a value mismatches its
  /// attribute's type, or a double is NaN.
  static Result<Relation> Make(Schema schema,
                               std::vector<std::vector<Value>> columns);

  /// An empty relation (zero rows) over `schema`.
  static Relation Empty(Schema schema);

  const Schema& schema() const { return schema_; }
  /// Row count, tracked explicitly so zero-column relations still count
  /// rows appended via AppendRow. Make() cannot express rows for a
  /// zero-column schema (there is no column to carry them), so
  /// Make(schema, {}) and Empty(schema) both start at zero rows.
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  const std::vector<Value>& column(size_t i) const { return columns_[i]; }

  /// Cell accessor; callers must pass in-range indices.
  const Value& at(size_t row, size_t col) const {
    return columns_[col][row];
  }

  /// Returns row `row` as a value vector (materialized copy).
  std::vector<Value> Row(size_t row) const;

  /// Relation restricted to the attribute `indices`, in that order.
  Relation Project(const std::vector<size_t>& indices) const;

  /// Relation restricted to the given row indices, in that order.
  Relation SelectRows(const std::vector<size_t>& rows) const;

  /// Appends a row; fails on arity or (strict) type mismatch, or a NaN
  /// double. Null values are accepted in any column.
  Status AppendRow(std::vector<Value> row);

  /// Renders the first `max_rows` rows as an aligned text table.
  std::string ToString(size_t max_rows = 20) const;

  friend bool operator==(const Relation& a, const Relation& b) {
    return a.schema_ == b.schema_ && a.num_rows_ == b.num_rows_ &&
           a.columns_ == b.columns_;
  }

 private:
  Relation(Schema schema, std::vector<std::vector<Value>> columns)
      : schema_(std::move(schema)),
        columns_(std::move(columns)),
        num_rows_(columns_.empty() ? 0 : columns_[0].size()) {}

  Relation(Schema schema, std::vector<std::vector<Value>> columns,
           size_t num_rows)
      : schema_(std::move(schema)),
        columns_(std::move(columns)),
        num_rows_(num_rows) {}

  Schema schema_;
  std::vector<std::vector<Value>> columns_;
  size_t num_rows_ = 0;
};

/// Incremental row-wise construction helper.
class RelationBuilder {
 public:
  explicit RelationBuilder(Schema schema);

  /// Appends a row; returns *this for chaining in tests. Arity/type errors
  /// are deferred and reported by Finish().
  RelationBuilder& AddRow(std::vector<Value> row);

  /// Validates accumulated rows and produces the relation.
  Result<Relation> Finish();

 private:
  Schema schema_;
  std::vector<std::vector<Value>> columns_;
  Status deferred_error_;
};

/// Checks that `value` is storable in an attribute of `type` (nulls always
/// are). Int values are NOT accepted in double columns; loaders coerce.
bool ValueMatchesType(const Value& value, DataType type);

/// Status::Invalid naming `attr` when `value` is a NaN double. NaN breaks
/// Value's total order (and with it dictionary encoding), so Make,
/// AppendRow, RelationBuilder::Finish and DeltaRelation::ApplyBatch all
/// reject it.
Status CheckNotNaN(const Value& value, const Attribute& attr);

}  // namespace metaleak

#endif  // METALEAK_DATA_RELATION_H_
