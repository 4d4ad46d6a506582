#include "data/relation.h"

#include <cmath>
#include <sstream>

#include "common/macros.h"
#include "common/table_printer.h"

namespace metaleak {

bool ValueMatchesType(const Value& value, DataType type) {
  if (value.is_null()) return true;
  switch (type) {
    case DataType::kInt64:
      return value.is_int();
    case DataType::kDouble:
      return value.is_double();
    case DataType::kString:
      return value.is_string();
  }
  return false;
}

Status CheckNotNaN(const Value& value, const Attribute& attr) {
  if (!value.is_double() || !std::isnan(value.AsDouble())) {
    return Status::OK();
  }
  return Status::Invalid("NaN value in attribute '" + attr.name + "'");
}

Result<Relation> Relation::Make(Schema schema,
                                std::vector<std::vector<Value>> columns) {
  if (columns.size() != schema.num_attributes()) {
    return Status::Invalid("column count " + std::to_string(columns.size()) +
                           " does not match schema arity " +
                           std::to_string(schema.num_attributes()));
  }
  for (size_t c = 1; c < columns.size(); ++c) {
    if (columns[c].size() != columns[0].size()) {
      return Status::Invalid("ragged columns: column " + std::to_string(c) +
                             " has " + std::to_string(columns[c].size()) +
                             " rows, expected " +
                             std::to_string(columns[0].size()));
    }
  }
  for (size_t c = 0; c < columns.size(); ++c) {
    for (const Value& v : columns[c]) {
      if (!ValueMatchesType(v, schema.attribute(c).type)) {
        return Status::TypeError("value '" + v.ToString() +
                                 "' does not match type of attribute '" +
                                 schema.attribute(c).name + "'");
      }
      METALEAK_RETURN_NOT_OK(CheckNotNaN(v, schema.attribute(c)));
    }
  }
  return Relation(std::move(schema), std::move(columns));
}

Relation Relation::Empty(Schema schema) {
  std::vector<std::vector<Value>> columns(schema.num_attributes());
  return Relation(std::move(schema), std::move(columns));
}

std::vector<Value> Relation::Row(size_t row) const {
  METALEAK_DCHECK(row < num_rows());
  std::vector<Value> out;
  out.reserve(columns_.size());
  for (const auto& col : columns_) out.push_back(col[row]);
  return out;
}

Relation Relation::Project(const std::vector<size_t>& indices) const {
  std::vector<std::vector<Value>> cols;
  cols.reserve(indices.size());
  for (size_t i : indices) {
    METALEAK_DCHECK(i < columns_.size());
    cols.push_back(columns_[i]);
  }
  // Projection preserves the row count even when projecting onto the
  // empty attribute list.
  return Relation(schema_.Project(indices), std::move(cols), num_rows_);
}

Relation Relation::SelectRows(const std::vector<size_t>& rows) const {
  std::vector<std::vector<Value>> cols(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    cols[c].reserve(rows.size());
    for (size_t r : rows) {
      METALEAK_DCHECK(r < num_rows());
      cols[c].push_back(columns_[c][r]);
    }
  }
  return Relation(schema_, std::move(cols), rows.size());
}

Status Relation::AppendRow(std::vector<Value> row) {
  if (row.size() != columns_.size()) {
    return Status::Invalid("row arity " + std::to_string(row.size()) +
                           " does not match schema arity " +
                           std::to_string(columns_.size()));
  }
  for (size_t c = 0; c < row.size(); ++c) {
    if (!ValueMatchesType(row[c], schema_.attribute(c).type)) {
      return Status::TypeError("value '" + row[c].ToString() +
                               "' does not match type of attribute '" +
                               schema_.attribute(c).name + "'");
    }
    METALEAK_RETURN_NOT_OK(CheckNotNaN(row[c], schema_.attribute(c)));
  }
  for (size_t c = 0; c < row.size(); ++c) {
    columns_[c].push_back(std::move(row[c]));
  }
  // Count the row even for zero-column schemas, where there is no column
  // vector to infer the count from.
  ++num_rows_;
  return Status::OK();
}

std::string Relation::ToString(size_t max_rows) const {
  TablePrinter printer;
  std::vector<std::string> header;
  header.reserve(schema_.num_attributes());
  for (const Attribute& a : schema_.attributes()) header.push_back(a.name);
  printer.SetHeader(std::move(header));
  size_t limit = std::min(max_rows, num_rows());
  for (size_t r = 0; r < limit; ++r) {
    std::vector<std::string> cells;
    cells.reserve(columns_.size());
    for (size_t c = 0; c < columns_.size(); ++c) {
      cells.push_back(columns_[c][r].ToString());
    }
    printer.AddRow(std::move(cells));
  }
  std::string out = printer.ToString();
  if (limit < num_rows()) {
    out += "... (" + std::to_string(num_rows() - limit) + " more rows)\n";
  }
  return out;
}

RelationBuilder::RelationBuilder(Schema schema)
    : schema_(std::move(schema)), columns_(schema_.num_attributes()) {}

RelationBuilder& RelationBuilder::AddRow(std::vector<Value> row) {
  if (!deferred_error_.ok()) return *this;
  if (row.size() != columns_.size()) {
    deferred_error_ =
        Status::Invalid("row arity " + std::to_string(row.size()) +
                        " does not match schema arity " +
                        std::to_string(columns_.size()));
    return *this;
  }
  for (size_t c = 0; c < row.size(); ++c) {
    if (!ValueMatchesType(row[c], schema_.attribute(c).type)) {
      deferred_error_ =
          Status::TypeError("value '" + row[c].ToString() +
                            "' does not match type of attribute '" +
                            schema_.attribute(c).name + "'");
      return *this;
    }
  }
  for (size_t c = 0; c < row.size(); ++c) {
    columns_[c].push_back(std::move(row[c]));
  }
  return *this;
}

Result<Relation> RelationBuilder::Finish() {
  if (!deferred_error_.ok()) return deferred_error_;
  return Relation::Make(std::move(schema_), std::move(columns_));
}

}  // namespace metaleak
