// Value: a single nullable relational cell.
#ifndef METALEAK_DATA_VALUE_H_
#define METALEAK_DATA_VALUE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <variant>

#include "data/type.h"

namespace metaleak {

/// A dynamically typed, nullable cell value.
///
/// Null semantics: for dependency validation MetaLeak treats NULL as a
/// distinct value equal only to itself (the convention TANE and most FD
/// discovery systems use), so relations with missing values — like
/// echocardiogram — can still be profiled.
class Value {
 public:
  /// Constructs a NULL value.
  Value() : repr_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(Repr(v)); }
  static Value Real(double v) { return Value(Repr(v)); }
  static Value Str(std::string v) { return Value(Repr(std::move(v))); }

  bool is_null() const {
    return std::holds_alternative<std::monostate>(repr_);
  }
  bool is_int() const { return std::holds_alternative<int64_t>(repr_); }
  bool is_double() const { return std::holds_alternative<double>(repr_); }
  bool is_string() const {
    return std::holds_alternative<std::string>(repr_);
  }

  /// Typed accessors; calling the wrong one is a programming error.
  int64_t AsInt() const { return std::get<int64_t>(repr_); }
  double AsDouble() const { return std::get<double>(repr_); }
  const std::string& AsString() const { return std::get<std::string>(repr_); }

  /// Numeric view: ints and doubles coerce to double; 0.0 for null/string.
  /// Use is_numeric() to guard.
  double AsNumeric() const;
  bool is_numeric() const { return is_int() || is_double(); }

  /// Renders the value for CSV output and debugging; NULL renders as "?"
  /// (the echocardiogram missing-value marker).
  std::string ToString() const;

  /// Structural equality: null == null, cross-type numeric values do NOT
  /// compare equal (Int(1) != Real(1.0)); dependency semantics operate on
  /// uniformly typed columns.
  friend bool operator==(const Value& a, const Value& b) {
    return a.repr_ == b.repr_;
  }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }

  /// Total order used for sorting / order-dependency checks: null first,
  /// then by numeric value (ints and doubles interleaved; two ints compare
  /// exactly as int64), then strings lexicographically. -0.0 and +0.0 are
  /// equivalent, as under operator==.
  friend bool operator<(const Value& a, const Value& b);

  /// Hash compatible with operator==.
  size_t Hash() const;

 private:
  using Repr = std::variant<std::monostate, int64_t, double, std::string>;
  explicit Value(Repr repr) : repr_(std::move(repr)) {}

  Repr repr_;
};

}  // namespace metaleak

namespace std {
template <>
struct hash<metaleak::Value> {
  size_t operator()(const metaleak::Value& v) const { return v.Hash(); }
};
}  // namespace std

#endif  // METALEAK_DATA_VALUE_H_
