#include "data/value.h"

#include <cmath>

#include "common/string_util.h"

namespace metaleak {

double Value::AsNumeric() const {
  if (is_int()) return static_cast<double>(AsInt());
  if (is_double()) return AsDouble();
  return 0.0;
}

std::string Value::ToString() const {
  if (is_null()) return "?";
  if (is_int()) return std::to_string(AsInt());
  if (is_double()) return FormatDouble(AsDouble(), 6);
  return AsString();
}

bool operator<(const Value& a, const Value& b) {
  // Rank: null < numeric < string.
  auto rank = [](const Value& v) {
    if (v.is_null()) return 0;
    if (v.is_numeric()) return 1;
    return 2;
  };
  int ra = rank(a);
  int rb = rank(b);
  if (ra != rb) return ra < rb;
  if (ra == 0) return false;  // null == null
  if (ra == 1) {
    // Two ints compare natively: through double, distinct ints above 2^53
    // would tie while operator== tells them apart.
    if (a.is_int() && b.is_int()) return a.AsInt() < b.AsInt();
    double da = a.AsNumeric();
    double db = b.AsNumeric();
    if (da != db) return da < db;
    // Tie-break int vs double so ordering is consistent with operator==.
    return a.is_int() && b.is_double();
  }
  return a.AsString() < b.AsString();
}

size_t Value::Hash() const {
  if (is_null()) return 0x9E3779B9u;
  if (is_int()) return std::hash<int64_t>{}(AsInt()) * 3u;
  if (is_double()) return std::hash<double>{}(AsDouble()) * 5u;
  return std::hash<std::string>{}(AsString()) * 7u;
}

}  // namespace metaleak
