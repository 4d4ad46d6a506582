#include "reference/leakage_reference.h"

#include "privacy/leakage.h"

namespace metaleak {
namespace reference {

namespace {

// Def 2.2's categorical match: the same Value, or the same number across
// the int/double physical types.
bool Matches(const Value& real, const Value& entry) {
  if (real == entry) return true;
  return real.is_numeric() && entry.is_numeric() &&
         real.AsNumeric() == entry.AsNumeric();
}

}  // namespace

Result<std::vector<uint32_t>> TranslateCategorical(const Relation& real,
                                                   size_t column,
                                                   const Domain& domain) {
  const std::vector<Value>& entries = domain.values();
  std::vector<uint32_t> out;
  out.reserve(real.num_rows());
  for (const Value& cell : real.column(column)) {
    uint32_t code = EncodedLeakageContext::kNoMatchCode;
    size_t matches = 0;
    if (!cell.is_null()) {
      for (size_t i = 0; i < entries.size(); ++i) {
        if (!Matches(cell, entries[i])) continue;
        code = static_cast<uint32_t>(i + 1);
        ++matches;
      }
    }
    if (matches > 1) {
      return Status::Invalid(
          "real value matches several domain entries cross-type");
    }
    out.push_back(code);
  }
  return out;
}

}  // namespace reference
}  // namespace metaleak
