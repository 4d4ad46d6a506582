#include "data/encoded_relation.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/macros.h"
#include "common/parallel.h"

namespace metaleak {

namespace {

// FNV-1a style 64-bit mixing for the relation fingerprint.
inline uint64_t MixInto(uint64_t h, uint64_t x) {
  h ^= x + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h;
}

// splitmix64 finalizer: spreads clustered keys over the high half of the
// hash, which picks the dedup bucket.
inline uint64_t MixKey(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Raw per-type keys, so the dedup and sort loops never touch a boxed
// Value. Within one uniformly typed, NaN-free column, key equality (==)
// is Value equality and the key's native order (<) is Value order. A key
// keeps the bits of the value's first occurrence, which becomes the
// dictionary's representative.
struct IntKeys {
  using Key = int64_t;
  static Key Extract(const Value& v) { return v.AsInt(); }
  static uint64_t Hash(Key k) { return MixKey(static_cast<uint64_t>(k)); }
  static Value ToValue(Key k) { return Value::Int(k); }
};

struct DoubleKeys {
  using Key = double;
  // -0.0 and +0.0 are one value, keyed (and so represented) by +0.0.
  static Key Extract(const Value& v) {
    const double x = v.AsDouble();
    METALEAK_DCHECK(x == x);  // NaN is rejected at the relation boundary
    return x == 0.0 ? 0.0 : x;
  }
  static uint64_t Hash(Key k) { return MixKey(std::bit_cast<uint64_t>(k)); }
  static Value ToValue(Key k) { return Value::Real(k); }
};

struct StringKeys {
  using Key = std::string_view;
  static Key Extract(const Value& v) { return v.AsString(); }
  static uint64_t Hash(Key k) {
    return MixKey(std::hash<std::string_view>{}(k));
  }
  static Value ToValue(Key k) { return Value::Str(std::string(k)); }
};

// Dictionary-encodes one column in O(n + D log D):
//   1. dedup: one pass hashes each row's raw key into a first-seen slot
//      (slot 0 is NULL, distinct keys take slots 1..D);
//   2. sort: only the D distinct keys, by their native order;
//   3. remap: rank[slot] is the key's code 1..D (rank[0] = NULL code);
//   4. emit: a second linear pass writes rank[slot_of_row[r]], after
//      which the dictionary is built from the sorted keys.
// All scratch dies with the call.
template <typename Keys>
void EncodeColumn(const std::vector<Value>& column, ColumnDictionary* dict,
                  CodeColumn* codes) {
  using Key = typename Keys::Key;
  const size_t n = column.size();

  std::vector<uint32_t> slot_of_row(n);
  std::vector<Key> keys(1);              // keys[slot]; keys[0] unused
  std::vector<uint32_t> slot_counts(1);  // slot_counts[0] = NULL count
  // Open addressing with linear probing at load <= 1/2. A bucket holds a
  // slot (0 = empty) and the high half of its key's hash. The home bucket
  // is the tag's top `bits` bits, so growing re-places buckets from their
  // tags alone, in one streaming pass, and a tag mismatch skips `keys`.
  struct Bucket {
    uint32_t slot;
    uint32_t tag;
  };
  int bits = 4;
  std::vector<Bucket> table(size_t{1} << bits, Bucket{0, 0});
  size_t mask = table.size() - 1;
  auto home = [&bits](uint32_t tag) -> size_t { return tag >> (32 - bits); };
  for (size_t r = 0; r < n; ++r) {
    const Value& v = column[r];
    uint32_t slot = 0;
    if (!v.is_null()) {
      const Key key = Keys::Extract(v);
      const uint32_t tag = static_cast<uint32_t>(Keys::Hash(key) >> 32);
      size_t i = home(tag);
      while (table[i].slot != 0 &&
             (table[i].tag != tag || keys[table[i].slot] != key)) {
        i = (i + 1) & mask;
      }
      slot = table[i].slot;
      if (slot == 0) {
        slot = static_cast<uint32_t>(keys.size());
        keys.push_back(key);
        slot_counts.push_back(0);
        table[i] = Bucket{slot, tag};
        if (2 * keys.size() > table.size()) {
          METALEAK_DCHECK(bits < 32);
          ++bits;
          std::vector<Bucket> grown(size_t{1} << bits, Bucket{0, 0});
          mask = grown.size() - 1;
          for (const Bucket& b : table) {
            if (b.slot == 0) continue;
            size_t j = home(b.tag);
            while (grown[j].slot != 0) j = (j + 1) & mask;
            grown[j] = b;
          }
          table.swap(grown);
        }
      }
    }
    slot_of_row[r] = slot;
    ++slot_counts[slot];
  }
  std::vector<Bucket>().swap(table);

  struct Distinct {
    Key key;
    uint32_t slot;
    uint32_t count;
  };
  const size_t d = keys.size() - 1;
  const size_t null_count = slot_counts[0];
  std::vector<Distinct> sorted;
  sorted.reserve(d);
  for (uint32_t s = 1; s <= d; ++s) {
    sorted.push_back(Distinct{keys[s], s, slot_counts[s]});
  }
  std::vector<Key>().swap(keys);
  std::vector<uint32_t>().swap(slot_counts);
  std::sort(sorted.begin(), sorted.end(),
            [](const Distinct& a, const Distinct& b) { return a.key < b.key; });

  std::vector<uint32_t> rank(d + 1, ColumnDictionary::kNullCode);
  for (size_t i = 0; i < d; ++i) {
    rank[sorted[i].slot] = static_cast<uint32_t>(i + 1);
  }
  codes->Reset(CodeWidthForNumCodes(d + 1));
  codes->resize(n);
  codes->WithMutable([&](auto* out) {
    using Code = std::remove_pointer_t<decltype(out)>;
    for (size_t r = 0; r < n; ++r) {
      out[r] = static_cast<Code>(rank[slot_of_row[r]]);
    }
  });
  // The per-row scratch goes before the dictionary's Values are built.
  std::vector<uint32_t>().swap(slot_of_row);
  std::vector<uint32_t>().swap(rank);

  std::vector<Value> values;
  std::vector<size_t> counts;
  values.reserve(d + 1);
  counts.reserve(d + 1);
  values.push_back(Value::Null());  // reserved code 0
  counts.push_back(null_count);
  for (const Distinct& e : sorted) {
    values.push_back(Keys::ToValue(e.key));
    counts.push_back(e.count);
  }
  *dict = ColumnDictionary::FromSortedParts(std::move(values),
                                            std::move(counts));
}

}  // namespace

uint64_t EncodedRelation::ComputeFingerprint() const {
  uint64_t fp = MixInto(0x6D657461ull, num_rows_);
  fp = MixInto(fp, columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    const ColumnDictionary& dict = dicts_[c];
    fp = MixInto(fp, dict.values_.size());
    for (const Value& v : dict.values_) fp = MixInto(fp, v.Hash());
    columns_[c].With([&fp, n = columns_[c].size()](const auto* p) {
      for (size_t r = 0; r < n; ++r) fp = MixInto(fp, p[r]);
    });
  }
  return fp;
}

EncodedRelation EncodedRelation::Encode(const Relation& relation) {
  EncodedRelation out;
  out.schema_ = relation.schema();
  out.num_rows_ = relation.num_rows();
  out.source_ = &relation;
  const size_t m = relation.num_columns();
  out.columns_.resize(m);
  out.dicts_.resize(m);

  // Relation::Make / AppendRow guarantee uniformly typed columns, so one
  // dispatch on the attribute type picks the raw key for every row. One
  // pool task per column, each writing only its own column's slots; the
  // fingerprint is a serial fold over the finished columns.
  ParallelFor(0, m, 1, [&](size_t c) {
    const std::vector<Value>& column = relation.column(c);
    switch (out.schema_.attribute(c).type) {
      case DataType::kInt64:
        EncodeColumn<IntKeys>(column, &out.dicts_[c], &out.columns_[c]);
        break;
      case DataType::kDouble:
        EncodeColumn<DoubleKeys>(column, &out.dicts_[c], &out.columns_[c]);
        break;
      case DataType::kString:
        EncodeColumn<StringKeys>(column, &out.dicts_[c], &out.columns_[c]);
        break;
    }
  });
  out.fingerprint_ = out.ComputeFingerprint();
  return out;
}

ColumnDictionary ColumnDictionary::FromSortedParts(
    std::vector<Value> values, std::vector<size_t> counts) {
  METALEAK_DCHECK(!values.empty() && values[0].is_null());
  METALEAK_DCHECK(values.size() == counts.size());
  ColumnDictionary dict;
  dict.values_ = std::move(values);
  dict.counts_ = std::move(counts);
  dict.null_count_ = dict.counts_[kNullCode];
  return dict;
}

EncodedRelation EncodedRelation::FromParts(
    Schema schema, std::vector<std::vector<uint32_t>> codes,
    std::vector<ColumnDictionary> dicts, const Relation* source) {
  METALEAK_DCHECK(codes.size() == dicts.size());
  std::vector<CodeColumn> columns;
  columns.reserve(codes.size());
  for (size_t c = 0; c < codes.size(); ++c) {
    columns.push_back(CodeColumn::FromU32(
        codes[c], CodeWidthForNumCodes(dicts[c].num_codes())));
  }
  return FromParts(std::move(schema), std::move(columns), std::move(dicts),
                   source);
}

EncodedRelation EncodedRelation::FromParts(Schema schema,
                                           std::vector<CodeColumn> columns,
                                           std::vector<ColumnDictionary> dicts,
                                           const Relation* source) {
  METALEAK_DCHECK(columns.size() == dicts.size());
  EncodedRelation out;
  out.schema_ = std::move(schema);
  out.num_rows_ = columns.empty() ? 0 : columns[0].size();
  out.source_ = source;
  out.columns_ = std::move(columns);
  out.dicts_ = std::move(dicts);

  // Same mixing sequence as Encode, so FromParts of canonical parts is
  // fingerprint-identical to encoding the decoded relation from scratch.
  out.fingerprint_ = out.ComputeFingerprint();
  return out;
}

void EncodedRelation::set_source(const Relation* source) {
  source_ = source;
  decoded_source_.reset();
}

void EncodedRelation::DecodeSourceOnFirstUse() {
  source_ = nullptr;
  decoded_source_ = std::make_shared<DecodedSource>();
}

const Relation* EncodedRelation::source() const {
  if (decoded_source_ == nullptr) return source_;
  DecodedSource& decoded = *decoded_source_;
  std::call_once(decoded.once,
                 [&] { decoded.relation.emplace(Decode().ValueOrDie()); });
  return &*decoded.relation;
}

Result<Relation> EncodedRelation::Decode() const {
  std::vector<std::vector<Value>> columns(num_columns());
  for (size_t c = 0; c < num_columns(); ++c) {
    columns[c].reserve(num_rows_);
    const size_t n = columns_[c].size();
    for (size_t r = 0; r < n; ++r) {
      columns[c].push_back(dicts_[c].decode(columns_[c].at(r)));
    }
  }
  return Relation::Make(schema_, std::move(columns));
}

Result<Domain> EncodedRelation::DomainOf(size_t c) const {
  if (c >= num_columns()) {
    return Status::OutOfRange("attribute index " + std::to_string(c) +
                              " out of range");
  }
  const Attribute& attr = schema_.attribute(c);
  const ColumnDictionary& dict = dicts_[c];
  if (attr.semantic == SemanticType::kCategorical) {
    if (dict.num_distinct() == 0) {
      return Status::Invalid("attribute '" + attr.name +
                             "' has no non-null values");
    }
    return Domain::Categorical(dict.DistinctValues());
  }
  // Continuous: min/max over the numeric dictionary entries. Non-numeric
  // values (if any) sort after numerics in Value order, so the numeric
  // entries form a sorted prefix of codes 1..K — but scanning all K keeps
  // this robust without relying on that.
  bool seen = false;
  double lo = 0.0;
  double hi = 0.0;
  for (uint32_t code = 1; code < dict.num_codes(); ++code) {
    const Value& v = dict.decode(code);
    if (!v.is_numeric()) continue;
    double x = v.AsNumeric();
    if (!seen) {
      lo = hi = x;
      seen = true;
    } else {
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
  }
  if (!seen) {
    return Status::Invalid("continuous attribute '" + attr.name +
                           "' has no numeric values");
  }
  return Domain::Continuous(lo, hi);
}

Result<std::vector<Domain>> EncodedRelation::Domains() const {
  std::vector<Domain> out;
  out.reserve(num_columns());
  for (size_t c = 0; c < num_columns(); ++c) {
    METALEAK_ASSIGN_OR_RETURN(Domain d, DomainOf(c));
    out.push_back(std::move(d));
  }
  return out;
}

std::vector<double> ColumnDictionary::NumericByCode() const {
  std::vector<double> out(values_.size(),
                          std::numeric_limits<double>::quiet_NaN());
  for (size_t code = 1; code < values_.size(); ++code) {
    if (values_[code].is_numeric()) out[code] = values_[code].AsNumeric();
  }
  return out;
}

}  // namespace metaleak
