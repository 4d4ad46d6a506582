#include "metadata/metadata_package.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/string_util.h"

// Serialization grammar (one record per line, tab-separated fields):
//
//   metaleak-metadata v1
//   rows\t<N>
//   attr\t<name>\t<type>\t<semantic>
//   domain\t<index>\tcategorical\t<v1>|<v2>|...
//   domain\t<index>\tcontinuous\t<lo>\t<hi>
//   dep\t<KIND>\t<i,j,...>\t<rhs>\t<g3>\t<K>\t<eps>\t<delta>
//
// Dependency and CFD indices name attributes of the schema; g3 lies in
// [0, 1], K is non-negative, and every eps and delta is finite and
// non-negative.
//
// Categorical domain values are typed: "i:<int>", "d:<double>", "s:<str>".

namespace metaleak {

std::string DisclosureLevelToString(DisclosureLevel level) {
  switch (level) {
    case DisclosureLevel::kNames:
      return "names";
    case DisclosureLevel::kNamesAndDomains:
      return "names+domains";
    case DisclosureLevel::kWithFds:
      return "names+domains+FDs";
    case DisclosureLevel::kWithRfds:
      return "names+domains+FDs+RFDs";
    case DisclosureLevel::kWithDistributions:
      return "names+domains+FDs+RFDs+distributions";
  }
  return "unknown";
}

bool MetadataPackage::HasAllDomains() const {
  if (domains.size() != schema.num_attributes()) return false;
  for (const auto& d : domains) {
    if (!d.has_value()) return false;
  }
  return true;
}

Result<std::vector<Domain>> MetadataPackage::RequireDomains() const {
  if (!HasAllDomains()) {
    return Status::Invalid(
        "metadata package does not disclose every attribute domain");
  }
  std::vector<Domain> out;
  out.reserve(domains.size());
  for (size_t c = 0; c < domains.size(); ++c) {
    const Domain& d = *domains[c];
    const std::string& name = schema.attribute(c).name;
    // Generation draws from [lo, hi) and Def 2.3 scales epsilon by the
    // range, so an infinite bound would make every measure meaningless.
    if (d.is_continuous() &&
        !(std::isfinite(d.lo()) && std::isfinite(d.hi()))) {
      return Status::Invalid("continuous domain of attribute '" + name +
                             "' has a non-finite bound");
    }
    if (d.is_continuous() && d.lo() > d.hi()) {
      return Status::Invalid("continuous domain of attribute '" + name +
                             "' has lo > hi");
    }
    // Generation draws a uniform index into the values.
    if (d.is_categorical() && d.values().empty()) {
      return Status::Invalid("categorical domain of attribute '" + name +
                             "' is empty");
    }
    out.push_back(d);
  }
  return out;
}

MetadataPackage MetadataPackage::Restrict(DisclosureLevel level) const {
  MetadataPackage out;
  out.schema = schema;
  if (level >= DisclosureLevel::kNamesAndDomains) {
    out.num_rows = num_rows;
    out.domains = domains;
  } else {
    out.domains.assign(schema.num_attributes(), std::nullopt);
  }
  if (level >= DisclosureLevel::kWithFds) {
    for (const Dependency& d :
         dependencies.OfKind(DependencyKind::kFunctional)) {
      out.dependencies.Add(d);
    }
  }
  if (level >= DisclosureLevel::kWithRfds) {
    for (const Dependency& d : dependencies) {
      if (d.kind != DependencyKind::kFunctional) out.dependencies.Add(d);
    }
    out.conditional_fds = conditional_fds;
  }
  if (level >= DisclosureLevel::kWithDistributions) {
    out.distributions = distributions;
  } else {
    out.distributions.assign(schema.num_attributes(), std::nullopt);
  }
  return out;
}

namespace {

std::string EncodeValue(const Value& v) {
  if (v.is_null()) return "n:";
  if (v.is_int()) return "i:" + std::to_string(v.AsInt());
  if (v.is_double()) return "d:" + FormatDouble(v.AsDouble(), 12);
  return "s:" + v.AsString();
}

Result<Value> DecodeValue(const std::string& s) {
  if (s.size() < 2 || s[1] != ':') {
    return Status::IoError("malformed domain value: " + s);
  }
  std::string body = s.substr(2);
  switch (s[0]) {
    case 'n':
      return Value::Null();
    case 'i': {
      auto v = ParseInt64(body);
      if (!v) return Status::IoError("bad int domain value: " + s);
      return Value::Int(*v);
    }
    case 'd': {
      auto v = ParseDouble(body);
      if (!v) return Status::IoError("bad double domain value: " + s);
      return Value::Real(*v);
    }
    case 's':
      return Value::Str(body);
    default:
      return Status::IoError("unknown domain value tag: " + s);
  }
}

Result<DataType> ParseType(const std::string& s) {
  if (s == "int64") return DataType::kInt64;
  if (s == "double") return DataType::kDouble;
  if (s == "string") return DataType::kString;
  return Status::IoError("unknown data type: " + s);
}

Result<SemanticType> ParseSemantic(const std::string& s) {
  if (s == "categorical") return SemanticType::kCategorical;
  if (s == "continuous") return SemanticType::kContinuous;
  return Status::IoError("unknown semantic type: " + s);
}

// A comma list of non-negative attribute indices; blank entries are
// skipped. False on any other entry.
bool ParseIndexList(const std::string& field, std::vector<size_t>* out) {
  for (const std::string& part : Split(field, ',')) {
    if (Trim(part).empty()) continue;
    auto i = ParseInt64(part);
    if (!i || *i < 0) return false;
    out->push_back(static_cast<size_t>(*i));
  }
  return true;
}

// A DD threshold: finite and non-negative (NaN fails both).
bool IsThreshold(double x) { return std::isfinite(x) && x >= 0.0; }

}  // namespace

std::string MetadataPackage::Serialize() const {
  std::ostringstream os;
  os << "metaleak-metadata v1\n";
  os << "rows\t" << num_rows << '\n';
  for (const Attribute& a : schema.attributes()) {
    os << "attr\t" << a.name << '\t' << DataTypeToString(a.type) << '\t'
       << SemanticTypeToString(a.semantic) << '\n';
  }
  for (size_t i = 0; i < domains.size(); ++i) {
    if (!domains[i].has_value()) continue;
    const Domain& d = *domains[i];
    if (d.is_categorical()) {
      std::vector<std::string> encoded;
      encoded.reserve(d.values().size());
      for (const Value& v : d.values()) encoded.push_back(EncodeValue(v));
      os << "domain\t" << i << "\tcategorical\t" << Join(encoded, "|")
         << '\n';
    } else {
      os << "domain\t" << i << "\tcontinuous\t" << FormatDouble(d.lo(), 12)
         << '\t' << FormatDouble(d.hi(), 12) << '\n';
    }
  }
  for (const Dependency& d : dependencies) {
    std::vector<std::string> lhs;
    for (size_t i : d.lhs.ToIndices()) lhs.push_back(std::to_string(i));
    // The epsilon field is a comma list for multi-attribute DDs; the
    // single-epsilon form stays byte-identical to the v1 records.
    std::vector<std::string> eps;
    if (d.lhs_epsilons.empty()) {
      eps.push_back(FormatDouble(d.lhs_epsilon, 12));
    } else {
      for (double e : d.lhs_epsilons) eps.push_back(FormatDouble(e, 12));
    }
    os << "dep\t" << DependencyKindCode(d.kind) << '\t' << Join(lhs, ",")
       << '\t' << d.rhs << '\t' << FormatDouble(d.g3_error, 12) << '\t'
       << d.max_fanout << '\t' << Join(eps, ",") << '\t'
       << FormatDouble(d.rhs_delta, 12) << '\n';
  }
  for (const ConditionalFd& cfd : conditional_fds) {
    std::vector<std::string> lhs;
    for (size_t i : cfd.lhs.ToIndices()) lhs.push_back(std::to_string(i));
    os << "cfd\t" << cfd.condition_attr << '\t'
       << EncodeValue(cfd.condition_value) << '\t' << Join(lhs, ",")
       << '\t' << cfd.rhs << '\t' << (cfd.rhs_is_constant ? 1 : 0) << '\t'
       << EncodeValue(cfd.rhs_value) << '\t' << cfd.support << '\n';
  }
  for (size_t i = 0; i < distributions.size(); ++i) {
    if (!distributions[i].has_value()) continue;
    const ValueDistribution& dist = *distributions[i];
    if (dist.is_categorical()) {
      const FrequencyTable& table = dist.frequency_table();
      std::vector<std::string> entries;
      entries.reserve(table.values.size());
      for (size_t j = 0; j < table.values.size(); ++j) {
        entries.push_back(EncodeValue(table.values[j]) + "@" +
                          std::to_string(table.counts[j]));
      }
      os << "dist\t" << i << "\tcategorical\t" << Join(entries, "|")
         << '\n';
    } else {
      const Histogram& h = dist.histogram();
      std::vector<std::string> counts;
      counts.reserve(h.counts.size());
      for (size_t c : h.counts) counts.push_back(std::to_string(c));
      os << "dist\t" << i << "\tcontinuous\t" << FormatDouble(h.lo, 12)
         << '\t' << FormatDouble(h.hi, 12) << '\t' << Join(counts, ",")
         << '\n';
    }
  }
  return os.str();
}

Result<MetadataPackage> MetadataPackage::Deserialize(
    const std::string& text) {
  std::vector<std::string> lines = Split(text, '\n');
  if (lines.empty() || Trim(lines[0]) != "metaleak-metadata v1") {
    return Status::IoError("missing metaleak-metadata header");
  }
  MetadataPackage pkg;
  std::vector<Attribute> attrs;
  std::vector<std::pair<size_t, Domain>> parsed_domains;
  std::vector<std::pair<size_t, ValueDistribution>> parsed_dists;
  // Dependencies and CFDs with their LHS indices, which are checked
  // against the schema before they go into an AttributeSet.
  std::vector<std::pair<Dependency, std::vector<size_t>>> parsed_deps;
  std::vector<std::pair<ConditionalFd, std::vector<size_t>>> parsed_cfds;

  for (size_t ln = 1; ln < lines.size(); ++ln) {
    if (Trim(lines[ln]).empty()) continue;
    std::vector<std::string> f = Split(lines[ln], '\t');
    const std::string& tag = f[0];
    if (tag == "rows") {
      if (f.size() != 2) return Status::IoError("bad rows record");
      auto v = ParseInt64(f[1]);
      if (!v || *v < 0) return Status::IoError("bad row count");
      pkg.num_rows = static_cast<size_t>(*v);
    } else if (tag == "attr") {
      if (f.size() != 4) return Status::IoError("bad attr record");
      Attribute a;
      a.name = f[1];
      METALEAK_ASSIGN_OR_RETURN(a.type, ParseType(f[2]));
      METALEAK_ASSIGN_OR_RETURN(a.semantic, ParseSemantic(f[3]));
      attrs.push_back(std::move(a));
    } else if (tag == "domain") {
      if (f.size() < 4) return Status::IoError("bad domain record");
      auto idx = ParseInt64(f[1]);
      if (!idx || *idx < 0) return Status::IoError("bad domain index");
      if (f[2] == "categorical") {
        std::vector<Value> values;
        for (const std::string& enc : Split(f[3], '|')) {
          METALEAK_ASSIGN_OR_RETURN(Value v, DecodeValue(enc));
          values.push_back(std::move(v));
        }
        parsed_domains.emplace_back(static_cast<size_t>(*idx),
                                    Domain::Categorical(std::move(values)));
      } else if (f[2] == "continuous") {
        if (f.size() != 5) return Status::IoError("bad continuous domain");
        auto lo = ParseDouble(f[3]);
        auto hi = ParseDouble(f[4]);
        // !(lo <= hi) also turns away a NaN bound.
        if (!lo || !hi || !(*lo <= *hi)) {
          return Status::IoError("bad domain bounds");
        }
        parsed_domains.emplace_back(static_cast<size_t>(*idx),
                                    Domain::Continuous(*lo, *hi));
      } else {
        return Status::IoError("unknown domain kind: " + f[2]);
      }
    } else if (tag == "dep") {
      if (f.size() != 8) return Status::IoError("bad dep record");
      METALEAK_ASSIGN_OR_RETURN(DependencyKind kind,
                                ParseDependencyKind(f[1]));
      Dependency d;
      d.kind = kind;
      std::vector<size_t> lhs;
      if (!ParseIndexList(f[2], &lhs)) return Status::IoError("bad dep LHS");
      auto rhs = ParseInt64(f[3]);
      auto g3 = ParseDouble(f[4]);
      auto fanout = ParseInt64(f[5]);
      std::vector<double> eps_list;
      for (const std::string& part : Split(f[6], ',')) {
        auto e = ParseDouble(part);
        if (!e) return Status::IoError("bad dep parameters");
        eps_list.push_back(*e);
      }
      auto delta = ParseDouble(f[7]);
      if (!rhs || !g3 || !fanout || eps_list.empty() || !delta ||
          *rhs < 0 || *fanout < 0) {
        return Status::IoError("bad dep parameters");
      }
      // NaN fails every comparison, so it is turned away here too.
      if (!(*g3 >= 0.0 && *g3 <= 1.0)) {
        return Status::IoError("dep g3 error outside [0, 1]");
      }
      if (!IsThreshold(*delta) ||
          !std::all_of(eps_list.begin(), eps_list.end(), IsThreshold)) {
        return Status::IoError(
            "dep epsilon or delta is negative, infinite or NaN");
      }
      d.rhs = static_cast<size_t>(*rhs);
      d.g3_error = *g3;
      d.max_fanout = static_cast<size_t>(*fanout);
      d.lhs_epsilon = eps_list[0];
      if (eps_list.size() > 1) d.lhs_epsilons = std::move(eps_list);
      d.rhs_delta = *delta;
      parsed_deps.emplace_back(std::move(d), std::move(lhs));
    } else if (tag == "cfd") {
      if (f.size() != 8) return Status::IoError("bad cfd record");
      ConditionalFd cfd;
      auto cond = ParseInt64(f[1]);
      if (!cond || *cond < 0) return Status::IoError("bad cfd condition");
      cfd.condition_attr = static_cast<size_t>(*cond);
      METALEAK_ASSIGN_OR_RETURN(cfd.condition_value, DecodeValue(f[2]));
      std::vector<size_t> lhs;
      if (!ParseIndexList(f[3], &lhs)) return Status::IoError("bad cfd LHS");
      auto rhs = ParseInt64(f[4]);
      auto is_const = ParseInt64(f[5]);
      auto support = ParseInt64(f[7]);
      if (!rhs || !is_const || !support || *rhs < 0 || *support < 0) {
        return Status::IoError("bad cfd parameters");
      }
      cfd.rhs = static_cast<size_t>(*rhs);
      cfd.rhs_is_constant = *is_const != 0;
      METALEAK_ASSIGN_OR_RETURN(cfd.rhs_value, DecodeValue(f[6]));
      cfd.support = static_cast<size_t>(*support);
      parsed_cfds.emplace_back(std::move(cfd), std::move(lhs));
    } else if (tag == "dist") {
      if (f.size() < 4) return Status::IoError("bad dist record");
      auto idx = ParseInt64(f[1]);
      if (!idx || *idx < 0) return Status::IoError("bad dist index");
      if (f[2] == "categorical") {
        FrequencyTable table;
        for (const std::string& entry : Split(f[3], '|')) {
          size_t at = entry.rfind('@');
          if (at == std::string::npos) {
            return Status::IoError("bad dist entry: " + entry);
          }
          METALEAK_ASSIGN_OR_RETURN(Value v,
                                    DecodeValue(entry.substr(0, at)));
          auto count = ParseInt64(entry.substr(at + 1));
          if (!count || *count < 0) {
            return Status::IoError("bad dist count: " + entry);
          }
          table.values.push_back(std::move(v));
          table.counts.push_back(static_cast<size_t>(*count));
        }
        METALEAK_ASSIGN_OR_RETURN(
            ValueDistribution dist,
            ValueDistribution::Categorical(std::move(table)));
        parsed_dists.emplace_back(static_cast<size_t>(*idx),
                                  std::move(dist));
      } else if (f[2] == "continuous") {
        if (f.size() != 6) return Status::IoError("bad continuous dist");
        auto lo = ParseDouble(f[3]);
        auto hi = ParseDouble(f[4]);
        if (!lo || !hi) return Status::IoError("bad dist bounds");
        Histogram h;
        h.lo = *lo;
        h.hi = *hi;
        for (const std::string& part : Split(f[5], ',')) {
          auto count = ParseInt64(part);
          if (!count || *count < 0) {
            return Status::IoError("bad dist bucket count");
          }
          h.counts.push_back(static_cast<size_t>(*count));
        }
        METALEAK_ASSIGN_OR_RETURN(
            ValueDistribution dist,
            ValueDistribution::Continuous(std::move(h)));
        parsed_dists.emplace_back(static_cast<size_t>(*idx),
                                  std::move(dist));
      } else {
        return Status::IoError("unknown dist kind: " + f[2]);
      }
    } else {
      return Status::IoError("unknown record tag: " + tag);
    }
  }

  pkg.schema = Schema(std::move(attrs));
  pkg.domains.assign(pkg.schema.num_attributes(), std::nullopt);
  for (auto& [idx, domain] : parsed_domains) {
    if (idx >= pkg.domains.size()) {
      return Status::IoError("domain index out of range");
    }
    pkg.domains[idx] = std::move(domain);
  }
  pkg.distributions.assign(pkg.schema.num_attributes(), std::nullopt);
  for (auto& [idx, dist] : parsed_dists) {
    if (idx >= pkg.distributions.size()) {
      return Status::IoError("dist index out of range");
    }
    pkg.distributions[idx] = std::move(dist);
  }
  // An index past the schema (or past AttributeSet's 64 bits, which
  // With would shift out of its word) names no attribute.
  const size_t m = std::min(pkg.schema.num_attributes(),
                            AttributeSet::kMaxAttributes);
  auto make_lhs = [m](const std::vector<size_t>& indices,
                      AttributeSet* lhs) {
    for (size_t i : indices) {
      if (i >= m) return false;
      *lhs = lhs->With(i);
    }
    return true;
  };
  for (auto& [dep, lhs] : parsed_deps) {
    if (dep.rhs >= m || !make_lhs(lhs, &dep.lhs)) {
      return Status::IoError("dep index out of range");
    }
    pkg.dependencies.Add(dep);
  }
  for (auto& [cfd, lhs] : parsed_cfds) {
    if (cfd.condition_attr >= m || cfd.rhs >= m ||
        !make_lhs(lhs, &cfd.lhs)) {
      return Status::IoError("cfd index out of range");
    }
    pkg.conditional_fds.push_back(std::move(cfd));
  }
  return pkg;
}

}  // namespace metaleak
