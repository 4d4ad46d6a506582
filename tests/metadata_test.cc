// Unit tests for src/metadata: Dependency, DependencySet (closure, cover),
// DependencyGraph, MetadataPackage (restriction + serialization),
// ValueDistribution's bound checks.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "data/datasets/echocardiogram.h"
#include "data/datasets/employee.h"
#include "data/domain.h"
#include "discovery/discovery_engine.h"
#include "metadata/dependency.h"
#include "metadata/dependency_graph.h"
#include "metadata/dependency_set.h"
#include "metadata/metadata_package.h"
#include "metadata/value_distribution.h"

namespace metaleak {
namespace {

// --- Dependency -------------------------------------------------------------

TEST(DependencyTest, FactoriesSetKindAndParams) {
  Dependency fd = Dependency::Fd(AttributeSet::Of({0, 1}), 2);
  EXPECT_EQ(fd.kind, DependencyKind::kFunctional);
  EXPECT_EQ(fd.lhs.size(), 2u);
  EXPECT_EQ(fd.rhs, 2u);

  Dependency afd = Dependency::Afd(AttributeSet::Single(0), 1, 0.05);
  EXPECT_DOUBLE_EQ(afd.g3_error, 0.05);

  Dependency nd = Dependency::Nd(0, 1, 4);
  EXPECT_EQ(nd.max_fanout, 4u);

  Dependency dd = Dependency::Dd(0, 1, 0.5, 2.0);
  EXPECT_DOUBLE_EQ(dd.lhs_epsilon, 0.5);
  EXPECT_DOUBLE_EQ(dd.rhs_delta, 2.0);
}

TEST(DependencyTest, ToStringUsesSchemaNames) {
  Relation employee = datasets::Employee();
  Dependency fd = Dependency::Fd(AttributeSet::Single(0), 1);
  EXPECT_EQ(fd.ToString(employee.schema()), "FD {Name} -> Age");
  Dependency nd = Dependency::Nd(2, 3, 2);
  EXPECT_EQ(nd.ToString(employee.schema()),
            "ND {Department} -> Salary (K=2)");
}

TEST(DependencyTest, KindCodesRoundTrip) {
  for (DependencyKind kind :
       {DependencyKind::kFunctional, DependencyKind::kApproximateFunctional,
        DependencyKind::kNumerical, DependencyKind::kOrder,
        DependencyKind::kDifferential, DependencyKind::kOrderedFunctional}) {
    auto parsed = ParseDependencyKind(DependencyKindCode(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(ParseDependencyKind("XYZ").ok());
}

// --- DependencySet -----------------------------------------------------------

TEST(DependencySetTest, AddDeduplicates) {
  DependencySet set;
  set.Add(Dependency::Fd(AttributeSet::Single(0), 1));
  set.Add(Dependency::Fd(AttributeSet::Single(0), 1));
  EXPECT_EQ(set.size(), 1u);
  set.Add(Dependency::Od(0, 1));
  EXPECT_EQ(set.size(), 2u);
}

TEST(DependencySetTest, FiltersByKindAndRhs) {
  DependencySet set;
  set.Add(Dependency::Fd(AttributeSet::Single(0), 1));
  set.Add(Dependency::Od(0, 2));
  set.Add(Dependency::Fd(AttributeSet::Single(2), 1));
  EXPECT_EQ(set.OfKind(DependencyKind::kFunctional).size(), 2u);
  EXPECT_EQ(set.WithRhs(1).size(), 2u);
  EXPECT_EQ(set.WithRhs(5).size(), 0u);
}

TEST(DependencySetTest, FdClosureTransitivity) {
  // A -> B, B -> C  =>  closure({A}) = {A, B, C}.
  DependencySet set;
  set.Add(Dependency::Fd(AttributeSet::Single(0), 1));
  set.Add(Dependency::Fd(AttributeSet::Single(1), 2));
  AttributeSet closure = set.FdClosure(AttributeSet::Single(0));
  EXPECT_EQ(closure, AttributeSet::Of({0, 1, 2}));
  EXPECT_TRUE(set.FdImplies(AttributeSet::Single(0), 2));
  EXPECT_FALSE(set.FdImplies(AttributeSet::Single(2), 0));
}

TEST(DependencySetTest, FdClosureCompositeLhs) {
  // {A,B} -> C only fires when both present.
  DependencySet set;
  set.Add(Dependency::Fd(AttributeSet::Of({0, 1}), 2));
  EXPECT_FALSE(set.FdImplies(AttributeSet::Single(0), 2));
  EXPECT_TRUE(set.FdImplies(AttributeSet::Of({0, 1}), 2));
}

TEST(DependencySetTest, MinimalCoverDropsRedundantFd) {
  // A -> B, B -> C, A -> C: the last is implied by transitivity.
  DependencySet set;
  set.Add(Dependency::Fd(AttributeSet::Single(0), 1));
  set.Add(Dependency::Fd(AttributeSet::Single(1), 2));
  set.Add(Dependency::Fd(AttributeSet::Single(0), 2));
  DependencySet cover = set.FdMinimalCover();
  EXPECT_EQ(cover.size(), 2u);
  EXPECT_TRUE(cover.FdImplies(AttributeSet::Single(0), 2));
}

TEST(DependencySetTest, MinimalCoverLeftReduces) {
  // A -> B plus {A,C} -> B: the latter's C is extraneous.
  DependencySet set;
  set.Add(Dependency::Fd(AttributeSet::Single(0), 1));
  set.Add(Dependency::Fd(AttributeSet::Of({0, 2}), 1));
  DependencySet cover = set.FdMinimalCover();
  EXPECT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover.all()[0].lhs, AttributeSet::Single(0));
}

TEST(DependencySetTest, MinimalCoverIgnoresRfds) {
  DependencySet set;
  set.Add(Dependency::Od(0, 1));
  set.Add(Dependency::Fd(AttributeSet::Single(0), 1));
  DependencySet cover = set.FdMinimalCover();
  EXPECT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover.all()[0].kind, DependencyKind::kFunctional);
}

// --- DependencyGraph ----------------------------------------------------------

TEST(DependencyGraphTest, CoversEveryAttributeOnce) {
  DependencySet deps;
  deps.Add(Dependency::Fd(AttributeSet::Single(0), 1));
  DependencyGraph g = DependencyGraph::Build(3, deps);
  EXPECT_EQ(g.size(), 3u);
  std::vector<bool> seen(3, false);
  for (const GenerationStep& s : g.steps()) {
    EXPECT_FALSE(seen[s.attribute]);
    seen[s.attribute] = true;
  }
}

TEST(DependencyGraphTest, LhsGeneratedBeforeRhs) {
  DependencySet deps;
  deps.Add(Dependency::Fd(AttributeSet::Single(0), 1));
  deps.Add(Dependency::Fd(AttributeSet::Single(1), 2));
  DependencyGraph g = DependencyGraph::Build(3, deps);
  std::vector<size_t> position(3);
  for (size_t i = 0; i < g.steps().size(); ++i) {
    position[g.steps()[i].attribute] = i;
  }
  EXPECT_LT(position[0], position[1]);
  EXPECT_LT(position[1], position[2]);
  EXPECT_EQ(g.num_derived(), 2u);
}

TEST(DependencyGraphTest, BreaksCyclesDeterministically) {
  // 0 -> 1 and 1 -> 0: one must become a root.
  DependencySet deps;
  deps.Add(Dependency::Fd(AttributeSet::Single(0), 1));
  deps.Add(Dependency::Fd(AttributeSet::Single(1), 0));
  DependencyGraph g = DependencyGraph::Build(2, deps);
  EXPECT_EQ(g.num_derived(), 1u);
  // Smallest index becomes the root.
  EXPECT_FALSE(g.StepFor(0).via.has_value());
  EXPECT_TRUE(g.StepFor(1).via.has_value());
}

TEST(DependencyGraphTest, PrefersStrongerKinds) {
  DependencySet deps;
  deps.Add(Dependency::Nd(0, 1, 3));
  deps.Add(Dependency::Fd(AttributeSet::Single(0), 1));
  DependencyGraph g = DependencyGraph::Build(2, deps);
  ASSERT_TRUE(g.StepFor(1).via.has_value());
  EXPECT_EQ(g.StepFor(1).via->kind, DependencyKind::kFunctional);
}

TEST(DependencyGraphTest, AllowedKindsFilter) {
  DependencySet deps;
  deps.Add(Dependency::Fd(AttributeSet::Single(0), 1));
  deps.Add(Dependency::Od(0, 1));
  DependencyGraph g =
      DependencyGraph::Build(2, deps, {DependencyKind::kOrder});
  ASSERT_TRUE(g.StepFor(1).via.has_value());
  EXPECT_EQ(g.StepFor(1).via->kind, DependencyKind::kOrder);

  DependencyGraph none =
      DependencyGraph::Build(2, deps, {DependencyKind::kDifferential});
  EXPECT_EQ(none.num_derived(), 0u);
}

TEST(DependencyGraphTest, IgnoresTrivialSelfDependency) {
  DependencySet deps;
  deps.Add(Dependency::Fd(AttributeSet::Of({0, 1}), 1));
  DependencyGraph g = DependencyGraph::Build(2, deps);
  EXPECT_EQ(g.num_derived(), 0u);
}

// --- MetadataPackage -----------------------------------------------------------

MetadataPackage EmployeeMetadata() {
  Relation employee = datasets::Employee();
  MetadataPackage pkg;
  pkg.schema = employee.schema();
  pkg.num_rows = employee.num_rows();
  auto domains = ExtractDomains(employee);
  for (Domain& d : *domains) pkg.domains.emplace_back(std::move(d));
  pkg.dependencies.Add(Dependency::Fd(AttributeSet::Single(0), 1));
  pkg.dependencies.Add(Dependency::Od(1, 3));
  pkg.dependencies.Add(Dependency::Nd(2, 3, 2));
  pkg.dependencies.Add(Dependency::Afd(AttributeSet::Single(0), 3, 0.02));
  pkg.dependencies.Add(Dependency::Dd(1, 3, 0.4, 2000));
  return pkg;
}

TEST(MetadataPackageTest, RestrictNamesDropsEverything) {
  MetadataPackage restricted =
      EmployeeMetadata().Restrict(DisclosureLevel::kNames);
  EXPECT_EQ(restricted.num_rows, 0u);
  EXPECT_FALSE(restricted.HasAllDomains());
  EXPECT_TRUE(restricted.dependencies.empty());
  EXPECT_EQ(restricted.schema.num_attributes(), 4u);
}

TEST(MetadataPackageTest, RestrictDomainsKeepsDomainsOnly) {
  MetadataPackage restricted =
      EmployeeMetadata().Restrict(DisclosureLevel::kNamesAndDomains);
  EXPECT_TRUE(restricted.HasAllDomains());
  EXPECT_EQ(restricted.num_rows, 4u);
  EXPECT_TRUE(restricted.dependencies.empty());
}

TEST(MetadataPackageTest, RestrictFdsKeepsOnlyFds) {
  MetadataPackage restricted =
      EmployeeMetadata().Restrict(DisclosureLevel::kWithFds);
  EXPECT_EQ(restricted.dependencies.size(), 1u);
  EXPECT_EQ(restricted.dependencies.all()[0].kind,
            DependencyKind::kFunctional);
}

TEST(MetadataPackageTest, RestrictRfdsKeepsAll) {
  MetadataPackage restricted =
      EmployeeMetadata().Restrict(DisclosureLevel::kWithRfds);
  EXPECT_EQ(restricted.dependencies.size(), 5u);
}

TEST(MetadataPackageTest, SerializationRoundTrip) {
  MetadataPackage pkg = EmployeeMetadata();
  std::string text = pkg.Serialize();
  auto parsed = MetadataPackage::Deserialize(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->schema, pkg.schema);
  EXPECT_EQ(parsed->num_rows, pkg.num_rows);
  ASSERT_TRUE(parsed->HasAllDomains());
  for (size_t i = 0; i < pkg.domains.size(); ++i) {
    EXPECT_EQ(*parsed->domains[i], *pkg.domains[i]) << "domain " << i;
  }
  EXPECT_EQ(parsed->dependencies.size(), pkg.dependencies.size());
  for (const Dependency& d : pkg.dependencies) {
    EXPECT_TRUE(parsed->dependencies.Contains(d)) << d.ToString();
  }
}

TEST(MetadataPackageTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(MetadataPackage::Deserialize("not metadata").ok());
  EXPECT_FALSE(MetadataPackage::Deserialize("").ok());
  EXPECT_FALSE(
      MetadataPackage::Deserialize("metaleak-metadata v1\nbogus\trec\n")
          .ok());
  EXPECT_FALSE(MetadataPackage::Deserialize(
                   "metaleak-metadata v1\nrows\tnotanumber\n")
                   .ok());
}

TEST(MetadataPackageTest, RequireDomainsFailsWhenMissing) {
  MetadataPackage pkg = EmployeeMetadata();
  pkg.domains[2] = std::nullopt;
  EXPECT_FALSE(pkg.RequireDomains().ok());
  EXPECT_FALSE(pkg.HasAllDomains());
}

TEST(MetadataPackageTest, RequireDomainsRejectsNonFiniteContinuousBound) {
  Schema schema({{"x", DataType::kDouble, SemanticType::kContinuous}});
  MetadataPackage pkg;
  pkg.schema = schema;
  const double inf = std::numeric_limits<double>::infinity();
  for (auto [lo, hi] : {std::pair{0.0, inf}, std::pair{-inf, 1.0},
                        std::pair{-inf, inf}}) {
    pkg.domains = {Domain::Continuous(lo, hi)};
    Result<std::vector<Domain>> domains = pkg.RequireDomains();
    ASSERT_FALSE(domains.ok());
    EXPECT_TRUE(domains.status().IsInvalid());
    EXPECT_NE(domains.status().message().find("'x'"), std::string::npos);
  }
  pkg.domains = {Domain::Continuous(-1e300, 1e300)};
  EXPECT_TRUE(pkg.RequireDomains().ok());
}

// A one-attribute package whose continuous domain record reads lo, hi.
std::string ContinuousPackageText(const std::string& lo,
                                  const std::string& hi) {
  MetadataPackage pkg;
  pkg.schema = Schema({{"x", DataType::kDouble, SemanticType::kContinuous}});
  pkg.domains = {Domain::Continuous(1.0, 5.0)};
  std::string text = pkg.Serialize();
  const std::string record = "domain\t0\tcontinuous\t";
  const size_t begin = text.find(record) + record.size();
  return text.replace(begin, text.find('\n', begin) - begin,
                      lo + "\t" + hi);
}

TEST(MetadataPackageTest, DeserializeRejectsInvertedContinuousBounds) {
  ASSERT_TRUE(MetadataPackage::Deserialize(ContinuousPackageText("1", "5"))
                  .ok());
  ASSERT_TRUE(MetadataPackage::Deserialize(ContinuousPackageText("5", "5"))
                  .ok());
  auto parsed = MetadataPackage::Deserialize(ContinuousPackageText("5", "1"));
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsIoError());
}

TEST(MetadataPackageTest, DeserializeRejectsNanContinuousBound) {
  for (auto [lo, hi] : {std::pair{"nan", "1"}, std::pair{"0", "nan"}}) {
    auto parsed = MetadataPackage::Deserialize(ContinuousPackageText(lo, hi));
    ASSERT_FALSE(parsed.ok()) << lo << " " << hi;
    EXPECT_TRUE(parsed.status().IsIoError());
  }
}

TEST(ValueDistributionTest, ContinuousRejectsNonFiniteBounds) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (auto [lo, hi] : {std::pair{nan, 1.0}, std::pair{0.0, nan},
                        std::pair{-inf, inf}, std::pair{0.0, inf}}) {
    Histogram h;
    h.lo = lo;
    h.hi = hi;
    h.counts = {2, 1};
    Result<ValueDistribution> dist = ValueDistribution::Continuous(h);
    ASSERT_FALSE(dist.ok()) << lo << " " << hi;
    EXPECT_TRUE(dist.status().IsInvalid());
  }
  Histogram wide;
  wide.lo = -1e300;
  wide.hi = 1e300;
  wide.counts = {1};
  EXPECT_TRUE(ValueDistribution::Continuous(wide).ok());
}

// A one-attribute package whose continuous distribution record reads
// lo, hi (its domain record stays 1..5).
std::string ContinuousDistPackageText(const std::string& lo,
                                      const std::string& hi) {
  MetadataPackage pkg;
  pkg.schema = Schema({{"x", DataType::kDouble, SemanticType::kContinuous}});
  pkg.domains = {Domain::Continuous(1.0, 5.0)};
  Histogram h;
  h.lo = 1.0;
  h.hi = 5.0;
  h.counts = {3, 1};
  pkg.distributions = {
      std::move(ValueDistribution::Continuous(h)).ValueOrDie()};
  std::string text = pkg.Serialize();
  const std::string record = "dist\t0\tcontinuous\t";
  const size_t begin = text.find(record) + record.size();
  const size_t end = text.find('\t', text.find('\t', begin) + 1);
  return text.replace(begin, end - begin, lo + "\t" + hi);
}

TEST(MetadataPackageTest, DeserializeRejectsNonFiniteDistributionBound) {
  auto valid =
      MetadataPackage::Deserialize(ContinuousDistPackageText("1", "5"));
  ASSERT_TRUE(valid.ok()) << valid.status().ToString();
  ASSERT_TRUE(valid->distributions[0].has_value());
  EXPECT_EQ(valid->distributions[0]->histogram().lo, 1.0);
  EXPECT_EQ(valid->distributions[0]->histogram().hi, 5.0);
  EXPECT_EQ(valid->distributions[0]->histogram().counts,
            (std::vector<size_t>{3, 1}));
  for (auto [lo, hi] : {std::pair{"nan", "5"}, std::pair{"1", "nan"},
                        std::pair{"-inf", "inf"}, std::pair{"1", "inf"}}) {
    EXPECT_FALSE(
        MetadataPackage::Deserialize(ContinuousDistPackageText(lo, hi)).ok())
        << lo << " " << hi;
  }
}

// A two-attribute package (x, y continuous on [0, 10]) followed by
// `records`.
std::string TwoAttributeText(const std::string& records) {
  MetadataPackage pkg;
  pkg.schema = Schema({{"x", DataType::kDouble, SemanticType::kContinuous},
                       {"y", DataType::kDouble, SemanticType::kContinuous}});
  pkg.domains = {Domain::Continuous(0.0, 10.0),
                 Domain::Continuous(0.0, 10.0)};
  return pkg.Serialize() + records;
}

// A dep record: kind, lhs list, rhs, g3, K, eps list, delta.
std::string DepRecord(const std::string& kind, const std::string& lhs,
                      const std::string& rhs, const std::string& g3,
                      const std::string& fanout, const std::string& eps,
                      const std::string& delta) {
  return "dep\t" + kind + "\t" + lhs + "\t" + rhs + "\t" + g3 + "\t" +
         fanout + "\t" + eps + "\t" + delta + "\n";
}

// A cfd record: condition attribute and value, lhs list, rhs, constant
// flag, rhs value, support.
std::string CfdRecord(const std::string& cond, const std::string& lhs,
                      const std::string& rhs) {
  return "cfd\t" + cond + "\td:1\t" + lhs + "\t" + rhs + "\t0\tn:\t3\n";
}

void ExpectIoError(const std::string& records) {
  auto parsed = MetadataPackage::Deserialize(TwoAttributeText(records));
  ASSERT_FALSE(parsed.ok()) << records;
  EXPECT_TRUE(parsed.status().IsIoError()) << parsed.status().ToString();
}

TEST(MetadataPackageTest, DeserializeAcceptsWellFormedDependencyRecords) {
  auto parsed = MetadataPackage::Deserialize(TwoAttributeText(
      DepRecord("FD", "0", "1", "0", "0", "0", "0") +
      DepRecord("AFD", "1", "0", "1", "0", "0", "0") +
      DepRecord("ND", "0", "1", "0", "3", "0", "0") +
      DepRecord("DD", "0", "1", "0", "0", "0.5", "2") +
      DepRecord("DD", "0,1", "1", "0", "0", "0,1.5", "0") +
      CfdRecord("0", "0", "1")));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->dependencies.size(), 5u);
  EXPECT_EQ(parsed->dependencies.all()[0].lhs, AttributeSet::Of({0}));
  EXPECT_EQ(parsed->dependencies.all()[3].lhs_epsilon, 0.5);
  EXPECT_EQ(parsed->dependencies.all()[3].rhs_delta, 2.0);
  ASSERT_EQ(parsed->conditional_fds.size(), 1u);
  EXPECT_EQ(parsed->conditional_fds[0].lhs, AttributeSet::Of({0}));
}

TEST(MetadataPackageTest, DeserializeRejectsIndicesOutsideTheSchema) {
  // 70 would shift AttributeSet::With past its 64 bits (LHS {6}).
  ExpectIoError(DepRecord("FD", "70", "1", "0", "0", "0", "0"));
  ExpectIoError(DepRecord("FD", "2", "1", "0", "0", "0", "0"));
  ExpectIoError(DepRecord("FD", "0", "2", "0", "0", "0", "0"));
  ExpectIoError(DepRecord("DD", "0,64", "1", "0", "0", "0,0", "0"));
  ExpectIoError(CfdRecord("0", "70", "1"));
  ExpectIoError(CfdRecord("0", "0", "2"));
  ExpectIoError(CfdRecord("2", "0", "1"));
  // A record read before its attr records is checked against the whole
  // schema, like a domain record.
  auto early = MetadataPackage::Deserialize(
      "metaleak-metadata v1\n" +
      DepRecord("FD", "1", "0", "0", "0", "0", "0") +
      "attr\tx\tdouble\tcontinuous\nattr\ty\tdouble\tcontinuous\n");
  ASSERT_TRUE(early.ok()) << early.status().ToString();
  EXPECT_EQ(early->dependencies.size(), 1u);
}

TEST(MetadataPackageTest, DeserializeRejectsNegativeIndicesAndFanouts) {
  ExpectIoError(DepRecord("FD", "0", "-3", "0", "0", "0", "0"));
  ExpectIoError(DepRecord("FD", "-1", "1", "0", "0", "0", "0"));
  ExpectIoError(DepRecord("ND", "0", "1", "0", "-2", "0", "0"));
}

TEST(MetadataPackageTest, DeserializeRejectsBadDdThresholdsAndG3) {
  // A NaN delta would draw every proximal step from the whole domain and
  // a NaN epsilon would make no step proximal: DD would become Random.
  for (const char* bad : {"-5", "nan", "inf", "-inf"}) {
    SCOPED_TRACE(bad);
    ExpectIoError(DepRecord("DD", "0", "1", "0", "0", bad, "1"));
    ExpectIoError(DepRecord("DD", "0", "1", "0", "0", "1", bad));
    ExpectIoError(
        DepRecord("DD", "0,1", "1", "0", "0", std::string("1,") + bad, "1"));
  }
  // A NaN g3 never fires AFD's Bernoulli.
  for (const char* bad : {"nan", "-0.1", "1.5", "inf"}) {
    SCOPED_TRACE(bad);
    ExpectIoError(DepRecord("AFD", "0", "1", bad, "0", "0", "0"));
  }
}

TEST(MetadataPackageTest, RequireDomainsRejectsInvertedContinuousRange) {
  // A debug build stops an inverted range where it is built; a release
  // build lets a hand-built package carry one, and RequireDomains must
  // turn it away before generation draws from it.
  EXPECT_DEBUG_DEATH(Domain::Continuous(5.0, 1.0), "lo <= hi");
#ifdef NDEBUG
  MetadataPackage pkg;
  pkg.schema = Schema({{"x", DataType::kDouble, SemanticType::kContinuous}});
  pkg.domains = {Domain::Continuous(5.0, 1.0)};
  Result<std::vector<Domain>> domains = pkg.RequireDomains();
  ASSERT_FALSE(domains.ok());
  EXPECT_TRUE(domains.status().IsInvalid());
  EXPECT_NE(domains.status().message().find("'x'"), std::string::npos);
#endif
}

TEST(MetadataPackageTest, RequireDomainsRejectsEmptyCategoricalDomain) {
  MetadataPackage pkg;
  pkg.schema = Schema({{"x", DataType::kDouble, SemanticType::kContinuous},
                       {"c", DataType::kInt64, SemanticType::kCategorical}});
  pkg.domains = {Domain::Continuous(0.0, 1.0), Domain::Categorical({})};
  Result<std::vector<Domain>> domains = pkg.RequireDomains();
  ASSERT_FALSE(domains.ok());
  EXPECT_TRUE(domains.status().IsInvalid());
  EXPECT_NE(domains.status().message().find("'c'"), std::string::npos);
  pkg.domains[1] = Domain::Categorical({Value::Int(1)});
  EXPECT_TRUE(pkg.RequireDomains().ok());
}

TEST(MetadataPackageTest, ValuesWithSpacesSurviveRoundTrip) {
  // "Customer Service" in the Department domain has a space.
  MetadataPackage pkg = EmployeeMetadata();
  std::string text = pkg.Serialize();
  auto parsed = MetadataPackage::Deserialize(text);
  ASSERT_TRUE(parsed.ok());
  const Domain& dept = *parsed->domains[2];
  EXPECT_TRUE(dept.Contains(Value::Str("Customer Service")));
}

// --- Self-contradictory packages ---------------------------------------------

// A three-attribute package, c over {"a", "b"}, k over {1, 2} (both
// categorical) and x continuous on [0, 10], followed by `records`.
std::string MixedKindText(const std::string& records) {
  MetadataPackage pkg;
  pkg.schema = Schema({{"c", DataType::kString, SemanticType::kCategorical},
                       {"k", DataType::kInt64, SemanticType::kCategorical},
                       {"x", DataType::kDouble, SemanticType::kContinuous}});
  pkg.domains = {Domain::Categorical({Value::Str("a"), Value::Str("b")}),
                 Domain::Categorical({Value::Int(1), Value::Int(2)}),
                 Domain::Continuous(0.0, 10.0)};
  return pkg.Serialize() + records;
}

void ExpectMixedKindIoError(const std::string& records) {
  auto parsed = MetadataPackage::Deserialize(MixedKindText(records));
  ASSERT_FALSE(parsed.ok()) << records;
  EXPECT_TRUE(parsed.status().IsIoError()) << parsed.status().ToString();
}

void ExpectMixedKindParses(const std::string& records) {
  auto parsed = MetadataPackage::Deserialize(MixedKindText(records));
  EXPECT_TRUE(parsed.ok()) << records << parsed.status().ToString();
}

TEST(MetadataPackageTest, DeserializeRejectsDistributionOfTheOtherKind) {
  ExpectMixedKindParses("dist\t0\tcategorical\ts:a@3|s:b@1\n");
  ExpectMixedKindParses("dist\t2\tcontinuous\t0\t10\t3,1\n");
  ExpectMixedKindIoError("dist\t0\tcontinuous\t0\t10\t3,1\n");
  ExpectMixedKindIoError("dist\t2\tcategorical\td:1@3\n");
}

TEST(MetadataPackageTest, DeserializeRejectsDistributionValueOutsideDomain) {
  ExpectMixedKindParses("dist\t1\tcategorical\ti:2@3\n");
  ExpectMixedKindIoError("dist\t0\tcategorical\ts:a@3|s:z@1\n");
  // Real(1.0) is not the domain entry Int(1): generation maps frequency
  // values to codes by structural equality.
  ExpectMixedKindIoError("dist\t1\tcategorical\td:1@3\n");
}

TEST(MetadataPackageTest, DeserializeRejectsConstantCfdOutsideDomain) {
  // cfd: condition attribute and value, LHS, RHS, constant flag, RHS
  // value, support.
  ExpectMixedKindParses("cfd\t1\ti:1\t\t0\t1\ts:a\t3\n");
  ExpectMixedKindParses("cfd\t1\ti:1\t1\t0\t0\tn:\t3\n");
  ExpectMixedKindParses("cfd\t0\ts:a\t\t2\t1\ti:4\t3\n");
  ExpectMixedKindIoError("cfd\t1\ti:1\t\t0\t1\ts:zed\t3\n");
  ExpectMixedKindIoError("cfd\t0\ts:a\t\t1\t1\td:2\t3\n");
}

TEST(MetadataPackageTest, DeserializeRejectsNanCategoricalDomainEntry) {
  const std::string head =
      "metaleak-metadata v1\nattr\tc\tdouble\tcategorical\n";
  EXPECT_TRUE(MetadataPackage::Deserialize(
                  head + "domain\t0\tcategorical\td:1|d:2\n")
                  .ok());
  auto parsed = MetadataPackage::Deserialize(
      head + "domain\t0\tcategorical\td:nan|d:1\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsIoError()) << parsed.status().ToString();
}

// Int(3) and Real(3.0) are distinct domain entries, but a real 3 matches
// both under Def 2.2, which one translated code cannot express: the
// leakage scan refuses such a domain, so the boundary turns it away.
// Equal numbers of one type are only duplicates, which Domain folds.
TEST(MetadataPackageTest, DeserializeRejectsCrossTypeCategoricalDomain) {
  const std::string head =
      "metaleak-metadata v1\nattr\tc\tint64\tcategorical\n";
  EXPECT_TRUE(MetadataPackage::Deserialize(
                  head + "domain\t0\tcategorical\ti:1|i:3|d:2.5\n")
                  .ok());
  EXPECT_TRUE(MetadataPackage::Deserialize(
                  head + "domain\t0\tcategorical\ti:3|i:3\n")
                  .ok());
  for (const char* entries : {"i:1|i:3|d:3", "d:3|s:x|i:3"}) {
    auto parsed = MetadataPackage::Deserialize(
        head + "domain\t0\tcategorical\t" + entries + "\n");
    ASSERT_FALSE(parsed.ok()) << entries;
    EXPECT_TRUE(parsed.status().IsIoError()) << parsed.status().ToString();
  }
}

// Packages the profiler discloses with distributions and CFDs describe a
// real relation, so the boundary checks accept them.
TEST(MetadataPackageTest, ProfiledPackagesWithDistributionsRoundTrip) {
  DiscoveryOptions options;
  options.profile_distributions = true;
  options.discover_cfds = true;
  options.cfd.min_support = 2;
  for (const Relation& relation :
       {datasets::Employee(), datasets::Echocardiogram()}) {
    auto report = ProfileRelation(relation, options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const MetadataPackage& pkg = report->metadata;
    ASSERT_FALSE(pkg.conditional_fds.empty());
    auto parsed = MetadataPackage::Deserialize(pkg.Serialize());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->schema, pkg.schema);
    EXPECT_EQ(parsed->conditional_fds.size(), pkg.conditional_fds.size());
    ASSERT_EQ(parsed->distributions.size(), pkg.distributions.size());
    size_t disclosed = 0;
    for (size_t i = 0; i < pkg.distributions.size(); ++i) {
      ASSERT_EQ(parsed->distributions[i].has_value(),
                pkg.distributions[i].has_value());
      disclosed += pkg.distributions[i].has_value();
    }
    EXPECT_GT(disclosed, 0u);
  }
}

}  // namespace
}  // namespace metaleak
