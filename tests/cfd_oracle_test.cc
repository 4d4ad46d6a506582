// CFD discovery on dictionary codes against its boxed-Value oracle.
//
// DiscoverCfds walks each low-cardinality column's codes in the order of
// their first row, keeps the first RHS code, support and impurity of a
// constant pattern in arrays indexed by code, and checks a variable CFD's
// scoped FD in one pass over the condition's rows. The oracle in
// tests/reference/cfd_reference.h hashes Values and re-encodes every
// scope. This suite holds the two to the same CFDs in the same order,
// with Values of the same type and payload and the same supports, on the
// employee and echocardiogram replicas and on a planted fixture with
// NULLs, with skip_global_fds on and off and at two minimum supports: 2,
// which keeps employee's CFDs, and 40, which filters some of
// echocardiogram's.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "data/datasets/echocardiogram.h"
#include "data/datasets/employee.h"
#include "data/encoded_relation.h"
#include "discovery/cfd_discovery.h"
#include "partition/pli_cache.h"
#include "reference/cfd_reference.h"

namespace metaleak {
namespace {

// Value equality that also tells Int64 from double and compares doubles
// by their bits.
bool SameValue(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.is_int() || b.is_int()) {
    return a.is_int() && b.is_int() && a.AsInt() == b.AsInt();
  }
  if (a.is_double() || b.is_double()) {
    return a.is_double() && b.is_double() &&
           std::bit_cast<uint64_t>(a.AsDouble()) ==
               std::bit_cast<uint64_t>(b.AsDouble());
  }
  return a.AsString() == b.AsString();
}

void ExpectSameCfds(const std::vector<ConditionalFd>& expected,
                    const std::vector<ConditionalFd>& actual,
                    const Schema& schema) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    const ConditionalFd& e = expected[i];
    const ConditionalFd& a = actual[i];
    SCOPED_TRACE("CFD " + std::to_string(i) + ": " + e.ToString(schema));
    EXPECT_EQ(e.condition_attr, a.condition_attr);
    EXPECT_TRUE(SameValue(e.condition_value, a.condition_value));
    EXPECT_EQ(e.lhs, a.lhs);
    EXPECT_EQ(e.rhs, a.rhs);
    EXPECT_EQ(e.rhs_is_constant, a.rhs_is_constant);
    EXPECT_TRUE(SameValue(e.rhs_value, a.rhs_value));
    EXPECT_EQ(e.support, a.support);
  }
}

// Columns: region (string, NULL in every 7th row) scopes the FD
// dept -> manager to "eu" and fixes currency to "usd" on "us"; tier
// (Int64, low cardinality, NULL in every 11th row) fixes level (double)
// on tier 2; dept and manager carry NULLs too, so the scoped FDs compare
// NULL with NULL. Rows are laid out so that no condition value first
// occurs in its ascending code order.
Relation PlantedFixture() {
  std::vector<Value> region, dept, manager, currency, tier, level;
  const char* regions[] = {"us", "eu", "apac"};
  for (int i = 0; i < 192; ++i) {
    const char* r = regions[(i / 2) % 3];
    const bool null_region = i % 7 == 3;
    region.push_back(null_region ? Value::Null() : Value::Str(r));
    const std::string d = i % 5 == 4 ? "ops" : (i % 2 == 0 ? "sales" : "dev");
    dept.push_back(i % 13 == 6 ? Value::Null() : Value::Str(d));
    std::string m;
    if (std::string(r) == "eu" && !null_region) {
      m = d == "sales" ? "anna" : (d == "dev" ? "bert" : "cleo");
    } else {
      m = (i % 3 == 0) ? "carl" : "dora";
    }
    manager.push_back(i % 13 == 6 ? Value::Null() : Value::Str(m));
    const bool us = std::string(r) == "us" && !null_region;
    currency.push_back(Value::Str(us ? "usd" : (i % 4 == 0 ? "eur" : "sek")));
    const int64_t t = 3 - i % 3;
    tier.push_back(i % 11 == 5 ? Value::Null() : Value::Int(t));
    level.push_back(Value::Real(t == 2 && i % 11 != 5 ? 0.5
                                                     : 1.25 * (i % 4)));
  }
  Schema schema({{"region", DataType::kString, SemanticType::kCategorical},
                 {"dept", DataType::kString, SemanticType::kCategorical},
                 {"manager", DataType::kString, SemanticType::kCategorical},
                 {"currency", DataType::kString, SemanticType::kCategorical},
                 {"tier", DataType::kInt64, SemanticType::kCategorical},
                 {"level", DataType::kDouble, SemanticType::kContinuous}});
  return std::move(Relation::Make(
                       schema, {region, dept, manager, currency, tier, level}))
      .ValueOrDie();
}

class CfdOracleTest
    : public ::testing::TestWithParam<std::tuple<bool, size_t>> {
 protected:
  // Runs both discoveries under the parameter's options; returns the
  // library's CFDs.
  std::vector<ConditionalFd> Check(const Relation& relation) {
    CfdDiscoveryOptions options;
    options.skip_global_fds = std::get<0>(GetParam());
    options.min_support = std::get<1>(GetParam());
    Result<std::vector<ConditionalFd>> expected =
        reference::DiscoverCfds(relation, options);
    const EncodedRelation encoded = EncodedRelation::Encode(relation);
    PliCache cache(&encoded);
    Result<std::vector<ConditionalFd>> actual =
        DiscoverCfds(&cache, options);
    EXPECT_TRUE(expected.ok()) << expected.status().ToString();
    EXPECT_TRUE(actual.ok()) << actual.status().ToString();
    if (!expected.ok() || !actual.ok()) return {};
    ExpectSameCfds(*expected, *actual, relation.schema());
    return *actual;
  }
};

TEST_P(CfdOracleTest, Employee) { Check(datasets::Employee()); }

TEST_P(CfdOracleTest, Echocardiogram) {
  EXPECT_FALSE(Check(datasets::Echocardiogram()).empty());
}

TEST_P(CfdOracleTest, PlantedFixtureWithNulls) {
  const Relation relation = PlantedFixture();
  size_t constant = 0;
  size_t variable = 0;
  for (const ConditionalFd& cfd : Check(relation)) {
    ++(cfd.rhs_is_constant ? constant : variable);
  }
  EXPECT_GT(constant, 0u);
  EXPECT_GT(variable, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Options, CfdOracleTest,
    ::testing::Combine(::testing::Bool(), ::testing::Values(2, 40)),
    [](const ::testing::TestParamInfo<std::tuple<bool, size_t>>& info) {
      return std::string(std::get<0>(info.param) ? "SkipGlobal"
                                                 : "KeepGlobal") +
             "MinSupport" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace metaleak
