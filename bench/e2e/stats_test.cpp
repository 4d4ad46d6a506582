#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "stats.h"
#include "trace.h"

namespace metaleak::e2e {
namespace {

SpanRecord Make(uint64_t id, uint64_t parent, int64_t start, int64_t end,
                uint32_t thread = 0, uint64_t request = 1) {
  SpanRecord s;
  s.name = "privacy.test";
  s.id = id;
  s.parent = parent;
  s.request = request;
  s.thread = thread;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(StatsTest, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({7.0}), 7.0);
}

// Reference values from Python's statistics.quantiles(xs, n=4).
TEST(StatsTest, QuartilesMatchPythonExclusiveMethod) {
  std::array<double, 3> q = Quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(q[0], 2.75);
  EXPECT_DOUBLE_EQ(q[1], 5.5);
  EXPECT_DOUBLE_EQ(q[2], 8.25);
  // Two samples extrapolate beyond the data, as Python does.
  q = Quartiles({10.0, 2.0});
  EXPECT_DOUBLE_EQ(q[0], 0.0);
  EXPECT_DOUBLE_EQ(q[1], 6.0);
  EXPECT_DOUBLE_EQ(q[2], 12.0);
  q = Quartiles({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(q[0], 1.5);
  EXPECT_DOUBLE_EQ(q[1], 3.0);
  EXPECT_DOUBLE_EQ(q[2], 4.5);
}

TEST(StatsTest, PercentileIsNearestRank) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  EXPECT_DOUBLE_EQ(Percentile(xs, 90.0), 90.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 99.0), 99.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(Percentile({5.0}, 50.0), 5.0);
}

TEST(StatsTest, TailPercentileNeedsTenSamplesBeyondIt) {
  EXPECT_FALSE(TailPercentile(0).has_value());
  EXPECT_FALSE(TailPercentile(20).has_value());
  EXPECT_FALSE(TailPercentile(99).has_value());
  ASSERT_TRUE(TailPercentile(100).has_value());
  EXPECT_DOUBLE_EQ(*TailPercentile(100), 90.0);
  EXPECT_DOUBLE_EQ(*TailPercentile(999), 90.0);
  EXPECT_DOUBLE_EQ(*TailPercentile(1000), 99.0);
  EXPECT_DOUBLE_EQ(*TailPercentile(10000), 99.9);
}

TEST(StatsTest, ModuleIsTheNamePrefix) {
  EXPECT_EQ(ModuleOf("privacy.estimator_bind.match_rate"), "privacy");
  EXPECT_EQ(ModuleOf("bench"), "bench");
}

TEST(StatsTest, SelfTimeSubtractsNestedChildren) {
  // root [0,100] > a [10,40] > b [20,30]; c [50,60] under root.
  std::vector<SpanRecord> spans = {Make(1, 0, 0, 100), Make(2, 1, 10, 40),
                                   Make(3, 2, 20, 30), Make(4, 1, 50, 60)};
  auto self = SelfTimesNs(spans);
  EXPECT_EQ(self.at(1), 100 - 30 - 10);
  EXPECT_EQ(self.at(2), 30 - 10);
  EXPECT_EQ(self.at(3), 10);
  EXPECT_EQ(self.at(4), 10);
  EXPECT_DOUBLE_EQ(Coverage(spans, self), 0.4);
}

TEST(StatsTest, SelfTimeCountsParallelChildrenOnce) {
  // Four rounds on four threads overlap inside [0,100]; their union is
  // [10,90], and the part of one child outside the parent is clipped.
  std::vector<SpanRecord> spans = {
      Make(1, 0, 0, 100),       Make(2, 1, 10, 50, 1), Make(3, 1, 20, 60, 2),
      Make(4, 1, 30, 90, 3),    Make(5, 1, 40, 70, 4), Make(6, 0, 200, 300),
      Make(7, 6, 250, 400, 1)};
  auto self = SelfTimesNs(spans);
  EXPECT_EQ(self.at(1), 20);
  EXPECT_EQ(self.at(2), 40);
  EXPECT_EQ(self.at(6), 50);
  EXPECT_DOUBLE_EQ(Coverage(spans, self), (80.0 + 50.0) / 200.0);
}

TEST(StatsTest, PerPassIsSetupPlusMedianRequest) {
  // Set-up contributes 5; requests total 1, 10 and 3 (request 3 twice);
  // request 4 has no entry and counts as 0.
  std::vector<std::pair<uint64_t, double>> entries = {
      {0, 5.0}, {1, 1.0}, {2, 10.0}, {3, 1.0}, {3, 2.0}};
  EXPECT_DOUBLE_EQ(PerPass(entries, {1, 2, 3}), 5.0 + 3.0);
  EXPECT_DOUBLE_EQ(PerPass(entries, {1, 2, 3, 4}), 5.0 + 2.0);
  EXPECT_DOUBLE_EQ(PerPass(entries, {}), 5.0);
}

TEST(TraceTest, SpansRecordParentsRequestsAndThreads) {
  ClearSpans();
  {
    AdoptContext request({0, 7});
    Span root("bench.request");
    {
      Span child("data.encode", 42);
    }
    const TraceContext fan_out = CurrentContext();
    std::thread worker([fan_out] {
      AdoptContext adopt(fan_out);
      Span remote("generation.generate.random");
    });
    worker.join();
  }
  std::vector<SpanRecord> spans = CollectSpans();
  ASSERT_EQ(spans.size(), 3u);
  const SpanRecord* root = nullptr;
  for (const SpanRecord& s : spans) {
    if (s.name == "bench.request") root = &s;
  }
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent, 0u);
  for (const SpanRecord& s : spans) {
    EXPECT_EQ(s.request, 7u);
    EXPECT_LE(s.start_ns, s.end_ns);
    if (&s == root) continue;
    EXPECT_EQ(s.parent, root->id);
    EXPECT_GE(s.start_ns, root->start_ns);
    EXPECT_LE(s.end_ns, root->end_ns);
    if (s.name == "data.encode") {
      EXPECT_EQ(s.rows, 42u);
      EXPECT_EQ(s.thread, root->thread);
    } else {
      EXPECT_NE(s.thread, root->thread);
    }
  }
  EXPECT_EQ(CurrentContext().parent, 0u);
  EXPECT_EQ(CurrentContext().request, 0u);
  ClearSpans();
  EXPECT_TRUE(CollectSpans().empty());
}

TEST(TraceTest, ChromeTraceWriterEmitsOneEventPerSpan) {
  std::vector<SpanRecord> spans = {Make(1, 0, 1000, 5000),
                                   Make(2, 1, 2000, 3500, 1)};
  spans[1].name = "data.\"quoted\"";
  const std::string path = ::testing::TempDir() + "/e2e_trace_" +
                           std::to_string(::getpid()) + ".json";
  ASSERT_TRUE(WriteChromeTrace(path, spans));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  std::remove(path.c_str());

  EXPECT_EQ(text.find("{\"displayTimeUnit\": \"ms\", \"traceEvents\": ["), 0u);
  size_t events = 0;
  for (size_t at = text.find("\"ph\": \"X\""); at != std::string::npos;
       at = text.find("\"ph\": \"X\"", at + 1)) {
    ++events;
  }
  EXPECT_EQ(events, 2u);
  // Microseconds relative to the earliest span.
  EXPECT_NE(text.find("\"ts\": 0.000, \"dur\": 4.000"), std::string::npos);
  EXPECT_NE(text.find("\"ts\": 1.000, \"dur\": 1.500"), std::string::npos);
  EXPECT_NE(text.find("\"cat\": \"privacy\""), std::string::npos);
  EXPECT_NE(text.find("data.\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(text.find("\"parent\": 1, \"request\": 1"), std::string::npos);
  EXPECT_EQ(text.substr(text.size() - 4), "\n]}\n");
  EXPECT_FALSE(WriteChromeTrace("/nonexistent-dir/trace.json", spans));
}

}  // namespace
}  // namespace metaleak::e2e
