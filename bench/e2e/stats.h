// Order statistics and span arithmetic for the end-to-end benchmark.
#ifndef METALEAK_BENCH_E2E_STATS_H_
#define METALEAK_BENCH_E2E_STATS_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "trace.h"

namespace metaleak::e2e {

/// Median (mean of the middle pair for an even count). Requires a
/// non-empty input.
double Median(std::vector<double> xs);

/// First, second and third quartiles by the "exclusive" method of
/// Python's statistics.quantiles(xs, n=4), the method the benchmark's
/// spread rule is stated in. Requires at least two samples.
std::array<double, 3> Quartiles(std::vector<double> xs);

/// Nearest-rank percentile: the ceil(p/100 * n)-th smallest sample.
/// Requires a non-empty input and 0 < p <= 100.
double Percentile(std::vector<double> xs, double p);

/// The highest of the 90th, 99th and 99.9th percentiles that keeps at
/// least ten of `n` samples beyond its rank, or nullopt when none does
/// (below 100 samples only the median is reported).
std::optional<double> TailPercentile(size_t n);

/// The module a span name belongs to: the text before the first '.'.
std::string ModuleOf(const std::string& name);

/// Self time of every span, keyed by span id: its duration minus the part
/// of its interval covered by the union of its children's intervals.
/// Children running in parallel on other threads count once.
std::unordered_map<uint64_t, int64_t> SelfTimesNs(
    const std::vector<SpanRecord>& spans);

/// Share of the root spans' wall time during which some child span was
/// open: 1 minus the roots' self time over their duration.
double Coverage(const std::vector<SpanRecord>& spans,
                const std::unordered_map<uint64_t, int64_t>& self_ns);

/// The value of one set-up plus one typical request: the total of the
/// entries of request 0 plus the median, over `requests`, of each
/// request's total (a request without entries counts as 0). Entries are
/// (request, value) pairs.
double PerPass(const std::vector<std::pair<uint64_t, double>>& entries,
               const std::vector<uint64_t>& requests);

}  // namespace metaleak::e2e

#endif  // METALEAK_BENCH_E2E_STATS_H_
